package graph

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestGraphJSONRoundTrip(t *testing.T) {
	b := NewBuilder(5)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	b.MustAddEdge(3, 4)
	g := b.Build()

	data, err := MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalGraph(data, CodecLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: got %v want %v", back, g)
	}
	for i, e := range back.Edges() {
		if e != g.Edges()[i] {
			t.Fatalf("edge %d: got %v want %v", i, e, g.Edges()[i])
		}
	}
	if back.Labeled() {
		t.Fatal("unlabeled graph came back labeled")
	}
}

func TestGraphJSONRoundTripLabeled(t *testing.T) {
	b := NewBuilder(3)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(1, 2)
	if err := b.SetVertexLabels([]int{7, 8, 7}); err != nil {
		t.Fatal(err)
	}
	g := b.Build()

	data, err := MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "vertex_labels") {
		t.Fatalf("labels missing from wire form %s", data)
	}
	back, err := UnmarshalGraph(data, CodecLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if !back.Labeled() {
		t.Fatal("labels lost in round trip")
	}
	for v := 0; v < g.NumVertices(); v++ {
		if back.VertexLabel(v) != g.VertexLabel(v) {
			t.Fatalf("vertex %d label: got %d want %d", v, back.VertexLabel(v), g.VertexLabel(v))
		}
	}
}

func TestGraphJSONNormalizesLikeBuilder(t *testing.T) {
	// Duplicates, reversed orientation and self-loops all normalize away,
	// exactly as Builder.AddEdge does.
	g, err := UnmarshalGraph([]byte(`{"num_vertices":3,"edges":[[1,0],[0,1],[2,2],[1,2]]}`), CodecLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("got %d edges, want 2", g.NumEdges())
	}
}

func TestGraphJSONRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		lim  CodecLimits
	}{
		{"negative vertices", `{"num_vertices":-1,"edges":[]}`, CodecLimits{}},
		{"edge out of range", `{"num_vertices":2,"edges":[[0,2]]}`, CodecLimits{}},
		{"negative endpoint", `{"num_vertices":2,"edges":[[-1,0]]}`, CodecLimits{}},
		{"label count mismatch", `{"num_vertices":2,"edges":[],"vertex_labels":[1]}`, CodecLimits{}},
		{"too many vertices", `{"num_vertices":100,"edges":[]}`, CodecLimits{MaxVertices: 10}},
		{"too many edges", `{"num_vertices":3,"edges":[[0,1],[1,2]]}`, CodecLimits{MaxEdges: 1}},
		{"negative label", `{"num_vertices":1,"edges":[],"vertex_labels":[-1]}`, CodecLimits{}},
		{"label over limit", `{"num_vertices":1,"edges":[],"vertex_labels":[9]}`, CodecLimits{MaxVertexLabel: 8}},
		{"not JSON", `{`, CodecLimits{}},
	}
	for _, tc := range cases {
		if _, err := UnmarshalGraph([]byte(tc.doc), tc.lim); err == nil {
			t.Errorf("%s: decode succeeded, want error", tc.name)
		}
	}
}

func TestGraphJSONEmptyGraph(t *testing.T) {
	g, err := UnmarshalGraph([]byte(`{"num_vertices":0,"edges":[]}`), CodecLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph decoded as %v", g)
	}
	// And it re-encodes to valid JSON.
	if _, err := json.Marshal(ToJSON(g)); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeGraphReader reads single and batch predict bodies, compact and
// pretty-printed, with the canonical reader and requires the graphs
// UnmarshalGraph builds from the same wire graphs.
func TestDecodeGraphReader(t *testing.T) {
	a := `{"num_vertices":4,"edges":[[3,0],[0,1],[1,0],[2,2],[1,2]]}`
	b := `{"num_vertices":3,"edges":[[0,2]],"vertex_labels":[4,0,4]}`
	cases := []struct {
		body  string
		batch bool
		want  []string
	}{
		{`{"graph":` + a + `}`, false, []string{a}},
		{`{"graphs":[` + a + `,` + b + `]}`, true, []string{a, b}},
		{"{\n  \"graphs\": [\n    {\n      \"num_vertices\": 3,\n      \"edges\": [ [0, 2] ],\n" +
			"      \"vertex_labels\": [4, 0, 4]\n    }\n  ]\n}\n", true, []string{b}},
		{`{"graphs":[]}`, true, nil},
	}
	for _, tc := range cases {
		body := []byte(tc.body)
		got, ok := DecodeCanonical(body, tc.batch, CodecLimits{})
		if !ok {
			t.Fatalf("reader declined %s", tc.body)
		}
		// Graphs must not alias the body or the pooled edge-key scratch:
		// callers recycle both while the graphs live on.
		for i := range body {
			body[i] = '9'
		}
		DecodeCanonical([]byte(`{"graph":{"num_vertices":9,"edges":[[8,7],[6,5],[4,3],[2,1]]}}`), false, CodecLimits{})
		if got == nil || len(got) != len(tc.want) {
			t.Fatalf("%s: got %d graphs, want %d", tc.body, len(got), len(tc.want))
		}
		for i, w := range tc.want {
			want, err := UnmarshalGraph([]byte(w), CodecLimits{})
			if err != nil {
				t.Fatal(err)
			}
			requireSameGraph(t, got[i], want)
			requireCSR(t, got[i])
		}
	}
	// The other route's envelope is declined, not misread.
	if _, ok := DecodeCanonical([]byte(`{"graphs":[`+a+`]}`), false, CodecLimits{}); ok {
		t.Fatal("single-graph read accepted a batch body")
	}
	if _, ok := DecodeCanonical([]byte(`{"graph":`+a+`}`), true, CodecLimits{}); ok {
		t.Fatal("batch read accepted a single-graph body")
	}
}
