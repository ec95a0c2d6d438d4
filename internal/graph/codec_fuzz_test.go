package graph

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzGraphCodec is the differential fuzz target for the JSON wire codec,
// the byte surface the serving subsystem exposes to untrusted clients.
// Arbitrary bytes are decoded under both the default and a deliberately
// tight CodecLimits; whatever the input, decoding must never panic, limit
// violations must surface as errors, and any accepted graph must satisfy
// the decode→encode→decode fixpoint: re-encoding the decoded graph and
// decoding it again reproduces the same wire bytes and the same graph.
// (The first encode is not compared to the input — the wire form is not
// canonical: key order, whitespace, duplicate edges and self-loops all
// normalize on decode.)
//
// Run with `go test -fuzz FuzzGraphCodec ./internal/graph` for continuous
// fuzzing; the seed corpus under testdata/fuzz/FuzzGraphCodec plus the
// f.Add seeds run in normal test mode.
func FuzzGraphCodec(f *testing.F) {
	f.Add([]byte(`{"num_vertices":4,"edges":[[0,1],[1,2],[2,3]]}`))
	f.Add([]byte(`{"num_vertices":3,"edges":[[0,1],[1,0],[2,2]],"vertex_labels":[5,0,7]}`))
	f.Add([]byte(`{"num_vertices":0,"edges":[]}`))
	f.Add([]byte(`{"num_vertices":-1}`))
	f.Add([]byte(`{"num_vertices":1e99}`))
	f.Add([]byte(`{"edges":[[0,0,0]]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"num_vertices":2,"vertex_labels":[1]}`))
	tight := CodecLimits{MaxVertices: 6, MaxEdges: 4, MaxVertexLabel: 3}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, limits := range []CodecLimits{{}, tight} {
			g, err := UnmarshalGraph(data, limits)
			if err != nil {
				continue // rejected inputs must only ever error, not panic
			}
			resolved := limits.resolve()
			if g.NumVertices() > resolved.MaxVertices {
				t.Fatalf("accepted graph with %d vertices over limit %d", g.NumVertices(), resolved.MaxVertices)
			}
			if g.NumEdges() > resolved.MaxEdges {
				t.Fatalf("accepted graph with %d edges over limit %d", g.NumEdges(), resolved.MaxEdges)
			}
			wire1, err := MarshalGraph(g)
			if err != nil {
				t.Fatalf("re-encoding accepted graph: %v", err)
			}
			g2, err := UnmarshalGraph(wire1, limits)
			if err != nil {
				t.Fatalf("decoding own encoding under the same limits: %v\nwire: %s", err, wire1)
			}
			wire2, err := MarshalGraph(g2)
			if err != nil {
				t.Fatalf("re-encoding round-tripped graph: %v", err)
			}
			if !bytes.Equal(wire1, wire2) {
				t.Fatalf("encode/decode fixpoint violated:\nfirst:  %s\nsecond: %s", wire1, wire2)
			}
			if !graphsEqual(g, g2) {
				t.Fatalf("round-tripped graph differs from original\nwire: %s", wire1)
			}
		}
	})
}

// graphsEqual compares vertex counts, edge lists and labels.
func graphsEqual(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			return false
		}
	}
	// Labeledness may legitimately differ for the empty-label edge case
	// (omitempty drops a zero-length label list), but per-vertex labels
	// must agree whenever there are vertices.
	for v := 0; v < a.NumVertices(); v++ {
		if a.VertexLabel(v) != b.VertexLabel(v) {
			return false
		}
	}
	return true
}

// FuzzCanonicalReader is the differential fuzz target for DecodeCanonical
// against the encoding/json path it stands in for. Each input X is wrapped
// as {"graph": X} and as {"graphs": [X, X]} and read under the default and
// a tight CodecLimits. Whenever the reader accepts, its graphs must equal
// encoding/json + GraphJSON.Graph — vertices, Edges(), every Neighbors(v)
// and labels — and satisfy the CSR invariants; whenever that path errors,
// the reader must have declined. The seeds are FuzzGraphCodec's checked-in
// corpus.
func FuzzCanonicalReader(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzGraphCodec", "*"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no FuzzGraphCodec corpus: %v", err)
	}
	for _, file := range files {
		f.Add(readCorpusBytes(f, file))
	}
	tight := CodecLimits{MaxVertices: 6, MaxEdges: 4, MaxVertexLabel: 3}
	f.Fuzz(func(t *testing.T, x []byte) {
		for _, limits := range []CodecLimits{{}, tight} {
			single := append(append([]byte(`{"graph":`), x...), '}')
			batch := append(append(append(append([]byte(`{"graphs":[`), x...), ','), x...), ']', '}')
			checkCanonical(t, single, false, limits)
			checkCanonical(t, batch, true, limits)
		}
	})
}

// checkCanonical decodes body with DecodeCanonical and with encoding/json
// + GraphJSON.Graph and requires them to agree wherever the reader accepts.
func checkCanonical(t *testing.T, body []byte, batch bool, limits CodecLimits) {
	t.Helper()
	got, ok := DecodeCanonical(body, batch, limits)
	var wire []*GraphJSON
	var err error
	if batch {
		var req struct {
			Graphs []*GraphJSON `json:"graphs"`
		}
		err = json.Unmarshal(body, &req)
		wire = req.Graphs
	} else {
		var req struct {
			Graph *GraphJSON `json:"graph"`
		}
		err = json.Unmarshal(body, &req)
		wire = []*GraphJSON{req.Graph}
	}
	var want []*Graph
	for _, w := range wire {
		if err != nil {
			break
		}
		if w == nil {
			err = errors.New("missing graph")
			break
		}
		var g *Graph
		g, err = w.Graph(limits)
		want = append(want, g)
	}
	if !ok {
		return
	}
	if err != nil {
		t.Fatalf("reader accepted a body encoding/json rejects (%v):\n%s", err, body)
	}
	if len(got) != len(want) {
		t.Fatalf("reader read %d graphs, encoding/json %d:\n%s", len(got), len(want), body)
	}
	for i := range got {
		requireSameGraph(t, got[i], want[i])
		requireCSR(t, got[i])
	}
}

// requireSameGraph requires identical vertex counts, edge lists, adjacency
// lists and labels.
func requireSameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.Labeled() != want.Labeled() ||
		!slices.Equal(got.Edges(), want.Edges()) {
		t.Fatalf("graph %v (labeled %v, edges %v), want %v (labeled %v, edges %v)",
			got, got.Labeled(), got.Edges(), want, want.Labeled(), want.Edges())
	}
	for v := 0; v < got.NumVertices(); v++ {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) || got.VertexLabel(v) != want.VertexLabel(v) {
			t.Fatalf("vertex %d: neighbors %v label %d, want %v label %d",
				v, got.Neighbors(v), got.VertexLabel(v), want.Neighbors(v), want.VertexLabel(v))
		}
	}
}

// requireCSR checks the Graph invariants: edges sorted and unique with
// U < V, every adjacency list strictly sorted, and the adjacency lists
// holding each edge once from each end and nothing else.
func requireCSR(t *testing.T, g *Graph) {
	t.Helper()
	es := g.Edges()
	for i, e := range es {
		if e.U >= e.V || e.U < 0 || int(e.V) >= g.NumVertices() {
			t.Fatalf("edge %v not oriented in range", e)
		}
		if i > 0 && (es[i-1].U > e.U || es[i-1].U == e.U && es[i-1].V >= e.V) {
			t.Fatalf("edges %v, %v out of order or duplicated", es[i-1], e)
		}
		if !g.HasEdge(int(e.U), int(e.V)) || !g.HasEdge(int(e.V), int(e.U)) {
			t.Fatalf("edge %v missing from an adjacency list", e)
		}
	}
	degrees := 0
	for v := 0; v < g.NumVertices(); v++ {
		ns := g.Neighbors(v)
		for i := 1; i < len(ns); i++ {
			if ns[i-1] >= ns[i] {
				t.Fatalf("neighbors of %d not strictly sorted: %v", v, ns)
			}
		}
		degrees += len(ns)
	}
	if degrees != 2*len(es) {
		t.Fatalf("degree sum %d, want %d", degrees, 2*len(es))
	}
}

// readCorpusBytes reads the single []byte value of a "go test fuzz v1"
// corpus file.
func readCorpusBytes(f *testing.F, path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		f.Fatalf("%s: not a one-value []byte corpus file", path)
	}
	v, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		f.Fatalf("%s: %v", path, err)
	}
	return []byte(v)
}
