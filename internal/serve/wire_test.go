package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"graphhd/internal/graph"
)

// wireLimits are the codec limits of the wire tests: small enough that
// every limit is cheap to cross.
var wireLimits = graph.CodecLimits{MaxVertices: 50, MaxEdges: 8, MaxVertexLabel: 5}

// postRaw posts body verbatim and returns the status and response body.
func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

// errorBody is the exact error response the handler writes for msg.
func errorBody(msg string) string {
	var b bytes.Buffer
	json.NewEncoder(&b).Encode(errorResponse{Error: msg})
	return b.String()
}

// TestHTTPWireTable sends bodies the canonical reader declines, plus
// canonical ones, and requires each to answer exactly as the
// encoding/json decoder answers: a body that decodes to a valid graph gets
// the same response as the canonical spelling of that graph (same), and
// every other body gets the error encoding/json and GraphJSON.Graph give it.
func TestHTTPWireTable(t *testing.T) {
	pred, _ := testModel(t, 1024, 1)
	srv, _ := startTestServer(t, pred, HandlerOptions{Limits: wireLimits, MaxBodyBytes: 512})

	const (
		p  = "/v1/predict"
		pb = "/v1/predict/batch"
		g2 = `{"num_vertices":2,"edges":[[0,1]]}`
	)
	cases := []struct {
		name, path, body string
		// same is the canonical body that must get an identical answer;
		// when empty, the answer must be 400 with error errMsg.
		same, errMsg string
	}{
		{name: "canonical", path: p, body: `{"graph":` + g2 + `}`, same: `{"graph":` + g2 + `}`},
		{name: "pretty-printed", path: pb,
			body: "{\n  \"graphs\": [\n    {\n      \"num_vertices\": 3,\n      \"edges\": [\n        [2, 0],\n        [0, 1]\n      ]\n    }\n  ]\n}\n",
			same: `{"graphs":[{"num_vertices":3,"edges":[[0,2],[0,1]]}]}`},
		{name: "unknown key", path: p, body: `{"graph":{"num_vertices":2,"edges":[[0,1]],"weights":[1]}}`, same: `{"graph":` + g2 + `}`},
		{name: "unknown envelope key", path: p, body: `{"graph":` + g2 + `,"graphs":[]}`, same: `{"graph":` + g2 + `}`},
		{name: "upper-case key", path: p, body: `{"graph":{"NUM_VERTICES":2,"edges":[[0,1]]}}`, same: `{"graph":` + g2 + `}`},
		{name: "escaped key", path: p, body: `{"graph":{"num\u005fvertices":2,"edges":[[0,1]]}}`, same: `{"graph":` + g2 + `}`},
		{name: "fraction", path: p, body: `{"graph":{"num_vertices":1.0,"edges":[]}}`,
			errMsg: "serve: decode request: json: cannot unmarshal number 1.0 into Go struct field GraphJSON.graph.num_vertices of type int"},
		{name: "exponent", path: p, body: `{"graph":{"num_vertices":1e0,"edges":[]}}`,
			errMsg: "serve: decode request: json: cannot unmarshal number 1e0 into Go struct field GraphJSON.graph.num_vertices of type int"},
		{name: "minus zero", path: p, body: `{"graph":{"num_vertices":2,"edges":[[-0,1]]}}`, same: `{"graph":` + g2 + `}`},
		{name: "one-element edge", path: p, body: `{"graph":{"num_vertices":2,"edges":[[1]]}}`, same: `{"graph":` + g2 + `}`},
		{name: "three-element edge", path: p, body: `{"graph":{"num_vertices":2,"edges":[[1,0,1]]}}`, same: `{"graph":` + g2 + `}`},
		{name: "null graph", path: p, body: `{"graph":null}`, errMsg: "serve: missing graph"},
		{name: "null batch element", path: pb, body: `{"graphs":[` + g2 + `,null]}`, errMsg: "graphs[1]: serve: missing graph"},
		{name: "edges before num_vertices", path: p, body: `{"graph":{"edges":[[0,1]],"num_vertices":2}}`, same: `{"graph":` + g2 + `}`},
		{name: "duplicate key", path: p, body: `{"graph":{"num_vertices":5,"num_vertices":2,"edges":[[0,1]]}}`, same: `{"graph":` + g2 + `}`},
		{name: "trailing garbage", path: p, body: `{"graph":` + g2 + `} trailing`, same: `{"graph":` + g2 + `}`},
		{name: "empty body", path: p, body: ``, errMsg: "serve: decode request: EOF"},
		{name: "over vertex limit", path: p, body: `{"graph":{"num_vertices":51,"edges":[]}}`,
			errMsg: "graph: num_vertices 51 exceeds limit 50"},
		{name: "negative vertices", path: p, body: `{"graph":{"num_vertices":-1,"edges":[]}}`,
			errMsg: "graph: negative num_vertices -1"},
		{name: "over edge limit", path: pb,
			body:   `{"graphs":[` + g2 + `,{"num_vertices":3,"edges":[[0,1],[0,1],[0,1],[0,1],[0,1],[0,1],[0,1],[0,1],[1,1]]}]}`,
			errMsg: "graphs[1]: graph: 9 edges exceed limit 8"},
		{name: "edge out of range", path: p, body: `{"graph":{"num_vertices":2,"edges":[[0,2]]}}`,
			errMsg: "graph: edges[0]: graph: edge (0,2) out of range [0,2)"},
		{name: "label over limit", path: p, body: `{"graph":{"num_vertices":2,"edges":[],"vertex_labels":[0,6]}}`,
			errMsg: "graph: vertex_labels[1] = 6 outside [0, 5]"},
		{name: "label count", path: p, body: `{"graph":{"num_vertices":2,"edges":[],"vertex_labels":[0]}}`,
			errMsg: "graph: 1 vertex_labels for 2 vertices"},
		{name: "body over limit", path: p,
			body:   `{"graph":{"num_vertices":2,"edges":[` + strings.Repeat(`[0,1],`, 100) + `[0,1]]}}`,
			errMsg: "serve: decode request: http: request body too large"},
		{name: "labels to unlabeled model", path: p, body: `{"graph":{"num_vertices":2,"edges":[[0,1]],"vertex_labels":[1,2]}}`,
			errMsg: "serve: vertex_labels supplied but the loaded model does not use vertex labels"},
		{name: "labels to unlabeled model, batch", path: pb,
			body:   `{"graphs":[` + g2 + `,{"num_vertices":1,"edges":[],"vertex_labels":[0]}]}`,
			errMsg: "graphs[1]: serve: vertex_labels supplied but the loaded model does not use vertex labels"},
	}
	for _, tc := range cases {
		status, body := postRaw(t, srv.URL+tc.path, tc.body)
		wantStatus, wantBody := http.StatusBadRequest, errorBody(tc.errMsg)
		if tc.same != "" {
			wantStatus, wantBody = postRaw(t, srv.URL+tc.path, tc.same)
			if wantStatus != http.StatusOK {
				t.Fatalf("%s: canonical body answered %d: %s", tc.name, wantStatus, wantBody)
			}
		}
		if status != wantStatus || body != wantBody {
			t.Errorf("%s: got %d %q, want %d %q", tc.name, status, body, wantStatus, wantBody)
		}
	}
}

// TestHTTPBodyOverLimit pins the one answer the single-read body changed:
// a body past MaxBodyBytes is refused with 400 even when a complete JSON
// value precedes the cut, which a streaming decoder would have served.
func TestHTTPBodyOverLimit(t *testing.T) {
	pred, _ := testModel(t, 1024, 1)
	srv, _ := startTestServer(t, pred, HandlerOptions{MaxBodyBytes: 64})
	body := `{"graph":{"num_vertices":2,"edges":[[0,1]]}}`
	if status, _ := postRaw(t, srv.URL+"/v1/predict", body); status != http.StatusOK {
		t.Fatalf("body under the limit: status %d", status)
	}
	status, out := postRaw(t, srv.URL+"/v1/predict", body+strings.Repeat(" ", 64))
	if want := errorBody("serve: decode request: http: request body too large"); status != http.StatusBadRequest || out != want {
		t.Fatalf("body over the limit: got %d %q, want 400 %q", status, out, want)
	}
}
