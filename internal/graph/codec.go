package graph

import (
	"encoding/json"
	"fmt"
	"sync"
)

// JSON wire codec for graphs, the request format of the serving subsystem
// (internal/serve). The wire form is deliberately minimal — a vertex count,
// an edge list, and optional categorical vertex labels — because that is
// exactly the information Enc_G consumes; everything else (CSR adjacency,
// sorted edge order) is derived on decode by the same constructor Builder
// uses, so a decoded graph is indistinguishable from one built in-process
// and the duplicate-edge / self-loop normalization rules are identical.
//
//	{"num_vertices": 4, "edges": [[0,1],[1,2],[2,3]], "vertex_labels": [0,1,0,1]}
//
// There are two decoders. GraphJSON (through encoding/json) accepts every
// JSON spelling of the form and names what is wrong with a bad one.
// DecodeCanonical reads predict request bodies in the one spelling
// json.Marshal produces straight into CSR, in a single pass; it declines
// everything else, and the caller falls back to GraphJSON, which stays the
// reference for what a body means.

// GraphJSON is the wire representation of a Graph.
type GraphJSON struct {
	// NumVertices is |V|; vertices are the integers [0, NumVertices).
	NumVertices int `json:"num_vertices"`
	// Edges lists undirected edges as [u, v] pairs. Order is free;
	// duplicates and self-loops are dropped on decode, matching Builder.
	Edges [][2]int `json:"edges"`
	// VertexLabels optionally carries one categorical label per vertex
	// (the labeled-graph extension). Omitted for unlabeled graphs.
	VertexLabels []int `json:"vertex_labels,omitempty"`
}

// CodecLimits bounds what a decoded graph may look like, protecting a
// server from hostile or accidental oversized payloads. The zero value
// applies DefaultCodecLimits. The vertex and label caps matter beyond
// payload size: an Encoder lazily materializes and permanently caches one
// basis hypervector per centrality rank (bounded by the largest vertex
// count ever seen) and per (rank, label) pair, so unbounded wire graphs
// would translate into unbounded server memory.
type CodecLimits struct {
	// MaxVertices caps NumVertices; non-positive selects the default.
	MaxVertices int
	// MaxEdges caps len(Edges); non-positive selects the default.
	MaxEdges int
	// MaxVertexLabel caps each vertex label value (labels are also
	// required to be non-negative); non-positive selects the default.
	MaxVertexLabel int
}

// DefaultCodecLimits are generous for graph-classification workloads —
// Table-I graphs average a few hundred vertices, and the Figure 4 scaling
// study tops out at ~10^4 — while keeping the worst-case basis-vector
// cache a server can be forced to populate modest (at d = 10,000,
// MaxVertices rank vectors cost ~d·9/8 bytes each, ~184 MB total).
var DefaultCodecLimits = CodecLimits{MaxVertices: 1 << 14, MaxEdges: 1 << 20, MaxVertexLabel: 1 << 16}

func (l CodecLimits) resolve() CodecLimits {
	if l.MaxVertices <= 0 {
		l.MaxVertices = DefaultCodecLimits.MaxVertices
	}
	if l.MaxEdges <= 0 {
		l.MaxEdges = DefaultCodecLimits.MaxEdges
	}
	if l.MaxVertexLabel <= 0 {
		l.MaxVertexLabel = DefaultCodecLimits.MaxVertexLabel
	}
	return l
}

// ToJSON converts g to its wire representation. The edge and label slices
// are freshly allocated; g is not retained.
func ToJSON(g *Graph) *GraphJSON {
	w := &GraphJSON{NumVertices: g.NumVertices(), Edges: make([][2]int, g.NumEdges())}
	for i, e := range g.Edges() {
		w.Edges[i] = [2]int{int(e.U), int(e.V)}
	}
	if g.Labeled() {
		w.VertexLabels = make([]int, g.NumVertices())
		for v := range w.VertexLabels {
			w.VertexLabels[v] = g.VertexLabel(v)
		}
	}
	return w
}

// Graph validates the wire form against limits and builds the immutable
// in-memory graph. Errors name the offending field so a server can return
// them to the client verbatim.
func (w *GraphJSON) Graph(limits CodecLimits) (*Graph, error) {
	limits = limits.resolve()
	if w.NumVertices < 0 {
		return nil, fmt.Errorf("graph: negative num_vertices %d", w.NumVertices)
	}
	if w.NumVertices > limits.MaxVertices {
		return nil, fmt.Errorf("graph: num_vertices %d exceeds limit %d", w.NumVertices, limits.MaxVertices)
	}
	if len(w.Edges) > limits.MaxEdges {
		return nil, fmt.Errorf("graph: %d edges exceed limit %d", len(w.Edges), limits.MaxEdges)
	}
	if w.VertexLabels != nil && len(w.VertexLabels) != w.NumVertices {
		return nil, fmt.Errorf("graph: %d vertex_labels for %d vertices", len(w.VertexLabels), w.NumVertices)
	}
	for v, l := range w.VertexLabels {
		if l < 0 || l > limits.MaxVertexLabel {
			return nil, fmt.Errorf("graph: vertex_labels[%d] = %d outside [0, %d]", v, l, limits.MaxVertexLabel)
		}
	}
	b := NewBuilder(w.NumVertices)
	for i, e := range w.Edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("graph: edges[%d]: %w", i, err)
		}
	}
	if w.VertexLabels != nil {
		if err := b.SetVertexLabels(w.VertexLabels); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// MarshalGraph writes g's wire form as JSON.
func MarshalGraph(g *Graph) ([]byte, error) {
	return json.Marshal(ToJSON(g))
}

// UnmarshalGraph parses a wire-form JSON document and builds the graph.
func UnmarshalGraph(data []byte, limits CodecLimits) (*Graph, error) {
	var w GraphJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("graph: decode JSON: %w", err)
	}
	return w.Graph(limits)
}

// DecodeCanonical reads a predict request body in canonical form: exactly
// {"graph": G} when batch is false, {"graphs": [G, …]} when it is true,
// with each G
//
//	{"num_vertices": n, "edges": [[u,v], …]}
//	{"num_vertices": n, "edges": [[u,v], …], "vertex_labels": [l, …]}
//
// — these lower-case keys without escapes, in this order, each once;
// non-negative integers without sign, fraction or exponent, exactly two
// per edge; JSON whitespace anywhere between tokens and nothing else after
// the closing brace. limits are checked while reading, so nothing is
// allocated past them. ok is false for every other input, including any
// that GraphJSON.Graph would reject; the graphs of an accepted body equal
// GraphJSON.Graph's and share no memory with data.
func DecodeCanonical(data []byte, batch bool, limits CodecLimits) (graphs []*Graph, ok bool) {
	kp := keyPool.Get().(*[]uint64)
	r := wireReader{data: data, limits: limits.resolve(), keys: *kp}
	defer func() {
		*kp = r.keys[:0]
		keyPool.Put(kp)
	}()
	if !r.next('{') {
		return nil, false
	}
	if batch {
		graphs = []*Graph{}
		ok = r.key("graphs") && r.array(func() bool {
			g, ok := r.graph()
			graphs = append(graphs, g)
			return ok
		})
	} else if ok = r.key("graph"); ok {
		var g *Graph
		g, ok = r.graph()
		graphs = []*Graph{g}
	}
	if !ok || !r.next('}') {
		return nil, false
	}
	r.space()
	return graphs, r.pos == len(data)
}

// keyPool recycles DecodeCanonical's edge-key scratch across requests.
var keyPool = sync.Pool{New: func() any { return new([]uint64) }}

// wireReader is DecodeCanonical's cursor over a request body.
type wireReader struct {
	data   []byte
	pos    int
	limits CodecLimits
	keys   []uint64 // the current graph's edge keys, reused across graphs
}

// graph reads one canonical G.
func (r *wireReader) graph() (*Graph, bool) {
	if !r.next('{') || !r.key("num_vertices") {
		return nil, false
	}
	n, ok := r.uint(r.limits.MaxVertices)
	if !ok || !r.next(',') || !r.key("edges") {
		return nil, false
	}
	r.keys = r.keys[:0]
	edges := 0
	if !r.array(func() bool {
		if edges++; edges > r.limits.MaxEdges || !r.next('[') {
			return false
		}
		u, ok := r.uint(n - 1)
		if !ok || !r.next(',') {
			return false
		}
		v, ok := r.uint(n - 1)
		if !ok || !r.next(']') {
			return false
		}
		if u != v {
			r.keys = append(r.keys, edgeKey(u, v))
		}
		return true
	}) {
		return nil, false
	}
	var labels []int
	if r.next(',') {
		if !r.key("vertex_labels") {
			return nil, false
		}
		labels = make([]int, 0, n)
		if !r.array(func() bool {
			l, ok := r.uint(r.limits.MaxVertexLabel)
			if !ok || len(labels) == n {
				return false
			}
			labels = append(labels, l)
			return true
		}) || len(labels) != n {
			return nil, false
		}
	}
	if !r.next('}') {
		return nil, false
	}
	return newGraph(n, r.keys, labels), true
}

// array reads a JSON array, calling elem to read each element.
func (r *wireReader) array(elem func() bool) bool {
	if !r.next('[') {
		return false
	}
	if r.next(']') {
		return true
	}
	for elem() {
		if r.next(']') {
			return true
		}
		if !r.next(',') {
			return false
		}
	}
	return false
}

// key reads the object key k, unescaped, and its colon.
func (r *wireReader) key(k string) bool {
	r.space()
	rest := r.data[r.pos:]
	if len(rest) < len(k)+2 || rest[0] != '"' || string(rest[1:1+len(k)]) != k || rest[1+len(k)] != '"' {
		return false
	}
	r.pos += len(k) + 2
	return r.next(':')
}

// uint reads an integer in [0, max]. Nine digits at most keep the value
// within int on every platform; a longer number is declined.
func (r *wireReader) uint(max int) (int, bool) {
	r.space()
	v, i := 0, r.pos
	for ; i < len(r.data) && i-r.pos < 9 && '0' <= r.data[i] && r.data[i] <= '9'; i++ {
		v = v*10 + int(r.data[i]-'0')
	}
	if i == r.pos || v > max || (r.data[r.pos] == '0' && i-r.pos > 1) {
		return 0, false
	}
	r.pos = i
	return v, true
}

// next skips whitespace and consumes c if it comes next.
func (r *wireReader) next(c byte) bool {
	r.space()
	if r.pos < len(r.data) && r.data[r.pos] == c {
		r.pos++
		return true
	}
	return false
}

// space skips JSON whitespace.
func (r *wireReader) space() {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}
