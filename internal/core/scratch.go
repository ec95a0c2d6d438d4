package core

import (
	"fmt"
	"slices"

	"graphhd/internal/centrality"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

// EncoderScratch holds every reusable buffer one encoding goroutine needs:
// the centrality scratch (PageRank power-iteration vectors and the rank
// sort order), the rank slice, the SWAR majority counter, the rank-pair
// buffers and the output hypervectors. Once its buffers have grown to the
// largest batch seen, encoding and predicting unlabeled graphs with edges
// performs zero heap allocations.
//
// Encoding runs in two phases over a slice of graphs — a single-graph
// call is a one-graph slice:
//
//   - Rank phase (rankAll): each graph's centrality ranks become one
//     sorted segment of packed (minRank, maxRank) keys, keys[keyOff[i]:
//     keyOff[i+1]], and one basis-table snapshot covers the whole slice.
//   - Encode phase (group + signInto / fillCounter): a segment is
//     run-length-grouped into hdc.XorPairs read from the snapshot and
//     accumulated at the counter's current width.
//
// The grouping exploits the paper's structure instead of walking edges
// one by one: an edge's bind vector depends only on the unordered
// (rank_u, rank_v) pair of its endpoints (XNOR is commutative), so edges
// are grouped by rank pair in sorted rank order. Multiplicity-1 pairs —
// all of them, for simple graphs under bijective centrality ranks — feed
// the blocked carry-save kernels; the rare multiplicity-grouped pairs go
// through AddXorWeighted. Bundling counts are exact integer sums, so the
// encoding is bit-for-bit identical to the per-edge scalar path. Every
// input of the encode phase is width-independent, which is what lets the
// cascade re-sign a graph at full width without ranking it again.
//
// Obtain one from Encoder.NewScratch (or implicitly through the Encoder
// and Predictor APIs, which vend pooled scratches per call or per chunk).
// A scratch is bound to its encoder and is not safe for concurrent use;
// each goroutine owns its own. Results returned by the scratch's methods
// live in its buffers and are only valid until the next call on it.
type EncoderScratch struct {
	enc     *Encoder
	cent    centrality.Scratch
	ranks   []int
	counter *hdc.BitCounter
	packed  *hdc.Binary
	bipolar *hdc.Bipolar

	// Rank phase: per-graph sorted key segments (empty for graphs outside
	// the packed fast path) and the basis snapshot they index.
	keys   []uint64
	keyOff []int
	basis  []*hdc.Binary

	// Encode phase: one segment's multiplicity-1 pairs and its rare
	// multiplicity-grouped ones.
	pairs  []hdc.XorPair
	wPairs []hdc.XorPair
	wMults []int32

	// PredictInto worklists: per-graph sign buffers at width outsD
	// (rebuilt only when the width changes), the graphs the classify
	// phase escalates, and the graphs outside the packed fast path.
	outs   []*hdc.Binary
	outsD  int
	escIdx []int32
	fbIdx  []int32

	// pout is the reusable output of EncodeGraphPackedPrefix; it
	// re-allocates only when the requested width changes.
	pout *hdc.Binary
}

// NewScratch returns a fresh scratch bound to e, for callers that manage
// per-goroutine reuse themselves (serving workers, the benchmark
// harness). Everything else can rely on the pooled scratches behind
// EncodeGraph / EncodeGraphPacked / Ranks.
func (e *Encoder) NewScratch() *EncoderScratch {
	d := e.cfg.Dimension
	return &EncoderScratch{
		enc:     e,
		counter: hdc.NewBitCounter(d),
		packed:  hdc.NewBinary(d),
		bipolar: hdc.NewBipolar(d),
	}
}

// getScratch vends a pooled scratch; return it with putScratch. The pool
// keeps per-P free lists, so steady-state Get/Put allocates nothing.
func (e *Encoder) getScratch() *EncoderScratch {
	return e.scratch.Get().(*EncoderScratch)
}

func (e *Encoder) putScratch(s *EncoderScratch) { e.scratch.Put(s) }

// Ranks computes the centrality ranks of g's vertices into the scratch's
// reusable slice. The result is valid until the next call on s.
func (s *EncoderScratch) Ranks(g *graph.Graph) []int {
	e := s.enc
	s.ranks = centrality.RanksInto(g, e.cfg.Centrality, centrality.Options{
		Iterations: e.prOpts.Iterations,
		Damping:    e.prOpts.Damping,
	}, s.ranks, &s.cent)
	return s.ranks
}

// rankAll is the rank phase: it appends one sorted rank-pair key segment
// per graph and snapshots the basis table once for the whole slice.
// Graphs outside the packed fast path — the labeled extension and
// edgeless graphs, see Encoder.EncodeGraph — get an empty segment.
func (s *EncoderScratch) rankAll(graphs []*graph.Graph) {
	e := s.enc
	s.keys = s.keys[:0]
	s.keyOff = append(s.keyOff[:0], 0)
	maxN := 0
	for _, g := range graphs {
		if !(e.cfg.UseVertexLabels && g.Labeled()) && g.NumEdges() > 0 {
			maxN = max(maxN, g.NumVertices())
			ranks := s.Ranks(g)
			lo := len(s.keys)
			for _, ed := range g.Edges() {
				ru, rv := ranks[ed.U], ranks[ed.V]
				if ru > rv {
					ru, rv = rv, ru
				}
				s.keys = append(s.keys, uint64(ru)<<32|uint64(uint32(rv)))
			}
			slices.Sort(s.keys[lo:])
		}
		s.keyOff = append(s.keyOff, len(s.keys))
	}
	// One lock round for the whole slice; entries are immutable, so the
	// snapshot stays valid after later growth.
	s.basis = e.packedSlice(maxN)
}

// rankOne is rankAll over the one-graph slice {g}.
func (s *EncoderScratch) rankOne(g *graph.Graph) {
	one := [1]*graph.Graph{g}
	s.rankAll(one[:])
}

// group is the encode phase's grouping step: it run-length-walks graph
// gi's sorted key segment into s.pairs (multiplicity 1) and
// s.wPairs/s.wMults (grouped), each pair the XNOR of two basis vectors.
// Reports false for an empty segment (a graph outside the fast path).
func (s *EncoderScratch) group(gi int) bool {
	seg := s.keys[s.keyOff[gi]:s.keyOff[gi+1]]
	if len(seg) == 0 {
		return false
	}
	pairs, wPairs, wMults := s.pairs[:0], s.wPairs[:0], s.wMults[:0]
	for i := 0; i < len(seg); {
		j := i + 1
		for j < len(seg) && seg[j] == seg[i] {
			j++
		}
		// XNOR of the packed endpoints is exactly the bipolar product
		// under the bit 1 ↔ +1 mapping.
		p := hdc.XorPair{A: s.basis[seg[i]>>32], B: s.basis[uint32(seg[i])], Invert: true}
		if j-i == 1 {
			pairs = append(pairs, p)
		} else {
			wPairs = append(wPairs, p)
			wMults = append(wMults, int32(j-i))
		}
		i = j
	}
	s.pairs, s.wPairs, s.wMults = pairs, wPairs, wMults
	return true
}

// feed accumulates the grouped pairs into the reset scratch counter at
// its current width.
func (s *EncoderScratch) feed() {
	c := s.counter
	c.Reset()
	c.AddXorPairs(s.pairs)
	for i, p := range s.wPairs {
		c.AddXorWeighted(p.A, p.B, p.Invert, int(s.wMults[i]))
	}
}

// fillCounter is group + feed, reporting whether the fast path applies.
func (s *EncoderScratch) fillCounter(gi int) bool {
	if !s.group(gi) {
		return false
	}
	s.feed()
	return true
}

// signInto encodes graph gi into dst at the counter's current width
// (dst must have that width), reporting whether the fast path applies.
// Bundles of up to hdc.MaxSmallSign unit-multiplicity pairs — the common
// serving case — skip the counter tiers through the one-shot bit-sliced
// majority kernel.
func (s *EncoderScratch) signInto(gi int, dst *hdc.Binary) bool {
	if !s.group(gi) {
		return false
	}
	if len(s.wPairs) == 0 && len(s.pairs) <= hdc.MaxSmallSign {
		s.counter.SignXorPairsSmallInto(s.pairs, s.enc.packedTie, dst)
		return true
	}
	s.feed()
	s.counter.SignBinaryInto(s.enc.packedTie, dst)
	return true
}

// outBufs returns n reusable d-dimensional sign buffers, one per batch
// graph. They are rebuilt only when the width changes (a hot swap to a
// model with a different cascade prefix).
func (s *EncoderScratch) outBufs(d, n int) []*hdc.Binary {
	if s.outsD != d {
		s.outs = s.outs[:0]
		s.outsD = d
	}
	for len(s.outs) < n {
		s.outs = append(s.outs, hdc.NewBinary(d))
	}
	return s.outs[:n]
}

// EncodeGraph is Encoder.EncodeGraph writing into the scratch's reusable
// bipolar hypervector on the fast path; the result is valid until the next
// call on s. (The labeled-extension and edgeless fallbacks still return a
// freshly allocated vector — they are off the hot path by construction.)
func (s *EncoderScratch) EncodeGraph(g *graph.Graph) *hdc.Bipolar {
	s.rankOne(g)
	if s.fillCounter(0) {
		return s.counter.SignBipolarInto(s.enc.tie, s.bipolar)
	}
	return s.enc.encodeGraphSlow(g)
}

// EncodeGraphPacked is Encoder.EncodeGraphPacked writing into the
// scratch's reusable packed hypervector on the fast path; the result is
// valid until the next call on s.
func (s *EncoderScratch) EncodeGraphPacked(g *graph.Graph) *hdc.Binary {
	s.rankOne(g)
	if s.signInto(0, s.packed) {
		return s.packed
	}
	return s.enc.encodeGraphSlow(g).PackBinary()
}

// EncodeGraphPackedPrefix encodes the first d components of Enc_G(g) —
// bit-identical to EncodeGraphPacked(g).PrefixCopy(d), and therefore to
// the full encoding of a d-dimensional model sharing the basis prefix
// (majority bundling is componentwise) — at ~d/Dimension of the cost:
// the counter is narrowed with SetDim and consumes only the first
// ⌈d/64⌉ words of the full-width basis vectors, tail-masked, through the
// same kernel tiers. This is the stage-1 encode of cascade
// classification. The result lives in the scratch's prefix buffer, valid
// until the next prefix-width call on s; d must lie in [1, Dimension].
func (s *EncoderScratch) EncodeGraphPackedPrefix(g *graph.Graph, d int) *hdc.Binary {
	e := s.enc
	if d == e.cfg.Dimension {
		return s.EncodeGraphPacked(g)
	}
	if d < 1 || d > e.cfg.Dimension {
		panic(fmt.Sprintf("core: prefix dimension %d outside [1,%d]", d, e.cfg.Dimension))
	}
	if s.pout == nil || s.pout.Dim() != d {
		s.pout = hdc.NewBinary(d)
	}
	s.rankOne(g)
	s.counter.SetDim(d)
	ok := s.signInto(0, s.pout)
	s.counter.SetDim(e.cfg.Dimension)
	if ok {
		return s.pout
	}
	// Reference fallback (labeled extension, edgeless): encode at full
	// width and slice — exact, by the componentwise identity.
	return e.encodeGraphSlow(g).PackBinary().PrefixCopy(d)
}

// encodeBipolarNew encodes graphs into dst (len(dst) == len(graphs)) for
// callers that retain the results (batch training): ranks and counts
// live in the scratch, each signed output is freshly allocated.
func (s *EncoderScratch) encodeBipolarNew(graphs []*graph.Graph, dst []*hdc.Bipolar) {
	s.rankAll(graphs)
	for gi, g := range graphs {
		if s.fillCounter(gi) {
			dst[gi] = s.counter.SignBipolar(s.enc.tie)
		} else {
			dst[gi] = s.enc.encodeGraphSlow(g)
		}
	}
}
