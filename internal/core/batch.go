package core

import (
	"fmt"
	"time"

	"graphhd/internal/graph"
)

// encodeBatchChunk is the number of graphs the parallel adopters (Fit,
// PredictAll) hand to one pooled EncoderScratch per call: large enough
// that pool traffic and the basis-snapshot lock round amortize, small
// enough that the work still spreads evenly across workers.
const encodeBatchChunk = 32

// BatchTrace receives the stage clock of one PredictInto call: the wall
// time each phase of the pipeline consumed, in monotonic nanoseconds.
// The serving worker passes one per dispatched micro-batch and feeds the
// readout into the per-stage latency histograms and the flight recorder
// (internal/serve). Stamping costs one time.Now() per phase boundary per
// batch — never per graph — so tracing stays inside the serve path's
// overhead budget.
type BatchTrace struct {
	// PlanNanos covers the rank phase: centrality ranking plus the
	// rank-pair key sort of every graph.
	PlanNanos int64
	// EncodeNanos covers grouping, accumulate and majority sign for every
	// fast-path graph (at stage-1 width when a cascade is active).
	EncodeNanos int64
	// ClassifyNanos covers Hamming classification of every signed
	// encoding (the stage-1 margin test when a cascade is active).
	ClassifyNanos int64
	// EscalateNanos covers the cascade's full-width re-sign + re-classify
	// of margin-ambiguous graphs, plus reference-path fallbacks (labeled
	// extension, edgeless). Zero when the worklist is empty.
	EscalateNanos int64
	// Pairs is the number of edge rank-pair instances the batch encoded.
	Pairs int
}

// stamp records now-prev into *dst and advances the clock.
func (tr *BatchTrace) stamp(dst *int64, prev time.Time) time.Time {
	now := time.Now()
	*dst = now.Sub(prev).Nanoseconds()
	return now
}

// PredictInto classifies graphs through a caller-owned scratch, writing
// one class per graph into out (len(out) must equal len(graphs)) — the
// one batch predict primitive. s must have been vended by
// p.Encoder().NewScratch(). It runs in four phases, each stamped into tr
// when tr is non-nil: rank every graph, sign every graph (at the cascade
// prefix width when a cascade is active), classify every encoding, then
// escalate the worklist — margin-ambiguous cascade decisions re-signed at
// full width, plus graphs outside the packed fast path (labeled
// extension, edgeless), decided through the reference encoder.
//
// With a cascade, stage1 and escalated count the graphs decided at each
// stage (fallback graphs count as escalations). Without one, every graph
// is decided at full width and both counters are zero. Classes equal
// Model.Predict with BipolarClassVectors (or the cascade rule applied to
// that reference encoding), with zero heap allocations in steady state.
func (p *Predictor) PredictInto(s *EncoderScratch, graphs []*graph.Graph, out []int, tr *BatchTrace) (stage1, escalated int) {
	return p.predict(s, graphs, out, tr, p.cascade.Load())
}

// predict is PredictInto under an explicit cascade state (nil for
// full-width classification).
func (p *Predictor) predict(s *EncoderScratch, graphs []*graph.Graph, out []int, tr *BatchTrace, cs *cascadeState) (stage1, escalated int) {
	if s.enc != p.enc {
		panic("core: scratch bound to a different encoder")
	}
	if len(out) != len(graphs) {
		panic(fmt.Sprintf("core: %d results for %d graphs", len(out), len(graphs)))
	}
	full := p.enc.cfg.Dimension
	d := full
	if cs != nil {
		d = cs.cfg.DPrefix
	}
	var t time.Time
	if tr != nil {
		*tr = BatchTrace{}
		t = time.Now()
	}
	s.rankAll(graphs)
	if tr != nil {
		t = tr.stamp(&tr.PlanNanos, t)
		tr.Pairs = len(s.keys)
	}

	outs := s.outBufs(d, len(graphs))
	s.counter.SetDim(d)
	s.fbIdx = s.fbIdx[:0]
	for gi := range graphs {
		if !s.signInto(gi, outs[gi]) {
			s.fbIdx = append(s.fbIdx, int32(gi))
		}
	}
	s.counter.SetDim(full)
	if tr != nil {
		t = tr.stamp(&tr.EncodeNanos, t)
	}

	// Ambiguous stage-1 graphs are only recorded here; their full-width
	// work is batched into the escalate phase.
	s.escIdx = s.escIdx[:0]
	for gi := range graphs {
		if s.keyOff[gi] == s.keyOff[gi+1] {
			continue // outside the fast path, already on fbIdx
		}
		if cs == nil {
			out[gi] = p.pm.Classify(outs[gi])
			continue
		}
		best, _, bestH, secondH := cs.pm.ClassifyTop2(outs[gi])
		if secondH-bestH > cs.cfg.Margin {
			out[gi] = best
			stage1++
		} else {
			s.escIdx = append(s.escIdx, int32(gi))
		}
	}
	if tr != nil {
		t = tr.stamp(&tr.ClassifyNanos, t)
	}

	if len(s.escIdx)+len(s.fbIdx) == 0 {
		return stage1, 0
	}
	// The sorted key segments and basis snapshot are width-independent,
	// so escalation re-signs straight from the rank phase's output.
	for _, gi := range s.escIdx {
		s.signInto(int(gi), s.packed)
		out[gi] = p.pm.Classify(s.packed)
	}
	for _, gi := range s.fbIdx {
		out[gi] = p.pm.Classify(p.enc.encodeGraphSlow(graphs[gi]).PackBinary())
	}
	if cs != nil {
		escalated = len(s.escIdx) + len(s.fbIdx)
	}
	if tr != nil {
		tr.stamp(&tr.EscalateNanos, t)
	}
	return stage1, escalated
}

// predictOne is predict over the one-graph slice {g}.
func (p *Predictor) predictOne(s *EncoderScratch, g *graph.Graph, cs *cascadeState) (class int, escalated bool) {
	one, out := [1]*graph.Graph{g}, [1]int{}
	_, esc := p.predict(s, one[:], out[:], nil, cs)
	return out[0], esc == 1
}
