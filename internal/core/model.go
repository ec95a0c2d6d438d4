package core

import (
	"fmt"
	"sync/atomic"

	"graphhd/internal/graph"
	"graphhd/internal/hdc"
	"graphhd/internal/parallel"
)

// Model is a trained GraphHD classifier: one class vector per class held
// in an associative memory (Section III-B/C of the paper). Create one with
// Train or NewModel+Fit.
type Model struct {
	enc *Encoder
	am  *hdc.AssociativeMemory
	k   int
	// rev counts corrective online updates (Learn, OnlineUpdate, and
	// Retrain) applied after initial fitting. Snapshot stamps the current
	// value into the vended Predictor, so a snapshot taken before an
	// update round is distinguishable from the live model: skew shows up
	// as Model.Revision() > Predictor.Revision(). Fit/Train do not bump
	// it — a freshly fitted model is revision 0.
	rev atomic.Uint64
}

// NewModel returns an untrained model for k classes using encoder enc.
func NewModel(enc *Encoder, k int) (*Model, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: non-positive class count %d", k)
	}
	cfg := enc.Config()
	seeds := hdc.NewRNG(cfg.Seed ^ 0x5eed)
	return &Model{
		enc: enc,
		am:  hdc.NewAssociativeMemory(k, cfg.Dimension, seeds.Uint64(), cfg.BipolarClassVectors),
		k:   k,
	}, nil
}

// Encoder returns the model's encoder.
func (m *Model) Encoder() *Encoder { return m.enc }

// NumClasses returns the number of classes.
func (m *Model) NumClasses() int { return m.k }

// ClassVector returns the majority-voted bipolar class vector of class c.
func (m *Model) ClassVector(c int) *hdc.Bipolar { return m.am.ClassVector(c) }

// Learn encodes one labeled graph and bundles it into its class vector —
// the HDC online-learning primitive. It returns the graph-hypervector so
// callers (e.g. retraining loops) can reuse the encoding. Each call bumps
// the model revision.
func (m *Model) Learn(g *graph.Graph, label int) (*hdc.Bipolar, error) {
	if label < 0 || label >= m.k {
		return nil, fmt.Errorf("core: label %d out of range [0,%d)", label, m.k)
	}
	hv := m.enc.EncodeGraph(g)
	m.am.Learn(label, hv)
	m.rev.Add(1)
	return hv, nil
}

// Revision returns the number of online updates applied to the model since
// initial fitting. Compare against Predictor.Revision to detect a stale
// snapshot serving pre-update class vectors.
func (m *Model) Revision() uint64 { return m.rev.Load() }

// Fit trains on the whole set, encoding graphs in parallel across
// GOMAXPROCS goroutines (HDC operations are dimension-independent, the
// parallelism the paper highlights). Bundling into class vectors happens
// in deterministic input order, so the trained model is identical to
// sequential training.
func (m *Model) Fit(graphs []*graph.Graph, labels []int) error {
	if len(graphs) != len(labels) {
		return fmt.Errorf("core: %d graphs but %d labels", len(graphs), len(labels))
	}
	for _, l := range labels {
		if l < 0 || l >= m.k {
			return fmt.Errorf("core: label %d out of range [0,%d)", l, m.k)
		}
	}
	encoded := m.encodeAll(graphs)
	for i, hv := range encoded {
		m.am.Learn(labels[i], hv)
	}
	return nil
}

// encodeAll encodes graphs across the shared worker pool, preserving
// order. Work is distributed in contiguous chunks of encodeBatchChunk
// graphs, each ranked and encoded on one pooled scratch; only the
// retained output hypervectors are allocated.
func (m *Model) encodeAll(graphs []*graph.Graph) []*hdc.Bipolar {
	m.enc.reserveFor(graphs)
	encoded := make([]*hdc.Bipolar, len(graphs))
	chunks := (len(graphs) + encodeBatchChunk - 1) / encodeBatchChunk
	parallel.ForEachChunk(parallel.Workers(0, chunks), len(graphs), encodeBatchChunk, func(_, lo, hi int) {
		s := m.enc.getScratch()
		defer m.enc.putScratch(s)
		s.encodeBipolarNew(graphs[lo:hi], encoded[lo:hi])
	})
	return encoded
}

// Predict returns the predicted class of g: the class whose vector is most
// similar to Enc(g). The encoding runs on a pooled scratch; the query
// vector is never retained, so steady-state prediction of unlabeled graphs
// allocates nothing.
func (m *Model) Predict(g *graph.Graph) int {
	s := m.enc.getScratch()
	defer m.enc.putScratch(s)
	return m.am.Classify(s.EncodeGraph(g))
}

// PredictEncoded classifies an already encoded graph-hypervector.
func (m *Model) PredictEncoded(hv *hdc.Bipolar) int {
	return m.am.Classify(hv)
}

// PredictAll classifies a batch of graphs in parallel, preserving order.
func (m *Model) PredictAll(graphs []*graph.Graph) []int {
	encoded := m.encodeAll(graphs)
	out := make([]int, len(encoded))
	for i, hv := range encoded {
		out[i] = m.am.Classify(hv)
	}
	return out
}

// Similarities returns δ(Enc(g), C_i) for every class i.
func (m *Model) Similarities(g *graph.Graph) []float64 {
	s := m.enc.getScratch()
	defer m.enc.putScratch(s)
	return m.am.Similarities(s.EncodeGraph(g))
}

// PredictPacked classifies g entirely in the packed domain: bit-packed
// encoding, then a popcount-Hamming query against a lazily refreshed
// majority-voted snapshot of the class accumulators. Unlike Snapshot, the
// cached snapshot follows later Learn/Unlearn calls, which makes this the
// online-learning inference path. Predictions match Predict bit for bit
// when the model uses bipolar (majority-voted) class vectors.
func (m *Model) PredictPacked(g *graph.Graph) int {
	s := m.enc.getScratch()
	defer m.enc.putScratch(s)
	return m.am.ClassifyPacked(s.EncodeGraphPacked(g))
}

// MemoryBytes returns the bytes held by the int32 class accumulators, the
// model's training-time state (k × d × 4).
func (m *Model) MemoryBytes() int {
	return m.k * m.enc.Dimension() * 4
}

// Train is the one-call convenience API: build an encoder and model from
// cfg and fit the training set. k is inferred as max(label)+1.
func Train(cfg Config, graphs []*graph.Graph, labels []int) (*Model, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	k := 0
	for _, l := range labels {
		if l+1 > k {
			k = l + 1
		}
	}
	enc, err := NewEncoder(cfg)
	if err != nil {
		return nil, err
	}
	m, err := NewModel(enc, k)
	if err != nil {
		return nil, err
	}
	if err := m.Fit(graphs, labels); err != nil {
		return nil, err
	}
	return m, nil
}
