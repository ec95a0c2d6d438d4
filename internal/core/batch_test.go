package core

import (
	"testing"

	"graphhd/internal/dataset"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
)

// mixedGraphs returns graphs outside or at the edge of the packed fast
// path: an edgeless graph, a 6-ring, and a labeled path (outside the fast
// path only under the labeled extension).
func mixedGraphs(t *testing.T) (edgeless, ring, labeled *graph.Graph) {
	t.Helper()
	edgeless, err := graph.FromEdges(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	ring, err = graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	if err != nil {
		t.Fatal(err)
	}
	lb := graph.NewBuilder(4)
	lb.MustAddEdge(0, 1)
	lb.MustAddEdge(1, 2)
	lb.MustAddEdge(2, 3)
	if err := lb.SetVertexLabels([]int{0, 1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	return edgeless, ring, lb.Build()
}

// referenceClasses decides every graph through the independent oracle:
// the int8 reference encoding (encodeGraphSlow) classified by a Model
// with bipolar class vectors — exactly what a snapshot freezes. With a
// cascade it applies the cascade rule to that encoding instead: classify
// its prefix against PrefixSnapshot, and escalate to the full reference
// inside the margin (graphs outside the packed fast path always
// escalate). It returns the classes and the expected escalation count.
func referenceClasses(t *testing.T, m *Model, graphs []*graph.Graph, c *Cascade) ([]int, int) {
	t.Helper()
	cfg := m.enc.cfg
	var ppm *hdc.PackedMemory
	if c != nil {
		var err error
		if ppm, err = m.Snapshot().PrefixSnapshot(c.DPrefix); err != nil {
			t.Fatal(err)
		}
	}
	classes := make([]int, len(graphs))
	escalated := 0
	for i, g := range graphs {
		hv := m.enc.encodeGraphSlow(g)
		classes[i] = m.PredictEncoded(hv)
		if c == nil {
			continue
		}
		fast := !(cfg.UseVertexLabels && g.Labeled()) && g.NumEdges() > 0
		best, _, bestH, secondH := ppm.ClassifyTop2(hv.PackBinary().PrefixCopy(c.DPrefix))
		if fast && secondH-bestH > c.Margin {
			classes[i] = best
		} else {
			escalated++
		}
	}
	return classes, escalated
}

// checkPredictInto runs graphs through PredictInto on s in batches of
// every size in sizes and compares each class, and the batch-wide
// escalation count, with the reference.
func checkPredictInto(t *testing.T, pred *Predictor, s *EncoderScratch, graphs []*graph.Graph, want []int, wantEsc int, sizes []int) {
	t.Helper()
	_, cascading := pred.Cascade()
	for _, size := range sizes {
		esc := 0
		for lo := 0; lo < len(graphs); lo += size {
			hi := min(lo+size, len(graphs))
			out := make([]int, hi-lo)
			s1, e := pred.PredictInto(s, graphs[lo:hi], out, nil)
			if cascading && s1+e != hi-lo {
				t.Fatalf("size %d: stage1 %d + escalated %d != %d graphs", size, s1, e, hi-lo)
			}
			if !cascading && (s1 != 0 || e != 0) {
				t.Fatalf("size %d: full-width batch reported counters %d/%d", size, s1, e)
			}
			esc += e
			for i := range out {
				if out[i] != want[lo+i] {
					t.Fatalf("size %d: graph %d class %d, reference %d", size, lo+i, out[i], want[lo+i])
				}
			}
		}
		if esc != wantEsc {
			t.Fatalf("size %d: escalated %d graphs, reference %d", size, esc, wantEsc)
		}
	}
}

// testPredictIntoMatchesReference is the bit-identity table of the batch
// primitive: every synthetic Table-I dataset (plus an edgeless graph and
// a ring) × every supported kernel tier, in full and cascade modes,
// against the independent int8 oracle. One scratch per tier is reused
// across batch sizes 1, 7 and 32 and across both widths, so stale
// segment offsets or width-keyed buffers would surface as wrong classes.
func testPredictIntoMatchesReference(t *testing.T, cascade bool) {
	for _, name := range dataset.Names() {
		// Not parallel: forEachTier switches the process-wide kernel tier.
		t.Run(name, func(t *testing.T) {
			count := 33 // a full 32-batch plus a ragged tail of 1
			if name == "DD" {
				count = 9 // DD graphs are ~25× larger than the rest
			}
			ds, err := dataset.Generate(name, dataset.Options{Seed: 19, GraphCount: count})
			if err != nil {
				t.Fatal(err)
			}
			cfg := testConfig()
			cfg.Dimension = 1024
			cfg.BipolarClassVectors = true
			m, err := Train(cfg, ds.Graphs, ds.Labels)
			if err != nil {
				t.Fatal(err)
			}
			edgeless, ring, _ := mixedGraphs(t)
			graphs := append([]*graph.Graph{edgeless}, ds.Graphs...)
			graphs = append(graphs, ring)
			c := Cascade{DPrefix: 256, Margin: 8} // both stage-1 exits and escalations
			fullWant, _ := referenceClasses(t, m, graphs, nil)
			cascWant, cascEsc := referenceClasses(t, m, graphs, &c)
			sizes := []int{1, 7, 32}
			forEachTier(t, func(t *testing.T) {
				pred := m.Snapshot()
				s := pred.Encoder().NewScratch()
				if cascade {
					if err := pred.SetCascade(c); err != nil {
						t.Fatal(err)
					}
					checkPredictInto(t, pred, s, graphs, cascWant, cascEsc, sizes)
					pred.ClearCascade()
				}
				checkPredictInto(t, pred, s, graphs, fullWant, 0, sizes)
				if cascade {
					// An always-escalate margin (every stage-1 margin is at
					// most DPrefix) reproduces full-width output exactly.
					if err := pred.SetCascade(Cascade{DPrefix: 256, Margin: 256}); err != nil {
						t.Fatal(err)
					}
					checkPredictInto(t, pred, s, graphs, fullWant, len(graphs), sizes)
				}
			})
		})
	}
}

// TestBatchEncodeMatchesSingleAllDatasets is the full-width half of the
// bit-identity table.
func TestBatchEncodeMatchesSingleAllDatasets(t *testing.T) {
	testPredictIntoMatchesReference(t, false)
}

// TestCascadeBatchMatchesSingleAllDatasets is the cascade half of the
// bit-identity table.
func TestCascadeBatchMatchesSingleAllDatasets(t *testing.T) {
	testPredictIntoMatchesReference(t, true)
}

// TestBatchEncodeMixedFallbacks checks the fast-path exclusions under
// both label settings: a batch mixing rings with edgeless and labeled
// graphs matches the reference in every slot, full width and cascade.
func TestBatchEncodeMixedFallbacks(t *testing.T) {
	edgeless, ring, labeled := mixedGraphs(t)
	batch := []*graph.Graph{ring, edgeless, labeled, ring, edgeless}
	labels := []int{0, 1, 0, 1, 1}
	for _, useLabels := range []bool{false, true} {
		cfg := testConfig()
		cfg.Dimension = 512
		cfg.UseVertexLabels = useLabels
		cfg.BipolarClassVectors = true
		m, err := Train(cfg, batch, labels)
		if err != nil {
			t.Fatal(err)
		}
		pred := m.Snapshot()
		s := pred.Encoder().NewScratch()
		want, _ := referenceClasses(t, m, batch, nil)
		checkPredictInto(t, pred, s, batch, want, 0, []int{1, len(batch)})
		c := Cascade{DPrefix: 128, Margin: 4}
		if err := pred.SetCascade(c); err != nil {
			t.Fatal(err)
		}
		want, esc := referenceClasses(t, m, batch, &c)
		checkPredictInto(t, pred, s, batch, want, esc, []int{1, len(batch)})
		for i, g := range batch {
			if got, ref := s.EncodeGraphPacked(g), m.enc.encodeGraphSlow(g).PackBinary(); !got.Equal(ref) {
				t.Fatalf("useLabels=%v: slot %d encoding differs from reference", useLabels, i)
			}
		}
	}
}

// TestBatchEncodeAllocationFree asserts the batch primitive's
// steady-state property: once the scratch's buffers have grown,
// PredictInto performs zero heap allocations per batch, full width and
// cascade, traced or not — including under the race detector (the
// scratch is caller-owned, no pool involved).
func TestBatchEncodeAllocationFree(t *testing.T) {
	gs, ys := twoClassDataset(16, 41)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Snapshot()
	s := pred.Encoder().NewScratch()
	out := make([]int, len(gs))
	var tr BatchTrace
	for _, c := range []*Cascade{nil, {DPrefix: 256, Margin: 8}} {
		if c != nil {
			if err := pred.SetCascade(*c); err != nil {
				t.Fatal(err)
			}
		}
		pred.PredictInto(s, gs, out, &tr) // grow scratch buffers and the basis table
		if allocs := testing.AllocsPerRun(30, func() {
			pred.PredictInto(s, gs, out, nil)
			pred.PredictInto(s, gs, out, &tr)
		}); allocs != 0 {
			t.Fatalf("cascade %v: PredictInto allocated %v times per run, want 0", c, allocs)
		}
	}
}

// TestBatchScratchReuseAcrossBatchSizes guards buffer-reset bugs: a
// scratch that has ranked and signed a large batch must still encode and
// classify smaller and differently shaped batches correctly (stale key
// offsets, basis snapshots or sign buffers would surface as encodings or
// classes that differ from a fresh scratch's per-graph path).
func TestBatchScratchReuseAcrossBatchSizes(t *testing.T) {
	gs, ys := twoClassDataset(20, 5)
	cfg := testConfig()
	cfg.Dimension = 768
	cfg.BipolarClassVectors = true
	m, err := Train(cfg, gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Snapshot()
	enc := pred.Encoder()
	single := enc.NewScratch()
	s := enc.NewScratch()
	want, _ := referenceClasses(t, m, gs, nil)
	for _, span := range [][2]int{{0, 20}, {0, 3}, {7, 9}, {0, 20}, {0, 1}} {
		batch := gs[span[0]:span[1]]
		s.rankAll(batch)
		outs := s.outBufs(cfg.Dimension, len(batch))
		for i, g := range batch {
			if !s.signInto(i, outs[i]) {
				t.Fatalf("batch %v: slot %d left the packed fast path", span, i)
			}
			if w := single.EncodeGraphPacked(g); !outs[i].Equal(w) {
				t.Fatalf("batch %v: slot %d differs from per-graph path", span, i)
			}
		}
		out := make([]int, len(batch))
		pred.PredictInto(s, batch, out, nil)
		for i := range out {
			if out[i] != want[span[0]+i] {
				t.Fatalf("batch %v: slot %d class %d, reference %d", span, i, out[i], want[span[0]+i])
			}
		}
	}
}

// TestPredictIntoPanics pins the misuse contracts of the batch primitive.
func TestPredictIntoPanics(t *testing.T) {
	gs, ys := twoClassDataset(4, 9)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Snapshot()
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("length mismatch", func() {
		pred.PredictInto(pred.Encoder().NewScratch(), gs, make([]int, 1), nil)
	})
	other := MustNewEncoder(testConfig())
	expectPanic("foreign scratch", func() {
		pred.PredictInto(other.NewScratch(), gs, make([]int, len(gs)), nil)
	})
}
