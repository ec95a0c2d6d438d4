package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"graphhd/internal/core"
	"graphhd/internal/dataset"
	"graphhd/internal/graph"
)

// The serving benchmarks run at paper scale (d = 10,000) on a synthetic
// MUTAG model; the ROADMAP server-side baseline quotes these numbers.

// BenchmarkServePredict measures the steady-state single-request path
// through the full engine — admission, micro-batching, worker encode +
// classify, completion signal — from one client goroutine. The interesting
// number besides ns/op is allocs/op: the engine itself must add zero.
func BenchmarkServePredict(b *testing.B) {
	ds := dataset.MustGenerate("MUTAG", dataset.Options{Seed: 7, GraphCount: 48})
	cfg := core.DefaultConfig()
	m, err := core.Train(cfg, ds.Graphs, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	pred := m.Snapshot()
	e, err := NewEngine(pred, Options{Workers: 2, MaxBatch: 16, MaxDelay: 50 * time.Microsecond})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	g := ds.Graphs[0]
	ctx := context.Background()
	if _, err := e.Predict(ctx, g); err != nil { // warm scratches and pools
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Predict(ctx, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServePredictParallel is the throughput shape: many client
// goroutines keep the queue busy, so the dispatcher forms real batches
// and all workers stay hot.
func BenchmarkServePredictParallel(b *testing.B) {
	ds := dataset.MustGenerate("MUTAG", dataset.Options{Seed: 7, GraphCount: 48})
	cfg := core.DefaultConfig()
	m, err := core.Train(cfg, ds.Graphs, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	pred := m.Snapshot()
	e, err := NewEngine(pred, Options{MaxBatch: 64, MaxDelay: 200 * time.Microsecond})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	if _, err := e.Predict(ctx, ds.Graphs[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := e.Predict(ctx, ds.Graphs[i%len(ds.Graphs)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkServePredictBatch measures the amortized per-graph cost of the
// batch endpoint's engine path (one call, 32 graphs).
func BenchmarkServePredictBatch(b *testing.B) {
	ds := dataset.MustGenerate("MUTAG", dataset.Options{Seed: 7, GraphCount: 48})
	cfg := core.DefaultConfig()
	m, err := core.Train(cfg, ds.Graphs, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	pred := m.Snapshot()
	e, err := NewEngine(pred, Options{MaxBatch: 64, MaxDelay: 200 * time.Microsecond})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	graphs := ds.Graphs[:32]
	out := make([]int, len(graphs))
	if err := e.PredictBatchInto(ctx, graphs, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.PredictBatchInto(ctx, graphs, out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportStageMedians(b, e, false)
}

// reportStageMedians stamps the per-batch stage-clock medians into the
// benchmark output; CI carries them into the BENCH artifact via
// cmd/benchjson, so a perf regression names its stage instead of hiding
// in the aggregate ns/op. The medians are exact, taken over the stage
// nanoseconds of the batches the flight recorder retains, not
// interpolated inside histogram buckets.
func reportStageMedians(b *testing.B, e *Engine, cascading bool) {
	traces := e.Traces()
	median := func(stage func(*TraceRecord) int64) float64 {
		ns := make([]int64, len(traces))
		for i := range traces {
			ns[i] = stage(&traces[i])
		}
		slices.Sort(ns)
		if len(ns)%2 == 1 {
			return float64(ns[len(ns)/2])
		}
		return float64(ns[len(ns)/2-1]+ns[len(ns)/2]) / 2
	}
	if len(traces) == 0 {
		b.Fatal("no batch traces recorded")
	}
	b.ReportMetric(median(func(r *TraceRecord) int64 { return r.PlanNanos }), "plan-p50-ns")
	b.ReportMetric(median(func(r *TraceRecord) int64 { return r.EncodeNanos }), "encode-p50-ns")
	b.ReportMetric(median(func(r *TraceRecord) int64 { return r.ClassifyNanos }), "classify-p50-ns")
	if cascading {
		b.ReportMetric(median(func(r *TraceRecord) int64 { return r.EscalateNanos }), "escalate-p50-ns")
	}
}

// BenchmarkRouterPredictBatch is BenchmarkServePredictBatch through the
// full registry→router path (model lookup, tenant admission, replica
// placement) with one model and one replica — the same 32-graph workload,
// so the delta between the two benchmarks in one run is the router's
// added overhead. The acceptance bound is ≤10% over the direct engine
// path.
func BenchmarkRouterPredictBatch(b *testing.B) {
	ds := dataset.MustGenerate("MUTAG", dataset.Options{Seed: 7, GraphCount: 48})
	cfg := core.DefaultConfig()
	m, err := core.Train(cfg, ds.Graphs, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	pred := m.Snapshot()
	reg := NewRegistry(RegistryOptions{Engine: Options{MaxBatch: 64, MaxDelay: 200 * time.Microsecond}})
	defer reg.Close()
	if err := reg.Load("default", pred); err != nil {
		b.Fatal(err)
	}
	rt := NewRouter(reg, RouterOptions{})
	ctx := context.Background()
	graphs := ds.Graphs[:32]
	out := make([]int, len(graphs))
	if err := rt.PredictBatchInto(ctx, DefaultTenant, "", graphs, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.PredictBatchInto(ctx, DefaultTenant, "", graphs, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouterPredictBatchShadow is BenchmarkRouterPredictBatch with
// a shadow mirror live in its production shape — the default sampling
// fraction (0.1) and the single-worker candidate engine shadowPhase
// deploys. The delta against BenchmarkRouterPredictBatch in the same
// run is the mirroring overhead on the primary path; the acceptance
// bound is ≤5% on p50. The offer itself is a slice copy plus a
// non-blocking channel send — the replay runs on the candidate
// engine's own worker and never blocks the primary, so the residual
// overhead is CPU contention proportional to the sampled fraction.
func BenchmarkRouterPredictBatchShadow(b *testing.B) {
	ds := dataset.MustGenerate("MUTAG", dataset.Options{Seed: 7, GraphCount: 48})
	cfg := core.DefaultConfig()
	m, err := core.Train(cfg, ds.Graphs, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	pred := m.Snapshot()
	reg := NewRegistry(RegistryOptions{Engine: Options{MaxBatch: 64, MaxDelay: 200 * time.Microsecond}})
	defer reg.Close()
	if err := reg.Load("default", pred); err != nil {
		b.Fatal(err)
	}
	rt := NewRouter(reg, RouterOptions{})
	rm, ok := reg.model("default")
	if !ok {
		b.Fatal("default model not resident")
	}
	// Goroutine-less trainer shell: the mirror only needs its counters
	// and latency histogram, not the training loop.
	tr := &Trainer{reg: reg, name: "default", model: m, opts: TrainerOptions{}.withDefaults(),
		buf: make(chan feedbackSample, 1), stop: make(chan struct{})}
	tr.shadowLatency.init(powerBounds(16e-6, 16))
	cand, err := NewEngine(m.Snapshot(), Options{Workers: 1, MaxBatch: 64, MaxDelay: 200 * time.Microsecond, ModelName: "default#shadow"})
	if err != nil {
		b.Fatal(err)
	}
	sh := newShadowMirror(tr, cand, tr.opts.ShadowFraction)
	rm.shadow.Store(sh)
	ctx := context.Background()
	graphs := ds.Graphs[:32]
	out := make([]int, len(graphs))
	if err := rt.PredictBatchInto(ctx, DefaultTenant, "", graphs, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.PredictBatchInto(ctx, DefaultTenant, "", graphs, out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Tear the mirror down before reading counters: close drains the
	// replay worker, so mirrored+dropped accounts for every offer.
	rm.shadow.Store(nil)
	sh.close()
	offered := tr.shadowMirrored.Load() + tr.shadowDropped.Load()
	b.ReportMetric(float64(offered)/float64(b.N*len(graphs)), "mirror-offer-rate")
}

// BenchmarkTrainerIngest measures the trainer's per-sample drain cost —
// encode, classify, and the corrective perceptron update when the model
// disagrees with the label — by calling the goroutine-owned ingest step
// directly. This is the ceiling on sustainable feedback throughput per
// trainer (one sample per op; every HoldoutEvery-th diverts to the
// holdout ring instead, as in production).
func BenchmarkTrainerIngest(b *testing.B) {
	ds := dataset.MustGenerate("MUTAG", dataset.Options{Seed: 7, GraphCount: 48})
	cfg := core.DefaultConfig()
	m, err := core.Train(cfg, ds.Graphs, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	tr := &Trainer{model: m, opts: TrainerOptions{SnapshotEvery: 1 << 30}.withDefaults(),
		buf: make(chan feedbackSample, 1), stop: make(chan struct{})}
	tr.holdout = make([]feedbackSample, 0, tr.opts.HoldoutCap)
	tr.ingest(feedbackSample{g: ds.Graphs[0], label: ds.Labels[0]})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ds.Graphs)
		tr.ingest(feedbackSample{g: ds.Graphs[j], label: ds.Labels[j]})
	}
}

// BenchmarkServePredictCascade is BenchmarkServePredictBatch with
// two-stage cascade classification enabled: stage 1 decides at a 1024-bit
// prefix of the same basis and only margin-ambiguous graphs escalate to
// the full 10,000-bit pass. The acceptance criterion for the cascade is
// ≥2× the mean per-graph throughput of the full-dimension batch bench at
// matched accuracy; compare the two per-graph numbers in one run.
func BenchmarkServePredictCascade(b *testing.B) {
	ds := dataset.MustGenerate("MUTAG", dataset.Options{Seed: 7, GraphCount: 48})
	cfg := core.DefaultConfig()
	m, err := core.Train(cfg, ds.Graphs, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	pred := m.Snapshot()
	if err := pred.SetCascade(core.Cascade{DPrefix: 1024, Margin: 12}); err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(pred, Options{MaxBatch: 64, MaxDelay: 200 * time.Microsecond})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	graphs := ds.Graphs[:32]
	out := make([]int, len(graphs))
	if err := e.PredictBatchInto(ctx, graphs, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.PredictBatchInto(ctx, graphs, out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	mm := e.Metrics()
	b.ReportMetric(float64(mm.CascadeStage1)/float64(mm.CascadeStage1+mm.CascadeEscalated), "stage1-hit-rate")
	reportStageMedians(b, e, true)
}

// benchHTTPStack trains a d = 10,000 model on a synthetic dataset and
// serves it through NewHandler with the router benchmarks' engine shape;
// the handler is driven in process, without a network round trip.
func benchHTTPStack(b *testing.B, name string, count int) (http.Handler, *core.Predictor, []*graph.Graph) {
	ds := dataset.MustGenerate(name, dataset.Options{Seed: 7, GraphCount: count})
	m, err := core.Train(core.DefaultConfig(), ds.Graphs, ds.Labels)
	if err != nil {
		b.Fatal(err)
	}
	pred := m.Snapshot()
	reg := NewRegistry(RegistryOptions{Engine: Options{MaxBatch: 64, MaxDelay: 200 * time.Microsecond}})
	b.Cleanup(reg.Close)
	if err := reg.Load("default", pred); err != nil {
		b.Fatal(err)
	}
	return NewHandler(NewRouter(reg, RouterOptions{}), HandlerOptions{}), pred, ds.Graphs
}

// wireBatch is the 32-graph wire form of graphs.
func wireBatch(graphs []*graph.Graph) []*graph.GraphJSON {
	wire := make([]*graph.GraphJSON, len(graphs))
	for i, g := range graphs {
		wire[i] = graph.ToJSON(g)
	}
	return wire
}

// benchPost serves one POST of body per iteration and requires 200 with
// the expected response body.
func benchPost(b *testing.B, h http.Handler, path string, body []byte, want string) {
	serve := func() {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Body.String() != want {
			b.Fatalf("status %d body %q, want 200 %q", rec.Code, rec.Body.String(), want)
		}
	}
	serve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// BenchmarkHTTPPredictBatch is BenchmarkRouterPredictBatch seen from the
// wire: the same 32-graph MUTAG batch, posted to /v1/predict/batch and
// served by NewHandler (body read, decode, graph build, routing, engine,
// response). canonical sends json.Marshal output, which the single-pass
// reader decodes; fallback sends the same graphs pretty-printed with an
// unknown key, which the reader declines, so it pays the reader's attempt
// plus encoding/json. The delta against BenchmarkRouterPredictBatch in
// the same run is the wire's cost.
func BenchmarkHTTPPredictBatch(b *testing.B) {
	h, pred, graphs := benchHTTPStack(b, "MUTAG", 48)
	graphs = graphs[:32]
	want, err := json.Marshal(PredictBatchResponse{Classes: pred.PredictAll(graphs)})
	if err != nil {
		b.Fatal(err)
	}
	canonical, err := json.Marshal(PredictBatchRequest{Graphs: wireBatch(graphs)})
	if err != nil {
		b.Fatal(err)
	}
	fallback, err := json.MarshalIndent(struct {
		Graphs []*graph.GraphJSON `json:"graphs"`
		Client string             `json:"client"`
	}{wireBatch(graphs), "bench"}, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("canonical", func(b *testing.B) {
		benchPost(b, h, "/v1/predict/batch", canonical, string(want)+"\n")
	})
	b.Run("fallback", func(b *testing.B) {
		benchPost(b, h, "/v1/predict/batch", fallback, string(want)+"\n")
	})
}

// BenchmarkHTTPPredict posts one DD graph (a few hundred vertices, the
// largest Table-I graphs) per request to /v1/predict.
func BenchmarkHTTPPredict(b *testing.B) {
	h, pred, graphs := benchHTTPStack(b, "DD", 24)
	g := graphs[0]
	want, err := json.Marshal(PredictResponse{Class: pred.Predict(g)})
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(PredictRequest{Graph: graph.ToJSON(g)})
	if err != nil {
		b.Fatal(err)
	}
	benchPost(b, h, "/v1/predict", body, string(want)+"\n")
}

// BenchmarkDecodeGraphs is the decode layer of BenchmarkHTTPPredictBatch
// alone: the canonical 32-graph MUTAG body to validated graphs, through
// the single-pass reader and through the encoding/json fallback
// (json.Decoder, then GraphJSON.Graph per graph).
func BenchmarkDecodeGraphs(b *testing.B) {
	ds := dataset.MustGenerate("MUTAG", dataset.Options{Seed: 7, GraphCount: 48})
	body, err := json.Marshal(PredictBatchRequest{Graphs: wireBatch(ds.Graphs[:32])})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("reader", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if graphs, ok := graph.DecodeCanonical(body, true, graph.CodecLimits{}); !ok || len(graphs) != 32 {
				b.Fatal("reader declined the canonical body")
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req PredictBatchRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
			for _, w := range req.Graphs {
				if _, err := w.Graph(graph.CodecLimits{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
