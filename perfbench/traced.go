package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphhd/internal/core"
	"graphhd/internal/graph"
	"graphhd/internal/hdc"
	"graphhd/internal/pagerank"
	"graphhd/internal/serve"
)

// tracedHandler serves the predict and feedback routes by calling the
// same public functions serve.NewHandler calls, with one span around each
// call. All spans of a request share the id the client sent in
// X-Request-Id, which is also the id of the client's root span.
type tracedHandler struct {
	rt  *serve.Router
	rec *recorder
}

// maxBody matches serve.NewHandler's default body cap.
const maxBody = 32 << 20

func newTracedHandler(rt *serve.Router, rec *recorder) http.Handler {
	h := &tracedHandler{rt: rt, rec: rec}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict/batch", func(w http.ResponseWriter, r *http.Request) {
		h.predictBatch(w, r, "")
	})
	mux.HandleFunc("POST /v1/models/{model}/predict", func(w http.ResponseWriter, r *http.Request) {
		h.predict(w, r, r.PathValue("model"))
	})
	mux.HandleFunc("POST /v1/models/{model}/feedback", func(w http.ResponseWriter, r *http.Request) {
		h.feedback(w, r, r.PathValue("model"))
	})
	return mux
}

// span records [start, now) under kind and returns now.
func (h *tracedHandler) span(id uint64, kind spanKind, start int64) int64 {
	end := h.rec.now()
	h.rec.add(id, kind, start, end)
	return end
}

func requestID(w http.ResponseWriter, r *http.Request) uint64 {
	v := r.Header.Get("X-Request-Id")
	w.Header().Set("X-Request-Id", v)
	id, _ := strconv.ParseUint(v, 10, 64) // 0 (untied) for a client that sent none
	return id
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError maps errors to the status codes serve.NewHandler uses.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrQuotaExceeded),
		errors.Is(err, serve.ErrFeedbackBufferFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, serve.ErrModelNotFound), errors.Is(err, serve.ErrNoTrainer):
		status = http.StatusNotFound
	case errors.Is(err, serve.ErrBadFeedbackLabel), errors.Is(err, errBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, serve.ErrClosed), errors.Is(err, serve.ErrRegistryClosed),
		errors.Is(err, serve.ErrTrainerClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

var errBadRequest = errors.New("bad request")

// decode reads the body into v under one serve.http.decode span.
func (h *tracedHandler) decode(id uint64, w http.ResponseWriter, r *http.Request, v any) error {
	t := h.rec.now()
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v)
	h.span(id, spDecode, t)
	if err != nil {
		return fmt.Errorf("%w: decode request: %v", errBadRequest, err)
	}
	return nil
}

// build validates one wire graph under one graph.build span, with the
// same vertex-label check serve.NewHandler applies.
func (h *tracedHandler) build(id uint64, wg *graph.GraphJSON, pred *core.Predictor) (*graph.Graph, error) {
	if wg == nil {
		return nil, fmt.Errorf("%w: missing graph", errBadRequest)
	}
	t := h.rec.now()
	g, err := wg.Graph(graph.CodecLimits{})
	h.span(id, spBuild, t)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	if g.Labeled() && !pred.Encoder().Config().UseVertexLabels {
		return nil, fmt.Errorf("%w: vertex_labels on a model without vertex labels", errBadRequest)
	}
	return g, nil
}

func (h *tracedHandler) lookup(id uint64, model string) (*core.Predictor, error) {
	t := h.rec.now()
	p, err := h.rt.Predictor(model)
	h.span(id, spLookup, t)
	return p, err
}

func (h *tracedHandler) predict(w http.ResponseWriter, r *http.Request, model string) {
	id := requestID(w, r)
	var req serve.PredictRequest
	if err := h.decode(id, w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	pred, err := h.lookup(id, model)
	if err != nil {
		writeError(w, err)
		return
	}
	g, err := h.build(id, req.Graph, pred)
	if err != nil {
		writeError(w, err)
		return
	}
	t := h.rec.now()
	class, err := h.rt.Predict(r.Context(), r.Header.Get("X-Tenant"), model, g)
	t = h.span(id, spRouter, t)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, serve.PredictResponse{Class: class})
	h.span(id, spRespond, t)
}

func (h *tracedHandler) predictBatch(w http.ResponseWriter, r *http.Request, model string) {
	id := requestID(w, r)
	var req serve.PredictBatchRequest
	if err := h.decode(id, w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	pred, err := h.lookup(id, model)
	if err != nil {
		writeError(w, err)
		return
	}
	graphs := make([]*graph.Graph, len(req.Graphs))
	for i, wg := range req.Graphs {
		if graphs[i], err = h.build(id, wg, pred); err != nil {
			writeError(w, fmt.Errorf("graphs[%d]: %w", i, err))
			return
		}
	}
	classes := make([]int, len(graphs))
	t := h.rec.now()
	err = h.rt.PredictBatchInto(r.Context(), r.Header.Get("X-Tenant"), model, graphs, classes)
	t = h.span(id, spRouter, t)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, serve.PredictBatchResponse{Classes: classes})
	h.span(id, spRespond, t)
}

func (h *tracedHandler) feedback(w http.ResponseWriter, r *http.Request, model string) {
	id := requestID(w, r)
	var req serve.FeedbackRequest
	if err := h.decode(id, w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	t := h.rec.now()
	pred, err := h.rt.Predictor(model)
	tr, ok := h.rt.Registry().Trainer(model)
	h.span(id, spLookup, t)
	if err != nil {
		writeError(w, err)
		return
	}
	if !ok {
		writeError(w, fmt.Errorf("%w: %q", serve.ErrNoTrainer, model))
		return
	}
	samples := req.Samples
	if req.Graph != nil || req.Label != nil {
		samples = append([]serve.FeedbackSample{{Graph: req.Graph, Label: req.Label}}, samples...)
	}
	if len(samples) == 0 {
		writeError(w, fmt.Errorf("%w: feedback needs a graph and label", errBadRequest))
		return
	}
	graphs := make([]*graph.Graph, len(samples))
	for i, s := range samples {
		if s.Label == nil || *s.Label < 0 || *s.Label >= tr.NumClasses() {
			writeError(w, fmt.Errorf("samples[%d]: %w", i, serve.ErrBadFeedbackLabel))
			return
		}
		if graphs[i], err = h.build(id, s.Graph, pred); err != nil {
			writeError(w, fmt.Errorf("samples[%d]: %w", i, err))
			return
		}
	}
	accepted := 0
	for i, g := range graphs {
		t := h.rec.now()
		err := tr.Feed(g, *samples[i].Label)
		h.span(id, spFeed, t)
		if err != nil {
			if accepted == 0 || !errors.Is(err, serve.ErrFeedbackBufferFull) {
				writeError(w, err)
				return
			}
			break
		}
		accepted++
	}
	t = h.rec.now()
	writeJSON(w, http.StatusAccepted, serve.FeedbackResponse{Accepted: accepted, Buffered: tr.Status().BufferLen})
	h.span(id, spRespond, t)
}

// traceKey identifies one flight-recorder record.
type traceKey struct {
	model   string
	replica int
	seq     uint64
}

// poller collects every flight-recorder record and the trainer backlog
// while the traced phases run. The recorder keeps only the last 256
// batches per replica, so it is read every 20 ms; gaps in the sequence
// numbers are reported as trace.records_missed.
type poller struct {
	reg     *serve.Registry
	trainer *serve.Trainer
	stop    chan struct{}
	done    sync.WaitGroup
	records map[traceKey]serve.TraceRecord
	backlog int
}

func startPoller(reg *serve.Registry, learnModel string) *poller {
	p := &poller{reg: reg, stop: make(chan struct{}), records: map[traceKey]serve.TraceRecord{}}
	if learnModel != "" {
		p.trainer, _ = reg.Trainer(learnModel)
	}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			p.poll()
			select {
			case <-p.stop:
				p.poll()
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *poller) poll() {
	for _, r := range p.reg.Traces() {
		if strings.Contains(r.Model, "#") {
			continue // shadow engines replay mirrored traffic off the request path
		}
		p.records[traceKey{r.Model, r.Replica, r.Seq}] = r
	}
	if p.trainer != nil {
		p.backlog = max(p.backlog, p.trainer.Status().BufferLen)
	}
}

// finish stops the poller and returns the records picked up by a worker
// within [from, to].
func (p *poller) finish(from, to time.Time) (records []serve.TraceRecord, missed int) {
	close(p.stop)
	p.done.Wait()
	lo, hi := map[string]uint64{}, map[string]uint64{}
	count := map[string]int{}
	for k, r := range p.records {
		if r.Time.Before(from) || r.Time.After(to) {
			continue
		}
		records = append(records, r)
		eng := fmt.Sprintf("%s/%d", k.model, k.replica)
		if count[eng] == 0 || k.seq < lo[eng] {
			lo[eng] = k.seq
		}
		hi[eng] = max(hi[eng], k.seq)
		count[eng]++
	}
	for eng, n := range count {
		missed += int(hi[eng]-lo[eng]+1) - n
	}
	return records, missed
}

// engineRejected sums graphhd_rejected_total over every replica, read
// from the router's Prometheus exposition.
func engineRejected(rt *serve.Router) float64 {
	var buf bytes.Buffer
	serve.WriteRouterMetrics(&buf, rt)
	total := 0.0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "graphhd_rejected_total{") {
			continue
		}
		if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
			total += v
		}
	}
	return total
}

func quotaRejected(rt *serve.Router) float64 {
	n := uint64(0)
	for _, t := range rt.Tenants() {
		n += t.Rejected
	}
	return float64(n)
}

func registrySwaps(reg *serve.Registry) float64 {
	n := uint64(0)
	for _, m := range reg.Status().Models {
		n += m.Version - 1
	}
	return float64(n)
}

// traced runs the traced open and closed phases and derives every
// per-layer metric. untracedP50 is the open-loop p50 of the untraced
// phase run just before, for the tracing overhead.
func (sr *serveRun) traced(rec *recorder, untracedP50 float64, openDur, closedDur time.Duration) error {
	st, d, m := sr.st, sr.d, sr.out.metrics
	var tr0 serve.TrainerStatus
	var trainer *serve.Trainer
	if d.learnModel != "" {
		trainer, _ = st.reg.Trainer(d.learnModel)
		tr0 = trainer.Status()
	}
	rejected0, quota0, swaps0 := engineRejected(st.rt), quotaRejected(st.rt), registrySwaps(st.reg)

	st.switched.traced.Store(true)
	sr.cl.rec = rec
	pl := startPoller(st.reg, d.learnModel)
	rt0 := readRuntime()
	from := time.Now()
	t0 := rec.now()
	open := sr.openPhase(openDur)
	closed, _ := sr.closedPhase(closedDur)
	t1 := rec.now()
	to := time.Now()
	rt1 := readRuntime()
	records, missed := pl.finish(from, to)
	sr.cl.rec = nil
	st.switched.traced.Store(false)
	window := to.Sub(from).Seconds()

	// Client-side validity guard and the tracing overhead.
	tracedP50 := sr.latencyQuantile(open, 0.5)
	m["loadgen.lag_p99_ms"] = lagP99(open)
	m["trace.overhead_p50_frac"] = ratio(tracedP50, untracedP50) - 1

	// Request spans.
	var sum [numSpanKinds]float64
	var cnt [numSpanKinds]int
	for _, s := range rec.since(t0) {
		if s.start > t1 {
			continue
		}
		sum[s.kind] += float64(s.end - s.start)
		cnt[s.kind]++
	}
	requests := float64(cnt[spRoot])
	m["serve.http.decode_us"] = ratio(sum[spDecode], requests) / 1e3
	m["serve.http.respond_us"] = ratio(sum[spRespond], requests) / 1e3
	server := sum[spDecode] + sum[spLookup] + sum[spBuild] + sum[spRouter] + sum[spFeed] + sum[spRespond]
	unattributed := sum[spRoot] - server
	m["serve.http.unattributed_us"] = ratio(unattributed, requests) / 1e3
	m["trace.root_us"] = ratio(sum[spRoot], requests) / 1e3
	m["graph.build_us_per_graph"] = ratio(sum[spBuild], float64(cnt[spBuild])) / 1e3
	m["serve.router.call_us"] = ratio(sum[spRouter], float64(cnt[spRouter])) / 1e3
	m["serve.http.allocs_per_request"] = ratio(float64(rt1.allocs-rt0.allocs), requests)
	m["go.gc_cpu_frac"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.total-rt0.total)
	m["serve.router.quota_rejected"] = quotaRejected(st.rt) - quota0
	m["serve.engine.rejected"] = engineRejected(st.rt) - rejected0
	m["serve.registry.swaps"] = registrySwaps(st.reg) - swaps0

	// Engine and core stages from the exact per-batch flight-recorder
	// nanos. Every task of a batch waits for the whole batch, so a
	// request experiences the batch's time once per task.
	var (
		waits                               []float64
		graphs, total, plan, enc, cls, esc  float64
		cascGraphs, stage1, pairs, distinct float64
		engineExp, coreExp                  float64
	)
	for _, r := range records {
		waits = append(waits, float64(r.QueueWaitNanos)/1e3)
		graphs += float64(r.BatchSize)
		total += float64(r.TotalNanos)
		plan += float64(r.PlanNanos)
		enc += float64(r.EncodeNanos)
		cls += float64(r.ClassifyNanos)
		esc += float64(r.EscalateNanos)
		pairs += float64(r.PlanPairs)
		distinct += float64(r.PlanDistinct)
		if r.Cascade {
			cascGraphs += float64(r.BatchSize)
			stage1 += float64(r.Stage1)
		}
		stages := float64(r.PlanNanos + r.EncodeNanos + r.ClassifyNanos + r.EscalateNanos)
		tasks := float64(r.Tasks)
		engineExp += tasks * (float64(r.QueueWaitNanos+r.DispatchNanos+r.TotalNanos) - stages)
		coreExp += tasks * stages

		wall := r.Time.Sub(rec.epoch).Nanoseconds()
		rec.add(0, spQueue, wall-r.DispatchNanos-r.QueueWaitNanos, wall)
		rec.add(0, spBatch, wall, wall+r.TotalNanos)
		at := wall
		for _, ph := range []struct {
			kind spanKind
			ns   int64
		}{{spPlan, r.PlanNanos}, {spEncode, r.EncodeNanos}, {spClassify, r.ClassifyNanos}, {spEscalate, r.EscalateNanos}} {
			rec.add(0, ph.kind, at, at+ph.ns)
			at += ph.ns
		}
	}
	workers := float64(st.reg.Options().Engine.Workers)
	if workers <= 0 {
		workers = float64(sr.gomaxprocs)
	}
	engines := float64(len(st.reg.Status().Models)) * float64(st.reg.Options().Replicas)
	m["serve.engine.queue_wait_us_p50"] = quantile(waits, 0.5)
	m["serve.engine.queue_wait_us_p99"] = quantile(waits, 0.99)
	m["serve.engine.batch_size_mean"] = ratio(graphs, float64(len(records)))
	m["serve.engine.busy_frac"] = ratio(total/1e9, workers*engines*window)
	m["core.plan_us_per_graph"] = ratio(plan, graphs) / 1e3
	m["core.encode_us_per_graph"] = ratio(enc, graphs) / 1e3
	m["core.classify_us_per_graph"] = ratio(cls, graphs) / 1e3
	m["core.escalate_us_per_graph"] = ratio(esc, graphs) / 1e3
	m["core.stage1_hit_frac"] = ratio(stage1, cascGraphs)
	m["core.plan_distinct_frac"] = ratio(distinct, pairs)
	m["trace.records_missed"] = float64(missed)

	// Add-up: layer self times plus unattributed time against the root
	// spans. The router's self time is its spans minus the engine and
	// core time its requests experienced; a negative self time means the
	// layers below were over-attributed, and shows as add-up error.
	routerSelf := sum[spLookup] + sum[spRouter] - engineExp - coreExp
	parts := sum[spDecode] + sum[spRespond] + sum[spBuild] + sum[spFeed] +
		math.Max(0, routerSelf) + engineExp + coreExp + math.Max(0, unattributed)
	addup := ratio(math.Abs(parts-sum[spRoot]), sum[spRoot])
	m["trace.addup_error_frac"] = addup
	verdict := "PASS"
	if addup > 0.10 {
		verdict = "FAIL"
	}
	per := func(x float64) float64 { return ratio(x, requests) / 1e3 }
	sr.out.notes = append(sr.out.notes,
		fmt.Sprintf("traced: %d open + %d closed requests, %d batches (%d missed)", len(open), len(closed), len(records), missed),
		fmt.Sprintf("add-up per request (us): root %.1f = http %.1f + graph %.1f + router %.1f + engine %.1f + core %.1f + trainer %.1f + unattributed %.1f; error %.1f%% %s (limit 10%%)",
			per(sum[spRoot]), per(sum[spDecode]+sum[spRespond]), per(sum[spBuild]), per(routerSelf),
			per(engineExp), per(coreExp), per(sum[spFeed]), per(unattributed), 100*addup, verdict),
		fmt.Sprintf("tracing overhead: open-loop p50 %.3f ms traced vs %.3f ms untraced", tracedP50, untracedP50))

	// Learning loop.
	for _, k := range []string{"serve.trainer.trained_per_s", "serve.trainer.backlog_max", "serve.trainer.dropped",
		"serve.trainer.snapshots", "serve.trainer.promotions", "serve.trainer.rollbacks", "serve.trainer.shadow_mirrored"} {
		m[k] = 0
	}
	m["core.online_update_us_per_sample"] = 0
	if trainer != nil {
		tr1 := trainer.Status()
		m["serve.trainer.trained_per_s"] = float64(tr1.Trained-tr0.Trained) / window
		m["serve.trainer.backlog_max"] = float64(pl.backlog)
		m["serve.trainer.dropped"] = float64(tr1.Dropped - tr0.Dropped)
		m["serve.trainer.snapshots"] = float64(tr1.Snapshots - tr0.Snapshots)
		m["serve.trainer.promotions"] = float64(tr1.Promotions - tr0.Promotions)
		m["serve.trainer.rollbacks"] = float64(tr1.Rollbacks - tr0.Rollbacks)
		m["serve.trainer.shadow_mirrored"] = float64(tr1.ShadowMirrored - tr0.ShadowMirrored)
		us, err := sr.replayOnlineUpdates(rec, append(open, closed...))
		if err != nil {
			return err
		}
		m["core.online_update_us_per_sample"] = us
	}

	m["core.train_ms_per_fold"] = float64(st.trainNanos) / 1e6
	m["core.snapshot_ms"] = float64(st.snapNanos) / 1e6
	pred, err := st.rt.Predictor(d.fixedModel)
	if err != nil {
		return err
	}
	replayKernels(rec, []replaySet{{pred, d.poolG}}, m)
	return nil
}

// replayOnlineUpdates times Model.OnlineUpdate on a fresh copy of the
// trainer's starting model over the feedback samples sent in the traced
// phases, in send order (at most 400).
func (sr *serveRun) replayOnlineUpdates(rec *recorder, samples []sample) (float64, error) {
	model, err := core.LoadModelFile(sr.st.trainable)
	if err != nil {
		return 0, err
	}
	var feed []sample
	for _, s := range samples {
		if sr.in.bodies[s.body].kind == opFeedback {
			feed = append(feed, s)
		}
	}
	slices.SortFunc(feed, func(a, b sample) int { return cmp.Compare(a.sent, b.sent) })
	feed = feed[:min(len(feed), 400)]
	var total int64
	for _, s := range feed {
		var req serve.FeedbackRequest
		if err := json.Unmarshal(sr.in.bodies[s.body].data, &req); err != nil {
			return 0, err
		}
		g, err := req.Graph.Graph(graph.CodecLimits{})
		if err != nil {
			return 0, err
		}
		t := rec.now()
		if _, err := model.OnlineUpdate(g, *req.Label); err != nil {
			return 0, err
		}
		end := rec.now()
		rec.add(0, spOnlineUpdate, t, end)
		total += end - t
	}
	return ratio(float64(total), float64(len(feed))) / 1e3, nil
}

// replaySet is a predictor and graphs to replay the per-graph calls on.
type replaySet struct {
	pred   *core.Predictor
	graphs []*graph.Graph
}

// replayKernels times the per-graph public calls of the query path one
// by one, on one goroutine, on up to 256 graphs of each set: ranking,
// packed encode, Hamming classify, and the int8 training encode.
func replayKernels(rec *recorder, sets []replaySet, m map[string]float64) {
	var ps pagerank.Scratch
	var ranks []int
	var sums [numSpanKinds]int64
	timed := func(kind spanKind, f func()) {
		t := rec.now()
		f()
		end := rec.now()
		rec.add(0, kind, t, end)
		sums[kind] += end - t
	}
	n := 0
	for _, set := range sets {
		enc := set.pred.Encoder()
		cfg := enc.Config()
		opts := pagerank.Options{Damping: cfg.PageRankDamping, Iterations: cfg.PageRankIterations}
		graphs := set.graphs[:min(len(set.graphs), 256)]
		for _, g := range graphs {
			timed(spRank, func() { ranks = pagerank.RanksInto(g, opts, ranks, &ps) })
			var hv *hdc.Binary
			timed(spEncodePacked, func() { hv = enc.EncodeGraphPacked(g) })
			timed(spClassifyEncoded, func() { set.pred.PredictEncoded(hv) })
			timed(spEncodeBipolar, func() { enc.EncodeGraph(g) })
		}
		n += len(graphs)
	}
	per := func(kind spanKind) float64 { return ratio(float64(sums[kind]), float64(n)) / 1e3 }
	m["pagerank.rank_us_per_graph"] = per(spRank)
	m["core.encode_packed_us_per_graph"] = per(spEncodePacked)
	m["hdc.classify_us_per_graph"] = per(spClassifyEncoded)
	m["core.encode_bipolar_us_per_graph"] = per(spEncodeBipolar)
}
