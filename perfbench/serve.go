package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"graphhd/internal/core"
	"graphhd/internal/dataset"
	"graphhd/internal/eval"
	"graphhd/internal/graph"
	"graphhd/internal/serve"
)

// serveSpec is one serve-* traffic mix. README.md gives the reasons for
// each choice.
type serveSpec struct {
	name    string
	dataset string // Table-I generator the graphs come from
	train   int    // graphs the served model is trained on
	calib   int    // cascade calibration holdout; 0 serves at full dimension
	pool    int    // distinct request graphs
	feed    int    // distinct labeled feedback graphs; 0 runs no learning model
	batch   int    // graphs per predict request; 1 uses the single-graph route
	bodies  int    // distinct batch request bodies (batch > 1)
	// rate is the open-loop arrival rate in requests per second, fixed
	// well below the seed code's capacity so that no backlog builds.
	rate       float64
	learnShare float64 // share of requests predicting on the learning model
	feedShare  float64 // share of requests posting one feedback sample
}

var (
	batchSmall = serveSpec{
		name: "serve-batch-small", dataset: "MUTAG", train: 188, pool: 512,
		batch: 32, bodies: 128, rate: 200,
	}
	singleLearn = serveSpec{
		name: "serve-single-learn", dataset: "DD", train: 400, calib: 200, pool: 256,
		feed: 256, batch: 1, rate: 300, learnShare: 0.1, feedShare: 0.05,
	}
)

// Cascade calibration as the -cascade-* flags of cmd/graphhd-serve are
// meant to be set: a 1024-bit stage 1 whose margin keeps accuracy within
// half a point of full dimension on a labeled holdout.
const (
	cascadePrefix = 1024
	cascadeTol    = 0.005
)

// An untraced run sets up at least minSetups times, and more while the
// set-ups so far took under setupBudget in total (at most maxSetups);
// setup_s is their median.
const (
	minSetups   = 3
	maxSetups   = 11
	setupBudget = time.Second
)

// moreSetups reports whether another set-up round is due after done
// rounds that took spent in total.
func moreSetups(traced bool, done int, spent time.Duration) bool {
	if traced {
		return done < 1
	}
	return done < minSetups || (done < maxSetups && spent < setupBudget)
}

// The warm-up round runs every phase once, unmeasured but checked: in
// trial runs the first round after set-up had an open-loop p99 three to
// four times that of later rounds, which would otherwise land in the
// metrics.
const (
	warmLocal  = 300 * time.Millisecond
	warmOpen   = time.Second
	warmClosed = 500 * time.Millisecond
)

// An untraced run cycles rounds times through an open-loop phase, a
// closed-loop phase and an in-process train/infer phase, so that every
// metric samples the whole run: a slow stretch of the shared host then
// weighs on all metrics alike instead of on whichever phase it hit.
// Latency quantiles pool every round's open-loop requests; capacity is
// the median over half-second windows, train and infer the median over
// calls.
const (
	rounds         = 8
	capacityWindow = 500 * time.Millisecond
)

// phases splits a run's measured seconds between the open-loop, the
// closed-loop and the in-process phases.
func phases(seconds float64) (open, closed, local time.Duration) {
	d := time.Duration(seconds * float64(time.Second))
	return d / 2, d * 7 / 20, d * 3 / 20
}

// serveData is the generated input of a serve workload.
type serveData struct {
	k                      int
	trainG, calibG, poolG  []*graph.Graph
	feedG                  []*graph.Graph
	trainY, calibY, poolY  []int
	feedY                  []int
	fixedModel, learnModel string
}

func generate(spec serveSpec, seed uint64) (*serveData, error) {
	total := spec.train + spec.calib + spec.pool + spec.feed
	ds, err := dataset.Generate(spec.dataset, dataset.Options{Seed: seed, GraphCount: total})
	if err != nil {
		return nil, err
	}
	d := &serveData{k: ds.NumClasses(), fixedModel: "default"}
	if spec.feed > 0 {
		d.fixedModel, d.learnModel = "serve", "learn"
	}
	// Labels are dealt round robin, so every contiguous slice is balanced.
	cut := func(n int) ([]*graph.Graph, []int) {
		g, y := ds.Graphs[:n:n], ds.Labels[:n:n]
		ds.Graphs, ds.Labels = ds.Graphs[n:], ds.Labels[n:]
		return g, y
	}
	d.trainG, d.trainY = cut(spec.train)
	d.calibG, d.calibY = cut(spec.calib)
	d.poolG, d.poolY = cut(spec.pool)
	d.feedG, d.feedY = cut(spec.feed)
	return d, nil
}

// stack is one running serving stack, configured as cmd/graphhd-serve
// configures it: artifacts loaded through the registry with the
// PrepareModel cascade hook, router, HTTP handler, loopback listener.
type stack struct {
	reg    *serve.Registry
	rt     *serve.Router
	srv    *http.Server
	served chan error
	base   string
	// switched is non-nil in traced runs: it flips the listener between
	// serve.NewHandler and the benchmark's traced handler.
	switched *switchHandler
	// trainable is the GRAPHHD1 artifact the trainer started from.
	trainable             string
	trainNanos, snapNanos int64
}

type switchHandler struct {
	traced      atomic.Bool
	plain, span http.Handler
}

func (h *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.traced.Load() {
		h.span.ServeHTTP(w, r)
		return
	}
	h.plain.ServeHTTP(w, r)
}

// startStack trains, snapshots, calibrates and starts the server.
func startStack(spec serveSpec, d *serveData, rec *recorder) (*stack, error) {
	st := &stack{}
	t0 := time.Now()
	m, err := core.Train(core.DefaultConfig(), d.trainG, d.trainY)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	snap := m.Snapshot()
	st.trainNanos, st.snapNanos = int64(t1.Sub(t0)), int64(time.Since(t1))

	var cascade *core.Cascade
	if spec.calib > 0 {
		c, _, err := eval.CalibrateCascade(snap, d.calibG, d.calibY, cascadePrefix, cascadeTol)
		if err != nil {
			return nil, err
		}
		cascade = &c
	}
	dir := filepath.Join(outDir, spec.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	packed := filepath.Join(dir, "model.ghdp")
	if err := snap.SaveFile(packed); err != nil {
		return nil, err
	}

	st.reg = serve.NewRegistry(serve.RegistryOptions{
		Replicas: 1,
		PrepareModel: func(_ string, p *core.Predictor) error {
			if cascade == nil {
				return nil
			}
			return p.SetCascade(*cascade)
		},
	})
	ok := false
	defer func() {
		if !ok {
			st.reg.Close()
		}
	}()
	for _, name := range []string{d.fixedModel, d.learnModel} {
		if name == "" {
			continue
		}
		if err := st.reg.LoadFile(name, packed); err != nil {
			return nil, err
		}
	}
	if d.learnModel != "" {
		st.trainable = filepath.Join(dir, "trainable.ghd")
		if err := m.SaveFile(st.trainable); err != nil {
			return nil, err
		}
		tm, err := core.LoadModelFile(st.trainable)
		if err != nil {
			return nil, err
		}
		if _, err := st.reg.AttachTrainer(d.learnModel, tm, serve.TrainerOptions{}); err != nil {
			return nil, err
		}
	}
	st.rt = serve.NewRouter(st.reg, serve.RouterOptions{DefaultModel: d.fixedModel})

	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	var h http.Handler = serve.NewHandler(st.rt, serve.HandlerOptions{Logger: log})
	if rec != nil {
		st.switched = &switchHandler{plain: h, span: newTracedHandler(st.rt, rec)}
		h = st.switched
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.base = "http://" + ln.Addr().String()
	st.srv = &http.Server{Handler: h}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	ok = true
	return st, nil
}

// close stops the listener, waits for the server goroutine, then drains
// the registry's engines and trainers.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	st.reg.Close()
	return err
}

// oracle answers the class the fixed model must serve for g, through a
// different public path than the engine's batch pipeline: the per-graph
// PredictWith, or PredictCascadeWith under the same cascade.
type oracle struct {
	pred    *core.Predictor
	scratch *core.EncoderScratch
}

func newOracle(rt *serve.Router, model string) (*oracle, error) {
	p, err := rt.Predictor(model)
	if err != nil {
		return nil, err
	}
	return &oracle{pred: p, scratch: p.Encoder().NewScratch()}, nil
}

func (o *oracle) class(g *graph.Graph) int {
	if _, ok := o.pred.Cascade(); ok {
		c, _ := o.pred.PredictCascadeWith(o.scratch, g)
		return c
	}
	return o.pred.PredictWith(o.scratch, g)
}

// wire converts g into its JSON wire form with edges in a seeded random
// order and orientation, as an arbitrary client would send them.
func wire(g *graph.Graph, rng *rand.Rand) *graph.GraphJSON {
	w := graph.ToJSON(g)
	rng.Shuffle(len(w.Edges), func(i, j int) { w.Edges[i], w.Edges[j] = w.Edges[j], w.Edges[i] })
	for i := range w.Edges {
		if rng.IntN(2) == 1 {
			w.Edges[i][0], w.Edges[i][1] = w.Edges[i][1], w.Edges[i][0]
		}
	}
	return w
}

// serveInputs is the prepared traffic: request bodies and the op mix.
type serveInputs struct {
	bodies []reqBody
	// draw picks the next request's body index.
	draw func(*rand.Rand) int32
}

func buildInputs(spec serveSpec, d *serveData, or *oracle, seed uint64) (*serveInputs, error) {
	rng := rand.New(rand.NewPCG(seed, 0x77697265))
	wires := make([]*graph.GraphJSON, len(d.poolG))
	want := make([]int, len(d.poolG))
	for i, g := range d.poolG {
		wires[i] = wire(g, rng)
		want[i] = or.class(g)
	}
	in := &serveInputs{}
	if spec.batch > 1 {
		for range spec.bodies {
			req := serve.PredictBatchRequest{Graphs: make([]*graph.GraphJSON, spec.batch)}
			b := reqBody{kind: opPredict, path: "/v1/predict/batch"}
			for j := range req.Graphs {
				i := rng.IntN(len(wires))
				req.Graphs[j] = wires[i]
				b.want = append(b.want, want[i])
				b.truth = append(b.truth, d.poolY[i])
			}
			data, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			b.data = data
			in.bodies = append(in.bodies, b)
		}
		n := int32(len(in.bodies))
		in.draw = func(r *rand.Rand) int32 { return r.Int32N(n) }
		return in, nil
	}

	for i, w := range wires {
		data, err := json.Marshal(serve.PredictRequest{Graph: w})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, reqBody{kind: opPredict, data: data,
			path: "/v1/models/" + d.fixedModel + "/predict", want: want[i : i+1], truth: d.poolY[i : i+1]})
	}
	learnOff := int32(len(in.bodies))
	for i := range wires {
		b := in.bodies[i]
		in.bodies = append(in.bodies, reqBody{kind: opLearn, data: b.data,
			path: "/v1/models/" + d.learnModel + "/predict"})
	}
	feedOff := int32(len(in.bodies))
	for i, g := range d.feedG {
		label := d.feedY[i]
		data, err := json.Marshal(serve.FeedbackRequest{Graph: wire(g, rng), Label: &label})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, reqBody{kind: opFeedback, data: data,
			path: "/v1/models/" + d.learnModel + "/feedback"})
	}
	nPool, nFeed := int32(len(wires)), int32(len(d.feedG))
	in.draw = func(r *rand.Rand) int32 {
		u := r.Float64()
		switch {
		case u < spec.feedShare:
			return feedOff + r.Int32N(nFeed)
		case u < spec.feedShare+spec.learnShare:
			return learnOff + r.Int32N(nPool)
		default:
			return r.Int32N(nPool)
		}
	}
	return in, nil
}

// tally accumulates the oracle's verdicts.
type tally struct {
	attempted, failed, mismatches, shed int64
	// labeled counts fixed-model answers, hits those that match the
	// generated label.
	labeled, hits int64
	notes         []string
}

// check runs the oracle over a finished phase and returns, per sample,
// how many graphs it answered correctly (0 for a failed request).
func (t *tally) check(bodies []reqBody, k int, samples []sample) []int {
	good := make([]int, len(samples))
	for i := range samples {
		s := &samples[i]
		b := &bodies[s.body]
		t.attempted++
		n, err := verify(b, k, s)
		if err != nil {
			t.failed++
			if s.status == http.StatusTooManyRequests {
				t.shed++
			}
			if errors.Is(err, errMismatch) {
				t.mismatches++
			}
			if len(t.notes) < 5 {
				t.notes = append(t.notes, fmt.Sprintf("failed %s: %v", b.path, err))
			}
			continue
		}
		good[i] = n
		// A verified fixed-model answer equals want.
		for j := range b.want {
			t.labeled++
			if b.want[j] == b.truth[j] {
				t.hits++
			}
		}
	}
	return good
}

var errMismatch = errors.New("oracle mismatch")

// verify checks one answer and returns the number of graphs it answered.
func verify(b *reqBody, k int, s *sample) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	if b.kind == opFeedback {
		var fr serve.FeedbackResponse
		if s.status != http.StatusAccepted {
			return 0, fmt.Errorf("status %d: %s", s.status, s.resp)
		}
		if err := json.Unmarshal(s.resp, &fr); err != nil || fr.Accepted != 1 {
			return 0, fmt.Errorf("feedback answer %q", s.resp)
		}
		return 0, nil
	}
	if s.status != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", s.status, s.resp)
	}
	classes := answerClasses(s.resp)
	if b.want != nil {
		if len(classes) != len(b.want) {
			return 0, fmt.Errorf("%w: %d classes for %d graphs", errMismatch, len(classes), len(b.want))
		}
		for j, c := range classes {
			if c != b.want[j] {
				return 0, fmt.Errorf("%w: graph %d served class %d, oracle %d", errMismatch, j, c, b.want[j])
			}
		}
		return len(classes), nil
	}
	if len(classes) != 1 || classes[0] < 0 || classes[0] >= k {
		return 0, fmt.Errorf("%w: class outside [0,%d) in %q", errMismatch, k, s.resp)
	}
	return 1, nil
}

// answerClasses decodes a single or batch predict answer; nil when the
// body is neither.
func answerClasses(body []byte) []int {
	var r struct {
		Class   *int  `json:"class"`
		Classes []int `json:"classes"`
	}
	if json.Unmarshal(body, &r) != nil {
		return nil
	}
	if r.Class != nil {
		return []int{*r.Class}
	}
	return r.Classes
}

// serveRun is one serve-* run after set-up: the stack, the prepared
// traffic, the load generator and the oracle's tally.
type serveRun struct {
	spec       serveSpec
	st         *stack
	d          *serveData
	in         *serveInputs
	cl         *client
	t          *tally
	out        *outcome
	rng        *rand.Rand
	gomaxprocs int
}

func (sr *serveRun) isPredict(s *sample) bool { return sr.in.bodies[s.body].kind != opFeedback }

// openPhase runs one open-loop phase of d at the workload's fixed rate,
// with a fresh draw of arrivals and requests.
func (sr *serveRun) openPhase(d time.Duration) []sample {
	offsets := poissonSchedule(sr.rng, sr.spec.rate, d)
	ops := make([]int32, len(offsets))
	for i := range ops {
		ops[i] = sr.in.draw(sr.rng)
	}
	samples := sr.cl.openLoop(ops, offsets, sr.cl.now()+int64(time.Millisecond))
	sr.t.check(sr.in.bodies, sr.d.k, samples)
	return samples
}

// closedPhase runs one closed-loop phase of d. It returns the samples
// and, per half-second window, the correctly answered graphs per second.
func (sr *serveRun) closedPhase(d time.Duration) ([]sample, []float64) {
	start := sr.cl.now()
	samples, end := sr.cl.closedLoop(sr.in.draw, sr.rng.Uint64(), start, d)
	good := sr.t.check(sr.in.bodies, sr.d.k, samples)
	n := max(int((end-start)/int64(capacityWindow)), 1)
	width := (end - start) / int64(n)
	graphs := make([]int, n)
	for i, s := range samples {
		graphs[min(int((s.done-start)/width), n-1)] += good[i]
	}
	rates := make([]float64, n)
	for w, g := range graphs {
		rates[w] = float64(g) / (float64(width) / 1e9)
	}
	return samples, rates
}

// latencyQuantile is the q-th quantile of predict latency, in
// milliseconds, timed from each request's due time.
func (sr *serveRun) latencyQuantile(samples []sample, q float64) float64 {
	return quantile(latencies(samples, sr.isPredict), q)
}

// runServe runs one serve-* workload.
func runServe(spec serveSpec, cfg runConfig) (*outcome, error) {
	epoch := time.Now()
	var rec *recorder
	if cfg.traced {
		rec = newRecorder(epoch)
	}
	sr := &serveRun{
		spec: spec, t: &tally{}, out: &outcome{metrics: map[string]float64{}},
		rng:        rand.New(rand.NewPCG(cfg.seed, 0x6f70656e)),
		gomaxprocs: runtime.GOMAXPROCS(0),
	}

	// Set up repeatedly (once when traced); keep the last stack.
	var setups []float64
	var spent time.Duration
	for moreSetups(cfg.traced, len(setups), spent) {
		if sr.st != nil {
			if err := sr.st.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		d, err := generate(spec, cfg.seed)
		if err != nil {
			return nil, err
		}
		st, err := startStack(spec, d, rec)
		if err != nil {
			return nil, err
		}
		if err := firstAnswer(st, d, spec); err != nil {
			st.close()
			return nil, fmt.Errorf("first answer: %w", err)
		}
		spent += time.Since(t0)
		setups = append(setups, time.Since(t0).Seconds())
		sr.st, sr.d = st, d
	}
	defer sr.st.close()

	or, err := newOracle(sr.st.rt, sr.d.fixedModel)
	if err != nil {
		return nil, err
	}
	if sr.in, err = buildInputs(spec, sr.d, or, cfg.seed); err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	sr.cl = newClient(sr.st.base, sr.in.bodies, conns, epoch)
	defer sr.cl.close()

	if _, _, err := localRates(sr.d.trainG, sr.d.trainY, or.pred, sr.d.poolG, warmLocal); err != nil {
		return nil, err
	}
	sr.openPhase(warmOpen)
	sr.closedPhase(warmClosed)

	m := sr.out.metrics
	openDur, closedDur, localDur := phases(cfg.seconds)
	if !cfg.traced {
		var lat, capacity, trains, infers []float64
		opened, closedN := 0, 0
		for range rounds {
			tr, inf, err := localRates(sr.d.trainG, sr.d.trainY, or.pred, sr.d.poolG, localDur/rounds)
			if err != nil {
				return nil, err
			}
			trains, infers = append(trains, tr...), append(infers, inf...)
			open := sr.openPhase(openDur / rounds)
			lat = append(lat, latencies(open, sr.isPredict)...)
			closed, rates := sr.closedPhase(closedDur / rounds)
			capacity = append(capacity, rates...)
			opened, closedN = opened+len(open), closedN+len(closed)
		}
		m["setup_s"] = median(setups)
		m["train_graphs_per_s"], m["infer_graphs_per_s"] = median(trains), median(infers)
		m["latency_p50_ms"], m["latency_p99_ms"] = quantile(lat, 0.5), quantile(lat, 0.99)
		m["capacity_graphs_per_s"] = median(capacity)
		m["accuracy"] = ratio(float64(sr.t.hits), float64(sr.t.labeled))
		sr.out.notes = append(sr.out.notes, fmt.Sprintf("%d rounds; open loop: %d requests at %.0f/s; closed loop: %d requests over %d connections",
			rounds, opened, spec.rate, closedN, conns))
	} else {
		untraced := sr.openPhase(openDur)
		m["latency_p99_ms"] = sr.latencyQuantile(untraced, 0.99)
		if err := sr.traced(rec, sr.latencyQuantile(untraced, 0.5), openDur, closedDur); err != nil {
			return nil, err
		}
		sr.out.spans = rec
	}
	t := sr.t
	sr.out.attempted, sr.out.failed, sr.out.mismatches, sr.out.shed = t.attempted, t.failed, t.mismatches, t.shed
	m["error_rate"] = ratio(float64(t.failed), float64(t.attempted))
	sr.out.notes = append(sr.out.notes, t.notes...)
	return sr.out, nil
}

// firstAnswer sends one request on the workload's predict route and
// checks it: set-up ends at the first correct answer.
func firstAnswer(st *stack, d *serveData, spec serveSpec) error {
	or, err := newOracle(st.rt, d.fixedModel)
	if err != nil {
		return err
	}
	g := d.poolG[0]
	b := reqBody{kind: opPredict, want: []int{or.class(g)}}
	var body any = serve.PredictRequest{Graph: graph.ToJSON(g)}
	b.path = "/v1/models/" + d.fixedModel + "/predict"
	if spec.batch > 1 {
		body = serve.PredictBatchRequest{Graphs: []*graph.GraphJSON{graph.ToJSON(g)}}
		b.path = "/v1/predict/batch"
	}
	if b.data, err = json.Marshal(body); err != nil {
		return err
	}
	cl := newClient(st.base, []reqBody{b}, 1, time.Now())
	defer cl.close()
	var s sample
	cl.do(&s)
	_, err = verify(&b, d.k, &s)
	return err
}

// localRates measures, in process and without the wire, how fast the
// workload's model trains (core.Train + Model.Snapshot on the training
// set) and predicts (Predictor.PredictAll on the request pool), in
// graphs per second per call. Calls alternate for d, at least three of
// each.
func localRates(trainG []*graph.Graph, trainY []int, p *core.Predictor, pool []*graph.Graph, d time.Duration) (trains, infers []float64, err error) {
	deadline := time.Now().Add(d)
	for len(trains) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		m, err := core.Train(core.DefaultConfig(), trainG, trainY)
		if err != nil {
			return nil, nil, err
		}
		m.Snapshot()
		t1 := time.Now()
		p.PredictAll(pool)
		t2 := time.Now()
		trains = append(trains, float64(len(trainG))/t1.Sub(t0).Seconds())
		infers = append(infers, float64(len(pool))/t2.Sub(t1).Seconds())
	}
	return trains, infers, nil
}
