package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names a span: the layer and the public call it wraps. The
// parent of each kind is fixed, so a span's cause is its request's span
// of the parent kind.
type spanKind uint8

const (
	spRoot            spanKind = iota // client round trip (serve) or one CV pass (offline)
	spDecode                          // encoding/json decode into serve's request types
	spLookup                          // Router.Predictor: model lookup before validation
	spBuild                           // GraphJSON.Graph: codec checks + graph.Builder
	spRouter                          // Router.Predict / Router.PredictBatchInto
	spFeed                            // Registry.Trainer + Trainer.Feed
	spRespond                         // response encode and write
	spQueue                           // engine queue wait + dispatch (flight recorder)
	spBatch                           // engine worker batch, pickup to results posted
	spPlan                            // core stages inside a batch (flight recorder)
	spEncode                          //
	spClassify                        //
	spEscalate                        //
	spTrain                           // core.Train on one fold
	spSnapshot                        // Model.Snapshot on one fold
	spPredictAll                      // Predictor.PredictAll on one held-out fold
	spRank                            // replay: pagerank.RanksInto
	spEncodePacked                    // replay: Encoder.EncodeGraphPacked
	spClassifyEncoded                 // replay: Predictor.PredictEncoded
	spEncodeBipolar                   // replay: Encoder.EncodeGraph
	spOnlineUpdate                    // replay: Model.OnlineUpdate on a copy
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spRoot:            "root",
	spDecode:          "serve.http.decode",
	spLookup:          "serve.router.lookup",
	spBuild:           "graph.build",
	spRouter:          "serve.router.call",
	spFeed:            "serve.trainer.feed",
	spRespond:         "serve.http.respond",
	spQueue:           "serve.engine.queue",
	spBatch:           "serve.engine.batch",
	spPlan:            "core.plan",
	spEncode:          "core.encode",
	spClassify:        "core.classify",
	spEscalate:        "core.escalate",
	spTrain:           "core.train",
	spSnapshot:        "core.snapshot",
	spPredictAll:      "core.predict_all",
	spRank:            "pagerank.rank",
	spEncodePacked:    "core.encode_packed",
	spClassifyEncoded: "hdc.classify",
	spEncodeBipolar:   "core.encode_bipolar",
	spOnlineUpdate:    "core.online_update",
}

// spanParents maps each child kind to the kind of the span that caused
// it; kinds without an entry are roots.
var spanParents = map[spanKind]spanKind{
	spDecode: spRoot, spLookup: spRoot, spBuild: spRoot, spRouter: spRoot,
	spFeed: spRoot, spRespond: spRoot,
	spQueue: spRouter, spBatch: spRouter,
	spPlan: spBatch, spEncode: spBatch, spClassify: spBatch, spEscalate: spBatch,
	spTrain: spRoot, spSnapshot: spRoot, spPredictAll: spRoot,
}

// span is one timed call. Times are nanoseconds since the recorder's
// epoch. Request 0 marks spans not tied to one request: engine batches
// read from the flight recorder (which cannot yet be linked to the
// requests they served) and per-graph replays.
type span struct {
	req        uint64
	kind       spanKind
	start, end int64
}

// recorder keeps every span of a traced run in memory until the run
// ends. Spans come from the client goroutines and from the server's
// handler goroutines, hence the lock.
type recorder struct {
	epoch time.Time
	// ids numbers the requests of a run that has no client to do it.
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(req uint64, kind spanKind, start, end int64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{req, kind, start, end})
	r.mu.Unlock()
}

// since returns a copy of the spans that started at or after t.
func (r *recorder) since(t int64) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.start >= t {
			out = append(out, s)
		}
	}
	return out
}

// writeFile dumps every span, gzip-compressed, as tab-separated
// request, span, parent, start_ns, end_ns.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "request\tspan\tparent\tstart_ns\tend_ns")
	r.mu.Lock()
	for _, s := range r.spans {
		parent := "-"
		if p, ok := spanParents[s.kind]; ok {
			parent = spanNames[p]
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\n", s.req, spanNames[s.kind], parent, s.start, s.end)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
