package main

import (
	"fmt"
	"time"

	"graphhd/internal/core"
	"graphhd/internal/dataset"
	"graphhd/internal/eval"
	"graphhd/internal/graph"
)

// cvSet is one Table-I dataset at paper size with its stratified folds.
type cvSet struct {
	ds    *graph.Dataset
	folds [][]int
}

func generateCV(seed uint64) ([]cvSet, error) {
	var sets []cvSet
	for _, name := range dataset.Names() {
		ds, err := dataset.Generate(name, dataset.Options{Seed: seed})
		if err != nil {
			return nil, err
		}
		folds, err := eval.StratifiedKFold(ds.Labels, 10, seed)
		if err != nil {
			return nil, err
		}
		sets = append(sets, cvSet{ds, folds})
	}
	return sets, nil
}

// foldTiming is the wall time of one fold's calls, in nanoseconds.
type foldTiming struct {
	set                     int // dataset index
	trainGraphs, testGraphs int
	train, snapshot         int64 // core.Train, Model.Snapshot
	predictAll              int64 // Predictor.PredictAll on the held-out fold
	predict                 int64 // per-graph Predictor.Predict over the held-out fold
}

// passResult is one stratified 10-fold pass over the six datasets.
type passResult struct {
	folds               []foldTiming
	latencies           []float64 // per-graph Predict, ms
	accuracy            float64   // mean fold accuracy
	checked, mismatches int
	// replay holds each dataset's fold-0 predictor and test graphs.
	replay []replaySet
}

// runPass trains on nine folds and predicts the tenth, for every fold
// of every dataset, on one goroutine (the paper's timing protocol; Train
// and PredictAll use every core internally). Each held-out graph is then
// predicted again through the per-graph Predictor.Predict, which is both
// the single-caller latency sample and the oracle for PredictAll. With a
// recorder, each fold's calls are spanned.
func runPass(sets []cvSet, rec *recorder) (*passResult, error) {
	p := &passResult{}
	var accSum float64
	for si, set := range sets {
		for fi, test := range set.folds {
			var train []int
			for fj, f := range set.folds {
				if fj != fi {
					train = append(train, f...)
				}
			}
			tr, te := set.ds.Subset(train), set.ds.Subset(test)

			t0 := time.Now()
			m, err := core.Train(core.DefaultConfig(), tr.Graphs, tr.Labels)
			if err != nil {
				return nil, fmt.Errorf("%s fold %d: %w", set.ds.Name, fi, err)
			}
			t1 := time.Now()
			pred := m.Snapshot()
			t2 := time.Now()
			preds := pred.PredictAll(te.Graphs)
			t3 := time.Now()
			if rec != nil {
				at := func(t time.Time) int64 { return int64(t.Sub(rec.epoch)) }
				id := rec.ids.Add(1)
				rec.add(id, spRoot, at(t0), at(t3))
				rec.add(id, spTrain, at(t0), at(t1))
				rec.add(id, spSnapshot, at(t1), at(t2))
				rec.add(id, spPredictAll, at(t2), at(t3))
			}
			ft := foldTiming{set: si, trainGraphs: len(tr.Graphs), testGraphs: len(te.Graphs),
				train: int64(t1.Sub(t0)), snapshot: int64(t2.Sub(t1)), predictAll: int64(t3.Sub(t2))}

			correct := 0
			for i, g := range te.Graphs {
				s := time.Now()
				c := pred.Predict(g)
				d := time.Since(s)
				ft.predict += int64(d)
				p.latencies = append(p.latencies, float64(d)/1e6)
				p.checked++
				if c != preds[i] {
					p.mismatches++
				}
				if preds[i] == te.Labels[i] {
					correct++
				}
			}
			p.folds = append(p.folds, ft)
			accSum += float64(correct) / float64(len(te.Graphs))
			if fi == 0 {
				p.replay = append(p.replay, replaySet{pred, te.Graphs})
			}
		}
	}
	p.accuracy = accSum / float64(len(p.folds))
	return p, nil
}

// passRate is the graphs per second of a pass assembled from each
// dataset's median fold: the sum over datasets of a fold's graphs over
// the sum of its median fold time. Every dataset has ten folds of equal
// size to within one graph, so the median fold stands for all of them,
// and a burst of interference from other processes on the host moves a
// few folds instead of the result.
func passRate(folds []foldTiming, graphs func(*foldTiming) int, nanos func(*foldTiming) int64) float64 {
	times := map[int][]float64{}
	count := map[int]float64{}
	for i := range folds {
		f := &folds[i]
		times[f.set] = append(times[f.set], float64(nanos(f)))
		count[f.set] += float64(graphs(f))
	}
	var g, ns float64
	for set, ts := range times {
		g += count[set] / float64(len(ts))
		ns += median(ts)
	}
	return g / (ns / 1e9)
}

// runOffline runs the offline-cv workload: repeated passes of the
// paper's protocol for the run's seconds (at least one).
func runOffline(cfg runConfig) (*outcome, error) {
	epoch := time.Now()
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics

	var setups []float64
	var sets []cvSet
	var spent time.Duration
	for moreSetups(cfg.traced, len(setups), spent) {
		t0 := time.Now()
		var err error
		if sets, err = generateCV(cfg.seed); err != nil {
			return nil, err
		}
		spent += time.Since(t0)
		setups = append(setups, time.Since(t0).Seconds())
	}

	// A traced run alternates untraced and traced passes, so that the
	// tracing overhead compares passes under the same host conditions.
	var rec *recorder
	if cfg.traced {
		rec = newRecorder(epoch)
	}
	var (
		folds      []foldTiming
		lat, plain []float64
		replay     []replaySet
		accuracy   float64
		passes     int
		rt0        = readRuntime()
	)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for passes == 0 || (cfg.traced && passes < 2) || time.Now().Before(deadline) {
		traced := cfg.traced && passes%2 == 1
		var r *recorder
		if traced {
			r = rec
		}
		p, err := runPass(sets, r)
		if err != nil {
			return nil, err
		}
		passes++
		out.attempted += int64(p.checked)
		out.failed += int64(p.mismatches)
		out.mismatches += int64(p.mismatches)
		if cfg.traced && !traced {
			plain = append(plain, p.latencies...)
			continue
		}
		folds = append(folds, p.folds...)
		lat = append(lat, p.latencies...)
		replay, accuracy = p.replay, p.accuracy
	}
	rt1 := readRuntime()
	if out.mismatches > 0 {
		out.notes = append(out.notes, fmt.Sprintf("oracle: %d PredictAll classes differ from per-graph Predict", out.mismatches))
	}
	out.notes = append(out.notes, fmt.Sprintf("%d passes of 10-fold CV over %d datasets", passes, len(sets)))

	testGraphs := func(f *foldTiming) int { return f.testGraphs }
	m["error_rate"] = ratio(float64(out.failed), float64(out.attempted))
	if !cfg.traced {
		m["setup_s"] = median(setups)
		m["train_graphs_per_s"] = passRate(folds, func(f *foldTiming) int { return f.trainGraphs },
			func(f *foldTiming) int64 { return f.train + f.snapshot })
		m["infer_graphs_per_s"] = passRate(folds, testGraphs, func(f *foldTiming) int64 { return f.predictAll })
		m["capacity_graphs_per_s"] = passRate(folds, testGraphs, func(f *foldTiming) int64 { return f.predict })
		m["latency_p50_ms"], m["latency_p99_ms"] = quantile(lat, 0.5), quantile(lat, 0.99)
		m["accuracy"] = accuracy
		return out, nil
	}

	// Traced: fold spans, then per-graph replays of the query and training
	// encode kernels on each dataset's fold-0 test graphs.
	for _, mc := range catalog {
		if mc.perLayer {
			m[mc.name] = 0
		}
	}
	var trainNs, snapNs float64
	for _, f := range folds {
		trainNs += float64(f.train)
		snapNs += float64(f.snapshot)
	}
	m["core.train_ms_per_fold"] = trainNs / float64(len(folds)) / 1e6
	m["core.snapshot_ms"] = snapNs / float64(len(folds)) / 1e6
	var root, children float64
	for _, s := range rec.since(0) {
		if s.kind == spRoot {
			root += float64(s.end - s.start)
		} else {
			children += float64(s.end - s.start)
		}
	}
	m["trace.root_us"] = root / float64(len(folds)) / 1e3
	m["trace.addup_error_frac"] = ratio(root-children, root)
	m["trace.overhead_p50_frac"] = ratio(quantile(lat, 0.5), quantile(plain, 0.5)) - 1
	m["latency_p99_ms"] = quantile(plain, 0.99)
	m["go.gc_cpu_frac"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.total-rt0.total)

	replayKernels(rec, replay, m)
	out.notes = append(out.notes, fmt.Sprintf("traced: train + snapshot + predict_all spans add up to their fold root within %.2f%%; tracing overhead on per-graph p50 %.1f%%",
		100*m["trace.addup_error_frac"], 100*m["trace.overhead_p50_frac"]))
	out.spans = rec
	return out, nil
}
