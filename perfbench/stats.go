package main

import (
	"runtime/metrics"
	"slices"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSample reads the process-wide counters behind
// serve.http.allocs_per_request and go.gc_cpu_frac.
type runtimeSample struct {
	allocs       uint64
	gcCPU, total float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocs: s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
		total:  s[2].Value.Float64(),
	}
}
