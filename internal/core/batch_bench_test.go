package core

import (
	"testing"

	"graphhd/internal/dataset"
)

// BenchmarkPredictInto times the batch primitive on a 32-graph batch of
// every synthetic Table-I dataset, at full width and with a cascade,
// next to its per-graph twin: a PredictCascadeWith loop over the same
// graphs on the same scratch ("-loop"). Any batch-only fast path has to
// beat the loop in the same run to earn its code. Both report ns/graph
// and stay at 0 allocs/op.
func BenchmarkPredictInto(b *testing.B) {
	for _, name := range dataset.Names() {
		ds := dataset.MustGenerate(name, dataset.Options{Seed: 7, GraphCount: 48})
		m, err := Train(DefaultConfig(), ds.Graphs, ds.Labels)
		if err != nil {
			b.Fatal(err)
		}
		graphs := ds.Graphs[:32]
		out := make([]int, len(graphs))
		for _, mode := range []string{"full", "cascade"} {
			pred := m.Snapshot()
			if mode == "cascade" {
				if err := pred.SetCascade(Cascade{DPrefix: 1024, Margin: 12}); err != nil {
					b.Fatal(err)
				}
			}
			s := pred.Encoder().NewScratch()
			batch := func() { pred.PredictInto(s, graphs, out, nil) }
			loop := func() {
				for i, g := range graphs {
					out[i], _ = pred.PredictCascadeWith(s, g)
				}
			}
			for _, v := range []struct {
				suffix string
				run    func()
			}{{"", batch}, {"-loop", loop}} {
				b.Run(name+"/"+mode+v.suffix, func(b *testing.B) {
					v.run()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						v.run()
					}
					b.StopTimer()
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(graphs)), "ns/graph")
				})
			}
		}
	}
}
