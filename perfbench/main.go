// Command perfbench is the repository's end-to-end benchmark: one named
// workload, generated from a seed, measured for a fixed time and checked
// against an output oracle.
//
//	perfbench --workload serve-batch-small --seed 1 --seconds 24 --trace 0
//
// With --trace 0 it measures the end-to-end metrics untraced; with
// --trace 1 it runs the workload again with spans recorded around every
// call into a layer and reports the per-layer metrics. A human-readable
// report (provenance, operation counts, every metric) goes to standard
// output first; the last line is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"name": {"value": 1.2, "unit": "ms"}}}
//
// The full report, and the span dump of a traced run, are also written
// under .bench_build/runs/ in the working directory. README.md in
// this directory defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"graphhd/internal/hdc"
)

// outDir holds run artifacts: model files, reports and span dumps.
const outDir = ".bench_build/runs"

// metricDef is one reported metric. perLayer metrics come from the
// traced run, the others from the untraced run.
type metricDef struct {
	name, unit string
	perLayer   bool
}

// catalog lists every metric the benchmark reports, in report order. It
// mirrors the end_to_end and per_layer lists of BENCHMARK.json.
var catalog = []metricDef{
	{"setup_s", "s", false},
	{"latency_p50_ms", "ms", false},
	{"capacity_graphs_per_s", "graphs/s", false},
	{"train_graphs_per_s", "graphs/s", false},
	{"infer_graphs_per_s", "graphs/s", false},
	{"accuracy", "fraction", false},

	{"latency_p99_ms", "ms", true},
	{"loadgen.lag_p99_ms", "ms", true},
	{"serve.http.decode_us", "us", true},
	{"serve.http.respond_us", "us", true},
	{"serve.http.unattributed_us", "us", true},
	{"serve.http.allocs_per_request", "count", true},
	{"go.gc_cpu_frac", "fraction", true},
	{"graph.build_us_per_graph", "us", true},
	{"serve.router.call_us", "us", true},
	{"serve.router.quota_rejected", "count", true},
	{"serve.engine.queue_wait_us_p50", "us", true},
	{"serve.engine.queue_wait_us_p99", "us", true},
	{"serve.engine.batch_size_mean", "graphs", true},
	{"serve.engine.busy_frac", "fraction", true},
	{"serve.engine.rejected", "count", true},
	{"core.plan_us_per_graph", "us", true},
	{"core.encode_us_per_graph", "us", true},
	{"core.classify_us_per_graph", "us", true},
	{"core.escalate_us_per_graph", "us", true},
	{"core.stage1_hit_frac", "fraction", true},
	{"core.plan_distinct_frac", "fraction", true},
	{"core.train_ms_per_fold", "ms", true},
	{"core.snapshot_ms", "ms", true},
	{"core.encode_bipolar_us_per_graph", "us", true},
	{"core.encode_packed_us_per_graph", "us", true},
	{"pagerank.rank_us_per_graph", "us", true},
	{"hdc.classify_us_per_graph", "us", true},
	{"core.online_update_us_per_sample", "us", true},
	{"serve.trainer.trained_per_s", "1/s", true},
	{"serve.trainer.backlog_max", "count", true},
	{"serve.trainer.dropped", "count", true},
	{"serve.trainer.snapshots", "count", true},
	{"serve.trainer.promotions", "count", true},
	{"serve.trainer.rollbacks", "count", true},
	{"serve.trainer.shadow_mirrored", "count", true},
	{"serve.registry.swaps", "count", true},
	{"trace.root_us", "us", true},
	{"trace.addup_error_frac", "fraction", true},
	{"trace.overhead_p50_frac", "fraction", true},
	{"trace.records_missed", "count", true},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    uint64
	seconds float64
	traced  bool
}

// outcome is what a workload run produces. Metrics holds every value the
// run measured, keyed by catalog name, plus report-only extras (such as
// error_rate) that the final JSON line omits.
type outcome struct {
	attempted, failed int64
	// mismatches counts oracle disagreements; shed counts 429 answers.
	mismatches, shed int64
	metrics          map[string]float64
	// notes are report lines: add-up check, oracle failures, phase sizes.
	notes []string
	// spans is the traced run's span dump, written out after the run.
	spans *recorder
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"serve-batch-small":  func(c runConfig) (*outcome, error) { return runServe(batchSmall, c) },
	"serve-single-learn": func(c runConfig) (*outcome, error) { return runServe(singleLearn, c) },
	"offline-cv":         runOffline,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: serve-batch-small, serve-single-learn or offline-cv")
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
		seconds  = flag.Float64("seconds", 24, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 runs the traced workload and reports per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *workload, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1}
	steal0, total0 := cpuJiffies()
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	steal1, total1 := cpuJiffies()
	out.metrics["host.steal_frac"] = ratio(steal1-steal0, total1-total0)
	if err := finish(*workload, cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// provenance identifies what produced a result. Numbers from different
// hosts or kernel tiers are not comparable.
type provenance struct {
	CPUModel    string `json:"cpu_model"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	KernelTier  string `json:"kernel_tier"`
	CPUFeatures string `json:"cpu_features"`
}

func hostProvenance() provenance {
	ks := hdc.Kernels()
	return provenance{
		CPUModel:    cpuModel(),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		KernelTier:  ks.Active.String(),
		CPUFeatures: ks.CPUFeatures,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo; "unknown"
// where that file is absent.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuJiffies reads the host-wide steal and total CPU time from the first
// line of /proc/stat; zeros where that file is absent. Steal is time the
// hypervisor ran something else on this machine's virtual CPUs: a run
// with a few percent of it is slower and noisier than one without, so
// the report prints it beside the results.
func cpuJiffies() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		// user nice system idle iowait irq softirq steal [guest guest_nice],
		// where guest time is already counted in user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// finish prints the report, writes the report file (and span dump), and
// prints the result object as the last line of standard output.
func finish(workload string, cfg runConfig, out *outcome) error {
	prov := hostProvenance()
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range catalog {
		if m.perLayer != cfg.traced {
			continue
		}
		v, ok := out.metrics[m.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", workload, m.name)
		}
		res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}

	mode := "untraced"
	if cfg.traced {
		mode = "traced"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g %s\n", workload, cfg.seed, cfg.seconds, mode)
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s features=%s\n",
		prov.CPUModel, prov.NProc, prov.GOMAXPROCS, prov.GoVersion, prov.KernelTier, prov.CPUFeatures)
	fmt.Printf("ops: attempted=%d succeeded=%d failed=%d (oracle mismatches %d, 429 sheds %d)\n",
		out.attempted, out.attempted-out.failed, out.failed, out.mismatches, out.shed)
	for _, n := range out.notes {
		fmt.Println("note:", n)
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	units := map[string]string{"error_rate": "fraction", "host.steal_frac": "fraction"}
	for _, m := range catalog {
		units[m.name] = m.unit
	}
	for _, n := range names {
		fmt.Printf("metric %-36s %14.6g %s\n", n, out.metrics[n], units[n])
	}

	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-%s", workload, cfg.seed, mode))
	full := struct {
		Workload   string             `json:"workload"`
		Seed       uint64             `json:"seed"`
		Seconds    float64            `json:"seconds"`
		Traced     bool               `json:"traced"`
		Provenance provenance         `json:"provenance"`
		Mismatches int64              `json:"oracle_mismatches"`
		Shed       int64              `json:"shed_429"`
		Notes      []string           `json:"notes"`
		AllMetrics map[string]float64 `json:"all_metrics"`
		Result     result             `json:"result"`
	}{workload, cfg.seed, cfg.seconds, cfg.traced, prov, out.mismatches, out.shed, out.notes, out.metrics, res}
	b, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if out.spans != nil {
		if err := out.spans.writeFile(base + ".spans.tsv.gz"); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
