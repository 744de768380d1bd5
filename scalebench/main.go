// Command scalebench is the repository's layered scaling benchmark. One
// invocation runs one workload with one seed and prints every end-to-end
// metric (or, with --trace 1, every per-layer metric) by name and unit,
// followed by a last line of JSON:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every timed kernel call and every served job is checked against the
// sequential oracles outside the timed region; any mismatch makes the run
// exit non-zero. See README.md for the workloads, the metric definitions
// and which layer metric should move which end-to-end metric.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash scalebench/run.sh --workload paper-mesh --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// config is everything a workload run depends on. main fills it with the
// paper-scale sizes; the tests shrink the sizes.
type config struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	OutDir   string // where runs write span files and exported graphs

	Workers   int // nproc: Team/Pool size, and queue × kernel workers in serve-mix
	SetupReps int // set-up repetitions; setup_s is their median
	Sources   int // seeded BFS sources per graph

	MeshScale  int // linear shrink of the kernel workloads' meshes (1 = paper size)
	RMATScale  int
	RMATFactor int

	Serve serveConfig
}

// paperConfig is the configuration the benchmark command runs.
func paperConfig() config {
	return config{
		Workers:    runtime.NumCPU(),
		SetupReps:  3,
		Sources:    4,
		MeshScale:  1,
		RMATScale:  18,
		RMATFactor: 16,
		Serve:      paperServe(),
	}
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metric tables, in report order; the names
// and units are the ones BENCHMARK.json lists.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"seq_ms", "ms"},
	{"bfs_ms", "ms"},
	{"coloring_ms", "ms"},
	{"components_ms", "ms"},
	{"irregular_ms", "ms"},
	{"colors_ratio", "ratio"},
	{"job_ms.p50", "ms"},
	{"job_ms.p95", "ms"},
	{"goodput_rps", "1/s"},
	{"peak_heap_mb", "MB"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"gen.pwtk.s", "s"}, {"gen.ldoor.s", "s"}, {"gen.rmat.s", "s"}, {"graph.shuffle_s", "s"},
		{"sched.chunks_per_call", "count"}, {"sched.steals_per_call", "count"},
		{"sched.steal_fail_per_call", "count"}, {"sched.splits_per_call", "count"},
		{"sched.level_us.p50", "us"},
	}
	for _, v := range variants {
		defs = append(defs, metricDef{v.key() + ".ms", "ms"})
	}
	defs = append(defs,
		metricDef{"bfs.hybrid.bu_levels", "count"}, metricDef{"bfs.hybrid.bu_frac", "ratio"},
		metricDef{"bfs.hybrid.edges_per_arc", "ratio"}, metricDef{"bfs.dup_frac", "ratio"},
		metricDef{"coloring.rounds", "count"}, metricDef{"coloring.conflict_frac", "ratio"},
		metricDef{"coloring.colors", "count"},
		metricDef{"components.labelprop.rounds", "count"},
		metricDef{"irregular.computed_gbps", "GB/s"},
	)
	for _, f := range families {
		defs = append(defs, metricDef{"speedup." + f, "x"})
	}
	defs = append(defs,
		metricDef{"serve.queue_wait_ms.p50", "ms"}, metricDef{"serve.queue_wait_ms.p95", "ms"},
		metricDef{"serve.backlog_max", "count"},
		metricDef{"serve.cache_load_ms.p50", "ms"}, metricDef{"serve.cache_load_ms.p95", "ms"},
		metricDef{"serve.cache_hit_ratio", "ratio"},
	)
	for _, k := range serveKinds {
		defs = append(defs, metricDef{"serve.exec_ms." + k, "ms"})
	}
	return append(defs,
		metricDef{"serve.flush_ms.p50", "ms"}, metricDef{"serve.rejected", "count"},
		metricDef{"gen_lag_ms.p95", "ms"}, metricDef{"trace_overhead_frac", "ratio"},
		metricDef{"error_frac", "ratio"},
	)
}()

// result is one workload run: the metrics it measured and the oracle
// verdicts of every call or job it made.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	errs      []string
	notes     []string // human-readable lines: what the run exercised
}

var workloads = map[string]func(cfg config) (*result, error){
	"paper-mesh": func(cfg config) (*result, error) {
		return runKernelWorkload(cfg, []graphSpec{
			mesh("pwtk", cfg.MeshScale, false),
			mesh("ldoor", cfg.MeshScale, false),
		})
	},
	"skew-shuffle": func(cfg config) (*result, error) {
		return runKernelWorkload(cfg, []graphSpec{
			rmat(cfg.RMATScale, cfg.RMATFactor),
			mesh("pwtk", cfg.MeshScale, true),
		})
	},
	"serve-mix": runServeMix,
}

// runKernelWorkload sets up the graphs and runs the closed loop: untraced
// for the end-to-end metrics; with tracing, half the time untraced and half
// traced, for the per-layer metrics and the tracing overhead.
func runKernelWorkload(cfg config, specs []graphSpec) (*result, error) {
	kr, err := setupKernel(cfg, specs)
	if err != nil {
		return nil, err
	}
	defer kr.env.close()
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	res := &result{}
	if !cfg.Trace {
		runtime.GC() // set-up garbage is not the loop's
		heap := startHeapPeak()
		recs := kr.loop(budget, nil)
		kr.heapMB = heap.stopMB()
		res.metrics = kr.endToEnd(recs)
	} else {
		plain := kr.loop(budget/2, nil)
		tr := newTracer(runID(cfg))
		traced := kr.loop(budget/2, tr)
		if res.metrics, err = kr.perLayer(plain, traced, tr); err != nil {
			return nil, err
		}
		if err := tr.writeJSONL(tracePath(cfg)); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		res.notes = append(append(kr.describe(traced), kr.notes...), fmt.Sprintf("spans: %s", tracePath(cfg)))
	}
	res.attempted, res.failed, res.errs = kr.attempted, kr.failed, kr.errs
	return res, nil
}

func runID(cfg config) string { return fmt.Sprintf("%s-seed%d", cfg.Workload, cfg.Seed) }

func tracePath(cfg config) string { return filepath.Join(cfg.OutDir, "traces", runID(cfg)+".jsonl") }

// heapPeak samples the bytes in heap objects (HeapAlloc: live objects plus
// garbage not yet collected) every heapEvery until stopped and keeps the
// largest sample. No collection is forced, so allocation inside a call
// shows until the collector reclaims it.
type heapPeak struct {
	stop, done chan struct{}
	max        uint64
}

const heapEvery = 2 * time.Millisecond

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.max = max(h.max, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMB stops the sampler and returns the peak in MB.
func (h *heapPeak) stopMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.max) / (1 << 20)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the run's notes and metrics and, last, the JSON line. It
// returns whether every call and job passed its oracle. A per-layer metric
// that does not apply to the workload reads 0; an end-to-end metric must be
// measured on every workload.
func report(w io.Writer, cfg config, res *result) (bool, error) {
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	if cfg.Trace && res.attempted > 0 {
		res.metrics["error_frac"] = float64(res.failed) / float64(res.attempted)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	out := jsonResult{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !cfg.Trace {
			return false, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = jsonMetric{v, d.unit}
		fmt.Fprintf(w, "%-32s %14.6g %s\n", d.name, v, d.unit)
	}
	var unknown []string
	for k := range res.metrics {
		if !containsMetric(defs, k) {
			unknown = append(unknown, k)
		}
	}
	sort.Strings(unknown)
	if len(unknown) > 0 {
		return false, fmt.Errorf("metrics missing from the tables: %v", unknown)
	}
	for _, e := range res.errs {
		fmt.Fprintln(w, "oracle mismatch:", e)
	}
	out.Correct = res.failed == 0 && len(res.errs) == 0 && res.attempted > 0
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(w, string(line))
	return out.Correct, nil
}

func containsMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

func main() {
	if os.Getenv(clientEnv) == "1" {
		os.Exit(clientMain(os.Stdin, os.Stdout))
	}
	workload := flag.String("workload", "", "workload: paper-mesh, skew-shuffle or serve-mix")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 20, "measured time of the run")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	outDir := flag.String("out-dir", ".bench_build", "directory for span files and exported graphs")
	flag.Parse()

	cfg := paperConfig()
	cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace, cfg.OutDir = *workload, *seed, *seconds, *trace == 1, *outDir
	run, ok := workloads[cfg.Workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "scalebench: need --workload (paper-mesh, skew-shuffle, serve-mix), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalebench:", err)
		os.Exit(1)
	}
	correct, err := report(os.Stdout, cfg, res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalebench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}
