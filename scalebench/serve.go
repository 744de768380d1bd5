package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"micgraph/internal/bfs"
	"micgraph/internal/core"
	"micgraph/internal/graph"
	"micgraph/internal/graphio"
	"micgraph/internal/irregular"
	"micgraph/internal/mic"
	"micgraph/internal/serve"
	"micgraph/internal/telemetry"
)

// serveConfig sizes serve-mix: what the tests shrink.
type serveConfig struct {
	Scale      int       // the working-set graphs' shrink scale
	SweepScale int       // the sweep jobs' suite scale
	Rates      []float64 // offered rates, the reference rate first, then rising
}

// paperServe is serve-mix as the benchmark command runs it.
func paperServe() serveConfig {
	return serveConfig{Scale: 4, SweepScale: 8, Rates: []float64{10, 30}}
}

const (
	hotGraph   = "pwtk"  // stays resident in the cache; every variant runs on it
	experiment = "fig3a" // the sweep jobs' experiment
	// The sweep suite (17.6 MB), the hot graph (2.9 MB) and either cold
	// graph (2.9 or 1.9 MB) fit; both cold graphs do not.
	cacheBytes  = 47 << 19
	refShare    = 0.8  // share of the measured time at the reference rate; the higher rates split the rest
	batchCycles = 20   // batch stream: cycles through every hot-graph variant, which it then repeats
	sweepFrac   = 0.10 // share of sweep jobs
	exportFrac  = 0.02 // share of export jobs
	coldFrac    = 0.08 // share of kernel jobs on the cold graphs

	// A job meets the latency limit when it is served correctly within
	// limitFactor times the reference rate's p95 in the same run; goodput
	// counts those jobs at the highest steady rate. At 30/s on 2 CPUs a
	// window's p95 stays within 2× of the reference p95 in most runs and
	// reached 5× in a few, so a p95-meets-the-limit test flips at random.
	limitFactor = 3
	maxLagMS    = 10 // generator lateness (p95) beyond which a rate is invalid
	oracleReps  = 5  // irregular.Sequential timing rounds after set-up and each rate
)

// workingSet is the served graphs: the hot graph at index 0, then the two
// cold graphs, which never fit in the cache together.
var workingSet = []string{hotGraph, "bmw3_2", "auto"}

var serveKinds = []string{"bfs", "coloring", "components", "irregular", "sweep", "export"}

// servedGraph is one working-set graph with its oracles.
type servedGraph struct {
	*graphCase
	levelsBySource map[int32]int // BFS source -> level count
	reach          int
	irrSum         float64
}

// plannedJob is one job of the open-loop schedule.
type plannedJob struct {
	due   time.Duration // offset from the window start
	spec  serve.JobSpec
	graph int // index into the working set; -1 for sweeps
}

// jobRecord is what the client saw of one job.
type jobRecord struct {
	plannedJob
	lagMS     float64
	latencyMS float64 // due -> end of the result stream; +Inf when not served
	body      []byte
	view      serve.JobView
	err       error
	dueAt     time.Time
	endAt     time.Time
}

// window is one fixed offered rate, with the batch stream beside it.
type window struct {
	rate    float64
	dur     time.Duration
	backlog []float64 // outstanding open-loop jobs sampled at each arrival
	jobs    []*jobRecord
	batch   []*jobRecord // the batch stream's cycle; after the window, the jobs sent
	startAt time.Time
}

// mixServer is the system under test: a serve.Server behind a loopback
// listener that also speaks unencrypted HTTP/2, so the load generator sends
// every job of the mix over at most nproc TCP connections however many are
// in flight.
type mixServer struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	conns  int     // the load generator's connection limit: nproc
	heapMB float64 // peak heap while windows were driven
	client *http.Client
	done   chan error
}

func startMixServer(cfg config) (*mixServer, error) {
	// nproc queue workers, each running its kernels on one worker: a job
	// needs one CPU, not all of them at once (see planBatch).
	srv := serve.New(serve.Config{
		Workers:       cfg.Workers,
		KernelWorkers: 1,
		QueueDepth:    1 << 16, // never refuse: an overloaded rate shows as backlog
		CacheBytes:    cacheBytes,
		// MaxJobs stays at the server's default: the generator reads each
		// job's result and view as soon as it ends, and the heap then holds
		// a fixed number of finished jobs however many the batch stream ran.
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		drainServer(srv)
		return nil, err
	}
	var protos http.Protocols
	protos.SetUnencryptedHTTP2(true)
	protos.SetHTTP1(true)
	ms := &mixServer{
		srv:   srv,
		hs:    &http.Server{Handler: srv.Handler(), Protocols: &protos},
		base:  "http://" + ln.Addr().String(),
		conns: cfg.Workers,
		done:  make(chan error, 1),
	}
	ms.client = &http.Client{}
	go func() { ms.done <- ms.hs.Serve(ln) }()
	if _, err := ms.get(context.Background(), "/healthz"); err != nil {
		ms.close()
		return nil, err
	}
	return ms, nil
}

func drainServer(srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	srv.Drain(ctx)
}

// close stops the listener and waits for the serving goroutine, then
// drains the job queue and stops the worker runtimes.
func (ms *mixServer) close() {
	ms.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ms.hs.Shutdown(ctx)
	<-ms.done
	drainServer(ms.srv)
}

func (ms *mixServer) get(ctx context.Context, path string) ([]byte, error) {
	return get(ctx, ms.client, ms.base+path)
}

type metricsz struct {
	Counters telemetry.Snapshot `json:"counters"`
	Cache    serve.CacheStats   `json:"cache"`
	Totals   serve.JobTotals    `json:"jobs_total"`
	Gauges   map[string]int64   `json:"gauges"`
}

func (ms *mixServer) metrics() (metricsz, error) {
	var m metricsz
	body, err := ms.get(context.Background(), "/metricsz")
	if err == nil {
		err = json.Unmarshal(body, &m)
	}
	return m, err
}

// serveMix is one serve-mix run.
type serveMix struct {
	cfg      config
	graphs   []*servedGraph
	setup    []float64
	genS     map[string][]float64
	irrSeqMS []float64 // irregular.Sequential call times on the hot graph
	exports  string
	nextCold int // cold jobs planned so far
}

// setupServeMix generates the working set the oracles need and starts the
// server 3 × cfg.SetupReps times (set-up takes well under a second here);
// set-up time is the median repetition. The server's own graph cache starts
// cold in every repetition.
func setupServeMix(cfg config) (*serveMix, *mixServer, error) {
	sm := &serveMix{cfg: cfg, genS: map[string][]float64{}, exports: filepath.Join(cfg.OutDir, "export")}
	if err := os.MkdirAll(sm.exports, 0o755); err != nil {
		return nil, nil, err
	}
	var gs []*graph.Graph
	var ms *mixServer
	for rep := 0; rep < 3*cfg.SetupReps; rep++ {
		if ms != nil {
			ms.close()
			ms = nil
		}
		gs = nil
		runtime.GC() // every repetition starts from the same heap
		t := time.Now()
		for _, name := range workingSet {
			tg := time.Now()
			g, err := graphio.Load("", name, cfg.Serve.Scale)
			if err != nil {
				if ms != nil {
					ms.close()
				}
				return nil, nil, err
			}
			sm.genS["gen."+name+".s"] = append(sm.genS["gen."+name+".s"], time.Since(tg).Seconds())
			gs = append(gs, g)
		}
		var err error
		if ms, err = startMixServer(cfg); err != nil {
			return nil, nil, err
		}
		sm.setup = append(sm.setup, time.Since(t).Seconds())
	}
	for i, name := range workingSet {
		gc := prepare(name, gs[i], cfg.Sources+1, cfg.Seed)
		sg := &servedGraph{graphCase: gc, levelsBySource: map[int32]int{}}
		// Source 0 means "the default source" to the server; skip it.
		var srcs []int32
		for si, s := range gc.sources {
			if s != 0 && len(srcs) < cfg.Sources {
				srcs = append(srcs, s)
				sg.levelsBySource[s] = gc.numLevels[si]
			}
		}
		gc.sources = srcs
		for _, l := range gc.levels[0] {
			if l != bfs.Unvisited {
				sg.reach++
			}
		}
		for _, x := range gc.irr {
			sg.irrSum += x
		}
		sm.graphs = append(sm.graphs, sg)
	}
	sm.timeIrregular(oracleReps)
	return sm, ms, nil
}

// timeIrregular times irregular.Sequential reps times on the hot graph.
// The serve layer has no sequential irregular job, so this call, made by
// the benchmark, is the irregular family's sequential base on serve-mix.
// The run calls it after set-up and again after every rate, so the base
// samples the machine across the whole run.
func (sm *serveMix) timeIrregular(reps int) {
	sg := sm.graphs[0]
	for rep := 0; rep < reps; rep++ {
		t := time.Now()
		irregular.Sequential(sg.g, sg.state, irrIters)
		sm.irrSeqMS = append(sm.irrSeqMS, float64(time.Since(t).Nanoseconds())/1e6)
	}
}

// familyMS is the geometric mean, over the family's sequential or parallel
// variants on the hot graph, of each variant's median exec time. For the
// sequential irregular kernel it is the benchmark's own timing.
func (sm *serveMix) familyMS(exec map[string][]float64, f string, seq bool) float64 {
	if f == "irregular" && seq {
		return median(sm.irrSeqMS)
	}
	var xs []float64
	for k, v := range exec {
		if family(k) == f && (k == f+".seq") == seq {
			xs = append(xs, median(v))
		}
	}
	return geomean(xs)
}

// kernelJobs lists every served kernel variant on graph gi.
func (sm *serveMix) kernelJobs(gi int) []plannedJob {
	var out []plannedJob
	for _, v := range variants {
		if v.family == "irregular" && !v.parallel() {
			continue // the serve layer has no sequential irregular job
		}
		out = append(out, plannedJob{graph: gi, spec: serve.JobSpec{Kind: v.family, Variant: v.name}})
	}
	return out
}

// plan builds one window's schedule: n = rate × duration jobs at seeded
// uniform times over the window (a Poisson process conditioned on its
// count), drawn from a fixed mix, so a seed changes arrival times, order,
// sources and pairing but not the mix's composition:
//
//   - sweep and export shares (exports write the hot graph);
//   - a cold share of kernel jobs, which alternate between the cold graphs
//     in arrival order: two cold graphs never fit in the cache together,
//     so every cold job loads its graph and evicts the other one;
//   - the rest cycles through every kernel variant on the hot graph, which
//     stays resident.
func (sm *serveMix) plan(w *window, r *rand.Rand) {
	sc := sm.cfg.Serve
	n := int(math.Round(w.rate * w.dur.Seconds()))
	share := func(frac float64) int { return int(math.Round(float64(n) * frac)) }
	var jobs []plannedJob
	for i := 0; i < share(sweepFrac); i++ {
		jobs = append(jobs, plannedJob{graph: -1, spec: sweepSpec(sc)})
	}
	for i := 0; i < share(exportFrac); i++ {
		jobs = append(jobs, plannedJob{graph: 0, spec: serve.JobSpec{Kind: serve.KindExport,
			Output: filepath.Join(sm.exports, hotGraph+".bin"), Format: "bin"}})
	}
	jobs = fill(jobs, sm.kernelJobs(-1), share(coldFrac), r) // graph chosen in arrival order below
	jobs = fill(jobs, sm.kernelJobs(0), n-len(jobs), r)
	jobs = arrange(jobs, r)
	dues := make([]time.Duration, len(jobs))
	for i := range dues {
		dues[i] = time.Duration(r.Float64() * float64(w.dur))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	for i, j := range jobs {
		if j.graph == -1 && j.spec.Kind != serve.KindSweep {
			j.graph = 1 + sm.nextCold%2
			sm.nextCold++
		}
		if j.graph >= 0 {
			j.spec.Graph = serve.GraphSpec{Suite: workingSet[j.graph], Scale: sc.Scale}
		}
		if j.spec.Kind == serve.KindBFS {
			srcs := sm.graphs[j.graph].sources
			j.spec.Source = int(srcs[r.IntN(len(srcs))])
		}
		j.due = dues[i]
		w.jobs = append(w.jobs, &jobRecord{plannedJob: j})
	}
}

// fill appends k jobs to jobs cycling through pool, reshuffled every cycle.
func fill(jobs, pool []plannedJob, k int, r *rand.Rand) []plannedJob {
	for k > 0 {
		r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		for _, p := range pool {
			if k == 0 {
				break
			}
			jobs = append(jobs, p)
			k--
		}
	}
	return jobs
}

// planBatch plans the window's batch stream: batchCycles cycles through
// every kernel variant on the hot graph, each cycle reshuffled; the stream
// repeats them for as long as the window runs.
//
// One batch job is always in flight, so the server never idles and a
// kernel runs as in the kernel workloads' closed loop; the family metrics
// (seq_ms, bfs_ms, coloring_ms, components_ms, irregular_ms, colors_ratio)
// come from the batch jobs. Without it the CPUs idle between open-loop jobs
// at these rates, and on a shared host the exec times of jobs started from
// idle moved by up to 2× between runs: with one queue worker running
// nproc-wide kernels, a kernel started from idle ran at the sequential
// speed in most runs and twice as fast in others.
func (sm *serveMix) planBatch(w *window, r *rand.Rand) {
	pool := sm.kernelJobs(0)
	for _, j := range fill(nil, pool, batchCycles*len(pool), r) {
		j.spec.Graph = serve.GraphSpec{Suite: hotGraph, Scale: sm.cfg.Serve.Scale}
		if j.spec.Kind == serve.KindBFS {
			srcs := sm.graphs[0].sources
			j.spec.Source = int(srcs[r.IntN(len(srcs))])
		}
		w.batch = append(w.batch, &jobRecord{plannedJob: j})
	}
}

// arrange orders the jobs at random, except that every cold job directly
// follows a sweep. The sweep refreshes the suite's place in the cache's
// recency order, so the cold job's load evicts the other cold graph —
// touched one cold job earlier — and not the suite.
func arrange(jobs []plannedJob, r *rand.Rand) []plannedJob {
	var sweeps, cold, rest []plannedJob
	for _, j := range jobs {
		switch {
		case j.spec.Kind == serve.KindSweep:
			sweeps = append(sweeps, j)
		case j.graph == -1:
			cold = append(cold, j)
		default:
			rest = append(rest, j)
		}
	}
	var units [][]plannedJob
	for i, c := range cold {
		if i < len(sweeps) {
			units = append(units, []plannedJob{sweeps[i], c})
		} else {
			units = append(units, []plannedJob{c})
		}
	}
	for i := len(cold); i < len(sweeps); i++ {
		units = append(units, sweeps[i:i+1])
	}
	for i := range rest {
		units = append(units, rest[i:i+1])
	}
	r.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	out := jobs[:0]
	for _, u := range units {
		out = append(out, u...)
	}
	return out
}

func sweepSpec(sc serveConfig) serve.JobSpec {
	return serve.JobSpec{Kind: serve.KindSweep, Experiments: []string{experiment}, SweepScale: sc.SweepScale}
}

// warmup plans one job per working-set graph and then one sweep, 100 ms
// apart: the second cold graph, the first, the hot graph. The sweep suite's
// load then evicts the second cold graph and leaves the first, which the
// first cold job of the mix uses, resident with the hot graph and the suite.
func (sm *serveMix) warmup() *window {
	w := &window{}
	var specs []plannedJob
	for _, gi := range []int{2, 1, 0} {
		specs = append(specs, plannedJob{graph: gi, spec: serve.JobSpec{Kind: serve.KindColoring, Variant: "seq",
			Graph: serve.GraphSpec{Suite: workingSet[gi], Scale: sm.cfg.Serve.Scale}}})
	}
	specs = append(specs, plannedJob{graph: -1, spec: sweepSpec(sm.cfg.Serve)})
	for i, j := range specs {
		j.due = time.Duration(i) * 100 * time.Millisecond
		w.jobs = append(w.jobs, &jobRecord{plannedJob: j})
	}
	return w
}

// windowStats summarises one rate.
type windowStats struct {
	p50, p95, lagP95, growth, goodput float64
	valid, steady                     bool
}

func (sm *serveMix) stats(w *window, limitMS float64) windowStats {
	var lat, lag []float64
	ok := 0
	var last time.Time
	for _, rec := range w.jobs {
		if rec.endAt.After(last) {
			last = rec.endAt
		}
		l := rec.latencyMS
		if rec.err != nil {
			l = math.Inf(1) // a refused or failed job misses any limit
		}
		lat = append(lat, l)
		lag = append(lag, rec.lagMS)
		if l <= limitMS {
			ok++
		}
	}
	st := windowStats{p50: quantile(lat, 0.5), p95: quantile(lat, 0.95), lagP95: quantile(lag, 0.95)}
	// Backlog growth: mean outstanding over the last quarter of arrivals
	// minus the mean over the second quarter. A stable rate holds it near
	// zero; an overloaded one grows it by the excess arrivals. It counts as
	// growing once it at least doubles, by five jobs or more.
	q := len(w.backlog) / 4
	if q > 0 {
		st.growth = mean(w.backlog[3*q:]) - mean(w.backlog[q:2*q])
	}
	st.valid = st.lagP95 <= maxLagMS
	st.steady = st.valid && st.growth < math.Max(5, mean(w.backlog[q:2*q]))
	// Goodput: jobs served correctly within the limit per second, from the
	// window's start to its last completion.
	if span := last.Sub(w.startAt).Seconds(); span > 0 {
		st.goodput = float64(ok) / span
	}
	return st
}

// runServeMix runs the reference rate for refShare of the measured time,
// then the higher rates, which split the rest evenly, each with the batch
// stream beside it; then it checks every served result against the
// oracles. The traced run drives the same windows: the server returns
// every job's spans whether or not the run is traced, so tracing adds
// nothing on the server's side.
func runServeMix(cfg config) (*result, error) {
	sm, ms, err := setupServeMix(cfg)
	if err != nil {
		return nil, err
	}
	defer ms.close()
	rates := cfg.Serve.Rates
	r := randFor(cfg)
	var windows []*window
	for i, rate := range rates {
		share := refShare
		if i > 0 {
			share = (1 - refShare) / float64(len(rates)-1)
		}
		w := &window{rate: rate, dur: time.Duration(cfg.Seconds * share * float64(time.Second))}
		sm.plan(w, r)
		sm.planBatch(w, r)
		windows = append(windows, w)
	}
	// Warm-up, outside every metric but the heap peak: the first sweep and
	// the first job on each graph would otherwise load the cache inside the
	// reference window.
	warm := sm.warmup()
	if err := ms.drive(warm); err != nil {
		return nil, err
	}
	before, err := ms.metrics()
	if err != nil {
		return nil, err
	}
	for _, w := range windows {
		if err := ms.drive(w); err != nil {
			return nil, err
		}
		sm.timeIrregular(oracleReps)
	}
	after, err := ms.metrics()
	if err != nil {
		return nil, err
	}

	res := &result{}
	sweepRef, err := sm.sweepOracle()
	if err != nil {
		return nil, err
	}
	exported := map[string]error{}
	var all, batch []*jobRecord
	for _, w := range append([]*window{warm}, windows...) {
		batch = append(batch, w.batch...)
		for _, recs := range [][]*jobRecord{w.jobs, w.batch} {
			for _, rec := range recs {
				res.attempted++
				if rec.err == nil {
					rec.err = sm.check(rec, sweepRef, exported)
				}
				if rec.err != nil {
					res.failed++
					if len(res.errs) < 10 {
						res.errs = append(res.errs, fmt.Sprintf("%s %s: %v", rec.spec.Kind, rec.spec.Variant, rec.err))
					}
				}
			}
		}
		if w != warm {
			all = append(all, w.jobs...)
		}
	}

	var stats []windowStats
	limitMS := limitFactor * sm.stats(windows[0], 0).p95
	for _, w := range windows {
		st := sm.stats(w, limitMS)
		stats = append(stats, st)
		res.notes = append(res.notes, fmt.Sprintf(
			"rate %.0f/s: %d jobs, p50 %.1f ms, p95 %.1f ms, generator lag p95 %.2f ms, backlog growth %+.1f, goodput %.2f/s within %.1f ms, valid %v, steady %v",
			w.rate, len(w.jobs), st.p50, st.p95, st.lagP95, st.growth, st.goodput, limitMS, st.valid, st.steady))
	}
	res.notes = append(res.notes, fmt.Sprintf("batch stream: %d jobs beside the open-loop windows, 1 in flight", len(batch)))
	if !stats[0].valid {
		res.errs = append(res.errs, fmt.Sprintf("reference rate %.0f/s invalid: generator lag p95 %.2f ms", windows[0].rate, stats[0].lagP95))
	}
	if !cfg.Trace {
		res.metrics = sm.endToEnd(windows, stats, batch, ms.heapMB)
		return res, nil
	}
	tr := newTracer(runID(cfg))
	sm.trace(tr, all)
	sm.trace(tr, batch)
	if res.metrics, err = sm.perLayer(all, batch, before, after, tr); err != nil {
		return nil, err
	}
	if err := tr.writeJSONL(tracePath(cfg)); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	res.notes = append(res.notes, fmt.Sprintf("spans: %s", tracePath(cfg)))
	return res, nil
}

func randFor(cfg config) *rand.Rand { return rand.New(rand.NewPCG(splitmix(cfg.Seed, "serve-mix"), 1)) }

// servedLine is the result line of a kernel or export job.
type servedLine struct {
	Type       string  `json:"type"`
	Levels     int     `json:"levels"`
	Reached    int     `json:"reached"`
	Processed  int64   `json:"processed"`
	Duplicates int64   `json:"duplicates"`
	Colors     int     `json:"colors"`
	Rounds     int     `json:"rounds"`
	Conflicts  []int   `json:"conflicts"`
	Components int     `json:"components"`
	BULevels   int     `json:"bu_levels"`
	Checksum   float64 `json:"checksum"`
	Vertices   int     `json:"vertices"`
	Edges      int64   `json:"edges"`
}

func resultLine(body []byte) (servedLine, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	for sc.Scan() {
		var l servedLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return l, err
		}
		if l.Type == "result" {
			return l, nil
		}
	}
	return servedLine{}, errors.New("no result line in the stream")
}

// sweepOracle runs the sweep experiment directly, at the sweeps' scale.
// Simulated values are deterministic, so every served sweep must equal it.
func (sm *serveMix) sweepOracle() ([]byte, error) {
	suite, err := core.NewSuite(sm.cfg.Serve.SweepScale)
	if err != nil {
		return nil, err
	}
	exp, err := core.RunByID(experiment, suite, mic.KNF(), mic.HostXeon())
	if err != nil {
		return nil, err
	}
	return experimentKey(exp)
}

func experimentKey(e *core.Experiment) ([]byte, error) {
	var errs []string
	for _, ce := range e.Errors {
		errs = append(errs, ce.Error())
	}
	return json.Marshal(struct {
		ID     string
		Series []core.Series
		Rows   []core.TableRow
		Notes  string
		Errors []string
	}{e.ID, e.Series, e.Rows, e.Notes, errs})
}

// check compares one served job's result stream with the oracles.
func (sm *serveMix) check(rec *jobRecord, sweepRef []byte, exported map[string]error) error {
	if rec.spec.Kind == serve.KindSweep {
		exps, err := serve.DecodeExperiments(bytes.NewReader(rec.body))
		if err != nil {
			return err
		}
		if len(exps) != 1 {
			return fmt.Errorf("%d experiments, want 1", len(exps))
		}
		got, err := experimentKey(exps[0])
		if err != nil {
			return err
		}
		if !bytes.Equal(got, sweepRef) {
			return fmt.Errorf("experiment %s differs from core.RunByID", rec.spec.Experiments[0])
		}
		return nil
	}
	l, err := resultLine(rec.body)
	if err != nil {
		return err
	}
	sg := sm.graphs[rec.graph]
	g := sg.g
	switch rec.spec.Kind {
	case serve.KindBFS:
		if want := sg.levelsBySource[int32(rec.spec.Source)]; l.Levels != want || l.Reached != sg.reach {
			return fmt.Errorf("%d levels reaching %d, want %d reaching %d", l.Levels, l.Reached, want, sg.reach)
		}
	case serve.KindColoring:
		// The server validates the coloring itself and fails the job
		// otherwise; the count must be a proper greedy bound.
		if l.Colors < 1 || l.Colors > g.MaxDegree()+1 {
			return fmt.Errorf("%d colors, max degree %d", l.Colors, g.MaxDegree())
		}
	case serve.KindComponents:
		if l.Components != sg.components {
			return fmt.Errorf("%d components, want %d", l.Components, sg.components)
		}
	case serve.KindIrregular:
		if l.Checksum != sg.irrSum {
			return fmt.Errorf("checksum %v, want %v from irregular.Sequential", l.Checksum, sg.irrSum)
		}
	case serve.KindExport:
		if l.Vertices != g.NumVertices() || l.Edges != g.NumEdges() {
			return fmt.Errorf("exported %d vertices %d edges, want %d and %d", l.Vertices, l.Edges, g.NumVertices(), g.NumEdges())
		}
		path := rec.spec.Output
		if _, done := exported[path]; !done {
			back, err := graphio.ReadFile(path)
			if err == nil && !back.Equal(g) {
				err = errors.New("read-back graph differs")
			}
			exported[path] = err
		}
		return exported[path]
	}
	return nil
}

func spanMS(ns int64) float64 { return float64(ns) / 1e6 }

// batchExec is each hot-graph kernel variant's exec times in the batch
// stream, keyed family.variant.
func batchExec(batch []*jobRecord) map[string][]float64 {
	exec := map[string][]float64{}
	for _, rec := range batch {
		if rec.err == nil && rec.view.Spans != nil {
			k := rec.spec.Kind + "." + rec.spec.Variant
			exec[k] = append(exec[k], spanMS(rec.view.Spans.ExecNS))
		}
	}
	return exec
}

// endToEnd computes serve-mix's end-to-end metrics: latency and goodput
// from the open-loop jobs, kernel times and colors from the batch jobs.
func (sm *serveMix) endToEnd(windows []*window, stats []windowStats, batch []*jobRecord, heapMB float64) map[string]float64 {
	m := map[string]float64{"setup_s": median(sm.setup), "peak_heap_mb": heapMB}
	exec := batchExec(batch)
	colors := map[string][]float64{}
	for _, rec := range batch {
		if rec.err != nil {
			continue
		}
		k := rec.spec.Kind + "." + rec.spec.Variant
		if rec.spec.Kind == serve.KindColoring && rec.spec.Variant != "seq" {
			if l, err := resultLine(rec.body); err == nil {
				colors[k] = append(colors[k], float64(l.Colors)/float64(sm.graphs[0].seqColors))
			}
		}
	}
	var seqs []float64
	for _, f := range families {
		m[f+"_ms"] = sm.familyMS(exec, f, false)
		seqs = append(seqs, sm.familyMS(exec, f, true))
	}
	m["seq_ms"] = geomean(seqs)
	var ratios []float64
	for _, v := range colors {
		ratios = append(ratios, median(v))
	}
	m["colors_ratio"] = geomean(ratios)
	m["job_ms.p50"], m["job_ms.p95"] = stats[0].p50, stats[0].p95
	m["goodput_rps"] = 0
	for i := len(windows) - 1; i >= 0; i-- {
		if stats[i].steady {
			m["goodput_rps"] = stats[i].goodput
			break
		}
	}
	return m
}

func family(key string) string {
	f, _, _ := strings.Cut(key, ".")
	return f
}

// trace records each job as a root span from its due time to the end of
// its result stream, with the server's queue, cache, exec and flush spans
// as children. Queue runs from admission to pickup;
// the other three are disjoint sub-intervals of the run, laid out in that
// order from pickup.
func (sm *serveMix) trace(tr *tracer, recs []*jobRecord) {
	for _, rec := range recs {
		if rec.err != nil || rec.view.Spans == nil {
			continue
		}
		name := "serve." + rec.spec.Kind
		graphName := ""
		if rec.graph >= 0 {
			graphName = workingSet[rec.graph]
		}
		id := tr.add(0, name, graphName, rec.dueAt, rec.endAt)
		created, err1 := time.Parse(time.RFC3339Nano, rec.view.Created)
		started, err2 := time.Parse(time.RFC3339Nano, rec.view.Started)
		if err1 != nil || err2 != nil {
			continue
		}
		sp := rec.view.Spans
		tr.add(id, "serve.queue", graphName, created, started)
		t := started
		for _, c := range []struct {
			name string
			ns   int64
		}{{"serve.cache", sp.CacheNS}, {"serve.exec", sp.ExecNS}, {"serve.flush", sp.FlushNS}} {
			end := t.Add(time.Duration(c.ns))
			tr.add(id, c.name, graphName, t, end)
			t = end
		}
	}
}

// perLayer computes serve-mix's per-layer metrics: per-variant times and
// speedups from the batch jobs, the rest over the open-loop jobs.
func (sm *serveMix) perLayer(all, batch []*jobRecord, before, after metricsz, tr *tracer) (map[string]float64, error) {
	if _, err := tr.reconcile(); err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for k, xs := range sm.genS {
		if containsMetric(perLayer, k) {
			m[k] = median(xs)
		}
	}
	var queue, cache, flush, lag []float64
	execKind := map[string][]float64{}
	exec := batchExec(batch)
	var dups, processed float64
	var buLevels, colorRounds, conflictFrac, colors []float64
	hyb := map[int][2]float64{}
	lp := map[int][]float64{}
	var irrBytes, irrSecs float64
	// Scheduler counters cover the batch jobs too, which ran beside the
	// open-loop ones.
	kernelJobs := 0.0
	for _, recs := range [][]*jobRecord{all, batch} {
		for _, rec := range recs {
			if rec.err == nil && rec.graph >= 0 && rec.spec.Variant != "" && rec.spec.Variant != "seq" {
				kernelJobs++
			}
		}
	}
	for _, rec := range all {
		lag = append(lag, rec.lagMS)
		if rec.err != nil || rec.view.Spans == nil {
			continue
		}
		sp := rec.view.Spans
		queue = append(queue, spanMS(sp.QueueNS))
		cache = append(cache, spanMS(sp.CacheNS))
		flush = append(flush, spanMS(sp.FlushNS))
		execKind[rec.spec.Kind] = append(execKind[rec.spec.Kind], spanMS(sp.ExecNS))
		if rec.graph < 0 || rec.spec.Kind == serve.KindExport {
			continue
		}
		l, err := resultLine(rec.body)
		if err != nil || rec.spec.Variant == "seq" {
			continue
		}
		g := sm.graphs[rec.graph].g
		switch rec.spec.Kind {
		case serve.KindBFS:
			if rec.spec.Variant == "hybrid" {
				buLevels = append(buLevels, float64(l.BULevels))
				h := hyb[rec.graph]
				hyb[rec.graph] = [2]float64{h[0] + float64(l.BULevels), h[1] + float64(l.Levels)}
			}
			switch rec.spec.Variant {
			case "omp-block-relaxed", "tbb-block-relaxed", "bag":
				dups += float64(l.Duplicates)
				processed += float64(l.Processed)
			}
		case serve.KindColoring:
			colorRounds = append(colorRounds, float64(l.Rounds))
			colors = append(colors, float64(l.Colors))
			if len(l.Conflicts) > 0 {
				conflictFrac = append(conflictFrac, float64(l.Conflicts[0])/float64(g.NumVertices()))
			}
		case serve.KindComponents:
			if rec.spec.Variant == "labelprop" {
				lp[rec.graph] = append(lp[rec.graph], float64(l.Rounds))
			}
		case serve.KindIrregular:
			irrBytes += irrIters*float64(g.NumArcs())*12 + float64(g.NumVertices())*32
			irrSecs += float64(sp.ExecNS) / 1e9
		}
	}
	m["serve.queue_wait_ms.p50"], m["serve.queue_wait_ms.p95"] = quantile(queue, 0.5), quantile(queue, 0.95)
	m["serve.cache_load_ms.p50"], m["serve.cache_load_ms.p95"] = quantile(cache, 0.5), quantile(cache, 0.95)
	m["serve.flush_ms.p50"] = median(flush)
	for _, k := range serveKinds {
		m["serve.exec_ms."+k] = median(execKind[k])
	}
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	if hits+misses > 0 {
		m["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	m["serve.backlog_max"] = float64(after.Gauges["queue_depth_max"])
	m["serve.rejected"] = float64(after.Totals.Rejected - before.Totals.Rejected)
	m["gen_lag_ms.p95"] = quantile(lag, 0.95)

	// Scheduler counters are the server's own (every worker's Team and
	// Pool report into them), per parallel kernel job.
	d := diffCounters(after.Counters.Totals, before.Counters.Totals)
	if kernelJobs > 0 {
		m["sched.chunks_per_call"] = float64(d.ChunksClaimed) / kernelJobs
		m["sched.steals_per_call"] = float64(d.Steals) / kernelJobs
		m["sched.steal_fail_per_call"] = float64(d.StealFails) / kernelJobs
		m["sched.splits_per_call"] = float64(d.RangeSplits) / kernelJobs
	}
	for _, v := range variants {
		m[v.key()+".ms"] = median(exec[v.key()])
	}
	m["irregular.seq.ms"] = sm.familyMS(exec, "irregular", true)
	for _, f := range families {
		m["speedup."+f] = sm.familyMS(exec, f, true) / sm.familyMS(exec, f, false)
	}
	var buFrac []float64
	for _, h := range hyb {
		buFrac = append(buFrac, h[0]/h[1])
	}
	m["bfs.hybrid.bu_levels"] = mean(buLevels)
	m["bfs.hybrid.bu_frac"] = maxOf(buFrac)
	if processed > 0 {
		m["bfs.dup_frac"] = dups / processed
	}
	m["coloring.rounds"] = mean(colorRounds)
	m["coloring.conflict_frac"] = mean(conflictFrac)
	m["coloring.colors"] = mean(colors)
	var lpr []float64
	for _, xs := range lp {
		lpr = append(lpr, mean(xs))
	}
	m["components.labelprop.rounds"] = maxOf(lpr)
	if irrSecs > 0 {
		m["irregular.computed_gbps"] = irrBytes / irrSecs / 1e9
	}
	// The server returns every job's spans, traced run or not, and the spans
	// are built after the windows: tracing adds nothing to a served job.
	m["trace_overhead_frac"] = 0
	return m, nil
}
