package main

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"time"

	"micgraph/internal/bfs"
	"micgraph/internal/coloring"
	"micgraph/internal/components"
	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/irregular"
	"micgraph/internal/sched"
	"micgraph/internal/telemetry"
)

// Kernel settings shared with the serve layer's job defaults (chunk, grain
// and block size 100; five irregular iterations), so a kernel measured here
// and the same kernel served in serve-mix run the same code path.
const (
	chunk    = 100
	irrIters = 5
)

// graphCase is one input graph of a kernel workload with its seeded BFS
// sources and the sequential oracles every timed call is checked against.
type graphCase struct {
	name    string
	g       *graph.Graph
	sources []int32
	state   []float64 // irregular input state

	levels     [][]int32 // bfs.Sequential levels, one per source
	numLevels  []int
	seqColors  int
	components int
	irr        []float64 // irregular.Sequential output
}

// kernelEnv is the resident runtime every kernel call goes through: one
// Team and one Pool sized to the machine, and one Scratch per kernel
// family, exactly as a serving worker holds them.
type kernelEnv struct {
	team *sched.Team
	pool *sched.Pool
	bs   *bfs.Scratch
	cs   *coloring.Scratch
	ps   *components.Scratch
}

func newKernelEnv(workers int) *kernelEnv {
	return &kernelEnv{
		team: sched.NewTeam(workers),
		pool: sched.NewPool(workers),
		bs:   bfs.NewScratch(),
		cs:   coloring.NewScratch(),
		ps:   components.NewScratch(),
	}
}

func (e *kernelEnv) close() {
	e.team.Close()
	e.pool.Close()
}

func (e *kernelEnv) setCounters(c *telemetry.Counters) {
	e.team.SetCounters(c)
	e.pool.SetCounters(c)
}

// outcome is what one kernel call returned, in the shape its oracle needs.
type outcome struct {
	levels            []int32
	numLevels, bu     int
	processed, dups   int64
	colors            []int32
	numColors, rounds int
	conflicts1        int // round-1 conflicts; Result.Conflicts aliases scratch memory
	labels            []int32
	count             int
	out               []float64
}

// variant is one entry point of a kernel family, called through the
// family's Scratch method (or the irregular Ctx functions) on the resident
// env. seq variants are the sequential oracles themselves.
type variant struct {
	family, name string
	run          func(ctx context.Context, e *kernelEnv, gc *graphCase, src int32) (outcome, error)
}

func (v variant) parallel() bool { return v.name != "seq" }
func (v variant) key() string    { return v.family + "." + v.name }

func dyn() sched.ForOptions { return sched.ForOptions{Policy: sched.Dynamic, Chunk: chunk} }

func bfsOutcome(r bfs.Result, err error) (outcome, error) {
	return outcome{levels: r.Levels, numLevels: r.NumLevels, processed: r.Processed, dups: r.Duplicates}, err
}

func colorOutcome(r coloring.Result, err error) (outcome, error) {
	o := outcome{colors: r.Colors, numColors: r.NumColors, rounds: r.Rounds}
	if len(r.Conflicts) > 0 {
		o.conflicts1 = r.Conflicts[0]
	}
	return o, err
}

func compOutcome(r components.Result, err error) (outcome, error) {
	return outcome{labels: r.Labels, count: r.Count, rounds: r.Rounds}, err
}

// variants lists every variant the serve layer exposes, plus the
// sequential irregular kernel the paper's speedups are measured against.
var variants = []variant{
	{"bfs", "seq", func(_ context.Context, _ *kernelEnv, gc *graphCase, s int32) (outcome, error) {
		return bfsOutcome(bfs.Sequential(gc.g, s), nil)
	}},
	{"bfs", "omp-block", func(ctx context.Context, e *kernelEnv, gc *graphCase, s int32) (outcome, error) {
		return bfsOutcome(e.bs.BlockTeam(ctx, gc.g, s, e.team, dyn(), chunk, false))
	}},
	{"bfs", "omp-block-relaxed", func(ctx context.Context, e *kernelEnv, gc *graphCase, s int32) (outcome, error) {
		return bfsOutcome(e.bs.BlockTeam(ctx, gc.g, s, e.team, dyn(), chunk, true))
	}},
	{"bfs", "tbb-block", func(ctx context.Context, e *kernelEnv, gc *graphCase, s int32) (outcome, error) {
		return bfsOutcome(e.bs.BlockTBB(ctx, gc.g, s, e.pool, sched.SimplePartitioner, chunk, chunk, false))
	}},
	{"bfs", "tbb-block-relaxed", func(ctx context.Context, e *kernelEnv, gc *graphCase, s int32) (outcome, error) {
		return bfsOutcome(e.bs.BlockTBB(ctx, gc.g, s, e.pool, sched.SimplePartitioner, chunk, chunk, true))
	}},
	{"bfs", "bag", func(ctx context.Context, e *kernelEnv, gc *graphCase, s int32) (outcome, error) {
		return bfsOutcome(e.bs.BagCilk(ctx, gc.g, s, e.pool, chunk))
	}},
	{"bfs", "tls", func(ctx context.Context, e *kernelEnv, gc *graphCase, s int32) (outcome, error) {
		return bfsOutcome(e.bs.TLSTeam(ctx, gc.g, s, e.team, dyn()))
	}},
	{"bfs", "hybrid", func(ctx context.Context, e *kernelEnv, gc *graphCase, s int32) (outcome, error) {
		r, err := e.bs.Hybrid(ctx, gc.g, s, e.team, dyn(), bfs.HybridConfig{})
		o, _ := bfsOutcome(r.Result, nil)
		o.bu = r.BottomUpLevels
		return o, err
	}},
	{"coloring", "seq", func(_ context.Context, _ *kernelEnv, gc *graphCase, _ int32) (outcome, error) {
		return colorOutcome(coloring.SeqGreedy(gc.g), nil)
	}},
	{"coloring", "openmp", func(ctx context.Context, e *kernelEnv, gc *graphCase, _ int32) (outcome, error) {
		return colorOutcome(e.cs.ColorTeam(ctx, gc.g, e.team, dyn()))
	}},
	{"coloring", "cilk", func(ctx context.Context, e *kernelEnv, gc *graphCase, _ int32) (outcome, error) {
		return colorOutcome(e.cs.ColorCilk(ctx, gc.g, e.pool, chunk, coloring.CilkHolder))
	}},
	{"coloring", "tbb", func(ctx context.Context, e *kernelEnv, gc *graphCase, _ int32) (outcome, error) {
		return colorOutcome(e.cs.ColorTBB(ctx, gc.g, e.pool, sched.SimplePartitioner, chunk))
	}},
	{"components", "seq", func(_ context.Context, _ *kernelEnv, gc *graphCase, _ int32) (outcome, error) {
		return compOutcome(components.Sequential(gc.g), nil)
	}},
	{"components", "labelprop", func(ctx context.Context, e *kernelEnv, gc *graphCase, _ int32) (outcome, error) {
		return compOutcome(e.ps.LabelPropagation(ctx, gc.g, e.team, dyn()))
	}},
	{"components", "pointerjump", func(ctx context.Context, e *kernelEnv, gc *graphCase, _ int32) (outcome, error) {
		return compOutcome(e.ps.PointerJumping(ctx, gc.g, e.team, dyn()))
	}},
	{"irregular", "seq", func(_ context.Context, _ *kernelEnv, gc *graphCase, _ int32) (outcome, error) {
		return outcome{out: irregular.Sequential(gc.g, gc.state, irrIters)}, nil
	}},
	{"irregular", "openmp", func(ctx context.Context, e *kernelEnv, gc *graphCase, _ int32) (outcome, error) {
		out, err := irregular.TeamCtx(ctx, gc.g, gc.state, irrIters, e.team, dyn())
		return outcome{out: out}, err
	}},
	{"irregular", "cilk", func(ctx context.Context, e *kernelEnv, gc *graphCase, _ int32) (outcome, error) {
		out, err := irregular.CilkCtx(ctx, gc.g, gc.state, irrIters, e.pool, chunk)
		return outcome{out: out}, err
	}},
	{"irregular", "tbb", func(ctx context.Context, e *kernelEnv, gc *graphCase, _ int32) (outcome, error) {
		out, err := irregular.TBBCtx(ctx, gc.g, gc.state, irrIters, e.pool, sched.SimplePartitioner, chunk)
		return outcome{out: out}, err
	}},
}

var families = []string{"bfs", "coloring", "components", "irregular"}

// check compares one call's outcome with the graph's sequential oracles.
func (gc *graphCase) check(family string, si int, o outcome) error {
	g := gc.g
	switch family {
	case "bfs":
		// The level array must equal bfs.Sequential's from the same source
		// (what bfs.Validate checks, against a reference computed once).
		want := gc.levels[si]
		if len(o.levels) != len(want) {
			return fmt.Errorf("%d levels for %d vertices", len(o.levels), len(want))
		}
		for v, l := range want {
			if o.levels[v] != l {
				return fmt.Errorf("vertex %d at level %d, want %d", v, o.levels[v], l)
			}
		}
		if o.numLevels != gc.numLevels[si] {
			return fmt.Errorf("%d levels, want %d", o.numLevels, gc.numLevels[si])
		}
	case "coloring":
		if err := coloring.Validate(g, o.colors); err != nil {
			return err
		}
		if o.numColors != coloring.CountColors(o.colors) {
			return fmt.Errorf("reported %d colors, used %d", o.numColors, coloring.CountColors(o.colors))
		}
	case "components":
		if o.count != gc.components {
			return fmt.Errorf("%d components, want %d", o.count, gc.components)
		}
		if err := components.Validate(g, o.labels); err != nil {
			return err
		}
	case "irregular":
		if len(o.out) != len(gc.irr) {
			return fmt.Errorf("%d outputs for %d vertices", len(o.out), len(gc.irr))
		}
		if d := irregular.MaxAbsDiff(o.out, gc.irr); d != 0 {
			return fmt.Errorf("max |diff| %g against irregular.Sequential", d)
		}
	}
	return nil
}

// pickSources draws k distinct BFS sources from the largest connected
// component, so every source reaches the same vertex set.
func pickSources(labels []int32, k int, seed uint64) []int32 {
	size := map[int32]int{}
	for _, l := range labels {
		size[l]++
	}
	var best int32
	for l, n := range size {
		if n > size[best] || (n == size[best] && l < best) {
			best = l
		}
	}
	var members []int32
	for v, l := range labels {
		if l == best {
			members = append(members, int32(v))
		}
	}
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	r.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	if k > len(members) {
		k = len(members)
	}
	return members[:k]
}

// prepare computes the oracles of a generated graph and draws its sources.
func prepare(name string, g *graph.Graph, nSources int, seed uint64) *graphCase {
	gc := &graphCase{name: name, g: g, state: irregular.InitialState(g.NumVertices())}
	comp := components.Sequential(g)
	gc.components = comp.Count
	gc.sources = pickSources(comp.Labels, nSources, splitmix(seed, "sources:"+name))
	for _, s := range gc.sources {
		r := bfs.Sequential(g, s)
		gc.levels = append(gc.levels, r.Levels)
		gc.numLevels = append(gc.numLevels, r.NumLevels)
	}
	gc.seqColors = coloring.SeqGreedy(g).NumColors
	gc.irr = irregular.Sequential(g, gc.state, irrIters)
	return gc
}

// graphSpec is one input of a kernel workload: its name and a generator
// returning the graph, with the time spent per set-up layer.
type graphSpec struct {
	name  string
	build func(seed uint64) (*graph.Graph, map[string]float64, error)
}

// mesh builds a Table I stand-in at the given linear scale, with its
// generator seed drawn from the run seed.
func mesh(name string, scale int, shuffle bool) graphSpec {
	label := name
	if shuffle {
		label = name + "-shuffled"
	}
	return graphSpec{label, func(seed uint64) (*graph.Graph, map[string]float64, error) {
		cfg, err := gen.SuiteConfig(name)
		if err != nil {
			return nil, nil, err
		}
		cfg = gen.Scaled(cfg, scale)
		cfg.Seed = splitmix(seed, "mesh:"+name)
		t := time.Now()
		g, err := gen.Mesh(cfg)
		if err != nil {
			return nil, nil, err
		}
		times := map[string]float64{"gen." + name + ".s": time.Since(t).Seconds()}
		if shuffle {
			t = time.Now()
			g = g.Shuffled(splitmix(seed, "shuffle:"+name))
			times["graph.shuffle_s"] = time.Since(t).Seconds()
		}
		return g, times, nil
	}}
}

// rmat builds a Graph500-parameter RMAT graph (a=0.57, b=c=0.19).
func rmat(scale, edgeFactor int) graphSpec {
	return graphSpec{fmt.Sprintf("rmat%d", scale), func(seed uint64) (*graph.Graph, map[string]float64, error) {
		t := time.Now()
		g := gen.RMAT(scale, edgeFactor, 0.57, 0.19, 0.19, splitmix(seed, "rmat"))
		return g, map[string]float64{"gen.rmat.s": time.Since(t).Seconds()}, nil
	}}
}

// callRecord is one timed, validated kernel call.
type callRecord struct {
	graph   int
	variant int
	ms      float64
	out     outcome // bookkeeping fields only; slices are dropped after the check
	phases  []telemetry.PhaseSample
	sched   telemetry.CounterSet
	spanID  int
}

// kernelRun is one kernel workload's state: the graphs, the env, and every
// timed call of the untraced and traced passes.
type kernelRun struct {
	cfg    config
	graphs []*graphCase
	env    *kernelEnv
	setup  []float64            // seconds per set-up repetition
	layers map[string][]float64 // set-up layer seconds per repetition
	heapMB float64
	notes  []string

	attempted, failed int
	errs              []string
}

// setupKernel generates the workload's graphs cfg.SetupReps times (keeping
// the last set) and starts the Team and Pool each time; set-up time is the
// median repetition.
func setupKernel(cfg config, specs []graphSpec) (*kernelRun, error) {
	kr := &kernelRun{cfg: cfg, layers: map[string][]float64{}}
	var gs []*graph.Graph
	for rep := 0; rep < cfg.SetupReps; rep++ {
		gs = nil
		if kr.env != nil {
			kr.env.close()
			kr.env = nil
		}
		runtime.GC() // every repetition starts from the same heap
		t := time.Now()
		for _, sp := range specs {
			g, times, err := sp.build(cfg.Seed)
			if err != nil {
				return nil, fmt.Errorf("set-up %s: %w", sp.name, err)
			}
			gs = append(gs, g)
			for k, v := range times {
				kr.layers[k] = append(kr.layers[k], v)
			}
		}
		kr.env = newKernelEnv(cfg.Workers)
		kr.setup = append(kr.setup, time.Since(t).Seconds())
	}
	for i, sp := range specs {
		kr.graphs = append(kr.graphs, prepare(sp.name, gs[i], cfg.Sources, cfg.Seed))
	}
	return kr, nil
}

// loop runs closed-loop rounds — every variant on every graph, one call
// after another from this goroutine — until budget has elapsed (at least
// one round). The source cycles through the graph's seeded sources from
// round to round. With tr set, each call carries a stamped Recorder and the
// env's Team and Pool count scheduler events, and every call becomes a span
// with its phases as children.
func (kr *kernelRun) loop(budget time.Duration, tr *tracer) []callRecord {
	var recs []callRecord
	var rec *stampRecorder
	var counters *telemetry.Counters
	ctx := context.Background()
	if tr != nil {
		rec = newStampRecorder()
		counters = telemetry.NewCounters(kr.cfg.Workers)
		ctx = telemetry.WithRecorder(ctx, rec)
		kr.env.setCounters(counters)
		defer kr.env.setCounters(nil)
	}
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < budget; round++ {
		for gi, gc := range kr.graphs {
			si := round % len(gc.sources)
			for vi, v := range variants {
				var before telemetry.CounterSet
				if tr != nil {
					rec.reset()
					before = counters.Snapshot().Totals
				}
				t0 := time.Now()
				o, err := v.run(ctx, kr.env, gc, gc.sources[si])
				t1 := time.Now()
				cr := callRecord{graph: gi, variant: vi, ms: float64(t1.Sub(t0).Nanoseconds()) / 1e6}
				if tr != nil {
					cr.sched = diffCounters(counters.Snapshot().Totals, before)
					cr.phases, cr.spanID = kr.traceCall(tr, rec, v.key(), gc.name, t0, t1)
				}
				kr.attempted++
				if err == nil {
					err = gc.check(v.family, si, o)
				}
				if err != nil {
					kr.failed++
					if len(kr.errs) < 10 {
						kr.errs = append(kr.errs, fmt.Sprintf("%s on %s (source %d): %v", v.key(), gc.name, gc.sources[si], err))
					}
					continue
				}
				o.levels, o.colors, o.labels, o.out = nil, nil, nil, nil
				cr.out = o
				recs = append(recs, cr)
			}
		}
	}
	return recs
}

// traceCall turns one call into a root span with one child span per
// recorded phase.
func (kr *kernelRun) traceCall(tr *tracer, rec *stampRecorder, name, graph string, t0, t1 time.Time) ([]telemetry.PhaseSample, int) {
	id := tr.add(0, name, graph, t0, t1)
	samples, ends := rec.phases()
	for i, s := range samples {
		tr.add(id, s.Kernel+"."+s.Phase, graph, ends[i].Add(-s.Duration), ends[i])
	}
	return samples, id
}

func diffCounters(a, b telemetry.CounterSet) telemetry.CounterSet {
	return telemetry.CounterSet{
		ChunksClaimed: a.ChunksClaimed - b.ChunksClaimed,
		TasksSpawned:  a.TasksSpawned - b.TasksSpawned,
		Steals:        a.Steals - b.Steals,
		StealFails:    a.StealFails - b.StealFails,
		RangeSplits:   a.RangeSplits - b.RangeSplits,
	}
}

// medians returns each (graph, variant) pair's median call time in ms.
func (kr *kernelRun) medians(recs []callRecord) map[[2]int]float64 {
	return kr.quantiles(recs, 0.5)
}

// quantiles returns each (graph, variant) pair's q-quantile call time in ms.
func (kr *kernelRun) quantiles(recs []callRecord, q float64) map[[2]int]float64 {
	by := map[[2]int][]float64{}
	for _, r := range recs {
		k := [2]int{r.graph, r.variant}
		by[k] = append(by[k], r.ms)
	}
	out := map[[2]int]float64{}
	for k, xs := range by {
		out[k] = quantile(xs, q)
	}
	return out
}

// familyMS is the geometric mean, over graphs and the family's variants
// (parallel or sequential), of each pair's median call time.
func (kr *kernelRun) familyMS(med map[[2]int]float64, family string, parallel bool) float64 {
	var xs []float64
	for k, m := range med {
		v := variants[k[1]]
		if v.family == family && v.parallel() == parallel {
			xs = append(xs, m)
		}
	}
	return geomean(xs)
}

// endToEnd computes the kernel workloads' end-to-end metrics from an
// untraced pass.
func (kr *kernelRun) endToEnd(recs []callRecord) map[string]float64 {
	med := kr.medians(recs)
	m := map[string]float64{"setup_s": median(kr.setup), "peak_heap_mb": kr.heapMB}
	var seqs []float64
	for _, f := range families {
		m[f+"_ms"] = kr.familyMS(med, f, true)
		seqs = append(seqs, kr.familyMS(med, f, false))
	}
	m["seq_ms"] = geomean(seqs)

	colorsBy := map[[2]int][]float64{}
	var total float64
	for _, r := range recs {
		total += r.ms
		if v := variants[r.variant]; v.family == "coloring" && v.parallel() {
			k := [2]int{r.graph, r.variant}
			colorsBy[k] = append(colorsBy[k], float64(r.out.numColors)/float64(kr.graphs[r.graph].seqColors))
		}
	}
	var ratios []float64
	for _, xs := range colorsBy {
		ratios = append(ratios, median(xs))
	}
	m["colors_ratio"] = geomean(ratios)
	// Call latency per (graph, variant) pair, then the geometric mean over
	// pairs: the closed loop mixes 38 call types whose times differ by
	// 100×, and a p95 pooled over the mix fell between two call types,
	// which one depending on the seed and the number of rounds.
	m["job_ms.p50"] = geomean(slices.Collect(maps.Values(med)))
	m["job_ms.p95"] = geomean(slices.Collect(maps.Values(kr.quantiles(recs, 0.95))))
	m["goodput_rps"] = float64(len(recs)) / (total / 1e3)
	return m
}

// perLayer computes the kernel workloads' per-layer metrics: times and
// speedups from the untraced pass, counts and ratios from the traced one.
func (kr *kernelRun) perLayer(plain, traced []callRecord, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	for k, xs := range kr.layers {
		m[k] = median(xs)
	}
	med := kr.medians(plain)
	for vi, v := range variants {
		var xs []float64
		for gi := range kr.graphs {
			if x, ok := med[[2]int{gi, vi}]; ok {
				xs = append(xs, x)
			}
		}
		m[v.key()+".ms"] = geomean(xs)
	}
	var bytes, secs float64
	for _, f := range families {
		m["speedup."+f] = kr.familyMS(med, f, false) / kr.familyMS(med, f, true)
	}
	for gi, gc := range kr.graphs {
		var ts []float64
		for vi, v := range variants {
			if v.family == "irregular" && v.parallel() {
				ts = append(ts, med[[2]int{gi, vi}])
			}
		}
		n, arcs := float64(gc.g.NumVertices()), float64(gc.g.NumArcs())
		// Computed bytes per call: each iteration reads every adjacency
		// entry (4 B) and the neighbor's state (8 B); each vertex reads its
		// two xadj bounds and state and writes its output (32 B).
		bytes += irrIters*arcs*12 + n*32
		secs += geomean(ts) / 1e3
	}
	m["irregular.computed_gbps"] = bytes / secs / 1e9

	// Trace overhead: traced over untraced median call time, geometric
	// mean over every (graph, variant) pair, minus one.
	tmed := kr.medians(traced)
	var ratios []float64
	for k, t := range tmed {
		if p, ok := med[k]; ok {
			ratios = append(ratios, t/p)
		}
	}
	m["trace_overhead_frac"] = geomean(ratios) - 1

	self, err := tr.reconcile()
	if err != nil {
		return nil, err
	}
	// Self time: the part of a call outside its recorded phases (buffer
	// resets, result assembly, and for irregular everything but its one
	// sweep sample), as a share of the call, per family.
	selfFrac := map[string][]float64{}
	for _, r := range traced {
		if v := variants[r.variant]; v.parallel() && len(r.phases) > 0 {
			selfFrac[v.family] = append(selfFrac[v.family], float64(self[r.spanID])/1e6/r.ms)
		}
	}
	for _, f := range families {
		if len(selfFrac[f]) > 0 {
			kr.notes = append(kr.notes, fmt.Sprintf("%s parallel calls: median self time %.1f%% of the call, outside its phase spans",
				f, 100*median(selfFrac[f])))
		}
	}
	var chunks, steals, fails, splits, parCalls float64
	var levelUS, buFrac, edgesPerArc, hybridBU []float64
	hyb := map[int][2]float64{} // graph -> (bottom-up levels, levels)
	var dups, processed float64
	var colorRounds, conflictFrac, colors []float64
	lpRounds := map[int][]float64{}
	for _, r := range traced {
		v := variants[r.variant]
		gc := kr.graphs[r.graph]
		if !v.parallel() {
			continue
		}
		parCalls++
		chunks += float64(r.sched.ChunksClaimed)
		steals += float64(r.sched.Steals)
		fails += float64(r.sched.StealFails)
		splits += float64(r.sched.RangeSplits)
		switch v.key() {
		case "bfs.omp-block-relaxed":
			for _, p := range r.phases {
				levelUS = append(levelUS, float64(p.Duration.Nanoseconds())/1e3)
			}
		case "bfs.hybrid":
			var edges float64
			for _, p := range r.phases {
				edges += float64(p.Edges)
			}
			edgesPerArc = append(edgesPerArc, edges/float64(gc.g.NumArcs()))
			hybridBU = append(hybridBU, float64(r.out.bu))
			h := hyb[r.graph]
			hyb[r.graph] = [2]float64{h[0] + float64(r.out.bu), h[1] + float64(r.out.numLevels)}
		case "components.labelprop":
			lpRounds[r.graph] = append(lpRounds[r.graph], float64(r.out.rounds))
		}
		switch v.name {
		case "omp-block-relaxed", "tbb-block-relaxed", "bag":
			dups += float64(r.out.dups)
			processed += float64(r.out.processed)
		}
		if v.family == "coloring" {
			colorRounds = append(colorRounds, float64(r.out.rounds))
			colors = append(colors, float64(r.out.numColors))
			conflictFrac = append(conflictFrac, float64(r.out.conflicts1)/float64(gc.g.NumVertices()))
		}
	}
	if parCalls > 0 {
		m["sched.chunks_per_call"] = chunks / parCalls
		m["sched.steals_per_call"] = steals / parCalls
		m["sched.steal_fail_per_call"] = fails / parCalls
		m["sched.splits_per_call"] = splits / parCalls
	}
	m["sched.level_us.p50"] = median(levelUS)
	for _, h := range hyb {
		buFrac = append(buFrac, h[0]/h[1])
	}
	m["bfs.hybrid.bu_levels"] = mean(hybridBU)
	m["bfs.hybrid.bu_frac"] = maxOf(buFrac)
	m["bfs.hybrid.edges_per_arc"] = mean(edgesPerArc)
	if processed > 0 {
		m["bfs.dup_frac"] = dups / processed
	}
	m["coloring.rounds"] = mean(colorRounds)
	m["coloring.conflict_frac"] = mean(conflictFrac)
	m["coloring.colors"] = mean(colors)
	var lp []float64
	for _, xs := range lpRounds {
		lp = append(lp, mean(xs))
	}
	m["components.labelprop.rounds"] = maxOf(lp)
	return m, nil
}

func maxOf(xs []float64) float64 {
	best := 0.0
	for _, x := range xs {
		best = math.Max(best, x)
	}
	return best
}

// describe prints one line per graph with what the workload exercises, so
// a run shows directly whether bottom-up BFS fired and how many rounds
// label propagation needed.
func (kr *kernelRun) describe(traced []callRecord) []string {
	var lines []string
	for gi, gc := range kr.graphs {
		var bu, lv, lp float64
		var nh, nl int
		for _, r := range traced {
			if r.graph != gi {
				continue
			}
			switch variants[r.variant].key() {
			case "bfs.hybrid":
				bu += float64(r.out.bu)
				lv += float64(r.out.numLevels)
				nh++
			case "components.labelprop":
				lp += float64(r.out.rounds)
				nl++
			}
		}
		line := fmt.Sprintf("graph %s: %d vertices, %d arcs, %d components, %d seq colors",
			gc.name, gc.g.NumVertices(), gc.g.NumArcs(), gc.components, gc.seqColors)
		if nh > 0 {
			line += fmt.Sprintf(", hybrid %.1f of %.1f levels bottom-up", bu/float64(nh), lv/float64(nh))
		}
		if nl > 0 {
			line += fmt.Sprintf(", labelprop %.1f rounds", lp/float64(nl))
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return lines
}
