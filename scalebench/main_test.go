package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"micgraph/internal/serve"
)

// TestMain lets serve-mix tests start the load generator as a child
// process of the test binary, as the benchmark does with its own binary.
func TestMain(m *testing.M) {
	if os.Getenv(clientEnv) == "1" {
		os.Exit(clientMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// tinyConfig shrinks every workload to a smoke run of well under a second.
func tinyConfig(t *testing.T, workload string, seed uint64, trace bool) config {
	cfg := paperConfig()
	cfg.Workload, cfg.Seed, cfg.Trace, cfg.OutDir = workload, seed, trace, t.TempDir()
	cfg.Seconds = 0.3
	cfg.SetupReps = 1
	cfg.Sources = 2
	cfg.MeshScale = 16
	cfg.RMATScale, cfg.RMATFactor = 10, 8
	cfg.Serve.Scale = 16
	cfg.Serve.SweepScale = 32
	cfg.Serve.Rates = []float64{40, 80}
	return cfg
}

type benchFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runTiny runs one tiny workload and returns its printed output and the
// decoded last line.
func runTiny(t *testing.T, cfg config) (string, jsonResult) {
	t.Helper()
	res, err := workloads[cfg.Workload](cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Workload, err)
	}
	var buf bytes.Buffer
	ok, err := report(&buf, cfg, res)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Workload, err)
	}
	out := buf.String()
	if !ok {
		t.Fatalf("%s seed %d trace %v: oracle mismatch:\n%s", cfg.Workload, cfg.Seed, cfg.Trace, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var jr jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &jr); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	return out, jr
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	bf := readBenchmarkJSON(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !reflect.DeepEqual(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	for _, trace := range []bool{false, true} {
		want := map[string]string{}
		for _, m := range bf.EndToEnd {
			if !trace {
				want[m.Name] = m.Unit
			}
		}
		for _, m := range bf.PerLayer {
			if trace {
				want[m.Name] = m.Unit
			}
		}
		for _, w := range names {
			out, jr := runTiny(t, tinyConfig(t, w, 7, trace))
			if jr.Attempted == 0 || jr.Failed != 0 || !jr.Correct {
				t.Errorf("%s trace %v: attempted %d failed %d correct %v", w, trace, jr.Attempted, jr.Failed, jr.Correct)
			}
			if len(jr.Metrics) != len(want) {
				t.Errorf("%s trace %v: %d metrics, BENCHMARK.json lists %d", w, trace, len(jr.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := jr.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace %v: metric %s = %+v, want unit %s", w, trace, name, m, unit)
				}
				if !strings.Contains(out, fmt.Sprintf("%-32s", name)) || !strings.Contains(out, " "+unit+"\n") {
					t.Errorf("%s trace %v: %s with unit %s not printed", w, trace, name, unit)
				}
			}
		}
	}
}

func TestSeedChangesInputsNotNames(t *testing.T) {
	for _, w := range []string{"skew-shuffle", "serve-mix"} {
		var outs []jsonResult
		for _, seed := range []uint64{1, 2} {
			_, jr := runTiny(t, tinyConfig(t, w, seed, false))
			outs = append(outs, jr)
		}
		for name := range outs[0].Metrics {
			if _, ok := outs[1].Metrics[name]; !ok {
				t.Errorf("%s: metric %s only under seed 1", w, name)
			}
		}
		if len(outs[0].Metrics) != len(outs[1].Metrics) {
			t.Errorf("%s: %d metrics under seed 1, %d under seed 2", w, len(outs[0].Metrics), len(outs[1].Metrics))
		}
	}

	// Inputs: generated graphs and sources differ between seeds.
	specs := []graphSpec{rmat(10, 8), mesh("pwtk", 16, true), mesh("ldoor", 16, false)}
	cfg1, cfg2 := tinyConfig(t, "skew-shuffle", 1, false), tinyConfig(t, "skew-shuffle", 2, false)
	a, err := setupKernel(cfg1, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer a.env.close()
	b, err := setupKernel(cfg2, specs)
	if err != nil {
		t.Fatal(err)
	}
	defer b.env.close()
	for i := range specs {
		if a.graphs[i].g.Equal(b.graphs[i].g) {
			t.Errorf("%s: same graph under seeds 1 and 2", specs[i].name)
		}
		if reflect.DeepEqual(a.graphs[i].sources, b.graphs[i].sources) {
			t.Errorf("%s: same BFS sources under seeds 1 and 2", specs[i].name)
		}
	}
	// And the serve-mix schedule: arrival times and job order.
	sched := func(seed uint64) []string {
		cfg := tinyConfig(t, "serve-mix", seed, false)
		sm := &serveMix{cfg: cfg}
		for range workingSet {
			sm.graphs = append(sm.graphs, &servedGraph{graphCase: a.graphs[0]})
		}
		w := &window{rate: 100, dur: time.Second}
		sm.plan(w, randFor(cfg))
		var out []string
		for _, j := range w.jobs {
			out = append(out, fmt.Sprint(j.due, j.spec.Kind, j.spec.Variant, j.graph))
		}
		return out
	}
	if reflect.DeepEqual(sched(1), sched(2)) {
		t.Error("serve-mix: same schedule under seeds 1 and 2")
	}
	if !reflect.DeepEqual(sched(1), sched(1)) {
		t.Error("serve-mix: schedule not reproducible from its seed")
	}
}

func TestOracleCatchesCorruption(t *testing.T) {
	cfg := tinyConfig(t, "paper-mesh", 3, false)
	kr, err := setupKernel(cfg, []graphSpec{mesh("pwtk", 16, false)})
	if err != nil {
		t.Fatal(err)
	}
	defer kr.env.close()
	gc := kr.graphs[0]
	corrupt := map[string]func(o *outcome){
		"bfs.omp-block-relaxed": func(o *outcome) { o.levels[gc.sources[0]+1]++ },
		"bfs.hybrid":            func(o *outcome) { o.numLevels++ },
		"coloring.tbb":          func(o *outcome) { o.colors[gc.g.Adj(0)[0]] = o.colors[0] },
		"components.labelprop":  func(o *outcome) { o.count++ },
		"irregular.cilk":        func(o *outcome) { o.out[len(o.out)/2] += 1e-12 },
	}
	for _, v := range variants {
		f, ok := corrupt[v.key()]
		if !ok {
			continue
		}
		o, err := v.run(context.Background(), kr.env, gc, gc.sources[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := gc.check(v.family, 0, o); err != nil {
			t.Fatalf("%s: clean result rejected: %v", v.key(), err)
		}
		f(&o)
		if gc.check(v.family, 0, o) == nil {
			t.Errorf("%s: corrupted result passed its oracle", v.key())
		}
	}

	// A served BFS result one level off is caught too.
	sg := &servedGraph{graphCase: gc, levelsBySource: map[int32]int{gc.sources[0]: gc.numLevels[0]}, reach: gc.g.NumVertices()}
	sm := &serveMix{cfg: cfg, graphs: []*servedGraph{sg}}
	line := func(levels int) []byte {
		b, _ := json.Marshal(map[string]any{"type": "result", "kind": "bfs", "levels": levels, "reached": sg.reach})
		return b
	}
	rec := &jobRecord{plannedJob: plannedJob{graph: 0, spec: serve.JobSpec{Kind: serve.KindBFS, Source: int(gc.sources[0])}}}
	rec.body = line(gc.numLevels[0])
	if err := sm.check(rec, nil, nil); err != nil {
		t.Fatalf("clean served result rejected: %v", err)
	}
	rec.body = line(gc.numLevels[0] + 1)
	if sm.check(rec, nil, nil) == nil {
		t.Error("served BFS result with a wrong level count passed its oracle")
	}

	// Any failed call makes the run report incorrect.
	var buf bytes.Buffer
	m := map[string]float64{}
	for _, d := range endToEnd {
		m[d.name] = 1
	}
	ok, err := report(&buf, cfg, &result{metrics: m, attempted: 10, failed: 1, errs: []string{"bfs: flipped level"}})
	if err != nil {
		t.Fatal(err)
	}
	if ok || !strings.Contains(buf.String(), `"correct":false`) {
		t.Errorf("a failed call was reported correct:\n%s", buf.String())
	}
}

func TestSpansReconcile(t *testing.T) {
	tr := newTracer("t")
	t0 := time.Now()
	id := tr.add(0, "call", "g", t0, t0.Add(10*time.Millisecond))
	tr.add(id, "phase", "g", t0, t0.Add(4*time.Millisecond))
	tr.add(id, "phase", "g", t0.Add(4*time.Millisecond), t0.Add(9*time.Millisecond))
	self, err := tr.reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if self[id] != int64(time.Millisecond) {
		t.Errorf("self time %d ns, want 1ms", self[id])
	}
	tr.add(id, "phase", "g", t0, t0.Add(2*time.Millisecond))
	if _, err := tr.reconcile(); err == nil {
		t.Error("children covering more than their parent passed")
	}
}

// TestBatchStreamRunsBesideWindow drives one window with its batch stream
// and checks that the stream ran, that every batch job is the planned one
// and passes its oracle, that none was sent while an open-loop job was in
// flight, and that the stream stopped with the window.
func TestBatchStreamRunsBesideWindow(t *testing.T) {
	cfg := tinyConfig(t, "serve-mix", 5, false)
	sm, ms, err := setupServeMix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.close()
	w := &window{rate: 40, dur: 300 * time.Millisecond}
	r := randFor(cfg)
	sm.plan(w, r)
	sm.planBatch(w, r)
	if err := ms.drive(w); err != nil {
		t.Fatal(err)
	}
	if len(w.batch) == 0 {
		t.Fatal("the batch stream sent no jobs")
	}
	var lastEnd time.Time
	for _, rec := range w.jobs {
		if rec.endAt.After(lastEnd) {
			lastEnd = rec.endAt
		}
	}
	for i, rec := range w.batch {
		if rec.err == nil {
			rec.err = sm.check(rec, nil, nil)
		}
		if rec.err != nil {
			t.Fatalf("batch job %d (%s %s): %v", i, rec.spec.Kind, rec.spec.Variant, rec.err)
		}
		if rec.graph != 0 || rec.spec.Graph.Suite != hotGraph {
			t.Fatalf("batch job %d ran on %q, want the hot graph", i, rec.spec.Graph.Suite)
		}
		if rec.dueAt.After(lastEnd) {
			t.Fatalf("batch job %d sent %v after the window's last job ended", i, rec.dueAt.Sub(lastEnd))
		}
		// An open-loop job is in flight from its send (due plus lateness)
		// until after its end; the millisecond allows for the clock reads.
		for _, j := range w.jobs {
			sent := j.dueAt.Add(time.Duration(j.lagMS*1e6) + time.Millisecond)
			if rec.dueAt.After(sent) && rec.dueAt.Before(j.endAt) {
				t.Fatalf("batch job %d sent while an open-loop job was in flight", i)
			}
		}
	}
}
