package kerneltest

import (
	"testing"

	"micgraph/internal/bfs"
	"micgraph/internal/coloring"
	"micgraph/internal/components"
	"micgraph/internal/sched"
)

// The oracle suites run every variant on every corpus graph from every
// source, with a small worker count so that single-CPU runs still
// interleave (the -race job shakes the claim protocols).

func TestBFSMatchesOracle(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	pool := sched.NewPool(4)
	defer pool.Close()
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 16}
	eagerBottomUp := 0

	// exact marks the variants whose locked claims insert every vertex
	// exactly once: their Duplicates must be 0, not merely Processed at
	// least the oracle's.
	variants := []struct {
		name  string
		exact bool
		run   func(nm Named, source int32) bfs.Result
	}{
		{"omp-block", true, func(nm Named, s int32) bfs.Result {
			return bfs.BlockTeam(nm.G, s, team, opts, 8, false)
		}},
		{"omp-block-relaxed", false, func(nm Named, s int32) bfs.Result {
			return bfs.BlockTeam(nm.G, s, team, opts, 8, true)
		}},
		{"tbb-block", true, func(nm Named, s int32) bfs.Result {
			return bfs.BlockTBB(nm.G, s, pool, sched.AutoPartitioner, 8, 8, false)
		}},
		{"tbb-block-relaxed", false, func(nm Named, s int32) bfs.Result {
			return bfs.BlockTBB(nm.G, s, pool, sched.SimplePartitioner, 8, 8, true)
		}},
		{"tls", true, func(nm Named, s int32) bfs.Result {
			return bfs.TLSTeam(nm.G, s, team, opts)
		}},
		{"bag", false, func(nm Named, s int32) bfs.Result {
			return bfs.BagCilk(nm.G, s, pool, 16)
		}},
		{"hybrid", true, func(nm Named, s int32) bfs.Result {
			return bfs.HybridTeam(nm.G, s, team, opts, bfs.HybridConfig{}).Result
		}},
		{"hybrid-eager", true, func(nm Named, s int32) bfs.Result {
			// A huge α enters bottom-up on any growing frontier of at
			// least |V|/β vertices; β=64 makes that a few vertices on the
			// corpus graphs, and lets the frontier shrink back under it.
			res := bfs.HybridTeam(nm.G, s, team, opts, bfs.HybridConfig{Alpha: 1 << 20, Beta: 64})
			eagerBottomUp += res.BottomUpLevels
			return res.Result
		}},
	}

	for _, nm := range Corpus() {
		for _, v := range variants {
			for _, src := range Sources(nm.G) {
				got := v.run(nm, src)
				CheckBFS(t, nm.Name+"/"+v.name, nm.G, src, got)
				if v.exact && got.Duplicates != 0 {
					t.Fatalf("%s/%s: %d duplicate frontier entries from locked claims", nm.Name, v.name, got.Duplicates)
				}
			}
		}
	}
	if eagerBottomUp == 0 {
		t.Fatal("hybrid-eager never went bottom-up on the corpus")
	}
}

// TestBFSScratchReuseMatchesOracle replays several graphs through one
// resident Scratch per variant: a recycled scratch must produce the same
// levels as a fresh one (the serving path runs this way).
func TestBFSScratchReuseMatchesOracle(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	pool := sched.NewPool(4)
	defer pool.Close()
	opts := sched.ForOptions{Policy: sched.Guided, Chunk: 8}

	block, tls, bag, hyb := bfs.NewScratch(), bfs.NewScratch(), bfs.NewScratch(), bfs.NewScratch()
	for _, nm := range Corpus() {
		for _, src := range Sources(nm.G) {
			if r, err := block.BlockTeam(nil, nm.G, src, team, opts, 8, true); err != nil {
				t.Fatal(err)
			} else {
				CheckBFS(t, nm.Name+"/scratch-block", nm.G, src, r)
			}
			if r, err := tls.TLSTeam(nil, nm.G, src, team, opts); err != nil {
				t.Fatal(err)
			} else {
				CheckBFS(t, nm.Name+"/scratch-tls", nm.G, src, r)
			}
			if r, err := bag.BagCilk(nil, nm.G, src, pool, 16); err != nil {
				t.Fatal(err)
			} else {
				CheckBFS(t, nm.Name+"/scratch-bag", nm.G, src, r)
			}
			if r, err := hyb.Hybrid(nil, nm.G, src, team, opts, bfs.HybridConfig{}); err != nil {
				t.Fatal(err)
			} else {
				CheckBFS(t, nm.Name+"/scratch-hybrid", nm.G, src, r.Result)
			}
		}
	}
}

func TestColoringMatchesOracle(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	pool := sched.NewPool(4)
	defer pool.Close()
	opts := sched.ForOptions{Policy: sched.Static, Chunk: 16}

	scratch := coloring.NewScratch()
	for _, nm := range Corpus() {
		CheckColoring(t, nm.Name+"/seq", nm.G, coloring.SeqGreedy(nm.G))
		CheckColoring(t, nm.Name+"/openmp", nm.G, coloring.ColorTeam(nm.G, team, opts))
		CheckColoring(t, nm.Name+"/cilk-wid", nm.G, coloring.ColorCilk(nm.G, pool, 32, coloring.CilkWorkerID))
		CheckColoring(t, nm.Name+"/cilk-holder", nm.G, coloring.ColorCilk(nm.G, pool, 32, coloring.CilkHolder))
		CheckColoring(t, nm.Name+"/tbb", nm.G, coloring.ColorTBB(nm.G, pool, sched.AutoPartitioner, 32))
		// The same recycled Scratch must stay proper across graphs.
		if r, err := scratch.ColorTeam(nil, nm.G, team, opts); err != nil {
			t.Fatal(err)
		} else {
			CheckColoring(t, nm.Name+"/scratch-reuse", nm.G, r)
		}
	}
}

func TestComponentsMatchOracle(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 16}

	scratch := components.NewScratch()
	for _, nm := range Corpus() {
		CheckComponents(t, nm.Name+"/labelprop", nm.G, components.LabelPropagation(nm.G, team, opts))
		CheckComponents(t, nm.Name+"/pointerjump", nm.G, components.PointerJumping(nm.G, team, opts))
		if r, err := scratch.LabelPropagation(nil, nm.G, team, opts); err != nil {
			t.Fatal(err)
		} else {
			CheckComponents(t, nm.Name+"/scratch-labelprop", nm.G, r)
		}
		if r, err := scratch.PointerJumping(nil, nm.G, team, opts); err != nil {
			t.Fatal(err)
		} else {
			CheckComponents(t, nm.Name+"/scratch-pointerjump", nm.G, r)
		}
	}
}

// TestCorpusShape pins the corpus floor the satellite requires: at least
// 20 graphs, including stars, chains, disconnected and zero-degree shapes.
func TestCorpusShape(t *testing.T) {
	c := Corpus()
	if len(c) < 20 {
		t.Fatalf("corpus has %d graphs, want >= 20", len(c))
	}
	seen := map[string]bool{}
	for _, nm := range c {
		seen[nm.Name] = true
	}
	for _, want := range []string{"star-63", "chain-64", "disconnected-chains-5x20", "isolated-tail-er", "two-isolated"} {
		if !seen[want] {
			t.Fatalf("corpus is missing pathological graph %q", want)
		}
	}
}
