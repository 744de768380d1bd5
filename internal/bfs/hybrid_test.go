package bfs

import (
	"testing"
	"testing/quick"

	"micgraph/internal/gen"
	"micgraph/internal/graph"
	"micgraph/internal/sched"
)

func TestParentsValid(t *testing.T) {
	property := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%120) + 1
		m := int(mRaw % 500)
		g := randomGraph(seed, n, m)
		src := int32(int(seed % uint64(n)))
		res := Sequential(g, src)
		parents := Parents(g, src, res.Levels)
		return ValidateParents(g, src, parents, res.Levels) == nil
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestValidateParentsCatchesCorruption(t *testing.T) {
	g := gen.Grid2D(8, 8)
	res := Sequential(g, 0)
	good := Parents(g, 0, res.Levels)

	cases := []struct {
		name   string
		mutate func(p []int32)
	}{
		{"source not own parent", func(p []int32) { p[0] = 5 }},
		{"non-edge parent", func(p []int32) { p[63] = 0 }}, // corner to corner: no edge
		{"wrong level parent", func(p []int32) { p[2] = 3 }},
		{"orphaned reachable", func(p []int32) { p[5] = NoParent }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := append([]int32{}, good...)
			tc.mutate(p)
			if err := ValidateParents(g, 0, p, res.Levels); err == nil {
				t.Error("corruption not detected")
			}
		})
	}
	// And the untouched tree must pass.
	if err := ValidateParents(g, 0, good, res.Levels); err != nil {
		t.Fatal(err)
	}
}

func TestValidateParentsCycle(t *testing.T) {
	// Construct a plausible-looking forest with a two-cycle: levels lie.
	g := gen.Chain(4)
	levels := []int32{0, 1, 2, 3}
	parents := []int32{0, 0, 3, 2} // 2 and 3 point at each other
	if err := ValidateParents(g, 0, parents, levels); err == nil {
		t.Error("parent cycle not detected")
	}
}

func TestHybridMatchesSequential(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	opts := sched.ForOptions{Policy: sched.Dynamic, Chunk: 8}
	graphs := map[string]*graph.Graph{
		"chain":    gen.Chain(100),
		"complete": gen.Complete(50),
		"grid":     gen.Grid2D(25, 25),
		"rmat":     gen.RMAT(9, 8, 0.57, 0.19, 0.19, 3),
		"random":   randomGraph(5, 300, 1200),
	}
	for name, g := range graphs {
		name, g := name, g
		t.Run(name, func(t *testing.T) {
			src := int32(g.NumVertices() / 3)
			res := HybridTeam(g, src, team, opts, HybridConfig{})
			if err := Validate(g, src, res.Levels); err != nil {
				t.Fatal(err)
			}
			// One directional pass per non-empty frontier (levels 0..max).
			if res.TopDownLevels+res.BottomUpLevels != res.NumLevels {
				t.Errorf("direction counts %d+%d don't cover %d levels",
					res.TopDownLevels, res.BottomUpLevels, res.NumLevels)
			}
		})
	}
}

func TestHybridUsesBottomUpOnWideFrontier(t *testing.T) {
	// A complete graph's level 1 is the whole graph, and RMAT's hub-skewed
	// middle levels hold most of it: both must go bottom-up, entry guard
	// included.
	team := sched.NewTeam(4)
	defer team.Close()
	for name, g := range map[string]*graph.Graph{
		"complete-200": gen.Complete(200),
		"rmat-12":      gen.RMAT(12, 16, 0.57, 0.19, 0.19, 1),
	} {
		res := HybridTeam(g, 0, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 16}, HybridConfig{})
		if err := Validate(g, 0, res.Levels); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.BottomUpLevels == 0 {
			t.Errorf("%s: BFS never switched to bottom-up (%d levels)", name, res.NumLevels)
		}
	}
}

func TestHybridStaysTopDownOnMeshRibbon(t *testing.T) {
	// From a corner of the pwtk stand-in the frontier is a narrow ribbon
	// whose degree sum still beats unexplored/α near the far end. Each of
	// those frontiers is under |V|/β, so bottom-up would last one level;
	// the entry guard keeps them all top-down.
	cfg, err := gen.SuiteConfig("pwtk")
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Mesh(gen.Scaled(cfg, 4))
	if err != nil {
		t.Fatal(err)
	}
	team := sched.NewTeam(2)
	defer team.Close()
	res := HybridTeam(g, 0, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 64}, HybridConfig{})
	if err := Validate(g, 0, res.Levels); err != nil {
		t.Fatal(err)
	}
	if res.BottomUpLevels != 0 {
		t.Errorf("pwtk/4 BFS from a corner used bottom-up on %d of %d levels", res.BottomUpLevels, res.NumLevels)
	}
}

func TestHybridStaysTopDownOnChain(t *testing.T) {
	// A chain's frontier is always one vertex: bottom-up would be absurd
	// and the heuristic must never pick it.
	team := sched.NewTeam(2)
	defer team.Close()
	g := gen.Chain(400)
	res := HybridTeam(g, 0, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 8}, HybridConfig{})
	if res.BottomUpLevels != 0 {
		t.Errorf("chain BFS used bottom-up on %d levels", res.BottomUpLevels)
	}
}

func TestHybridProperty(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	property := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%150) + 1
		m := int(mRaw % 700)
		g := randomGraph(seed, n, m)
		src := int32(int(seed % uint64(n)))
		res := HybridTeam(g, src, team, sched.ForOptions{Policy: sched.Dynamic, Chunk: 4}, HybridConfig{})
		if Validate(g, src, res.Levels) != nil {
			return false
		}
		parents := Parents(g, src, res.Levels)
		return ValidateParents(g, src, parents, res.Levels) == nil
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHybridConfigDefaults(t *testing.T) {
	var c HybridConfig
	if c.alpha() != 14 || c.beta() != 24 {
		t.Errorf("defaults = %d, %d; want 14, 24", c.alpha(), c.beta())
	}
	c = HybridConfig{Alpha: 2, Beta: 3}
	if c.alpha() != 2 || c.beta() != 3 {
		t.Error("explicit config ignored")
	}
}
