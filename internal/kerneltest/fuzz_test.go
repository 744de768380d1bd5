package kerneltest

import (
	"testing"

	"micgraph/internal/bfs"
	"micgraph/internal/graph"
	"micgraph/internal/sched"
)

// hybridFuzzSeed is one FuzzHybridDirectionSwitch corpus entry.
type hybridFuzzSeed struct {
	raw              []byte
	src, alpha, beta uint8
}

// hybridFuzzSeeds all reach bottom-up (TestHybridFuzzSeedsGoBottomUp), so
// the fuzzer starts from inputs that cross the direction switch: a chain
// and an eager switch, a star at the published defaults, and a sparse
// forest with a large α.
var hybridFuzzSeeds = []hybridFuzzSeed{
	{[]byte{1, 2, 2, 3, 3, 4}, 3, 255, 255},
	{[]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5}, 0, 14, 24},
	{[]byte{9, 1, 8, 2, 7, 3, 250, 0}, 200, 200, 100},
}

// fuzzGraph decodes byte pairs as edges over at most 64 vertices; n covers
// every endpoint and the requested source.
func fuzzGraph(raw []byte, src uint8) (*graph.Graph, int32, error) {
	n := int(src%64) + 1
	edges := make([]graph.Edge, 0, len(raw)/2)
	for i := 0; i+1 < len(raw); i += 2 {
		u, v := int32(raw[i]%64), int32(raw[i+1]%64)
		edges = append(edges, graph.Edge{U: u, V: v})
		if int(u) >= n {
			n = int(u) + 1
		}
		if int(v) >= n {
			n = int(v) + 1
		}
	}
	g, err := graph.FromEdges(n, edges)
	return g, int32(src % 64), err
}

// FuzzHybridDirectionSwitch drives the direction-optimizing BFS with
// fuzzer-chosen graphs and α/β switch thresholds and checks it against the
// sequential reference. The property under test is that the top-down ↔
// bottom-up switch is invisible in the output: whatever level the switch
// fires at, the level assignment, level count, and width histogram must
// match the oracle exactly, and the shared Validate pass catches any
// frontier entry read out of bounds or claimed twice. Large α and β flip
// eagerly: bottom-up is entered when the frontier's edges exceed
// unexplored/α and it holds at least |V|/β vertices, and left once it
// holds fewer; β=1 therefore never goes bottom-up.
func FuzzHybridDirectionSwitch(f *testing.F) {
	for _, s := range hybridFuzzSeeds {
		f.Add(s.raw, s.src, s.alpha, s.beta)
	}
	f.Fuzz(func(t *testing.T, raw []byte, src, alpha, beta uint8) {
		g, source, err := fuzzGraph(raw, src)
		if err != nil {
			t.Skip()
		}
		team := sched.NewTeam(4)
		defer team.Close()
		cfg := bfs.HybridConfig{Alpha: int(alpha), Beta: int(beta)}
		got, err := bfs.HybridTeamCtx(nil, g, source, team, sched.ForOptions{}, cfg)
		if err != nil {
			t.Fatalf("hybrid(alpha=%d beta=%d): %v", alpha, beta, err)
		}
		CheckBFS(t, "hybrid-fuzz", g, source, got.Result)
	})
}

func TestHybridFuzzSeedsGoBottomUp(t *testing.T) {
	team := sched.NewTeam(4)
	defer team.Close()
	for i, s := range hybridFuzzSeeds {
		g, source, err := fuzzGraph(s.raw, s.src)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		cfg := bfs.HybridConfig{Alpha: int(s.alpha), Beta: int(s.beta)}
		got, err := bfs.HybridTeamCtx(nil, g, source, team, sched.ForOptions{}, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if got.BottomUpLevels == 0 {
			t.Errorf("seed %d (alpha=%d beta=%d) never went bottom-up", i, s.alpha, s.beta)
		}
	}
}
