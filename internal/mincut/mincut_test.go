package mincut

import (
	"testing"

	"repro/internal/graphgen"
	"repro/internal/parallel"
	"repro/internal/wgraph"
)

func TestTrivial(t *testing.T) {
	if Global(0, nil) != 0 || Global(1, nil) != 0 {
		t.Fatal("tiny graphs should have cut 0")
	}
	if Global(2, nil) != 0 {
		t.Fatal("disconnected graph should have cut 0")
	}
}

func TestSingleEdge(t *testing.T) {
	if got := Global(2, []wgraph.Edge{{U: 0, V: 1, W: 7}}); got != 7 {
		t.Fatalf("got %d", got)
	}
}

func TestTriangle(t *testing.T) {
	edges := []wgraph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1},
	}
	if got := EdgeConnectivity(3, edges); got != 2 {
		t.Fatalf("triangle connectivity %d want 2", got)
	}
}

func TestBridge(t *testing.T) {
	// Two triangles joined by one bridge: min cut 1.
	edges := []wgraph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 5, V: 3, W: 1},
		{U: 2, V: 3, W: 1},
	}
	if got := EdgeConnectivity(6, edges); got != 1 {
		t.Fatalf("bridge cut %d want 1", got)
	}
}

func TestCompleteGraph(t *testing.T) {
	// K5 has edge connectivity 4.
	var edges []wgraph.Edge
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, wgraph.Edge{U: i, V: j, W: 1})
		}
	}
	if got := EdgeConnectivity(5, edges); got != 4 {
		t.Fatalf("K5 connectivity %d want 4", got)
	}
}

func TestWeightedKnownCut(t *testing.T) {
	// The classic Stoer-Wagner paper example graph has min cut 4.
	edges := []wgraph.Edge{
		{U: 0, V: 1, W: 2}, {U: 0, V: 4, W: 3},
		{U: 1, V: 2, W: 3}, {U: 1, V: 4, W: 2}, {U: 1, V: 5, W: 2},
		{U: 2, V: 3, W: 4}, {U: 2, V: 6, W: 2},
		{U: 3, V: 6, W: 2}, {U: 3, V: 7, W: 2},
		{U: 4, V: 5, W: 3},
		{U: 5, V: 6, W: 1},
		{U: 6, V: 7, W: 3},
	}
	if got := Global(8, edges); got != 4 {
		t.Fatalf("got %d want 4", got)
	}
}

func TestParallelEdgesAccumulate(t *testing.T) {
	edges := []wgraph.Edge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 1, W: 1}, {U: 0, V: 1, W: 1},
	}
	if got := EdgeConnectivity(2, edges); got != 3 {
		t.Fatalf("got %d want 3", got)
	}
}

// bruteForceCut enumerates all bipartitions (n <= 16).
func bruteForceCut(n int, edges []wgraph.Edge) int64 {
	best := int64(1) << 62
	for mask := 1; mask < (1<<n)-1; mask++ {
		var c int64
		for _, e := range edges {
			if (mask>>e.U)&1 != (mask>>e.V)&1 {
				c += e.W
			}
		}
		if c < best {
			best = c
		}
	}
	if best >= int64(1)<<62 {
		return 0
	}
	return best
}

func TestVsBruteForceRandom(t *testing.T) {
	r := parallel.NewRNG(3)
	for trial := 0; trial < 25; trial++ {
		n := 3 + r.Intn(8)
		m := n + r.Intn(2*n)
		edges := graphgen.ErdosRenyi(n, m, 5, uint64(trial)+11)
		got := Global(n, edges)
		want := bruteForceCut(n, edges)
		if got != want {
			t.Fatalf("trial %d (n=%d m=%d): got %d want %d", trial, n, m, got, want)
		}
	}
}

// TestEdgeConnectivityUpToMatchesStoerWagner checks the bridge search
// behind k <= 2, and the dispatch above it, against Stoer–Wagner on random
// sparse multigraphs: paths and cycles with chords, pendant paths and
// parallel copies, connected or not.
func TestEdgeConnectivityUpToMatchesStoerWagner(t *testing.T) {
	r := parallel.NewRNG(41)
	for trial := range 400 {
		n := 1 + r.Intn(12)
		var edges []wgraph.Edge
		add := func(u, v int32) {
			edges = append(edges, wgraph.Edge{ID: wgraph.EdgeID(len(edges)), U: u, V: v, W: 1})
		}
		for v := int32(1); v < int32(n); v++ {
			if r.Intn(8) > 0 {
				add(v-1, v) // a path, with a few gaps
			}
		}
		for range r.Intn(n + 1) {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			add(u, v) // chords, parallel copies and loops
		}
		if r.Intn(3) == 0 && len(edges) > 0 {
			e := edges[r.Intn(len(edges))]
			add(e.U, e.V)
		}
		want := EdgeConnectivity(n, edges)
		for k := 1; k <= 4; k++ {
			if got := EdgeConnectivityUpTo(n, edges, k); int64(got) != min(int64(k), want) {
				t.Fatalf("trial %d, k = %d: got %d, Stoer–Wagner λ = %d on n = %d, %v", trial, k, got, want, n, edges)
			}
		}
	}
}
