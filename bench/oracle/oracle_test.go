package oracle

import "testing"

// Hand-built graphs over n = 6 vertices with known answers.
var cases = []struct {
	name       string
	edges      []Edge
	components int
	bipartite  bool
	cycle      bool
	msf        int64
}{
	{
		name:       "empty",
		components: 6, bipartite: true, cycle: false, msf: 0,
	},
	{
		// Triangle 0-1-2 plus pendant 2-3: the triangle is an odd cycle,
		// and the heaviest triangle edge (5) stays out of the forest.
		name:       "triangle+pendant",
		edges:      []Edge{{0, 1, 1}, {1, 2, 2}, {0, 2, 5}, {2, 3, 4}},
		components: 3, bipartite: false, cycle: true, msf: 1 + 2 + 4,
	},
	{
		// A 4-cycle is even, so still bipartite.
		name:       "square",
		edges:      []Edge{{0, 1, 3}, {1, 2, 3}, {2, 3, 3}, {3, 0, 1}},
		components: 3, bipartite: true, cycle: true, msf: 7,
	},
	{
		// Two parallel copies of one edge form a cycle but keep the graph
		// bipartite; the cheaper copy is the forest edge.
		name:       "parallel",
		edges:      []Edge{{4, 5, 9}, {5, 4, 2}},
		components: 5, bipartite: true, cycle: true, msf: 2,
	},
	{
		name:       "path",
		edges:      []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {4, 5, 1}},
		components: 1, bipartite: true, cycle: false, msf: 5,
	},
}

func TestHandBuiltGraphs(t *testing.T) {
	const n = 6
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Components(n, c.edges); got != c.components {
				t.Errorf("Components = %d, want %d", got, c.components)
			}
			if got := Bipartite(n, c.edges); got != c.bipartite {
				t.Errorf("Bipartite = %v, want %v", got, c.bipartite)
			}
			if got := HasCycle(n, c.edges); got != c.cycle {
				t.Errorf("HasCycle = %v, want %v", got, c.cycle)
			}
			if got := MSFWeight(n, c.edges); got != c.msf {
				t.Errorf("MSFWeight = %d, want %d", got, c.msf)
			}
		})
	}
}

func TestLabels(t *testing.T) {
	l := Labels(6, []Edge{{0, 1, 1}, {1, 2, 2}, {0, 2, 5}, {2, 3, 4}})
	for _, p := range [][2]int32{{0, 3}, {1, 2}, {3, 0}} {
		if l[p[0]] != l[p[1]] {
			t.Errorf("%d and %d should be connected", p[0], p[1])
		}
	}
	for _, p := range [][2]int32{{0, 4}, {4, 5}, {3, 5}} {
		if l[p[0]] == l[p[1]] {
			t.Errorf("%d and %d should be apart", p[0], p[1])
		}
	}
}

// A long path merged edge by edge builds deep union-find chains; every
// vertex must still get the one label.
func TestLabelsDeepPath(t *testing.T) {
	const n = 64
	var edges []Edge
	for v := int32(1); v < n; v++ {
		edges = append(edges, Edge{U: v - 1, V: v, W: 1})
	}
	l := Labels(n, edges)
	for v := 1; v < n; v++ {
		if l[v] != l[0] {
			t.Fatalf("vertex %d labelled %d, vertex 0 labelled %d", v, l[v], l[0])
		}
	}
}

func TestWithinApprox(t *testing.T) {
	for _, c := range []struct {
		exact int64
		got   float64
		ok    bool
	}{
		{100, 100, true},
		{100, 125, true},
		{100, 125.1, false},
		{100, 99.9, false},
		{0, 0, true},
	} {
		if got := WithinApprox(c.exact, c.got, 0.25); got != c.ok {
			t.Errorf("WithinApprox(%d, %v) = %v, want %v", c.exact, c.got, got, c.ok)
		}
	}
}
