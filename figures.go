package repro

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cpt"
	"repro/internal/rctree"
	"repro/internal/wgraph"
)

// CPTEdge is a compressed-path-tree edge (Section 3): the forest path
// between U and V has heaviest edge Key.
type CPTEdge = cpt.Edge

// Figure1Example reconstructs the running example of Figure 1: a weighted
// tree with five marked vertices whose compressed path tree has two Steiner
// vertices and edge weights {6, 10, 9, 7, 12, 3}.
//
// Layout (marked vertices A, B, C, D, E; Steiner X, Y; lower-case vertices
// are spliced out by the construction):
//
//	A --2-- a1 --6-- X          C --1-- c1 --7-- Y
//	B --------10---- X          D -------12----- Y
//	X --9-- b1 --4-- Y          E --------3----- Y
type Figure1Example struct {
	N      int
	Edges  []Edge
	Marked []int32
	Names  map[int32]string
	// WantWeights is the multiset of CPT edge weights from Figure 1b.
	WantWeights []int64
}

// NewFigure1Example builds the example instance.
func NewFigure1Example() Figure1Example {
	// Vertex ids: A=0 B=1 C=2 D=3 E=4 X=5 Y=6 a1=7 b1=8 c1=9.
	names := map[int32]string{0: "A", 1: "B", 2: "C", 3: "D", 4: "E", 5: "X", 6: "Y", 7: "a1", 8: "b1", 9: "c1"}
	edges := []Edge{
		{ID: 1, U: 0, V: 7, W: 2},  // A-a1
		{ID: 2, U: 7, V: 5, W: 6},  // a1-X
		{ID: 3, U: 1, V: 5, W: 10}, // B-X
		{ID: 4, U: 5, V: 8, W: 9},  // X-b1
		{ID: 5, U: 8, V: 6, W: 4},  // b1-Y
		{ID: 6, U: 2, V: 9, W: 1},  // C-c1
		{ID: 7, U: 9, V: 6, W: 7},  // c1-Y
		{ID: 8, U: 3, V: 6, W: 12}, // D-Y
		{ID: 9, U: 4, V: 6, W: 3},  // E-Y
	}
	return Figure1Example{
		N:           10,
		Edges:       edges,
		Marked:      []int32{0, 1, 2, 3, 4},
		Names:       names,
		WantWeights: []int64{3, 6, 7, 9, 10, 12},
	}
}

// Compute builds the tree in a BatchMSF and extracts the compressed path
// tree with respect to the marked vertices.
func (f Figure1Example) Compute(seed uint64) []CPTEdge {
	m := NewBatchMSF(f.N, seed)
	m.BatchInsert(f.Edges)
	return m.CompressedPaths(f.Marked)
}

// Render formats the CPT for display, naming vertices per the figure.
func (f Figure1Example) Render(edges []CPTEdge) string {
	var b strings.Builder
	rows := make([]string, 0, len(edges))
	for _, e := range edges {
		nu, nv := f.name(e.U), f.name(e.V)
		if nu > nv {
			nu, nv = nv, nu
		}
		rows = append(rows, fmt.Sprintf("  %s --%d-- %s", nu, e.Key.W, nv))
	}
	sort.Strings(rows)
	b.WriteString("compressed path tree:\n")
	for _, r := range rows {
		b.WriteString(r)
		b.WriteString("\n")
	}
	return b.String()
}

func (f Figure1Example) name(v int32) string {
	if n, ok := f.Names[v]; ok {
		return n
	}
	return fmt.Sprintf("v%d", v)
}

// Figure2Example is the 12-vertex tree a–l of Figure 2, whose RC tree the
// paper illustrates.
type Figure2Example struct {
	N     int
	Edges []Edge
	Names []string
}

// NewFigure2Example builds the Figure 2 tree.
func NewFigure2Example() Figure2Example {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	pairs := [][2]int32{
		{0, 1},   // a-b
		{1, 2},   // b-c
		{1, 3},   // b-d
		{3, 4},   // d-e
		{4, 5},   // e-f
		{4, 7},   // e-h
		{6, 7},   // g-h
		{7, 8},   // h-i
		{8, 9},   // i-j
		{8, 10},  // i-k
		{10, 11}, // k-l
	}
	edges := make([]Edge, len(pairs))
	for i, p := range pairs {
		edges[i] = Edge{ID: EdgeID(i + 1), U: p[0], V: p[1], W: int64(i + 1)}
	}
	return Figure2Example{N: 12, Edges: edges, Names: names}
}

// RCTreeDump builds the rake-compress tree of the Figure 2 example and
// returns a per-vertex description of the contraction (death round,
// decision, cluster relationships), which is the information Figure 2c
// depicts. The exact clustering depends on the contraction priorities; any seed
// yields a valid RC tree of the same tree.
func (f Figure2Example) RCTreeDump(seed uint64) string {
	t := rctree.New(f.N, seed)
	var ins []rctree.Edge
	for _, e := range f.Edges {
		ins = append(ins, rctree.Edge{U: e.U, V: e.V, Key: wgraph.KeyOf(e)})
	}
	t.BatchUpdate(ins, nil)
	var b strings.Builder
	fmt.Fprintf(&b, "RC tree of the Figure 2 tree (seed %d):\n", seed)
	maxRound := int32(0)
	for v := int32(0); v < int32(f.N); v++ {
		if t.DeathRound(v) > maxRound {
			maxRound = t.DeathRound(v)
		}
	}
	for r := int32(0); r <= maxRound; r++ {
		fmt.Fprintf(&b, "round %d:\n", r)
		for v := int32(0); v < int32(f.N); v++ {
			if t.DeathRound(v) != r {
				continue
			}
			switch t.DecisionOf(v) {
			case rctree.Rake:
				fmt.Fprintf(&b, "  %s rakes into %s (unary cluster %s)\n",
					f.Names[v], f.Names[t.TargetOf(v)], strings.ToUpper(f.Names[v]))
			case rctree.Compress:
				bd := t.Boundary(v)
				fmt.Fprintf(&b, "  %s compresses between %s and %s (binary cluster %s)\n",
					f.Names[v], f.Names[bd[0]], f.Names[bd[1]], strings.ToUpper(f.Names[v]))
			case rctree.Finalize:
				fmt.Fprintf(&b, "  %s finalizes (root cluster %s)\n",
					f.Names[v], strings.ToUpper(f.Names[v]))
			}
		}
	}
	return b.String()
}
