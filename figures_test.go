package repro

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/rctree"
	"repro/internal/wgraph"
)

// TestFigure1Reproduction regenerates Figure 1: the compressed path tree of
// the example tree must have exactly the marked vertices A–E plus two
// Steiner vertices, with edge weights {3, 6, 7, 9, 10, 12}.
func TestFigure1Reproduction(t *testing.T) {
	fig := NewFigure1Example()
	for _, seed := range []uint64{1, 7, 42, 1234} { // seed-independent
		got := fig.Compute(seed)
		if len(got) != 6 {
			t.Fatalf("seed %d: CPT has %d edges, want 6:\n%s", seed, len(got), fig.Render(got))
		}
		var ws []int64
		verts := map[int32]bool{}
		for _, e := range got {
			ws = append(ws, e.Key.W)
			verts[e.U] = true
			verts[e.V] = true
		}
		sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
		for i, w := range fig.WantWeights {
			if ws[i] != w {
				t.Fatalf("seed %d: CPT weights %v want %v", seed, ws, fig.WantWeights)
			}
		}
		if len(verts) != 7 {
			t.Fatalf("seed %d: CPT has %d vertices, want 5 marked + 2 Steiner", seed, len(verts))
		}
		for _, m := range fig.Marked {
			if !verts[m] {
				t.Fatalf("seed %d: marked vertex %s missing", seed, fig.Names[m])
			}
		}
		// The Steiner vertices must be the original X and Y (degree-3+
		// branch points survive, spliced vertices do not).
		if !verts[5] || !verts[6] {
			t.Fatalf("seed %d: Steiner X/Y missing: %v", seed, verts)
		}
		if verts[7] || verts[8] || verts[9] {
			t.Fatalf("seed %d: spliced vertex survived: %v", seed, verts)
		}
	}
}

// TestFigure1RenderStable checks the display form used by cmd/figures.
func TestFigure1RenderStable(t *testing.T) {
	fig := NewFigure1Example()
	out := fig.Render(fig.Compute(42))
	for _, want := range []string{"A --6-- X", "B --10-- X", "X --9-- Y", "C --7-- Y", "D --12-- Y", "E --3-- Y"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered CPT missing %q:\n%s", want, out)
		}
	}
}

// TestFigure2Reproduction regenerates Figure 2: the contraction of the
// 12-vertex example must satisfy all RC-tree invariants, produce one root
// cluster, and classify every vertex as exactly one of rake/compress/
// finalize with valid cluster relationships.
func TestFigure2Reproduction(t *testing.T) {
	fig := NewFigure2Example()
	for _, seed := range []uint64{1, 2, 3, 99} {
		tr := rctree.New(fig.N, seed)
		var ins []rctree.Edge
		for _, e := range fig.Edges {
			ins = append(ins, rctree.Edge{U: e.U, V: e.V, Key: wgraph.KeyOf(e)})
		}
		tr.BatchUpdate(ins, nil)
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if tr.NumComponents() != 1 {
			t.Fatalf("seed %d: %d roots", seed, tr.NumComponents())
		}
		// Count decisions: 12 deaths, exactly 1 finalize.
		finals, rakes, compresses := 0, 0, 0
		for v := int32(0); v < int32(fig.N); v++ {
			switch tr.DecisionOf(v) {
			case rctree.Finalize:
				finals++
			case rctree.Rake:
				rakes++
			case rctree.Compress:
				compresses++
			}
		}
		if finals != 1 || rakes+compresses+finals != fig.N {
			t.Fatalf("seed %d: finals=%d rakes=%d compresses=%d", seed, finals, rakes, compresses)
		}
		// Path queries on the example tree: the heaviest edge between f and
		// l is the k-l edge (weight 11), between a and c the b-c edge (2).
		k, ok := tr.PathMax(5, 11)
		if !ok || k.W != 11 {
			t.Fatalf("seed %d: PathMax(f,l)=%v", seed, k)
		}
		k, ok = tr.PathMax(0, 2)
		if !ok || k.W != 2 {
			t.Fatalf("seed %d: PathMax(a,c)=%v", seed, k)
		}
	}
}

func TestFigure2DumpMentionsEveryVertex(t *testing.T) {
	fig := NewFigure2Example()
	out := fig.RCTreeDump(42)
	for _, n := range fig.Names {
		if !strings.Contains(out, " "+n+" ") {
			t.Fatalf("dump missing vertex %q:\n%s", n, out)
		}
	}
	if !strings.Contains(out, "finalizes (root cluster") {
		t.Fatalf("dump missing root cluster:\n%s", out)
	}
}
