package rctree

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/linkcut"
	"repro/internal/parallel"
	"repro/internal/unionfind"
	"repro/internal/wgraph"
)

// --- Naive reference contraction -------------------------------------------
//
// An independently-coded round-by-round simulation of the contraction rules,
// sharing only the priority hash. Used to cross-check the change-propagation
// engine's final records.

type naiveEdge struct {
	u, v int32
}

type naiveOut struct {
	death  []int32
	dec    []Decision
	target []int32
}

func naiveContract(t *Tree, n int, edges []naiveEdge) naiveOut {
	adj := make([]map[int]bool, n) // vertex -> set of edge indices
	for i := range adj {
		adj[i] = map[int]bool{}
	}
	es := append([]naiveEdge(nil), edges...)
	for i, e := range es {
		adj[e.u][i] = true
		adj[e.v][i] = true
	}
	out := naiveOut{death: make([]int32, n), dec: make([]Decision, n), target: make([]int32, n)}
	for i := range out.target {
		out.target[i] = -1
	}
	alive := make([]bool, n)
	remaining := n
	for i := range alive {
		alive[i] = true
	}
	other := func(ei int, x int32) int32 {
		if es[ei].u == x {
			return es[ei].v
		}
		return es[ei].u
	}
	// higher reports whether a's round-r priority beats b's, ties to the
	// higher id.
	higher := func(a, b, r int32) bool {
		pa := parallel.Hash3(t.seed, uint64(a), uint64(r))
		pb := parallel.Hash3(t.seed, uint64(b), uint64(r))
		return pa > pb || (pa == pb && a > b)
	}
	for r := int32(0); remaining > 0; r++ {
		if r > 10_000 {
			panic("naive contraction did not converge")
		}
		type act struct {
			dec    Decision
			target int32
			eids   []int
		}
		acts := map[int32]act{}
		for v := int32(0); v < int32(n); v++ {
			if !alive[v] {
				continue
			}
			switch len(adj[v]) {
			case 0:
				acts[v] = act{dec: Finalize, target: -1}
			case 1:
				var ei int
				for k := range adj[v] {
					ei = k
				}
				u := other(ei, v)
				if len(adj[u]) == 1 && v > u {
					continue // u rakes into v
				}
				acts[v] = act{dec: Rake, target: u, eids: []int{ei}}
			case 2:
				var eids []int
				for k := range adj[v] {
					eids = append(eids, k)
				}
				a, b := other(eids[0], v), other(eids[1], v)
				if len(adj[a]) < 2 || len(adj[b]) < 2 {
					continue
				}
				// A local maximum among the degree-2 vertices compresses.
				if (len(adj[a]) == 2 && !higher(v, a, r)) || (len(adj[b]) == 2 && !higher(v, b, r)) {
					continue
				}
				acts[v] = act{dec: Compress, target: -1, eids: eids}
			}
		}
		for v, a := range acts {
			out.death[v] = r
			out.dec[v] = a.dec
			out.target[v] = a.target
			alive[v] = false
			remaining--
			switch a.dec {
			case Rake:
				ei := a.eids[0]
				delete(adj[other(ei, v)], ei)
				delete(adj[v], ei)
			case Compress:
				e0, e1 := a.eids[0], a.eids[1]
				x, y := other(e0, v), other(e1, v)
				delete(adj[x], e0)
				delete(adj[y], e1)
				delete(adj[v], e0)
				delete(adj[v], e1)
				ni := len(es)
				es = append(es, naiveEdge{u: x, v: y})
				adj[x][ni] = true
				adj[y][ni] = true
			}
		}
	}
	return out
}

// --- Structural equality between two trees ---------------------------------

func keySetOf(t *Tree, h vround) map[wgraph.Key]bool {
	m := map[wgraph.Key]bool{}
	for i := int8(0); i < h.deg; i++ {
		m[t.edges[h.e[i]].key] = true
	}
	return m
}

func sameTrees(t1, t2 *Tree) error {
	if len(t1.verts) != len(t2.verts) {
		return fmt.Errorf("vertex counts differ: %d vs %d", len(t1.verts), len(t2.verts))
	}
	if t1.roots != t2.roots {
		return fmt.Errorf("root counts differ: %d vs %d", t1.roots, t2.roots)
	}
	for v := range t1.verts {
		a, b := &t1.verts[v], &t2.verts[v]
		if a.death != b.death || a.decision != b.decision || a.target != b.target || a.parentC != b.parentC {
			return fmt.Errorf("vertex %d record: (%d,%v,%d,%d) vs (%d,%v,%d,%d)",
				v, a.death, a.decision, a.target, a.parentC, b.death, b.decision, b.target, b.parentC)
		}
		ba := map[int32]bool{a.boundary[0]: true, a.boundary[1]: true}
		bb := map[int32]bool{b.boundary[0]: true, b.boundary[1]: true}
		if len(ba) != len(bb) {
			return fmt.Errorf("vertex %d boundary: %v vs %v", v, a.boundary, b.boundary)
		}
		for k := range ba {
			if !bb[k] {
				return fmt.Errorf("vertex %d boundary: %v vs %v", v, a.boundary, b.boundary)
			}
		}
		if len(a.rakedIn) != len(b.rakedIn) {
			return fmt.Errorf("vertex %d rakedIn: %v vs %v", v, a.rakedIn, b.rakedIn)
		}
		for i := range a.rakedIn {
			if a.rakedIn[i] != b.rakedIn[i] {
				return fmt.Errorf("vertex %d rakedIn: %v vs %v", v, a.rakedIn, b.rakedIn)
			}
		}
		if len(a.hist) != len(b.hist) {
			return fmt.Errorf("vertex %d hist len: %d vs %d", v, len(a.hist), len(b.hist))
		}
		for r := range a.hist {
			ka, kb := keySetOf(t1, a.hist[r]), keySetOf(t2, b.hist[r])
			if len(ka) != len(kb) {
				return fmt.Errorf("vertex %d round %d adjacency differs", v, r)
			}
			for k := range ka {
				if !kb[k] {
					return fmt.Errorf("vertex %d round %d adjacency key %v missing", v, r, k)
				}
			}
		}
		if a.decision == Compress {
			if t1.edges[a.compEdge].key != t2.edges[b.compEdge].key {
				return fmt.Errorf("vertex %d compress key %v vs %v", v, t1.edges[a.compEdge].key, t2.edges[b.compEdge].key)
			}
		}
	}
	return nil
}

// --- Helpers ----------------------------------------------------------------

func mustValidate(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func key(id int) wgraph.Key { return wgraph.Key{W: int64(id * 10), ID: wgraph.EdgeID(id)} }

// --- Tests -------------------------------------------------------------------

func TestEmptyTree(t *testing.T) {
	tr := New(5, 1)
	mustValidate(t, tr)
	if tr.NumComponents() != 5 {
		t.Fatalf("components=%d", tr.NumComponents())
	}
	if tr.Connected(0, 1) {
		t.Fatal("isolated vertices connected")
	}
	if !tr.Connected(2, 2) {
		t.Fatal("self connectivity")
	}
	if _, ok := tr.PathMax(0, 1); ok {
		t.Fatal("pathmax on disconnected")
	}
}

func TestSingleEdge(t *testing.T) {
	tr := New(2, 1)
	hs := tr.BatchUpdate([]Edge{{U: 0, V: 1, Key: key(1)}}, nil)
	mustValidate(t, tr)
	if !tr.Connected(0, 1) {
		t.Fatal("not connected")
	}
	if tr.NumComponents() != 1 {
		t.Fatalf("components=%d", tr.NumComponents())
	}
	k, ok := tr.PathMax(0, 1)
	if !ok || k != key(1) {
		t.Fatalf("pathmax=%v,%v", k, ok)
	}
	tr.BatchUpdate(nil, hs)
	mustValidate(t, tr)
	if tr.Connected(0, 1) {
		t.Fatal("still connected after cut")
	}
	if tr.NumComponents() != 2 {
		t.Fatalf("components=%d", tr.NumComponents())
	}
}

func TestPathIncrementalBuild(t *testing.T) {
	const n = 64
	tr := New(n, 7)
	for i := 0; i < n-1; i++ {
		tr.BatchUpdate([]Edge{{U: int32(i), V: int32(i + 1), Key: key(i + 1)}}, nil)
		mustValidate(t, tr)
	}
	if !tr.Connected(0, n-1) {
		t.Fatal("path not connected")
	}
	k, ok := tr.PathMax(0, n-1)
	if !ok || k != key(n-1) {
		t.Fatalf("pathmax=%v", k)
	}
	k, ok = tr.PathMax(3, 10)
	if !ok || k != key(10) {
		t.Fatalf("pathmax(3,10)=%v", k)
	}
}

func TestPathOneBatchMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 17, 64, 257} {
		tr := New(n, 3)
		var ins []Edge
		var nes []naiveEdge
		for i := 0; i < n-1; i++ {
			ins = append(ins, Edge{U: int32(i), V: int32(i + 1), Key: key(i + 1)})
			nes = append(nes, naiveEdge{u: int32(i), v: int32(i + 1)})
		}
		tr.BatchUpdate(ins, nil)
		mustValidate(t, tr)
		want := naiveContract(tr, n, nes)
		for v := 0; v < n; v++ {
			if tr.verts[v].death != want.death[v] || tr.verts[v].decision != want.dec[v] || tr.verts[v].target != want.target[v] {
				t.Fatalf("n=%d vertex %d: (%d,%v,%d) want (%d,%v,%d)", n, v,
					tr.verts[v].death, tr.verts[v].decision, tr.verts[v].target,
					want.death[v], want.dec[v], want.target[v])
			}
		}
	}
}

// buildRandomForest returns edges of a random degree-<=3 forest over n
// vertices with m edges (as far as possible).
func buildRandomForest(r *parallel.RNG, n, m int, firstID int) []Edge {
	uf := unionfind.New(n)
	deg := make([]int, n)
	var out []Edge
	id := firstID
	for attempts := 0; len(out) < m && attempts < 50*m+100; attempts++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v || deg[u] >= 3 || deg[v] >= 3 || !uf.Union(u, v) {
			continue
		}
		deg[u]++
		deg[v]++
		out = append(out, Edge{U: u, V: v, Key: key(id)})
		id++
	}
	return out
}

func TestRandomForestsMatchNaive(t *testing.T) {
	r := parallel.NewRNG(99)
	for trial := 0; trial < 25; trial++ {
		n := 2 + r.Intn(120)
		m := r.Intn(n)
		tr := New(n, uint64(trial)+1)
		edges := buildRandomForest(r, n, m, 1)
		tr.BatchUpdate(edges, nil)
		mustValidate(t, tr)
		nes := make([]naiveEdge, len(edges))
		for i, e := range edges {
			nes[i] = naiveEdge{u: e.U, v: e.V}
		}
		want := naiveContract(tr, n, nes)
		for v := 0; v < n; v++ {
			if tr.verts[v].death != want.death[v] || tr.verts[v].decision != want.dec[v] || tr.verts[v].target != want.target[v] {
				t.Fatalf("trial %d vertex %d: (%d,%v,%d) want (%d,%v,%d)", trial, v,
					tr.verts[v].death, tr.verts[v].decision, tr.verts[v].target,
					want.death[v], want.dec[v], want.target[v])
			}
		}
	}
}

// TestValidateRejectsAdjacentCompressions rewrites a correct contraction so
// that a neighbour of a compressing vertex dies in the same round, as if
// both had compressed, and requires Validate to name the compression. The
// engine cannot be driven there: under a rule that lets neighbours compress
// together, a later decide reads the dead neighbour's round and panics.
// The pair is chosen so that the compressing vertex is checked before any
// vertex that would meet the dead neighbour in a later round.
func TestValidateRejectsAdjacentCompressions(t *testing.T) {
	const n = 64
	rng := parallel.NewRNG(3)
	for seed := uint64(1); seed <= 20; seed++ {
		tr := New(n, seed)
		tr.BatchUpdate(buildRandomForest(rng, n, n-1, 1), nil)
		mustValidate(t, tr)
		// seenLater reports whether a vertex below v has u as a neighbour
		// after round r.
		seenLater := func(u, v, r int32) bool {
			for x := int32(0); x < v; x++ {
				for rr := r + 1; rr < int32(len(tr.verts[x].hist)); rr++ {
					h := tr.verts[x].hist[rr]
					for i := int8(0); i < h.deg; i++ {
						if h.nb[i] == u {
							return true
						}
					}
				}
			}
			return false
		}
		for v := int32(0); v < n; v++ {
			vr := &tr.verts[v]
			if vr.decision != Compress {
				continue
			}
			r := vr.death
			for _, u := range vr.boundary {
				ur := &tr.verts[u]
				if u < v || cap(ur.hist) != histMinRounds || seenLater(u, v, r) {
					continue
				}
				ur.hist, ur.death, ur.decision = ur.hist[:r+1], r, Compress
				err := tr.Validate()
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("vertex %d compresses at round %d", v, r)) {
					t.Fatalf("seed %d: vertex %d and its neighbour %d both compress at round %d; Validate: %v", seed, v, u, r, err)
				}
				return
			}
		}
	}
	t.Fatal("no compression to rewrite")
}

// TestIncrementalEqualsFresh is the central differential test: applying
// random batches of links and cuts must leave the tree in exactly the state
// a from-scratch contraction of the final forest would produce (priorities are
// deterministic, so the contraction is a pure function of the round-0
// forest).
func TestIncrementalEqualsFresh(t *testing.T) {
	const n = 150
	const seed = 42
	r := parallel.NewRNG(5)
	tr := New(n, seed)
	type liveEdge struct {
		h Handle
		e Edge
	}
	var live []liveEdge
	deg := make([]int, n)
	nextID := 1
	for batch := 0; batch < 40; batch++ {
		// Random cuts.
		var cuts []Handle
		ncut := 0
		if len(live) > 0 {
			ncut = r.Intn(min(len(live), 8) + 1)
		}
		for c := 0; c < ncut; c++ {
			i := r.Intn(len(live))
			le := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			cuts = append(cuts, le.h)
			deg[le.e.U]--
			deg[le.e.V]--
		}
		// Random inserts (valid in the post-cut forest).
		uf := unionfind.New(n)
		for _, le := range live {
			uf.Union(le.e.U, le.e.V)
		}
		var ins []Edge
		nins := r.Intn(10)
		for c := 0; c < nins; c++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u == v || deg[u] >= 3 || deg[v] >= 3 || !uf.Union(u, v) {
				continue
			}
			deg[u]++
			deg[v]++
			ins = append(ins, Edge{U: u, V: v, Key: key(nextID)})
			nextID++
		}
		hs := tr.BatchUpdate(ins, cuts)
		for i, h := range hs {
			live = append(live, liveEdge{h: h, e: ins[i]})
		}
		mustValidate(t, tr)
		// Fresh tree over the same forest.
		fresh := New(n, seed)
		all := make([]Edge, len(live))
		for i, le := range live {
			all[i] = le.e
		}
		fresh.BatchUpdate(all, nil)
		if err := sameTrees(tr, fresh); err != nil {
			t.Fatalf("batch %d: incremental != fresh: %v", batch, err)
		}
	}
}

// TestQueriesVsLinkCut drives random batched updates and cross-checks
// Connected and PathMax against the splay-based link-cut forest.
func TestQueriesVsLinkCut(t *testing.T) {
	const n = 120
	r := parallel.NewRNG(1234)
	tr := New(n, 77)
	lc := linkcut.New(n)
	type liveEdge struct {
		h Handle
		e Edge
	}
	var live []liveEdge
	deg := make([]int, n)
	nextID := 1
	for batch := 0; batch < 60; batch++ {
		var cuts []Handle
		ncut := 0
		if len(live) > 0 {
			ncut = r.Intn(min(len(live), 6) + 1)
		}
		for c := 0; c < ncut; c++ {
			i := r.Intn(len(live))
			le := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			cuts = append(cuts, le.h)
			deg[le.e.U]--
			deg[le.e.V]--
			lc.Cut(wgraph.EdgeID(le.e.Key.ID))
		}
		uf := unionfind.New(n)
		for _, le := range live {
			uf.Union(le.e.U, le.e.V)
		}
		var ins []Edge
		for c := 0; c < r.Intn(12); c++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u == v || deg[u] >= 3 || deg[v] >= 3 || !uf.Union(u, v) {
				continue
			}
			deg[u]++
			deg[v]++
			k := key(nextID)
			nextID++
			ins = append(ins, Edge{U: u, V: v, Key: k})
			lc.Link(wgraph.Edge{ID: k.ID, U: u, V: v, W: k.W})
		}
		hs := tr.BatchUpdate(ins, cuts)
		for i, h := range hs {
			live = append(live, liveEdge{h: h, e: ins[i]})
		}
		for q := 0; q < 60; q++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if got, want := tr.Connected(u, v), lc.Connected(u, v); got != want {
				t.Fatalf("batch %d: Connected(%d,%d)=%v want %v", batch, u, v, got, want)
			}
			gk, gok := tr.PathMax(u, v)
			we, wok := lc.PathMax(u, v)
			if gok != wok {
				t.Fatalf("batch %d: PathMax(%d,%d) ok=%v want %v", batch, u, v, gok, wok)
			}
			if gok && gk != wgraph.KeyOf(we) {
				t.Fatalf("batch %d: PathMax(%d,%d)=%v want %v", batch, u, v, gk, wgraph.KeyOf(we))
			}
		}
		ufc := unionfind.New(n)
		for _, le := range live {
			ufc.Union(le.e.U, le.e.V)
		}
		if want := ufc.NumComponents(); tr.NumComponents() != want {
			t.Fatalf("batch %d: components=%d want %d", batch, tr.NumComponents(), want)
		}
	}
}

func TestCutAndRelinkSameBatch(t *testing.T) {
	tr := New(4, 9)
	hs := tr.BatchUpdate([]Edge{
		{U: 0, V: 1, Key: key(1)},
		{U: 1, V: 2, Key: key(2)},
		{U: 2, V: 3, Key: key(3)},
	}, nil)
	// Replace the middle edge with a different one in a single batch.
	tr.BatchUpdate([]Edge{{U: 1, V: 2, Key: key(9)}}, []Handle{hs[1]})
	mustValidate(t, tr)
	k, ok := tr.PathMax(0, 3)
	if !ok || k != key(9) {
		t.Fatalf("pathmax=%v,%v", k, ok)
	}
}

func TestStarDegreeThree(t *testing.T) {
	// A perfect ternary star: center 0 with three leaves.
	tr := New(4, 11)
	tr.BatchUpdate([]Edge{
		{U: 0, V: 1, Key: key(1)},
		{U: 0, V: 2, Key: key(2)},
		{U: 0, V: 3, Key: key(3)},
	}, nil)
	mustValidate(t, tr)
	for _, q := range [][3]int32{{1, 2, 2}, {1, 3, 3}, {2, 3, 3}, {0, 1, 1}} {
		k, ok := tr.PathMax(q[0], q[1])
		if !ok || k != key(int(q[2])) {
			t.Fatalf("PathMax(%d,%d)=%v,%v want key(%d)", q[0], q[1], k, ok, q[2])
		}
	}
}

func TestDegreeOverflowPanics(t *testing.T) {
	tr := New(5, 1)
	tr.BatchUpdate([]Edge{
		{U: 0, V: 1, Key: key(1)},
		{U: 0, V: 2, Key: key(2)},
		{U: 0, V: 3, Key: key(3)},
	}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected degree panic")
		}
	}()
	tr.BatchUpdate([]Edge{{U: 0, V: 4, Key: key(4)}}, nil)
}

func TestSelfLoopPanics(t *testing.T) {
	tr := New(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected self-loop panic")
		}
	}()
	tr.BatchUpdate([]Edge{{U: 1, V: 1, Key: key(1)}}, nil)
}

func TestCutDeadEdgePanics(t *testing.T) {
	tr := New(2, 1)
	hs := tr.BatchUpdate([]Edge{{U: 0, V: 1, Key: key(1)}}, nil)
	tr.BatchUpdate(nil, hs)
	defer func() {
		if recover() == nil {
			t.Fatal("expected dead-edge panic")
		}
	}()
	tr.BatchUpdate(nil, hs)
}

func TestAddVertices(t *testing.T) {
	tr := New(2, 1)
	tr.BatchUpdate([]Edge{{U: 0, V: 1, Key: key(1)}}, nil)
	first := tr.AddVertices(3)
	if first != 2 {
		t.Fatalf("first=%d", first)
	}
	if tr.NumComponents() != 4 {
		t.Fatalf("components=%d", tr.NumComponents())
	}
	mustValidate(t, tr)
	tr.BatchUpdate([]Edge{{U: 1, V: first, Key: key(2)}}, nil)
	mustValidate(t, tr)
	if !tr.Connected(0, first) {
		t.Fatal("new vertex not linked")
	}
}

func TestEmptyBatchIsNoop(t *testing.T) {
	tr := New(3, 1)
	tr.BatchUpdate([]Edge{{U: 0, V: 1, Key: key(1)}}, nil)
	before := tr.NumComponents()
	tr.BatchUpdate(nil, nil)
	if tr.NumComponents() != before {
		t.Fatal("empty batch changed state")
	}
	mustValidate(t, tr)
}

func TestMarkingRootsAndClusters(t *testing.T) {
	tr := New(6, 5)
	tr.BatchUpdate([]Edge{
		{U: 0, V: 1, Key: key(1)},
		{U: 1, V: 2, Key: key(2)},
		{U: 3, V: 4, Key: key(3)},
	}, nil)
	m := tr.NewMarking([]int32{0, 2, 3})
	if !m.VertexMarked(0) || !m.VertexMarked(2) || m.VertexMarked(1) || m.VertexMarked(5) {
		t.Fatal("vertex marks wrong")
	}
	roots := m.Roots()
	if len(roots) != 2 {
		t.Fatalf("roots=%v", roots)
	}
	rootSet := map[int32]bool{}
	for _, x := range roots {
		rootSet[tr.ComponentRoot(x)] = true
	}
	if !rootSet[tr.ComponentRoot(0)] || !rootSet[tr.ComponentRoot(3)] {
		t.Fatal("marked roots do not cover marked components")
	}
	// The chain from a marked vertex to its root must be fully marked.
	x := int32(0)
	for {
		if !m.ClusterMarked(x) {
			t.Fatalf("cluster %d on chain unmarked", x)
		}
		p := tr.ParentCluster(x)
		if p == -1 {
			break
		}
		x = p
	}
	// The singleton component 5 must be unmarked.
	if m.ClusterMarked(5) {
		t.Fatal("unmarked component's cluster marked")
	}
}

func TestPathMaxAdjacentVertices(t *testing.T) {
	tr := New(3, 1)
	tr.BatchUpdate([]Edge{
		{U: 0, V: 1, Key: key(5)},
		{U: 1, V: 2, Key: key(3)},
	}, nil)
	k, ok := tr.PathMax(0, 1)
	if !ok || k != key(5) {
		t.Fatalf("got %v", k)
	}
	k, ok = tr.PathMax(1, 2)
	if !ok || k != key(3) {
		t.Fatalf("got %v", k)
	}
}

func TestLargePathSingleBatch(t *testing.T) {
	const n = 20_000
	tr := New(n, 13)
	ins := make([]Edge, n-1)
	for i := range ins {
		ins[i] = Edge{U: int32(i), V: int32(i + 1), Key: key(i + 1)}
	}
	tr.BatchUpdate(ins, nil)
	mustValidate(t, tr)
	if tr.NumComponents() != 1 {
		t.Fatalf("components=%d", tr.NumComponents())
	}
	k, ok := tr.PathMax(0, n-1)
	if !ok || k != key(n-1) {
		t.Fatalf("pathmax=%v", k)
	}
	// Contraction height should be logarithmic-ish: check the longest hist.
	maxHist := 0
	for v := range tr.verts {
		if len(tr.verts[v].hist) > maxHist {
			maxHist = len(tr.verts[v].hist)
		}
	}
	if maxHist > 200 {
		t.Fatalf("contraction used %d rounds for n=%d", maxHist, n)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
