package ternary

import (
	"fmt"
	"testing"

	"repro/internal/linkcut"
	"repro/internal/parallel"
	"repro/internal/unionfind"
	"repro/internal/wgraph"
)

func mustValidate(t *testing.T, f *Forest) {
	t.Helper()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyForest(t *testing.T) {
	f := New(4, 1)
	mustValidate(t, f)
	if f.NumEdges() != 0 || f.Degree(0) != 0 {
		t.Fatal("fresh forest not empty")
	}
	if f.Connected(0, 1) {
		t.Fatal("spurious connectivity")
	}
	if _, ok := f.PathMax(0, 1); ok {
		t.Fatal("spurious path")
	}
}

func TestSingleEdgeLifecycle(t *testing.T) {
	f := New(3, 1)
	e := wgraph.Edge{ID: 10, U: 0, V: 1, W: 5}
	f.BatchUpdate([]wgraph.Edge{e}, nil)
	mustValidate(t, f)
	if !f.Connected(0, 1) || f.Connected(0, 2) {
		t.Fatal("connectivity wrong")
	}
	k, ok := f.PathMax(0, 1)
	if !ok || k != wgraph.KeyOf(e) {
		t.Fatalf("pathmax=%v,%v", k, ok)
	}
	if !f.HasEdge(10) {
		t.Fatal("edge missing")
	}
	got, ok := f.EdgeByID(10)
	if !ok || got != e {
		t.Fatalf("EdgeByID=%v", got)
	}
	f.BatchUpdate(nil, []wgraph.EdgeID{10})
	mustValidate(t, f)
	if f.Connected(0, 1) || f.HasEdge(10) {
		t.Fatal("cut failed")
	}
}

func TestHighDegreeStar(t *testing.T) {
	// The whole point of the adapter: a star of degree 50.
	const n = 51
	f := New(n, 3)
	var ins []wgraph.Edge
	for i := 1; i < n; i++ {
		ins = append(ins, wgraph.Edge{ID: wgraph.EdgeID(i), U: 0, V: int32(i), W: int64(i * 7)})
	}
	f.BatchUpdate(ins, nil)
	mustValidate(t, f)
	if f.Degree(0) != n-1 {
		t.Fatalf("degree=%d", f.Degree(0))
	}
	for i := 1; i < n; i++ {
		if !f.Connected(0, int32(i)) {
			t.Fatalf("leaf %d disconnected", i)
		}
	}
	k, ok := f.PathMax(3, 50)
	if !ok || k.W != 50*7 {
		t.Fatalf("pathmax(3,50)=%v,%v", k, ok)
	}
	// Remove a middle chain entry and re-check.
	f.BatchUpdate(nil, []wgraph.EdgeID{25})
	mustValidate(t, f)
	if f.Connected(0, 25) {
		t.Fatal("cut leaf still attached")
	}
	if f.Degree(0) != n-2 {
		t.Fatalf("degree=%d", f.Degree(0))
	}
	k, ok = f.PathMax(3, 50)
	if !ok || k.W != 50*7 {
		t.Fatalf("pathmax(3,50) after cut=%v,%v", k, ok)
	}
}

func TestCutAndReinsertSameBatch(t *testing.T) {
	f := New(3, 5)
	f.BatchUpdate([]wgraph.Edge{
		{ID: 1, U: 0, V: 1, W: 10},
		{ID: 2, U: 1, V: 2, W: 20},
	}, nil)
	// Replace edge 1 with a heavier parallel edge in one batch.
	f.BatchUpdate([]wgraph.Edge{{ID: 3, U: 0, V: 1, W: 30}}, []wgraph.EdgeID{1})
	mustValidate(t, f)
	k, ok := f.PathMax(0, 2)
	if !ok || k.W != 30 {
		t.Fatalf("pathmax=%v,%v", k, ok)
	}
}

func TestCutTwoAdjacentEdgesOneBatch(t *testing.T) {
	// Exercises the pending-link cancellation path: removing two edges
	// anchored on neighbouring chain nodes of one gadget in a single batch.
	const n = 6
	f := New(n, 7)
	var ins []wgraph.Edge
	for i := 1; i < n; i++ {
		ins = append(ins, wgraph.Edge{ID: wgraph.EdgeID(i), U: 0, V: int32(i), W: int64(i)})
	}
	f.BatchUpdate(ins, nil)
	f.BatchUpdate(nil, []wgraph.EdgeID{2, 3})
	mustValidate(t, f)
	if f.Connected(0, 2) || f.Connected(0, 3) {
		t.Fatal("cut edges still connected")
	}
	for _, i := range []int32{1, 4, 5} {
		if !f.Connected(0, i) {
			t.Fatalf("leaf %d lost", i)
		}
	}
}

func TestSelfLoopPanics(t *testing.T) {
	f := New(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.BatchUpdate([]wgraph.Edge{{ID: 1, U: 1, V: 1, W: 5}}, nil)
}

func TestDuplicateIDPanics(t *testing.T) {
	f := New(3, 1)
	f.BatchUpdate([]wgraph.Edge{{ID: 1, U: 0, V: 1, W: 5}}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.BatchUpdate([]wgraph.Edge{{ID: 1, U: 1, V: 2, W: 6}}, nil)
}

func TestCutUnknownPanics(t *testing.T) {
	f := New(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.BatchUpdate(nil, []wgraph.EdgeID{99})
}

// TestRandomBatchesVsLinkCut runs mixed random batches over an
// arbitrary-degree forest, checking connectivity, path maxima and component
// counts against link-cut trees and union-find.
func TestRandomBatchesVsLinkCut(t *testing.T) {
	const n = 80
	r := parallel.NewRNG(11)
	f := New(n, 23)
	lc := linkcut.New(n)
	live := map[wgraph.EdgeID]wgraph.Edge{}
	nextID := wgraph.EdgeID(1)
	for batch := 0; batch < 50; batch++ {
		// Cuts.
		var cuts []wgraph.EdgeID
		ncut := r.Intn(5)
		for id, e := range live {
			if len(cuts) >= ncut {
				break
			}
			cuts = append(cuts, id)
			lc.Cut(id)
			delete(live, id)
			_ = e
		}
		// Inserts keeping a forest (any degree).
		uf := unionfind.New(n)
		for _, e := range live {
			uf.Union(e.U, e.V)
		}
		var ins []wgraph.Edge
		for c := 0; c < r.Intn(10); c++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u == v || !uf.Union(u, v) {
				continue
			}
			e := wgraph.Edge{ID: nextID, U: u, V: v, W: r.Int63() % 1_000_000}
			nextID++
			ins = append(ins, e)
			live[e.ID] = e
			lc.Link(e)
		}
		f.BatchUpdate(ins, cuts)
		mustValidate(t, f)
		for q := 0; q < 40; q++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if got, want := f.Connected(u, v), lc.Connected(u, v); got != want {
				t.Fatalf("batch %d: Connected(%d,%d)=%v want %v", batch, u, v, got, want)
			}
			gk, gok := f.PathMax(u, v)
			we, wok := lc.PathMax(u, v)
			if gok != wok || (gok && gk != wgraph.KeyOf(we)) {
				t.Fatalf("batch %d: PathMax(%d,%d)=(%v,%v) want (%v,%v)", batch, u, v, gk, gok, wgraph.KeyOf(we), wok)
			}
		}
		ufc := unionfind.New(n)
		for _, e := range live {
			ufc.Union(e.U, e.V)
		}
		if got, want := f.NumComponents(), ufc.NumComponents(); got != want {
			t.Fatalf("batch %d: components=%d want %d", batch, got, want)
		}
	}
}

func TestChainNodeRecycling(t *testing.T) {
	f := New(2, 1)
	for i := 0; i < 50; i++ {
		id := wgraph.EdgeID(i)
		f.BatchUpdate([]wgraph.Edge{{ID: id, U: 0, V: 1, W: int64(i + 1)}}, nil)
		f.BatchUpdate(nil, []wgraph.EdgeID{id})
	}
	mustValidate(t, f)
	if got := f.RC().NumVertices(); got > 2+4 {
		t.Fatalf("chain nodes not recycled: %d rctree vertices", got)
	}
}

func TestWeightBelowVirtualPanics(t *testing.T) {
	f := New(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.BatchUpdate([]wgraph.Edge{{ID: 1, U: 0, V: 1, W: VirtualWeight}}, nil)
}

// TestDegreeTransitions grows one vertex from degree 0 to 8 and drains it
// back to 0, once one edge per batch and once all in one batch, validating
// the layout after every step: no chain up to degree 3, d-3 chain nodes
// after growth, at most d-2 while draining, and every node back in the pool
// once the hub is isolated again.
func TestDegreeTransitions(t *testing.T) {
	const n, d = 9, 8
	star := make([]wgraph.Edge, d)
	ids := make([]wgraph.EdgeID, d)
	for i := range star {
		star[i] = wgraph.Edge{ID: wgraph.EdgeID(i + 1), U: 0, V: int32(i + 1), W: int64(10 * (i + 1))}
		ids[i] = star[i].ID
	}
	for _, step := range []int{1, d} {
		f := New(n, 5)
		chain := func() int { return f.Vertices() - f.touched }
		for i := 0; i < d; i += step {
			f.BatchUpdate(star[i:i+step], nil)
			mustValidate(t, f)
			if got, want := chain(), max(0, f.Degree(0)-3); got != want {
				t.Fatalf("step %d: degree %d holds %d chain nodes, want %d", step, f.Degree(0), got, want)
			}
		}
		// Drain oldest first, as a sliding window expires.
		for i := 0; i < d; i += step {
			f.BatchUpdate(nil, ids[i:i+step])
			mustValidate(t, f)
			if got, deg := chain(), f.Degree(0); got > max(0, deg-2) {
				t.Fatalf("step %d: degree %d holds %d chain nodes, want at most %d", step, deg, got, max(0, deg-2))
			}
			for j, e := range star {
				if got, want := f.Connected(0, e.V), j >= i+step; got != want {
					t.Fatalf("step %d: Connected(0,%d)=%v after cutting %d edges", step, e.V, got, i+step)
				}
			}
		}
		if got := f.Vertices(); got != 0 {
			t.Fatalf("step %d: %d rctree vertices in use after draining, want 0", step, got)
		}
	}
}

// TestNodePoolReuse takes real vertices through attach, isolation and the
// reuse of their nodes by other real vertices. Stars of degree 8, whose
// hubs grow chains past degree 3, are built on disjoint vertex sets, cut
// down to nothing and rebuilt elsewhere: edge by edge or whole, and in
// separate batches or one. After every batch it validates the layout,
// checks that a vertex holds a node exactly when it has an edge and that
// the rctree vertices in use are the touched vertices plus the chain
// nodes, and that a batch that only cuts or only inserts grows the rctree
// only past the nodes in use: the nodes one star frees serve the next.
func TestNodePoolReuse(t *testing.T) {
	const slots, d = 4, 8
	const n = slots * (d + 1)
	f := New(n, 3)
	next := wgraph.EdgeID(1)
	check := func(tag string) {
		t.Helper()
		mustValidate(t, f)
		touched, chain := 0, 0
		for v := range int32(n) {
			if (f.Degree(v) > 0) != (f.Node(v) >= 0) {
				t.Fatalf("%s: vertex %d has degree %d and node %d", tag, v, f.Degree(v), f.Node(v))
			}
			if f.Degree(v) > 0 {
				touched++
			}
		}
		for x := range int32(f.RC().NumVertices()) {
			if v := f.OwnerOf(x); v >= 0 && f.Node(v) != x {
				chain++
			}
		}
		if got := f.Vertices(); got != touched+chain {
			t.Fatalf("%s: %d rctree vertices in use, want %d touched + %d chain nodes", tag, got, touched, chain)
		}
	}
	star := func(slot int) []wgraph.Edge {
		hub := int32(slot * (d + 1))
		es := make([]wgraph.Edge, d)
		for i := range es {
			es[i] = wgraph.Edge{ID: next, U: hub, V: hub + 1 + int32(i), W: int64(next)}
			next++
		}
		return es
	}
	ids := func(es []wgraph.Edge) (out []wgraph.EdgeID) {
		for _, e := range es {
			out = append(out, e.ID)
		}
		return out
	}
	owners := func() []int32 {
		out := make([]int32, f.RC().NumVertices())
		for x := range out {
			out[x] = f.OwnerOf(int32(x))
		}
		return out
	}
	// update applies one batch; a batch that only cuts or only inserts
	// may grow the rctree only while the pool is empty.
	update := func(tag string, ins []wgraph.Edge, cuts []wgraph.EdgeID) {
		t.Helper()
		before, pool := f.RC().NumVertices(), len(f.free)
		f.BatchUpdate(ins, cuts)
		if len(ins) == 0 || len(cuts) == 0 {
			if grown := f.RC().NumVertices() - before; grown > 0 && grown+pool > f.Vertices() {
				t.Fatalf("%s: rctree grew by %d with %d nodes in the pool", tag, grown, pool)
			}
		}
		check(tag)
	}

	live := star(0)
	update("first star", live, nil)
	if got, want := f.Vertices(), (d+1)+(d-3); got != want {
		t.Fatalf("a star of degree %d holds %d rctree vertices, want %d", d, got, want)
	}
	for round := 1; round <= 9; round++ {
		was := owners()
		nv := f.RC().NumVertices()
		built := star(round % slots)
		tag := fmt.Sprintf("round %d", round)
		switch round % 3 {
		case 0: // cut edge by edge, oldest first, then build whole
			for i, id := range ids(live) {
				update(fmt.Sprintf("%s, cut %d", tag, i), nil, []wgraph.EdgeID{id})
			}
			update(tag+", build", built, nil)
		case 1: // cut whole, then build edge by edge
			update(tag+", cut", nil, ids(live))
			for i := range built {
				update(fmt.Sprintf("%s, build %d", tag, i), built[i:i+1], nil)
			}
		case 2: // cut and build in one batch
			update(tag, built, ids(live))
		}
		live = built
		if round%3 != 2 && f.RC().NumVertices() != nv {
			t.Fatalf("%s: rctree went from %d to %d vertices for stars of one size", tag, nv, f.RC().NumVertices())
		}
		reused := 0
		for x, v := range owners()[:len(was)] {
			if was[x] >= 0 && v >= 0 && was[x] != v {
				reused++
			}
		}
		if reused == 0 {
			t.Fatalf("%s: no node of the old star serves the new one", tag)
		}
	}
	update("drain", nil, ids(live))
	if f.Vertices() != 0 || len(f.free) != f.RC().NumVertices() {
		t.Fatalf("drained forest: %d rctree vertices in use, %d in the pool of %d", f.Vertices(), len(f.free), f.RC().NumVertices())
	}
}
