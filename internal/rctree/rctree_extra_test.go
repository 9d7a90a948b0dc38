package rctree

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
	"repro/internal/unionfind"
	"repro/internal/wgraph"
)

// TestCaterpillarContraction stresses the mixed rake/compress regime: a
// long spine where every spine vertex carries one leg (all degree <= 3).
func TestCaterpillarContraction(t *testing.T) {
	const spine = 500
	tr := New(2*spine, 31)
	var ins []Edge
	id := 1
	for i := 0; i < spine-1; i++ {
		ins = append(ins, Edge{U: int32(i), V: int32(i + 1), Key: key(id)})
		id++
	}
	for i := 0; i < spine; i++ {
		ins = append(ins, Edge{U: int32(i), V: int32(spine + i), Key: key(id)})
		id++
	}
	tr.BatchUpdate(ins, nil)
	mustValidate(t, tr)
	if tr.NumComponents() != 1 {
		t.Fatalf("components=%d", tr.NumComponents())
	}
	// Leg-to-leg queries cross the spine; the heaviest edge is one of the
	// two leg edges (they carry the largest ids hence largest keys).
	k, ok := tr.PathMax(spine, 2*spine-1)
	if !ok || k != key(id-1) {
		t.Fatalf("pathmax=%v want %v", k, key(id-1))
	}
}

// TestHistoryBlocksFollowRounds checks that contraction histories follow
// the rounds their vertices live. A path contracts over many rounds; once
// every edge is cut, each vertex lives one round again, so Validate finds
// its block shrunk to the smallest class. Relinking the same path needs the
// same blocks again, and they all come back from the recycled ones: the
// rounds held do not grow.
func TestHistoryBlocksFollowRounds(t *testing.T) {
	const n = 256
	tr := New(n, 5)
	ins := make([]Edge, n-1)
	for i := range ins {
		ins[i] = Edge{U: int32(i), V: int32(i + 1), Key: key(i + 1)}
	}
	cuts := slices.Clone(tr.BatchUpdate(ins, nil))
	mustValidate(t, tr)
	live, held := tr.HistoryRounds()
	if live < 2*n || held > 4*live {
		t.Fatalf("path: %d history rounds held for %d live", held, live)
	}
	tr.BatchUpdate(nil, cuts)
	mustValidate(t, tr)
	if l, h := tr.HistoryRounds(); l != n || h != held {
		t.Fatalf("all cut: %d history rounds held for %d live, want %d held for %d", h, l, held, n)
	}
	tr.BatchUpdate(ins, nil)
	mustValidate(t, tr)
	if l, h := tr.HistoryRounds(); l != live || h != held {
		t.Fatalf("relinked: %d history rounds held for %d live, want %d held for %d", h, l, held, live)
	}
}

// TestRepeatedMiddleCut repeatedly cuts and relinks the middle edge of a
// path — the worst case for "scar" growth in change propagation — and
// verifies the structure never drifts from a fresh build.
func TestRepeatedMiddleCut(t *testing.T) {
	const n = 256
	const seed = 77
	tr := New(n, seed)
	var ins []Edge
	for i := 0; i < n-1; i++ {
		ins = append(ins, Edge{U: int32(i), V: int32(i + 1), Key: key(i + 1)})
	}
	hs := tr.BatchUpdate(ins, nil)
	mid := n / 2
	handle := hs[mid]
	nextKey := n + 1
	for round := 0; round < 30; round++ {
		tr.BatchUpdate(nil, []Handle{handle})
		if tr.Connected(0, int32(n-1)) {
			t.Fatalf("round %d: still connected after middle cut", round)
		}
		nh := tr.BatchUpdate([]Edge{{U: int32(mid), V: int32(mid + 1), Key: key(nextKey)}}, nil)
		nextKey++
		handle = nh[0]
		if !tr.Connected(0, int32(n-1)) {
			t.Fatalf("round %d: not reconnected", round)
		}
		mustValidate(t, tr)
	}
	// Final differential check against a fresh contraction.
	fresh := New(n, seed)
	var all []Edge
	for i := 0; i < n-1; i++ {
		k := key(i + 1)
		if i == mid {
			k = key(nextKey - 1)
		}
		all = append(all, Edge{U: int32(i), V: int32(i + 1), Key: k})
	}
	fresh.BatchUpdate(all, nil)
	if err := sameTrees(tr, fresh); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRandomForestOps is a quick-check harness over random operation
// scripts: each script is decoded into batches of valid links and cuts, and
// the tree is validated after every batch. A link batch holds up to 8
// edges, three in four of them joining two path ends (vertices of degree
// at most 1), so one batch lengthens paths by several edges at once and
// puts adjacent degree-2 vertices up for compression in the same round.
func TestQuickRandomForestOps(t *testing.T) {
	f := func(script []uint16, seedLow uint8) bool {
		const n = 48
		tr := New(n, uint64(seedLow)+1)
		type liveEdge struct {
			h Handle
			e Edge
		}
		var live []liveEdge
		deg := make([]int, n)
		nextID := 1
		step := 0
		for step+1 < len(script) {
			op := script[step] % 4
			k := 1 + int(script[step+1])%8
			step += 2
			switch op {
			case 0, 1, 2: // link up to k edges
				uf := unionfind.New(n)
				for _, le := range live {
					uf.Union(le.e.U, le.e.V)
				}
				var batch []Edge
				for i := 0; i < k; i++ {
					x := script[(step+i)%len(script)]
					u, v := int32(x>>2)%n, int32(x>>9)%n
					if x%4 != 0 {
						var ends []int32
						for w := int32(0); w < n; w++ {
							if deg[w] <= 1 {
								ends = append(ends, w)
							}
						}
						if len(ends) < 2 {
							continue
						}
						u, v = ends[int(x>>2)%len(ends)], ends[int(x>>9)%len(ends)]
					}
					if u == v || deg[u] >= 3 || deg[v] >= 3 || !uf.Union(u, v) {
						continue
					}
					batch = append(batch, Edge{U: u, V: v, Key: key(nextID)})
					nextID++
					deg[u]++
					deg[v]++
				}
				if len(batch) == 0 {
					continue
				}
				for i, h := range tr.BatchUpdate(batch, nil) {
					live = append(live, liveEdge{h: h, e: batch[i]})
				}
			case 3: // cut up to k edges
				var cut []Handle
				for i := 0; i < k && len(live) > 0; i++ {
					j := int(script[(step+i)%len(script)]) % len(live)
					le := live[j]
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					deg[le.e.U]--
					deg[le.e.V]--
					cut = append(cut, le.h)
				}
				if len(cut) == 0 {
					continue
				}
				tr.BatchUpdate(nil, cut)
			}
			if tr.Validate() != nil {
				return false
			}
		}
		// Cross-check final connectivity against union-find.
		uf := unionfind.New(n)
		for _, le := range live {
			uf.Union(le.e.U, le.e.V)
		}
		for u := int32(0); u < n; u++ {
			for v := u + 1; v < n; v += 7 {
				if tr.Connected(u, v) != uf.Connected(u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeAccessors(t *testing.T) {
	tr := New(3, 1)
	hs := tr.BatchUpdate([]Edge{{U: 0, V: 2, Key: key(5)}}, nil)
	if got := tr.EdgeKey(hs[0]); got != key(5) {
		t.Fatalf("EdgeKey=%v", got)
	}
	u, v := tr.EdgeEndpoints(hs[0])
	if !(u == 0 && v == 2 || u == 2 && v == 0) {
		t.Fatalf("endpoints %d,%d", u, v)
	}
	if tr.NumBaseEdges() != 1 {
		t.Fatalf("base edges=%d", tr.NumBaseEdges())
	}
	tr.BatchUpdate(nil, hs)
	if tr.NumBaseEdges() != 0 {
		t.Fatalf("base edges=%d after cut", tr.NumBaseEdges())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EdgeKey on dead edge must panic")
		}
	}()
	tr.EdgeKey(hs[0])
}

func TestMarkingSuccessiveEpochs(t *testing.T) {
	tr := New(6, 3)
	tr.BatchUpdate([]Edge{
		{U: 0, V: 1, Key: key(1)},
		{U: 1, V: 2, Key: key(2)},
		{U: 3, V: 4, Key: key(3)},
	}, nil)
	m1 := tr.NewMarking([]int32{0})
	if !m1.VertexMarked(0) || m1.VertexMarked(3) {
		t.Fatal("epoch 1 marks wrong")
	}
	m2 := tr.NewMarking([]int32{3})
	if m2.VertexMarked(0) || !m2.VertexMarked(3) {
		t.Fatal("epoch 2 must invalidate epoch 1 marks")
	}
	if len(m2.Roots()) != 1 {
		t.Fatalf("roots=%v", m2.Roots())
	}
}

func TestPathMaxAllPairsSmall(t *testing.T) {
	// Exhaustive all-pairs check on a fixed 10-vertex tree against naive
	// DFS, across several seeds (different contractions, same answers).
	edges := []Edge{
		{U: 0, V: 1, Key: key(4)},
		{U: 1, V: 2, Key: key(9)},
		{U: 1, V: 3, Key: key(2)},
		{U: 3, V: 4, Key: key(7)},
		{U: 4, V: 5, Key: key(1)},
		{U: 4, V: 6, Key: key(8)},
		{U: 6, V: 7, Key: key(3)},
		{U: 0, V: 8, Key: key(6)},
		// vertex 9 isolated
	}
	adj := map[int32][]Edge{}
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e)
		adj[e.V] = append(adj[e.V], Edge{U: e.V, V: e.U, Key: e.Key})
	}
	var naive func(at, target int32, best wgraph.Key, seen map[int32]bool) (wgraph.Key, bool)
	naive = func(at, target int32, best wgraph.Key, seen map[int32]bool) (wgraph.Key, bool) {
		if at == target {
			return best, true
		}
		seen[at] = true
		for _, e := range adj[at] {
			if seen[e.V] {
				continue
			}
			b := best
			if b.Less(e.Key) {
				b = e.Key
			}
			if r, ok := naive(e.V, target, b, seen); ok {
				return r, true
			}
		}
		return wgraph.Key{}, false
	}
	for _, seed := range []uint64{1, 2, 3, 5, 8, 13} {
		tr := New(10, seed)
		tr.BatchUpdate(edges, nil)
		for u := int32(0); u < 10; u++ {
			for v := int32(0); v < 10; v++ {
				if u == v {
					continue
				}
				want, wantOK := naive(u, v, wgraph.MinKey, map[int32]bool{})
				got, gotOK := tr.PathMax(u, v)
				if gotOK != wantOK || (gotOK && got != want) {
					t.Fatalf("seed %d: PathMax(%d,%d)=(%v,%v) want (%v,%v)", seed, u, v, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

func TestGrowAfterHeavyChurn(t *testing.T) {
	tr := New(4, 9)
	r := parallel.NewRNG(4)
	var hs []Handle
	id := 1
	for round := 0; round < 20; round++ {
		// Random churn on a tiny vertex set.
		if len(hs) > 0 && r.Intn(2) == 0 {
			i := r.Intn(len(hs))
			tr.BatchUpdate(nil, []Handle{hs[i]})
			hs = append(hs[:i], hs[i+1:]...)
		}
		if tr.NumComponents() > 1 {
			// Find two components to join using roots.
			var a, b int32 = -1, -1
			for v := int32(0); v < int32(tr.NumVertices()); v++ {
				if a == -1 {
					a = v
				} else if tr.ComponentRoot(v) != tr.ComponentRoot(a) {
					b = v
					break
				}
			}
			if b != -1 && tr.Degree(a) < 3 && tr.Degree(b) < 3 {
				nh := tr.BatchUpdate([]Edge{{U: a, V: b, Key: key(1000 + id)}}, nil)
				id++
				hs = append(hs, nh...)
			}
		}
		if round == 10 {
			tr.AddVertices(3)
		}
		mustValidate(t, tr)
	}
}
