package ternary

import (
	"testing"
	"testing/quick"

	"repro/internal/unionfind"
	"repro/internal/wgraph"
)

// TestQuickForestScripts runs arbitrary scripted batches of valid inserts
// and cuts through the adapter, validating gadget and rctree invariants
// after every batch and cross-checking connectivity.
func TestQuickForestScripts(t *testing.T) {
	f := func(script []uint8) bool {
		const n = 16
		fo := New(n, 7)
		live := map[wgraph.EdgeID]wgraph.Edge{}
		nextID := wgraph.EdgeID(1)
		i := 0
		for i+2 < len(script) {
			nIns := int(script[i] % 4)
			nCut := int(script[i]/4) % 3
			i++
			var cuts []wgraph.EdgeID
			for id := range live {
				if len(cuts) >= nCut {
					break
				}
				cuts = append(cuts, id)
			}
			for _, id := range cuts {
				delete(live, id)
			}
			uf := unionfind.New(n)
			for _, e := range live {
				uf.Union(e.U, e.V)
			}
			var ins []wgraph.Edge
			for j := 0; j < nIns && i+1 < len(script); j++ {
				u := int32(script[i]) % n
				v := int32(script[i+1]) % n
				i += 2
				if u == v || !uf.Union(u, v) {
					continue
				}
				e := wgraph.Edge{ID: nextID, U: u, V: v, W: int64(nextID)}
				nextID++
				ins = append(ins, e)
				live[e.ID] = e
			}
			fo.BatchUpdate(ins, cuts)
			if fo.Validate() != nil {
				return false
			}
			if fo.NumEdges() != len(live) {
				return false
			}
		}
		ufc := unionfind.New(n)
		for _, e := range live {
			ufc.Union(e.U, e.V)
		}
		for u := int32(0); u < n; u++ {
			for v := u + 1; v < n; v++ {
				if fo.Connected(u, v) != ufc.Connected(u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestOwnerOfMapping(t *testing.T) {
	const n = 5
	fo := New(n, 3)
	fo.BatchUpdate([]wgraph.Edge{
		{ID: 1, U: 0, V: 1, W: 10},
		{ID: 2, U: 0, V: 2, W: 20},
		{ID: 3, U: 0, V: 3, W: 30},
		{ID: 4, U: 0, V: 4, W: 40},
	}, nil)
	// Each real vertex's g0 maps back to it.
	for v := int32(0); v < n; v++ {
		if x := fo.Node(v); x < 0 || fo.OwnerOf(x) != v {
			t.Fatalf("Node(%d)=%d, owned by %d", v, x, fo.OwnerOf(x))
		}
	}
	// Every chain node maps to its gadget's real vertex. The degree-4 hub
	// anchors two edges itself and grows one chain node for the other two;
	// the degree-1 leaves anchor their edge themselves.
	counts := map[int32]int{}
	for id := range int32(fo.RC().NumVertices()) {
		if v := fo.OwnerOf(id); v >= 0 && fo.Node(v) != id {
			counts[v]++
		}
	}
	if counts[0] != 1 {
		t.Fatalf("hub chain nodes=%d want 1", counts[0])
	}
	for v := int32(1); v < n; v++ {
		if counts[v] != 0 {
			t.Fatalf("leaf %d chain nodes=%d want 0", v, counts[v])
		}
	}
}

func TestEmptyBatchNoop(t *testing.T) {
	fo := New(3, 1)
	fo.BatchUpdate([]wgraph.Edge{{ID: 1, U: 0, V: 1, W: 5}}, nil)
	before := fo.NumEdges()
	fo.BatchUpdate(nil, nil)
	if fo.NumEdges() != before {
		t.Fatal("empty batch changed edge count")
	}
	if err := fo.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPathMaxTieBreakByID(t *testing.T) {
	fo := New(3, 9)
	fo.BatchUpdate([]wgraph.Edge{
		{ID: 5, U: 0, V: 1, W: 7},
		{ID: 9, U: 1, V: 2, W: 7}, // same weight, higher id wins the max
	}, nil)
	k, ok := fo.PathMax(0, 2)
	if !ok || k.ID != 9 {
		t.Fatalf("pathmax=%v,%v", k, ok)
	}
}
