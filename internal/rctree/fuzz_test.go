package rctree

import (
	"slices"
	"testing"

	"repro/internal/unionfind"
)

// FuzzIncrementalEqualsFresh decodes bytes into at most 32 batches of cuts
// plus links on a forest of n <= 64 vertices and maximum degree 3, and
// checks the tree after every batch three ways: Validate; sameTrees against
// a fresh New plus one BatchUpdate of the same forest, as
// TestIncrementalEqualsFresh does; and every vertex's death round, decision
// and rake target against naiveContract, the independent round-by-round
// reference. The batch cap bounds the work per input, however long.
//
// Encoding: byte 0 picks n in [2, 64] and byte 1 the seed. Each batch
// starts with a header byte h: h&7 cuts of one byte each, naming a live
// edge by its index in insertion order, then h>>3 links of two bytes each,
// the endpoints mod n. Links that are loops, would close a cycle or would
// give an endpoint a fourth edge are skipped.
func FuzzIncrementalEqualsFresh(f *testing.F) {
	const maxBatches = 32
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0]%63)
		seed := uint64(data[1])
		data = data[2:]
		tr := New(n, seed)
		type liveEdge struct {
			h Handle
			e Edge
		}
		var live []liveEdge // insertion order
		deg := make([]int, n)
		nextID := 1
		for batch := 0; batch < maxBatches && len(data) > 0; batch++ {
			h := data[0]
			data = data[1:]
			var cuts []Handle
			for j := 0; j < int(h&7) && len(data) > 0 && len(live) > 0; j++ {
				i := int(data[0]) % len(live)
				data = data[1:]
				cuts = append(cuts, live[i].h)
				deg[live[i].e.U]--
				deg[live[i].e.V]--
				live = slices.Delete(live, i, i+1)
			}
			uf := unionfind.New(n)
			for _, le := range live {
				uf.Union(le.e.U, le.e.V)
			}
			var ins []Edge
			for j := 0; j < int(h>>3) && len(data) >= 2; j++ {
				u, v := int32(int(data[0])%n), int32(int(data[1])%n)
				data = data[2:]
				if u == v || deg[u] >= 3 || deg[v] >= 3 || !uf.Union(u, v) {
					continue
				}
				deg[u]++
				deg[v]++
				ins = append(ins, Edge{U: u, V: v, Key: key(nextID)})
				nextID++
			}
			for i, hd := range tr.BatchUpdate(ins, cuts) {
				live = append(live, liveEdge{h: hd, e: ins[i]})
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("batch %d (%d cuts, links %v): %v", batch, len(cuts), ins, err)
			}
			all := make([]Edge, len(live))
			nes := make([]naiveEdge, len(live))
			for i, le := range live {
				all[i] = le.e
				nes[i] = naiveEdge{u: le.e.U, v: le.e.V}
			}
			fresh := New(n, seed)
			fresh.BatchUpdate(all, nil)
			if err := sameTrees(tr, fresh); err != nil {
				t.Fatalf("batch %d: incremental != fresh: %v", batch, err)
			}
			want := naiveContract(tr, n, nes)
			for v := range n {
				vr := &tr.verts[v]
				if vr.death != want.death[v] || vr.decision != want.dec[v] || vr.target != want.target[v] {
					t.Fatalf("batch %d vertex %d: (%d,%v,%d), naive (%d,%v,%d)", batch, v,
						vr.death, vr.decision, vr.target, want.death[v], want.dec[v], want.target[v])
				}
			}
		}
	})
}
