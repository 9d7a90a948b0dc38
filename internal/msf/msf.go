// Package msf implements static minimum-spanning-forest algorithms.
// Kruskal (Workspace) is the workhorse for the O(ℓ)-size graphs arising in
// Algorithm 2 and the stand-in for the Cole–Klein–Tarjan linear-work
// parallel MSF [12]; see DESIGN.md §2 for the substitution argument. Prim
// and Borůvka are independently coded oracles that this package's tests
// check Kruskal against.
//
// All algorithms break ties with the (W, ID) total order of package wgraph,
// so on any input they return the same, unique, minimum spanning forest.
package msf

import (
	"slices"

	"repro/internal/unionfind"
	"repro/internal/wgraph"
)

// Workspace is Kruskal's scratch: the sorted edge index and the
// union-find. Reusing one across calls makes a run allocation-free once
// the workspace has grown to the largest input.
type Workspace struct {
	idx []int32
	uf  unionfind.UF
}

// Run computes the MSF of edges over vertices [0, n), ignoring self-loops,
// and returns the indices into edges of its edges in increasing (W, ID)
// order. The result is the workspace's own buffer: it stays valid only
// until the next Run.
func (ws *Workspace) Run(n int, edges []wgraph.Edge) []int32 {
	idx := ws.idx[:0]
	for i, e := range edges {
		if !e.IsLoop() {
			idx = append(idx, int32(i))
		}
	}
	ws.idx = idx
	slices.SortFunc(idx, func(a, b int32) int {
		ka, kb := wgraph.KeyOf(edges[a]), wgraph.KeyOf(edges[b])
		switch {
		case ka.Less(kb):
			return -1
		case kb.Less(ka):
			return 1
		}
		return 0
	})
	ws.uf.Reset(n)
	// The forest is a subsequence of the sorted index, so it is compacted
	// into the index's own prefix.
	out := idx[:0]
	for _, i := range idx {
		if ws.uf.Union(edges[i].U, edges[i].V) {
			out = append(out, i)
			if len(out) == n-1 {
				break
			}
		}
	}
	return out
}

// Kruskal returns the MSF of the given edges over vertices [0, n).
// Self-loops are ignored. Output is in increasing (W, ID) order.
func Kruskal(n int, edges []wgraph.Edge) []wgraph.Edge {
	var ws Workspace
	idx := ws.Run(n, edges)
	out := make([]wgraph.Edge, len(idx))
	for k, i := range idx {
		out[k] = edges[i]
	}
	return out
}

// Prim computes the MSF with a binary-heap Prim from every unvisited vertex.
// It exists as an independently-coded oracle for differential tests.
func Prim(n int, edges []wgraph.Edge) []wgraph.Edge {
	adj := wgraph.NewAdjacency(n, edges)
	inTree := make([]bool, n)
	var out []wgraph.Edge
	h := &edgeHeap{}
	for s := 0; s < n; s++ {
		if inTree[s] {
			continue
		}
		inTree[s] = true
		h.reset()
		for _, half := range adj.Nbr[int32(s)] {
			e := adj.Edge[half.Idx]
			if !e.IsLoop() {
				h.push(e)
			}
		}
		for h.len() > 0 {
			e := h.pop()
			var next int32
			switch {
			case inTree[e.U] && inTree[e.V]:
				continue
			case inTree[e.U]:
				next = e.V
			default:
				next = e.U
			}
			inTree[next] = true
			out = append(out, e)
			for _, half := range adj.Nbr[next] {
				ne := adj.Edge[half.Idx]
				if !ne.IsLoop() && (!inTree[ne.U] || !inTree[ne.V]) {
					h.push(ne)
				}
			}
		}
	}
	return out
}

// edgeHeap is a minimal binary min-heap on (W, ID).
type edgeHeap struct{ xs []wgraph.Edge }

func (h *edgeHeap) reset()   { h.xs = h.xs[:0] }
func (h *edgeHeap) len() int { return len(h.xs) }

func (h *edgeHeap) push(e wgraph.Edge) {
	h.xs = append(h.xs, e)
	i := len(h.xs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !wgraph.KeyOf(h.xs[i]).Less(wgraph.KeyOf(h.xs[p])) {
			break
		}
		h.xs[i], h.xs[p] = h.xs[p], h.xs[i]
		i = p
	}
}

func (h *edgeHeap) pop() wgraph.Edge {
	top := h.xs[0]
	last := len(h.xs) - 1
	h.xs[0] = h.xs[last]
	h.xs = h.xs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && wgraph.KeyOf(h.xs[l]).Less(wgraph.KeyOf(h.xs[m])) {
			m = l
		}
		if r < last && wgraph.KeyOf(h.xs[r]).Less(wgraph.KeyOf(h.xs[m])) {
			m = r
		}
		if m == i {
			break
		}
		h.xs[i], h.xs[m] = h.xs[m], h.xs[i]
		i = m
	}
	return top
}

// Boruvka computes the MSF with sequential Borůvka rounds: each component
// selects its minimum incident edge, the selected edges are committed
// through a union-find, and fully-contracted edges are filtered before the
// next round. Every round at least halves the components that still have
// an edge, so there are at most ⌈lg n⌉ rounds of O(n + m) work for the m
// surviving edges. It exists as an independently-coded oracle for
// differential tests.
func Boruvka(n int, edges []wgraph.Edge) []wgraph.Edge {
	live := make([]wgraph.Edge, 0, len(edges))
	for _, e := range edges {
		if !e.IsLoop() {
			live = append(live, e)
		}
	}
	uf := unionfind.New(n)
	var out []wgraph.Edge
	// best[r] holds the index+1 of the current minimum edge for root r; 0
	// means none. Rebuilt per round (allocated once).
	best := make([]int32, n)
	for len(live) > 0 {
		for i := range best {
			best[i] = 0
		}
		// Relabel endpoints to roots; drop contracted edges.
		next := live[:0]
		for _, e := range live {
			ru, rv := uf.Find(e.U), uf.Find(e.V)
			if ru == rv {
				continue
			}
			e.U, e.V = ru, rv
			next = append(next, e)
		}
		live = next
		if len(live) == 0 {
			break
		}
		// Minimum incident edge per root. Sequential scan (deterministic);
		// the parallel version would use priority CRCW writes.
		for i, e := range live {
			for _, r := range [2]int32{e.U, e.V} {
				if best[r] == 0 || wgraph.KeyOf(e).Less(wgraph.KeyOf(live[best[r]-1])) {
					best[r] = int32(i + 1)
				}
			}
		}
		// Commit selected edges. Each selected edge appears for one or two
		// roots; union-find dedupes.
		committed := 0
		for r := 0; r < n; r++ {
			if best[r] == 0 {
				continue
			}
			e := live[best[r]-1]
			if uf.Union(e.U, e.V) {
				out = append(out, e)
				committed++
			}
		}
		if committed == 0 {
			break
		}
	}
	// Restore original endpoints: out currently holds root-relabelled copies;
	// recover the true endpoints from the IDs by indexing the input. Build a
	// lookup on demand.
	if len(out) > 0 {
		byID := make(map[wgraph.EdgeID]wgraph.Edge, len(edges))
		for _, e := range edges {
			byID[e.ID] = e
		}
		for i := range out {
			out[i] = byID[out[i].ID]
		}
	}
	return out
}
