// Package unionfind implements disjoint-set structures: a classic sequential
// union-find with path halving and union by rank, and the work-efficient
// parallel batch-incremental variant of Simsiri, Tangwongsan, Tirthapura and
// Wu (Euro-Par 2016, reference [46] of the paper). The batch variant backs
// the "Incremental" column of Table 1: a batch of ℓ edge insertions costs
// O(ℓ α(n)) expected work.
package unionfind

import (
	"repro/internal/parallel"
	"repro/internal/wgraph"
)

// UF is a sequential union-find over n elements with union by rank and path
// halving: Find costs amortized O(α(n)).
type UF struct {
	parent []int32
	rank   []uint8
	comps  int
}

// New returns a union-find with n singleton components.
func New(n int) *UF {
	u := &UF{}
	u.Reset(n)
	return u
}

// Reset reinitialises u to n singleton components, reusing its arrays when
// they are large enough.
func (u *UF) Reset(n int) {
	if cap(u.parent) < n {
		u.parent, u.rank = make([]int32, n), make([]uint8, n)
	}
	u.parent, u.rank = u.parent[:n], u.rank[:n]
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	clear(u.rank)
	u.comps = n
}

// N returns the number of elements.
func (u *UF) N() int { return len(u.parent) }

// Find returns the representative of x's component.
func (u *UF) Find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// Union merges the components of a and b, returning true if they were
// previously distinct.
func (u *UF) Union(a, b int32) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.comps--
	return true
}

// Connected reports whether a and b share a component.
func (u *UF) Connected(a, b int32) bool { return u.Find(a) == u.Find(b) }

// NumComponents returns the current number of components.
func (u *UF) NumComponents() int { return u.comps }

// Batch is the parallel batch-incremental connectivity structure of Simsiri
// et al. [46]. BatchInsert contracts the endpoints of the inserted edges with
// parallel Finds, computes a spanning forest of the contracted multigraph
// with parallel hooking (our stand-in for Gazit's algorithm [26] — see
// DESIGN.md §2), and applies the resulting unions. The spanning-forest edges
// are returned: as observed in Section 5.7 of the paper, they are exactly the
// new edges of an incrementally maintained spanning forest.
type Batch struct {
	uf *UF
}

// NewBatch returns a batch union-find over n elements.
func NewBatch(n int) *Batch { return &Batch{uf: New(n)} }

// N returns the number of elements.
func (b *Batch) N() int { return b.uf.N() }

// Find exposes the underlying representative lookup.
func (b *Batch) Find(x int32) int32 { return b.uf.Find(x) }

// Connected reports whether a and b share a component.
func (b *Batch) Connected(x, y int32) bool { return b.uf.Connected(x, y) }

// NumComponents returns the number of components.
func (b *Batch) NumComponents() int { return b.uf.NumComponents() }

// BatchInsert inserts the given edges and returns the subset that joined two
// previously-disconnected components (a spanning forest of the new
// connectivity, in input order of discovery).
func (b *Batch) BatchInsert(edges []wgraph.Edge) []wgraph.Edge {
	if len(edges) == 0 {
		return nil
	}
	// Parallel find of all endpoints. Concurrent Finds race benignly on path
	// halving only when run truly concurrently; to stay strictly
	// race-detector clean we compute roots without compressing in parallel,
	// then compress sequentially via the survivors.
	roots := make([][2]int32, len(edges))
	parallel.ForGrained(len(edges), 512, func(i int) {
		roots[i] = [2]int32{b.findNoCompress(edges[i].U), b.findNoCompress(edges[i].V)}
	})
	// Contracted multigraph: vertices are roots; run spanning forest via
	// repeated hooking on the (root,root) edge list.
	live := make([]int, 0, len(edges))
	for i := range edges {
		if roots[i][0] != roots[i][1] {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return nil
	}
	forest := spanningForestHooking(b.uf, edges, roots, live)
	return forest
}

// findNoCompress walks to the root without mutating parent pointers, so it is
// safe to call concurrently with other reads.
func (b *Batch) findNoCompress(x int32) int32 {
	p := b.uf.parent
	for p[x] != x {
		x = p[x]
	}
	return x
}

// spanningForestHooking computes a spanning forest of the contracted
// multigraph and applies its unions. It runs rounds of deterministic hooking:
// each live component root picks the first incident live edge, hooks along
// it, and contracted edges are filtered; O(lg n) rounds in the worst case.
func spanningForestHooking(u *UF, edges []wgraph.Edge, roots [][2]int32, live []int) []wgraph.Edge {
	var forest []wgraph.Edge
	for len(live) > 0 {
		// choice[r] = index of an arbitrary live edge incident to root r.
		choice := make(map[int32]int, len(live))
		for _, i := range live {
			a, b := u.Find(roots[i][0]), u.Find(roots[i][1])
			roots[i] = [2]int32{a, b}
			if a == b {
				continue
			}
			if _, ok := choice[a]; !ok {
				choice[a] = i
			}
			if _, ok := choice[b]; !ok {
				choice[b] = i
			}
		}
		progressed := false
		for _, i := range choice {
			a, b := u.Find(roots[i][0]), u.Find(roots[i][1])
			if a == b {
				continue
			}
			u.Union(a, b)
			forest = append(forest, edges[i])
			progressed = true
		}
		if !progressed {
			break
		}
		next := live[:0]
		for _, i := range live {
			if u.Find(roots[i][0]) != u.Find(roots[i][1]) {
				next = append(next, i)
			}
		}
		live = next
	}
	return forest
}
