// Package oracle answers the sliding-window queries by brute force over an
// explicit edge list, with no code shared with the engine under test:
// union-find for components and connectivity, BFS 2-colouring for
// bipartiteness, the forest-size identity for cycles, and Kruskal for the
// minimum spanning forest weight. The benchmark hands it the exact final
// window (the last W acknowledged edges) and compares the server's answers.
package oracle

import (
	"math"
	"sort"
)

// Edge is one undirected weighted edge over vertices [0, n).
type Edge struct {
	U, V int32
	W    int64
}

type unionFind []int32

func newUnionFind(n int) unionFind {
	uf := make(unionFind, n)
	for i := range uf {
		uf[i] = int32(i)
	}
	return uf
}

func (uf unionFind) find(x int32) int32 {
	for uf[x] != x {
		uf[x] = uf[uf[x]]
		x = uf[x]
	}
	return x
}

// union merges the sets of a and b and reports whether they were apart.
func (uf unionFind) union(a, b int32) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	uf[ra] = rb
	return true
}

// Labels returns a component label per vertex: two vertices are connected
// in the graph iff their labels are equal.
func Labels(n int, edges []Edge) []int32 {
	uf := newUnionFind(n)
	for _, e := range edges {
		uf.union(e.U, e.V)
	}
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = uf.find(int32(v))
	}
	return labels
}

// Components returns the number of connected components, isolated
// vertices included.
func Components(n int, edges []Edge) int {
	uf := newUnionFind(n)
	cc := n
	for _, e := range edges {
		if uf.union(e.U, e.V) {
			cc--
		}
	}
	return cc
}

// Bipartite reports whether the graph admits a proper 2-colouring, by BFS
// from every uncoloured vertex. A self-loop makes a graph non-bipartite.
func Bipartite(n int, edges []Edge) bool {
	adj := make([][]int32, n)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	colour := make([]int8, n) // 0 = unvisited, ±1 = side
	var queue []int32
	for s := range adj {
		if colour[s] != 0 {
			continue
		}
		colour[s] = 1
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				switch colour[v] {
				case 0:
					colour[v] = -colour[u]
					queue = append(queue, v)
				case colour[u]:
					return false
				}
			}
		}
	}
	return true
}

// HasCycle reports whether the multigraph contains a cycle: a spanning
// forest has exactly n − cc edges, so any edge beyond that closes one.
// Parallel edges count (two copies of one edge form a cycle).
func HasCycle(n int, edges []Edge) bool {
	return len(edges) > n-Components(n, edges)
}

// MSFWeight returns the exact minimum spanning forest weight (Kruskal).
func MSFWeight(n int, edges []Edge) int64 {
	sorted := append([]Edge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].W < sorted[j].W })
	uf := newUnionFind(n)
	var total int64
	for _, e := range sorted {
		if uf.union(e.U, e.V) {
			total += e.W
		}
	}
	return total
}

// WithinApprox reports whether got is a valid (1+eps)-approximation of
// the exact weight: exact ≤ got ≤ (1+eps)·exact, with a relative slack
// of 1e-9 for the floating-point sum the approximation is built from.
func WithinApprox(exact int64, got, eps float64) bool {
	w := float64(exact)
	slack := 1e-9 * math.Max(w, 1)
	return got >= w-slack && got <= (1+eps)*w+slack
}
