// Package mincut implements the Stoer–Wagner global minimum cut algorithm.
// The paper tests k-connectivity by running a global min-cut over the
// k-certificate (Section 5.4, using [27, 28]); Stoer–Wagner is our
// deterministic stand-in at certificate scale (O(kn) edges), see
// DESIGN.md §2.
package mincut

import "repro/internal/wgraph"

// Global returns the weight of a global minimum cut of the multigraph on n
// vertices (edge weights count as capacities; parallel edges accumulate).
// Returns 0 when the graph is disconnected or has fewer than 2 vertices.
func Global(n int, edges []wgraph.Edge) int64 {
	if n < 2 {
		return 0
	}
	// Dense capacity matrix; certificates have O(kn) edges so n is small.
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
	}
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		w[e.U][e.V] += e.W
		w[e.V][e.U] += e.W
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	best := int64(1) << 62
	// n-1 minimum-cut phases; each merges the last two vertices of a
	// maximum-adjacency ordering.
	for len(active) > 1 {
		// Maximum adjacency search over the active vertices.
		m := len(active)
		inA := make([]bool, m)
		conn := make([]int64, m)
		order := make([]int, 0, m)
		for it := 0; it < m; it++ {
			sel := -1
			for i := 0; i < m; i++ {
				if !inA[i] && (sel == -1 || conn[i] > conn[sel]) {
					sel = i
				}
			}
			inA[sel] = true
			order = append(order, sel)
			for i := 0; i < m; i++ {
				if !inA[i] {
					conn[i] += w[active[sel]][active[i]]
				}
			}
		}
		t := order[m-1]
		s := order[m-2]
		cutOfPhase := int64(0)
		for i := 0; i < m; i++ {
			if i != t {
				cutOfPhase += w[active[t]][active[i]]
			}
		}
		if cutOfPhase < best {
			best = cutOfPhase
		}
		// Merge t into s.
		vt, vs := active[t], active[s]
		for i := 0; i < m; i++ {
			if i == t || i == s {
				continue
			}
			w[vs][active[i]] += w[vt][active[i]]
			w[active[i]][vs] = w[vs][active[i]]
		}
		active = append(active[:t], active[t+1:]...)
	}
	if best >= int64(1)<<62 {
		return 0
	}
	return best
}

// EdgeConnectivity returns the unweighted global edge connectivity (every
// edge treated as capacity 1).
func EdgeConnectivity(n int, edges []wgraph.Edge) int64 {
	unit := make([]wgraph.Edge, len(edges))
	for i, e := range edges {
		e.W = 1
		unit[i] = e
	}
	return Global(n, unit)
}

// EdgeConnectivityUpTo returns min(k, λ), where λ is the unweighted global
// edge connectivity of the multigraph on n vertices. Every entry of edges
// is an edge of its own, so two parallel entries are two edges.
//
// For k <= 2 it runs in O(n + m) time and space: λ is 0 when the graph is
// disconnected, 1 when it has a bridge, and at least 2 otherwise. The
// bridge search keys edges by their position in edges, never by their
// endpoints, so a parallel copy keeps its twin from being a bridge. For
// k >= 3 it runs Stoer–Wagner (EdgeConnectivity), in Θ(n²) space.
func EdgeConnectivityUpTo(n int, edges []wgraph.Edge, k int) int {
	if k >= 3 {
		return int(min(int64(k), EdgeConnectivity(n, edges)))
	}
	if n < 2 || k < 1 {
		return 0
	}
	connected, bridge := bridges(n, edges)
	switch {
	case !connected:
		return 0
	case bridge:
		return 1
	}
	return k
}

// bridges reports whether the multigraph on n >= 1 vertices is connected
// and, if so, whether it has a bridge: Tarjan's low-link search, iterative,
// from vertex 0. Self-loops are ignored.
func bridges(n int, edges []wgraph.Edge) (connected, bridge bool) {
	// Adjacency in compressed rows: the edge indices at v are
	// inc[start[v]:start[v+1]].
	start := make([]int32, n+1)
	for _, e := range edges {
		if e.U != e.V {
			start[e.U+1]++
			start[e.V+1]++
		}
	}
	for v := range n {
		start[v+1] += start[v]
	}
	inc := make([]int32, start[n])
	fill := append([]int32(nil), start[:n]...)
	for i, e := range edges {
		if e.U != e.V {
			inc[fill[e.U]] = int32(i)
			fill[e.U]++
			inc[fill[e.V]] = int32(i)
			fill[e.V]++
		}
	}
	// disc[v] is v's discovery time from 1, 0 while unvisited; low[v] the
	// least discovery time reachable from v's subtree by one back edge.
	// fill[v] is reused as the next adjacency entry v's frame scans.
	disc := make([]int32, n)
	low := make([]int32, n)
	copy(fill, start[:n])
	type frame struct{ v, via int32 } // via: the tree edge into v, -1 at the root
	stack := []frame{{0, -1}}
	disc[0], low[0] = 1, 1
	seen := int32(1)
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		if fill[f.v] < start[f.v+1] {
			i := inc[fill[f.v]]
			fill[f.v]++
			if i == f.via {
				continue
			}
			w := edges[i].U
			if w == f.v {
				w = edges[i].V
			}
			if disc[w] == 0 {
				seen++
				disc[w], low[w] = seen, seen
				stack = append(stack, frame{w, i})
			} else {
				low[f.v] = min(low[f.v], disc[w])
			}
			continue
		}
		stack = stack[:len(stack)-1]
		if len(stack) > 0 {
			p := stack[len(stack)-1].v
			low[p] = min(low[p], low[f.v])
			if low[f.v] > disc[p] {
				bridge = true
			}
		}
	}
	return int(seen) == n, bridge
}
