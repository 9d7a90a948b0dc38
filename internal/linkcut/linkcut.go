// Package linkcut implements Sleator–Tarjan link-cut trees (reference [47] of
// the paper) with heaviest-edge path aggregation, plus the classic O(lg n)
// sequential incremental-MSF built on them. It serves two roles:
//
//   - the sequential baseline that Theorem 1.1's batch algorithm is
//     work-efficient against (Table 1, and the crossover benchmarks), and
//   - an independently-coded oracle for the RC tree's PathMax/Connected in
//     differential tests.
//
// Edges are represented as their own nodes ("subdivided" representation), so
// the maximum (W, ID) key on a path is the maximum over the edge nodes of the
// splay path, with vertex nodes carrying the -inf key.
package linkcut

import (
	"fmt"

	"repro/internal/wgraph"
)

const nilNode = int32(-1)

type node struct {
	p    int32    // parent (splay parent or path-parent)
	c    [2]int32 // splay children
	flip bool     // lazy reversal
	key  wgraph.Key
	mx   int32 // node id holding the maximum key in this splay subtree
}

// Forest is a link-cut forest over n vertices supporting edge links, edge
// cuts, connectivity and path-max queries, all in amortized O(lg n).
type Forest struct {
	nodes []node
	edges map[wgraph.EdgeID]int32 // edge id -> edge node
	einfo map[int32]wgraph.Edge   // edge node -> edge
	free  []int32                 // recycled edge nodes
	path  []int32                 // splay's push-down stack, reused
	n     int
}

// New returns a forest of n isolated vertices.
func New(n int) *Forest {
	f := &Forest{
		nodes: make([]node, n),
		edges: make(map[wgraph.EdgeID]int32),
		einfo: make(map[int32]wgraph.Edge),
		n:     n,
	}
	for i := range f.nodes {
		f.nodes[i] = node{p: nilNode, c: [2]int32{nilNode, nilNode}, key: wgraph.MinKey, mx: int32(i)}
	}
	return f
}

// N returns the number of vertices.
func (f *Forest) N() int { return f.n }

// NumEdges returns the number of live edges in the forest.
func (f *Forest) NumEdges() int { return len(f.edges) }

// HasEdge reports whether the edge with the given id is in the forest.
func (f *Forest) HasEdge(id wgraph.EdgeID) bool {
	_, ok := f.edges[id]
	return ok
}

func (f *Forest) alloc(e wgraph.Edge) int32 {
	var id int32
	if len(f.free) > 0 {
		id = f.free[len(f.free)-1]
		f.free = f.free[:len(f.free)-1]
		f.nodes[id] = node{}
	} else {
		id = int32(len(f.nodes))
		f.nodes = append(f.nodes, node{})
	}
	f.nodes[id] = node{p: nilNode, c: [2]int32{nilNode, nilNode}, key: wgraph.KeyOf(e), mx: id}
	f.einfo[id] = e
	f.edges[e.ID] = id
	return id
}

func (f *Forest) isRoot(x int32) bool {
	p := f.nodes[x].p
	return p == nilNode || (f.nodes[p].c[0] != x && f.nodes[p].c[1] != x)
}

func (f *Forest) push(x int32) {
	nx := &f.nodes[x]
	if !nx.flip {
		return
	}
	nx.c[0], nx.c[1] = nx.c[1], nx.c[0]
	for _, ch := range nx.c {
		if ch != nilNode {
			f.nodes[ch].flip = !f.nodes[ch].flip
		}
	}
	nx.flip = false
}

func (f *Forest) update(x int32) {
	nx := &f.nodes[x]
	best := x
	bk := nx.key
	for _, ch := range nx.c {
		if ch == nilNode {
			continue
		}
		cm := f.nodes[ch].mx
		if bk.Less(f.nodes[cm].key) {
			best = cm
			bk = f.nodes[cm].key
		}
	}
	nx.mx = best
}

func (f *Forest) rotate(x int32) {
	p := f.nodes[x].p
	g := f.nodes[p].p
	var dir int
	if f.nodes[p].c[1] == x {
		dir = 1
	}
	b := f.nodes[x].c[1-dir]
	if !f.isRoot(p) {
		if f.nodes[g].c[0] == p {
			f.nodes[g].c[0] = x
		} else {
			f.nodes[g].c[1] = x
		}
	}
	f.nodes[x].p = g
	f.nodes[x].c[1-dir] = p
	f.nodes[p].p = x
	f.nodes[p].c[dir] = b
	if b != nilNode {
		f.nodes[b].p = p
	}
	f.update(p)
	f.update(x)
}

func (f *Forest) splay(x int32) {
	// Push lazy flips from the splay root down to x first.
	stack := append(f.path[:0], x)
	for y := x; !f.isRoot(y); {
		y = f.nodes[y].p
		stack = append(stack, y)
	}
	for i := len(stack) - 1; i >= 0; i-- {
		f.push(stack[i])
	}
	f.path = stack
	for !f.isRoot(x) {
		p := f.nodes[x].p
		if !f.isRoot(p) {
			g := f.nodes[p].p
			if (f.nodes[g].c[0] == p) == (f.nodes[p].c[0] == x) {
				f.rotate(p) // zig-zig
			} else {
				f.rotate(x) // zig-zag
			}
		}
		f.rotate(x)
	}
}

// access makes the path from x to the root of its represented tree the
// preferred path and splays x to the top. Returns the last path-parent
// encountered (the root of the represented tree's splay structure).
func (f *Forest) access(x int32) int32 {
	f.splay(x)
	f.nodes[x].c[1] = nilNode // deeper part becomes its own preferred path
	f.update(x)
	last := x
	for f.nodes[x].p != nilNode {
		w := f.nodes[x].p
		last = w
		f.splay(w)
		f.nodes[w].c[1] = x
		f.update(w)
		f.splay(x)
	}
	return last
}

// makeRoot everts the represented tree at x.
func (f *Forest) makeRoot(x int32) {
	f.access(x)
	f.nodes[x].flip = !f.nodes[x].flip
	f.push(x)
}

// findRoot returns the root of x's represented tree.
func (f *Forest) findRoot(x int32) int32 {
	f.access(x)
	for {
		f.push(x)
		if f.nodes[x].c[0] == nilNode {
			break
		}
		x = f.nodes[x].c[0]
	}
	f.splay(x)
	return x
}

// Connected reports whether u and v are in the same tree.
func (f *Forest) Connected(u, v int32) bool {
	if u == v {
		return true
	}
	return f.findRoot(u) == f.findRoot(v)
}

// linkNodes attaches the tree rooted (after evert) at a under b.
func (f *Forest) linkNodes(a, b int32) {
	f.makeRoot(a)
	f.nodes[a].p = b
}

// Link inserts edge e into the forest. It panics if the endpoints are already
// connected (the forest must stay a forest) or if the edge id is live.
func (f *Forest) Link(e wgraph.Edge) {
	if e.IsLoop() {
		panic(fmt.Sprintf("linkcut: cannot link self-loop %v", e))
	}
	if _, ok := f.edges[e.ID]; ok {
		panic(fmt.Sprintf("linkcut: edge id %d already present", e.ID))
	}
	if f.Connected(e.U, e.V) {
		panic(fmt.Sprintf("linkcut: endpoints of %v already connected", e))
	}
	en := f.alloc(e)
	f.linkNodes(en, e.U)
	f.linkNodes(en, e.V)
}

// Cut removes the edge with the given id. It panics if absent.
func (f *Forest) Cut(id wgraph.EdgeID) wgraph.Edge {
	en, ok := f.edges[id]
	if !ok {
		panic(fmt.Sprintf("linkcut: cutting unknown edge %d", id))
	}
	e := f.einfo[en]
	// Detach the u side, then the v side.
	f.makeRoot(e.U)
	f.access(en)
	// After access(en), en's left splay subtree is the path from u to en.
	l := f.nodes[en].c[0]
	f.nodes[l].p = nilNode
	f.nodes[en].c[0] = nilNode
	f.update(en)
	// Now en is a leaf hanging off v.
	f.makeRoot(en)
	f.access(e.V)
	l = f.nodes[e.V].c[0]
	f.nodes[l].p = nilNode
	f.nodes[e.V].c[0] = nilNode
	f.update(e.V)
	delete(f.edges, id)
	delete(f.einfo, en)
	f.free = append(f.free, en)
	return e
}

// PathMax returns the heaviest edge (by the (W, ID) order) on the path from u
// to v and true, or a zero edge and false when u and v are disconnected or
// equal.
func (f *Forest) PathMax(u, v int32) (wgraph.Edge, bool) {
	if u == v || !f.Connected(u, v) {
		return wgraph.Edge{}, false
	}
	f.makeRoot(u)
	f.access(v)
	mx := f.nodes[v].mx
	e, ok := f.einfo[mx]
	if !ok {
		return wgraph.Edge{}, false // path exists but has no edge nodes: impossible for u!=v
	}
	return e, ok
}

// IncrementalMSF is the classic sequential incremental minimum-spanning-forest
// structure: O(lg n) per edge insertion via the red rule on the cycle closed
// by the new edge.
type IncrementalMSF struct {
	F      *Forest
	weight int64
}

// NewIncrementalMSF returns an empty incremental MSF over n vertices.
func NewIncrementalMSF(n int) *IncrementalMSF {
	return &IncrementalMSF{F: New(n)}
}

// Insert adds edge e. It returns the edge evicted from the forest (and
// evicted=true), or evicted=false when nothing was removed. added reports
// whether e itself entered the forest.
func (m *IncrementalMSF) Insert(e wgraph.Edge) (added bool, evicted wgraph.Edge, hasEvicted bool) {
	if e.IsLoop() {
		return false, wgraph.Edge{}, false
	}
	if !m.F.Connected(e.U, e.V) {
		m.F.Link(e)
		m.weight += e.W
		return true, wgraph.Edge{}, false
	}
	heavy, ok := m.F.PathMax(e.U, e.V)
	if !ok {
		panic("linkcut: connected endpoints with no path max")
	}
	if wgraph.KeyOf(e).Less(wgraph.KeyOf(heavy)) {
		m.F.Cut(heavy.ID)
		m.F.Link(e)
		m.weight += e.W - heavy.W
		return true, heavy, true
	}
	return false, wgraph.Edge{}, false
}

// Weight returns the total weight of the current forest.
func (m *IncrementalMSF) Weight() int64 { return m.weight }

// Size returns the number of forest edges.
func (m *IncrementalMSF) Size() int { return m.F.NumEdges() }

// Connected reports connectivity in the current forest (equivalently, in the
// graph inserted so far).
func (m *IncrementalMSF) Connected(u, v int32) bool { return m.F.Connected(u, v) }
