// Package ternary adapts an arbitrary-degree forest to the degree-<=3 forest
// required by the rake-compress tree (the "bounded-degree equivalent" of
// Section 2.2 of the paper, maintained dynamically as in reference [2]).
//
// Every real vertex v with a forest edge owns a gadget, a path g0 — g1 —
// ... — gk of rctree vertices joined by chain links of weight
// math.MinInt64+1 (above the rctree's MinKey identity, below every real
// key, so they never win a path-max query). A gadget node anchors edges of
// v up to its capacity, 3 minus its chain links; the real edge (u, v) is
// one rctree edge between its anchors in u's and v's gadgets, carrying the
// real key.
//
// Layout: g0 anchors v's first three edges itself (k = 0). The fourth grows
// the chain; from then on g0 anchors 2 edges, every interior node 1 and the
// tail gk 1 or 2, so only the tail may have spare capacity. An insert at v
// anchors the edge on the tail if it has room; otherwise it appends a node
// (recycling a retired one first), moves one tail edge onto it and anchors
// the new edge there. A removal from a non-tail node refills the hole with
// one tail edge, and a tail other than g0 left empty is retired. A degree-d
// vertex thus holds d-3 chain nodes after growth and at most d-2 after
// removals.
//
// Real vertex v is not rctree vertex v. An isolated vertex holds no node:
// v takes its g0 on its first attach (or Reserve) and gives it back when a
// batch leaves it with degree 0. Retired chain nodes and g0s share one pool
// of rctree vertices, isolated in the rctree, and the rctree grows only
// when the pool is empty. So the rctree holds at most the peak number of
// touched vertices plus 2m, however large n is, and a real vertex costs 4
// bytes (its entry in the g0 map) until it gets an edge.
//
// Moving an edge cuts its rctree edge and re-links it at its new anchor. A
// batch's rctree changes go through one pending list into one rctree batch:
// endpoints are read at emission, and an edge moved then removed, or a
// chain link created then retired, is cancelled. A real operation costs
// O(1) rctree changes, preserving the O(l·lg(1+n/l)) batch bound.
package ternary

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/rctree"
	"repro/internal/wgraph"
)

const (
	// VirtualWeight is the weight of chain links. Real edge weights must
	// be strictly greater than math.MinInt64+1.
	VirtualWeight = math.MinInt64 + 1

	nilNode  = int32(-1)
	noHandle = rctree.Handle(-1)
	maxDeg   = 3 // rctree degree bound
)

// node is a gadget node, indexed by its rctree vertex id. A gadget's g0
// also holds the gadget's tail and its real vertex's degree.
type node struct {
	owner   int32         // real vertex whose gadget holds the node; nilNode in the pool
	prev    int32         // neighbour towards g0; nilNode for g0 and the pool
	link    rctree.Handle // chain link to prev; noHandle until emitted
	queued  bool          // link waits in the batch's pending list
	nAnch   int8          // anchors in use
	anchors [maxDeg]*edgeInfo
	tail    int32 // g0 only: last gadget node, g0 itself while k = 0
	deg     int   // g0 only: real degree
}

type edgeInfo struct {
	e      wgraph.Edge
	at     [2]int32      // gadget nodes anchoring e at e.U and e.V
	handle rctree.Handle // rctree edge between the anchors; noHandle until emitted
	queued bool          // waits in the batch's pending list
}

// side returns the index into at of ei's end at real vertex v.
func (ei *edgeInfo) side(v int32) int {
	if ei.e.U == v {
		return 0
	}
	return 1
}

// Forest maintains an arbitrary-degree dynamic forest on top of an rctree.
type Forest struct {
	t       *rctree.Tree
	n       int
	g0      []int32 // by real vertex: its gadget's head node, nilNode while isolated
	touched int     // real vertices holding a g0
	nodes   []node  // by rctree vertex id
	free    []int32 // the pool: nodes in no gadget, isolated in the rctree
	edges   map[wgraph.EdgeID]*edgeInfo
	nextVID int64

	// Real vertices reserved or left with degree 0 by the current batch;
	// those still at degree 0 when it ends give their g0 back.
	idle []int32

	// Per-batch pending list and rctree scratch.
	pendNodes []int32
	pendEdges []*edgeInfo
	rcIns     []rctree.Edge
	rcCuts    []rctree.Handle

	// Edge records cut by the current batch, and the records free for
	// reuse. A cut record joins the free list only after emission, so a
	// cancelled pending entry is never reused within its batch.
	cutInfos  []*edgeInfo
	freeInfos []*edgeInfo
}

// New creates a forest over n isolated real vertices, 0..n-1. The rctree
// starts empty.
func New(n int, seed uint64) *Forest {
	f := &Forest{t: rctree.New(0, seed), n: n, g0: make([]int32, n), edges: make(map[wgraph.EdgeID]*edgeInfo), nextVID: -2}
	for v := range f.g0 {
		f.g0[v] = nilNode
	}
	return f
}

// RC exposes the underlying rake-compress tree for compressed-path-tree
// construction and queries over the virtual topology.
func (f *Forest) RC() *rctree.Tree { return f.t }

// Vertices returns the number of rctree vertices in use: the g0 of every
// touched real vertex plus every gadget's chain nodes (the pool excluded).
func (f *Forest) Vertices() int { return len(f.nodes) - len(f.free) }

// Node returns the rctree vertex heading v's gadget, or -1 when v has no
// forest edge.
func (f *Forest) Node(v int32) int32 { return f.g0[v] }

// Reserve returns the rctree vertex heading v's gadget, taking one from the
// pool when v has none. A reserved vertex that holds no edge when the next
// BatchUpdate ends gives the node back, so a caller may reserve a batch's
// endpoints before it knows which of them the batch will link.
func (f *Forest) Reserve(v int32) int32 {
	if x := f.g0[v]; x != nilNode {
		return x
	}
	x := f.newNode()
	f.nodes[x] = node{owner: v, prev: nilNode, link: noHandle, tail: x}
	f.g0[v] = x
	f.touched++
	f.idle = append(f.idle, v)
	return x
}

// newNode takes a node from the pool, growing the rctree when it is empty.
func (f *Forest) newNode() int32 {
	if k := len(f.free); k > 0 {
		x := f.free[k-1]
		f.free = f.free[:k-1]
		return x
	}
	f.nodes = append(f.nodes, node{}) // moves f.nodes: hold no pointers across
	return f.t.AddVertices(1)
}

// release returns node x, isolated in the rctree by the end of the batch,
// to the pool.
func (f *Forest) release(x int32) {
	f.nodes[x] = node{owner: nilNode, prev: nilNode, link: noHandle}
	f.free = append(f.free, x)
}

// NumEdges returns the number of live real edges.
func (f *Forest) NumEdges() int { return len(f.edges) }

// HasEdge reports whether the real edge id is present.
func (f *Forest) HasEdge(id wgraph.EdgeID) bool { return f.edges[id] != nil }

// EdgeByID returns the stored edge for a live id.
func (f *Forest) EdgeByID(id wgraph.EdgeID) (wgraph.Edge, bool) {
	if ei, ok := f.edges[id]; ok {
		return ei.e, true
	}
	return wgraph.Edge{}, false
}

// RangeEdges calls fn for every live real edge until fn returns false.
// Iteration order is unspecified.
func (f *Forest) RangeEdges(fn func(wgraph.Edge) bool) {
	for _, ei := range f.edges {
		if !fn(ei.e) {
			return
		}
	}
}

// OwnerOf maps any rctree vertex of a gadget back to the real vertex owning
// the gadget.
func (f *Forest) OwnerOf(rcID int32) int32 { return f.nodes[rcID].owner }

// Degree returns the real degree of vertex v.
func (f *Forest) Degree(v int32) int {
	if x := f.g0[v]; x != nilNode {
		return f.nodes[x].deg
	}
	return 0
}

// Connected reports whether real vertices u and v are connected.
func (f *Forest) Connected(u, v int32) bool {
	if u == v {
		return true
	}
	x, y := f.g0[u], f.g0[v]
	return x != nilNode && y != nilNode && f.t.Connected(x, y)
}

// NumComponents returns the number of components among the real vertices:
// the rctree's, less the pool's isolated nodes, plus one per untouched
// vertex. Chain nodes hang off their owner.
func (f *Forest) NumComponents() int {
	return f.t.NumComponents() - len(f.free) + f.n - f.touched
}

// PathMax returns the heaviest real edge key on the real path between u and
// v, or false when disconnected or equal. Virtual links can never be the
// maximum because a nonempty real path contains at least one real edge.
func (f *Forest) PathMax(u, v int32) (wgraph.Key, bool) {
	x, y := f.g0[u], f.g0[v]
	if x == nilNode || y == nilNode {
		return wgraph.Key{}, false
	}
	k, ok := f.t.PathMax(x, y) // false when u == v
	if !ok {
		return wgraph.Key{}, false
	}
	if k.W == VirtualWeight {
		panic("ternary: path between distinct real vertices was purely virtual")
	}
	return k, true
}

// chainLinks returns the number of chain links at gadget node x.
func (f *Forest) chainLinks(x int32) (l int8) {
	if f.nodes[x].prev != nilNode {
		l++
	}
	if f.nodes[f.g0[f.nodes[x].owner]].tail != x {
		l++
	}
	return l
}

// cut queues the rctree edge *h for cutting, if it is materialised.
func (f *Forest) cut(h *rctree.Handle) {
	if *h != noHandle {
		f.rcCuts = append(f.rcCuts, *h)
		*h = noHandle
	}
}

// queueEdge schedules ei's rctree edge to be (re-)linked at emission,
// cutting the materialised one.
func (f *Forest) queueEdge(ei *edgeInfo) {
	f.cut(&ei.handle)
	if !ei.queued {
		ei.queued = true
		f.pendEdges = append(f.pendEdges, ei)
	}
}

// anchor anchors ei's end at v on gadget node x.
func (f *Forest) anchor(ei *edgeInfo, v, x int32) {
	nd := &f.nodes[x]
	nd.anchors[nd.nAnch] = ei
	nd.nAnch++
	ei.at[ei.side(v)] = x
}

func (f *Forest) unanchor(ei *edgeInfo, x int32) {
	nd := &f.nodes[x]
	i := slices.Index(nd.anchors[:nd.nAnch], ei)
	nd.nAnch--
	nd.anchors[i], nd.anchors[nd.nAnch] = nd.anchors[nd.nAnch], nil
}

// move re-anchors the end at v of an edge anchored at gadget node from onto
// gadget node to. An edge already waiting in the pending list moves for
// free, so it is preferred.
func (f *Forest) move(v, from, to int32) {
	nd := &f.nodes[from]
	ei := nd.anchors[nd.nAnch-1]
	for _, a := range nd.anchors[:nd.nAnch] {
		if a.queued {
			ei = a
		}
	}
	f.unanchor(ei, from)
	f.anchor(ei, v, to)
	f.queueEdge(ei)
}

// attach anchors ei's end at v in v's gadget, reserving v's g0 first.
func (f *Forest) attach(ei *edgeInfo, v int32) {
	h := f.Reserve(v)
	f.nodes[h].deg++
	t := f.nodes[h].tail
	if f.nodes[t].nAnch+f.chainLinks(t) < maxDeg {
		f.anchor(ei, v, t)
		return
	}
	x := f.newNode()
	f.nodes[x] = node{owner: v, prev: t, link: noHandle, queued: true}
	f.nodes[h].tail = x
	f.pendNodes = append(f.pendNodes, x)
	f.move(v, t, x)
	f.anchor(ei, v, x)
}

// detach removes ei's end at v from v's gadget. A retired chain node goes
// back to the pool at once, since the batch's cuts isolate it; g0 waits for
// the batch's end, where v keeps it unless its degree is still 0.
func (f *Forest) detach(ei *edgeInfo, v int32) {
	h := f.g0[v]
	g := &f.nodes[h]
	g.deg--
	x := ei.at[ei.side(v)]
	f.unanchor(ei, x)
	if x != g.tail {
		f.move(v, g.tail, x)
	}
	if t := g.tail; t != h && f.nodes[t].nAnch == 0 {
		f.cut(&f.nodes[t].link)
		g.tail = f.nodes[t].prev
		f.release(t)
	}
	if g.deg == 0 {
		f.idle = append(f.idle, v)
	}
}

// BatchUpdate removes the edges named in cuts, then inserts ins, all in one
// rctree batch. Cuts must name live edges; the surviving edge set must
// remain a forest (no acyclicity check is performed here — the MSF layer
// guarantees it); self-loops and duplicate ids panic.
func (f *Forest) BatchUpdate(ins []wgraph.Edge, cuts []wgraph.EdgeID) {
	f.rcCuts = f.rcCuts[:0]
	for _, id := range cuts {
		ei, ok := f.edges[id]
		if !ok {
			panic(fmt.Sprintf("ternary: cutting unknown edge %d", id))
		}
		delete(f.edges, id)
		f.cut(&ei.handle)
		ei.queued = false
		f.detach(ei, ei.e.U)
		f.detach(ei, ei.e.V)
		f.cutInfos = append(f.cutInfos, ei)
	}
	for _, e := range ins {
		if _, dup := f.edges[e.ID]; dup || e.IsLoop() || e.W <= VirtualWeight {
			panic(fmt.Sprintf("ternary: insert %v is a self-loop, a duplicate id or not above VirtualWeight", e))
		}
		var ei *edgeInfo
		if k := len(f.freeInfos); k > 0 {
			ei, f.freeInfos = f.freeInfos[k-1], f.freeInfos[:k-1]
		} else {
			ei = new(edgeInfo)
		}
		*ei = edgeInfo{e: e, handle: noHandle}
		f.edges[e.ID] = ei
		f.queueEdge(ei)
		f.attach(ei, e.U)
		f.attach(ei, e.V)
	}

	// Emit what is still pending, chain links first, and map the handles
	// back positionally. An entry cancelled (or listed twice) is skipped.
	rcIns := f.rcIns[:0]
	links := f.pendNodes[:0]
	for _, x := range f.pendNodes {
		if nd := &f.nodes[x]; nd.queued {
			nd.queued = false
			rcIns = append(rcIns, rctree.Edge{U: nd.prev, V: x, Key: wgraph.Key{W: VirtualWeight, ID: wgraph.EdgeID(f.nextVID)}})
			f.nextVID--
			links = append(links, x)
		}
	}
	reals := f.pendEdges[:0]
	for _, ei := range f.pendEdges {
		if ei.queued {
			ei.queued = false
			rcIns = append(rcIns, rctree.Edge{U: ei.at[0], V: ei.at[1], Key: wgraph.KeyOf(ei.e)})
			reals = append(reals, ei)
		}
	}
	handles := f.t.BatchUpdate(rcIns, f.rcCuts)
	for i, x := range links {
		f.nodes[x].link = handles[i]
	}
	for i, ei := range reals {
		ei.handle = handles[len(links)+i]
	}
	f.rcIns, f.pendNodes, f.pendEdges = rcIns, links[:0], reals[:0]
	f.freeInfos = append(f.freeInfos, f.cutInfos...)
	f.cutInfos = f.cutInfos[:0]
	for _, v := range f.idle {
		if x := f.g0[v]; x != nilNode && f.nodes[x].deg == 0 {
			f.g0[v] = nilNode
			f.touched--
			f.release(x)
		}
	}
	f.idle = f.idle[:0]
}

// Validate checks the gadget layout and the underlying rctree's invariants:
// a real vertex holds a g0 exactly when it has an edge, each gadget node's
// rctree degree is its chain links plus its anchors, every node but the
// tail is saturated, no tail other than g0 is empty, each anchor agrees
// with its edge record, and the pool's nodes are isolated. Call it between
// batches. Test use only.
func (f *Forest) Validate() error {
	if err := f.t.Validate(); err != nil {
		return err
	}
	joins := func(h rctree.Handle, a, b int32) bool {
		if h == noHandle {
			return false
		}
		u, w := f.t.EdgeEndpoints(h)
		return u == a && w == b
	}
	chain, anchors, touched := 0, 0, 0
	for v := int32(0); v < int32(f.n); v++ {
		h := f.g0[v]
		if h == nilNode {
			continue
		}
		touched++
		g := &f.nodes[h]
		if g.deg == 0 {
			return fmt.Errorf("vertex %d: holds node %d with no edge", v, h)
		}
		deg := 0
		for x := g.tail; ; x = f.nodes[x].prev {
			if x < 0 || int(x) >= len(f.nodes) || (f.nodes[x].prev == nilNode) != (x == h) || chain > len(f.nodes) {
				return fmt.Errorf("vertex %d: gadget chain reaches %d", v, x)
			}
			nd := &f.nodes[x]
			links := f.chainLinks(x)
			switch {
			case nd.owner != v:
				return fmt.Errorf("vertex %d: gadget node %d owned by %d", v, x, nd.owner)
			case f.t.Degree(x) != int(links+nd.nAnch):
				return fmt.Errorf("vertex %d: node %d has rctree degree %d, want %d links + %d anchors", v, x, f.t.Degree(x), links, nd.nAnch)
			case x != g.tail && links+nd.nAnch != maxDeg:
				return fmt.Errorf("vertex %d: non-tail node %d holds %d links + %d anchors", v, x, links, nd.nAnch)
			case x != h && nd.nAnch == 0 && x == g.tail:
				return fmt.Errorf("vertex %d: empty tail %d", v, x)
			case x != h && (nd.queued || !joins(nd.link, nd.prev, x)):
				return fmt.Errorf("vertex %d: chain link of node %d is pending or misplaced", v, x)
			}
			for _, ei := range nd.anchors[:nd.nAnch] {
				if (ei.e.U != v && ei.e.V != v) || ei.at[ei.side(v)] != x || f.edges[ei.e.ID] != ei || ei.queued || !joins(ei.handle, ei.at[0], ei.at[1]) {
					return fmt.Errorf("vertex %d: node %d anchors edge %v, recorded at %v with rctree edge %d", v, x, ei.e, ei.at, ei.handle)
				}
			}
			deg += int(nd.nAnch)
			if x == h {
				break
			}
			chain++
		}
		if deg != g.deg {
			return fmt.Errorf("vertex %d: gadget anchors %d edges, degree %d", v, deg, g.deg)
		}
		anchors += deg
	}
	for _, x := range f.free {
		if nd := &f.nodes[x]; nd.owner != nilNode || f.t.Degree(x) != 0 {
			return fmt.Errorf("pool node %d: owned by %d, rctree degree %d", x, nd.owner, f.t.Degree(x))
		}
	}
	if anchors != 2*len(f.edges) {
		return fmt.Errorf("anchors %d != 2*edges %d", anchors, 2*len(f.edges))
	}
	if touched != f.touched || touched+chain+len(f.free) != f.t.NumVertices() || len(f.edges)+chain != f.t.NumBaseEdges() {
		return fmt.Errorf("%d touched vertices (counted %d) + %d chain nodes + %d in the pool, %d real edges: rctree has %d vertices, %d edges",
			touched, f.touched, chain, len(f.free), len(f.edges), f.t.NumVertices(), f.t.NumBaseEdges())
	}
	return nil
}
