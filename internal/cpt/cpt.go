// Package cpt constructs compressed path trees (Section 3 of the paper,
// Algorithm 1). Given a rake-compress tree of a weighted forest and a set of
// marked vertices, the compressed path tree is the minimal tree over the
// marked vertices (plus Steiner vertices) that preserves every pairwise
// heaviest-edge query: each compressed edge carries the maximum (W, ID) key
// of the path segment it represents.
//
// The construction marks the RC-tree clusters containing marked vertices
// bottom-up, then expands top-down: an unmarked cluster contributes only its
// boundary summary (for a binary cluster, one edge weighted with the
// cluster's path maximum), while a marked cluster recurses into its children
// and prunes its representative (SpliceOut/Prune of Algorithm 1). Work is
// O(l·lg(1+n/l)) expected for l marked vertices (Theorem 3.2).
package cpt

import (
	"fmt"
	"slices"

	"repro/internal/rctree"
	"repro/internal/wgraph"
)

// Edge is a compressed path tree edge: the path between U and V in the
// original forest has heaviest edge Key (Key.ID identifies that original
// edge).
type Edge struct {
	U, V int32
	Key  wgraph.Key
}

// Result is the union of the compressed path trees of every component
// containing a marked vertex.
type Result struct {
	Vertices []int32
	Edges    []Edge
}

type bEdge struct {
	u, v int32
	key  wgraph.Key
	next [2]int32 // next edge in the adjacency lists of u and of v
	dead bool
}

// Builder constructs compressed path trees over one rake-compress tree. It
// keeps its scratch across builds: a touched vertex gets a dense label, and
// its adjacency is a list threaded through the edges from head[label]. A
// label is valid only while the vertex's stamp equals the build's epoch, so
// nothing is cleared between builds and a build at steady state allocates
// nothing.
type Builder struct {
	t     *rctree.Tree
	m     *rctree.Marking
	epoch uint64
	stamp []uint64 // stamp[v] == epoch: v was touched by this build
	label []int32  // dense label of a touched vertex, in first-touch order
	head  []int32  // by label: first edge of the adjacency list, or nilEdge
	edges []bEdge
	out   []Edge
}

const nilEdge = int32(-1)

// NewBuilder returns a builder over t.
func NewBuilder(t *rctree.Tree) *Builder { return &Builder{t: t} }

// touch returns v's label, assigning the next one on v's first touch.
func (b *Builder) touch(v int32) int32 {
	if b.stamp[v] != b.epoch {
		b.stamp[v] = b.epoch
		b.label[v] = int32(len(b.head))
		b.head = append(b.head, nilEdge)
	}
	return b.label[v]
}

func (b *Builder) addEdge(u, v int32, k wgraph.Key) {
	id := int32(len(b.edges))
	lu, lv := b.touch(u), b.touch(v)
	b.edges = append(b.edges, bEdge{u: u, v: v, key: k, next: [2]int32{b.head[lu], b.head[lv]}})
	b.head[lu], b.head[lv] = id, id
}

// link returns the pointer to the next edge after id in v's list.
func (b *Builder) link(id, v int32) *int32 {
	if b.edges[id].u == v {
		return &b.edges[id].next[0]
	}
	return &b.edges[id].next[1]
}

// liveEdges unlinks the dead edges from v's list and returns the live ones.
// The forest has maximum degree 3 and live edges stand for edge-disjoint
// forest paths, so v has at most three.
func (b *Builder) liveEdges(v int32) (ids [3]int32, n int) {
	if b.stamp[v] != b.epoch {
		return ids, 0
	}
	for p := &b.head[b.label[v]]; *p != nilEdge; {
		id := *p
		if b.edges[id].dead {
			*p = *b.link(id, v)
			continue
		}
		ids[n] = id
		n++
		p = b.link(id, v)
	}
	return ids, n
}

func (b *Builder) other(id, v int32) int32 {
	e := &b.edges[id]
	if e.u == v {
		return e.v
	}
	return e.u
}

// spliceOut removes unmarked degree-2 vertex v, merging its two incident
// edges into one carrying the heavier key.
func (b *Builder) spliceOut(v int32) {
	ids, n := b.liveEdges(v)
	if n != 2 || b.m.VertexMarked(v) {
		return
	}
	e0, e1 := &b.edges[ids[0]], &b.edges[ids[1]]
	a, c := b.other(ids[0], v), b.other(ids[1], v)
	k := wgraph.MaxKeyOf(e0.key, e1.key)
	e0.dead = true
	e1.dead = true
	b.addEdge(a, c, k)
}

// prune implements the Prune primitive of Algorithm 1 on the representative
// of a just-expanded cluster.
func (b *Builder) prune(v int32) {
	if b.m.VertexMarked(v) {
		return
	}
	ids, n := b.liveEdges(v)
	switch n {
	case 2:
		b.spliceOut(v)
	case 1:
		// Remove v and its edge, then splice the neighbour if it became an
		// unmarked degree-2 vertex.
		u := b.other(ids[0], v)
		b.edges[ids[0]].dead = true
		b.spliceOut(u)
	}
}

// expand processes the composite cluster C(v) per Algorithm 1.
func (b *Builder) expand(v int32) {
	if !b.m.ClusterMarked(v) {
		// Algorithm 1 line 7/9: an unmarked cluster contributes only its
		// boundary summary. A unary cluster's lone boundary vertex is the
		// parent's representative, which materializes through the parent's
		// own edge clusters whenever it survives pruning, so only the binary
		// case adds anything here.
		if b.t.DecisionOf(v) == rctree.Compress {
			bd := b.t.Boundary(v)
			b.addEdge(bd[0], bd[1], b.t.CompressKey(v))
		}
		return
	}
	if b.m.VertexMarked(v) {
		b.touch(v)
	}
	for _, x := range b.t.RakedIn(v) {
		b.expand(x)
	}
	// At most two death edges; copy locally because expand recurses.
	var local [2]rctree.EdgeChild
	dch := b.t.DeathEdges(v, local[:0])
	for _, ec := range dch {
		if ec.IsCompress {
			b.expand(ec.Owner)
		} else {
			b.addEdge(ec.U, ec.V, ec.Key)
		}
	}
	b.prune(v)
}

// Build computes the compressed path trees of all components of the tree
// containing a vertex in marked (duplicates allowed) and returns their
// edges. Every marked vertex is touched and so labelled. The edges and the
// labels stay valid only until the next Build.
func (b *Builder) Build(marked []int32) []Edge {
	if n := b.t.NumVertices(); len(b.stamp) < n {
		b.stamp = append(b.stamp, make([]uint64, n-len(b.stamp))...)
		b.label = append(b.label, make([]int32, n-len(b.label))...)
	}
	b.epoch++
	b.head = b.head[:0]
	b.edges = b.edges[:0]
	b.m = b.t.NewMarking(marked)
	for _, root := range b.m.Roots() {
		b.expand(root)
	}
	out := b.out[:0]
	for _, e := range b.edges {
		if !e.dead {
			out = append(out, Edge{U: e.u, V: e.v, Key: e.key})
		}
	}
	b.out = out
	return out
}

// Label returns the dense label the last Build gave v, in [0, NumLabels()).
// v must have been touched by that build, as every marked vertex is.
func (b *Builder) Label(v int32) int32 {
	if b.stamp[v] != b.epoch {
		panic(fmt.Sprintf("cpt: vertex %d has no label in this build", v))
	}
	return b.label[v]
}

// NumLabels returns the number of vertices the last Build touched: the
// vertices of its result, plus Steiner vertices it spliced out again.
func (b *Builder) NumLabels() int { return len(b.head) }

// Build computes the compressed path trees of all components of t containing
// a vertex in marked, with a builder of its own.
func Build(t *rctree.Tree, marked []int32) Result {
	b := NewBuilder(t)
	res := Result{Edges: slices.Clone(b.Build(marked))}
	seen := make(map[int32]bool, len(marked)+2*len(res.Edges))
	for _, v := range marked {
		seen[v] = true
	}
	for _, e := range res.Edges {
		seen[e.U] = true
		seen[e.V] = true
	}
	res.Vertices = make([]int32, 0, len(seen))
	for v := range seen {
		res.Vertices = append(res.Vertices, v)
	}
	return res
}
