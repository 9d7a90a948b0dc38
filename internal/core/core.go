// Package core implements the paper's primary contribution: the
// work-efficient parallel batch-incremental minimum spanning forest of
// Theorem 1.1 (Section 4, Algorithm 2).
//
// A batch of l edge insertions is processed by
//
//  1. collecting the endpoints K of the batch,
//  2. building the compressed path trees C of the current forest with
//     respect to K (package cpt over the rake-compress tree, through the
//     degree-3 adapter of package ternary),
//  3. computing the static MSF M of C ∪ E+ — a graph of size O(l) — with
//     Kruskal (stand-in for Cole–Klein–Tarjan, see DESIGN.md §2), and
//  4. deleting the forest edges E(C) \ E(M) (identified through the argmax
//     edge each compressed edge carries) and inserting E(M) ∩ E+.
//
// Total cost O(l·lg(1+n/l)) expected work (Theorem 4.2). Correctness is
// Theorem 4.1: every deleted edge is a heaviest edge on some cycle of
// G ∪ E+ (the red rule), and the result is acyclic.
//
// All weights are ordered by the strict total order (W, ID), so the MSF is
// unique and deletions are unambiguous. Edge IDs must be unique for the
// lifetime of the structure and weights must exceed math.MinInt64+1 (the
// ternary adapter's virtual weight).
package core

import (
	"fmt"
	"slices"

	"repro/internal/cpt"
	"repro/internal/msf"
	"repro/internal/ternary"
	"repro/internal/wgraph"
)

// BatchMSF maintains the minimum spanning forest of an incrementally growing
// weighted multigraph under batch edge insertions.
type BatchMSF struct {
	f      *ternary.Forest
	n      int
	weight int64

	// Batch scratch, reused across batches: the compressed path tree
	// builder, Kruskal's workspace, and the buffers of BatchInsert,
	// including the three result slices.
	cpt                      *cpt.Builder
	kruskal                  msf.Workspace
	work, small              []wgraph.Edge
	marked                   []int32
	inM                      []bool // inM[i]: small[i] is in the small graph's MSF
	cutIDs                   []wgraph.EdgeID
	added, removed, rejected []wgraph.Edge
}

// New returns an empty batch-incremental MSF over n vertices. seed drives
// the randomized tree contraction.
func New(n int, seed uint64) *BatchMSF {
	f := ternary.New(n, seed)
	return &BatchMSF{f: f, n: n, cpt: cpt.NewBuilder(f.RC())}
}

// N returns the number of vertices.
func (m *BatchMSF) N() int { return m.n }

// Size returns the number of forest edges.
func (m *BatchMSF) Size() int { return m.f.NumEdges() }

// Weight returns the total weight of the forest.
func (m *BatchMSF) Weight() int64 { return m.weight }

// NumComponents returns the number of connected components.
func (m *BatchMSF) NumComponents() int { return m.n - m.f.NumEdges() }

// Connected reports whether u and v are connected in the graph inserted so
// far (equivalently, in the forest). O(lg n) expected.
func (m *BatchMSF) Connected(u, v int32) bool { return m.f.Connected(u, v) }

// HasEdge reports whether edge id is currently a forest edge.
func (m *BatchMSF) HasEdge(id wgraph.EdgeID) bool { return m.f.HasEdge(id) }

// EdgeByID returns the forest edge with the given id.
func (m *BatchMSF) EdgeByID(id wgraph.EdgeID) (wgraph.Edge, bool) { return m.f.EdgeByID(id) }

// WaveWork returns the rake-compress tree's cumulative change-propagation
// work: affected vertex-rounds recomputed over all batches so far.
func (m *BatchMSF) WaveWork() int64 { return m.f.RC().WaveWork() }

// TreeVertices returns the number of rake-compress tree vertices in use:
// one per vertex with a forest edge plus the chain nodes that the degree-3
// adapter (package ternary) adds for vertices of forest degree above 3.
// Isolated vertices hold none.
func (m *BatchMSF) TreeVertices() int { return m.f.Vertices() }

// HistoryRounds returns the rake-compress tree's contraction history in
// rounds: live, the rounds its vertices are alive in, and held, the rounds
// its history blocks can store, in use or recycled. O(tree vertices).
func (m *BatchMSF) HistoryRounds() (live, held int) { return m.f.RC().HistoryRounds() }

// PathMaxEdge returns the heaviest forest edge on the path between u and v,
// or false when they are disconnected or equal. O(lg n) expected.
func (m *BatchMSF) PathMaxEdge(u, v int32) (wgraph.Edge, bool) {
	k, ok := m.f.PathMax(u, v)
	if !ok {
		return wgraph.Edge{}, false
	}
	e, ok := m.f.EdgeByID(k.ID)
	if !ok {
		panic(fmt.Sprintf("core: path max key %v names unknown edge", k))
	}
	return e, true
}

// BatchInsert inserts a batch of edges (Algorithm 2) and returns:
//
//   - added: the input edges that entered the forest,
//   - removed: former forest edges evicted by the red rule,
//   - rejected: input edges that did not enter (each is a heaviest edge on
//     a cycle of the new graph; self-loops are always rejected).
//
// removed ∪ rejected is exactly the replacement set O_i that the
// k-certificate cascade of Section 5.4 feeds to the next forest.
//
// The three slices are buffers the structure reuses: they stay valid only
// until its next BatchInsert or BatchDelete. Copy what must outlive that.
func (m *BatchMSF) BatchInsert(edges []wgraph.Edge) (added, removed, rejected []wgraph.Edge) {
	if len(edges) == 0 {
		return nil, nil, nil
	}
	// Line 2: K <- endpoints of the batch; loops can never enter a forest.
	added, removed, rejected = m.added[:0], m.removed[:0], m.rejected[:0]
	work := m.work[:0]
	for _, e := range edges {
		if e.IsLoop() {
			rejected = append(rejected, e)
			continue
		}
		if e.W <= ternary.VirtualWeight {
			panic(fmt.Sprintf("core: weight %d out of range", e.W))
		}
		work = append(work, e)
	}
	m.work, m.rejected = work, rejected
	if len(work) == 0 {
		return nil, nil, rejected
	}
	// K is marked through the tree vertices heading the endpoints' gadgets:
	// marked[2i] and marked[2i+1] are work[i]'s. An isolated endpoint gets
	// one reserved, and keeps it: Kruskal spans it, so it ends the batch
	// with an edge. The marking stamps deduplicate K, so endpoints are
	// listed as they come.
	marked := m.marked[:0]
	for _, e := range work {
		marked = append(marked, m.f.Reserve(e.U), m.f.Reserve(e.V))
	}
	m.marked = marked
	// Line 3: compressed path trees of the touched components.
	cptEdges := m.cpt.Build(marked)
	// Line 4: static MSF of C ∪ E+ on the builder's dense vertex labels.
	small := m.small[:0]
	for _, ce := range cptEdges {
		small = append(small, wgraph.Edge{
			ID: ce.Key.ID, U: m.cpt.Label(ce.U), V: m.cpt.Label(ce.V), W: ce.Key.W,
		})
	}
	numCPT := len(small)
	for i, e := range work {
		small = append(small, wgraph.Edge{ID: e.ID, U: m.cpt.Label(marked[2*i]), V: m.cpt.Label(marked[2*i+1]), W: e.W})
	}
	m.small = small
	inM := slices.Grow(m.inM[:0], len(small))[:len(small)]
	clear(inM)
	for _, i := range m.kruskal.Run(m.cpt.NumLabels(), small) {
		inM[i] = true
	}
	m.inM = inM
	// Lines 5-6: diff the small MSF against the forest.
	cutIDs := m.cutIDs[:0]
	for i, ce := range small[:numCPT] {
		if inM[i] {
			continue
		}
		if ce.W == ternary.VirtualWeight {
			panic("core: virtual chain edge evicted from the small MSF")
		}
		old, ok := m.f.EdgeByID(ce.ID)
		if !ok {
			panic(fmt.Sprintf("core: CPT argmax edge %d not in forest", ce.ID))
		}
		removed = append(removed, old)
		cutIDs = append(cutIDs, ce.ID)
		m.weight -= old.W
	}
	for i, e := range work {
		if inM[numCPT+i] {
			added = append(added, e)
			m.weight += e.W
		} else {
			rejected = append(rejected, e)
		}
	}
	m.added, m.removed, m.rejected, m.cutIDs = added, removed, rejected, cutIDs
	m.f.BatchUpdate(added, cutIDs)
	return added, removed, rejected
}

// BatchDelete cuts the named forest edges without seeking replacements. It
// is the primitive behind eager sliding-window expiry (Theorem 5.2), where
// the recent-edge property guarantees any would-be replacement has already
// expired. Deleting a non-forest edge panics.
func (m *BatchMSF) BatchDelete(ids []wgraph.EdgeID) {
	if len(ids) == 0 {
		return
	}
	for _, id := range ids {
		e, ok := m.f.EdgeByID(id)
		if !ok {
			panic(fmt.Sprintf("core: deleting unknown edge %d", id))
		}
		m.weight -= e.W
	}
	m.f.BatchUpdate(nil, ids)
}

// ForestEdges returns a snapshot of the current forest edges (unordered).
func (m *BatchMSF) ForestEdges() []wgraph.Edge {
	out := make([]wgraph.Edge, 0, m.f.NumEdges())
	m.f.RangeEdges(func(e wgraph.Edge) bool {
		out = append(out, e)
		return true
	})
	return out
}

// CompressedPaths returns the compressed path tree (Section 3, Figure 1) of
// the current forest with respect to the marked vertices, expressed over
// the original vertices: each returned edge summarizes a forest path
// segment, carrying the heaviest (W, ID) key on it. Unmarked vertices in
// the result are Steiner vertices of degree at least 3. An isolated marked
// vertex lies on no forest path, so it adds nothing.
func (m *BatchMSF) CompressedPaths(marked []int32) []cpt.Edge {
	nodes := make([]int32, 0, len(marked))
	for _, v := range marked {
		if x := m.f.Node(v); x >= 0 {
			nodes = append(nodes, x)
		}
	}
	res := cpt.Build(m.f.RC(), nodes)
	out := make([]cpt.Edge, 0, len(res.Edges))
	for _, e := range res.Edges {
		u, v := m.f.OwnerOf(e.U), m.f.OwnerOf(e.V)
		if u == v {
			continue // virtual chain link inside one vertex gadget
		}
		out = append(out, cpt.Edge{U: u, V: v, Key: e.Key})
	}
	return out
}
