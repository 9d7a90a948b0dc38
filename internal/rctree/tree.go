// Package rctree implements parallel batch-dynamic rake-compress trees — the
// dynamic tree-contraction data structure of Acar, Anderson, Blelloch,
// Dhulipala and Westrick (reference [2] of the paper) that underpins both the
// compressed path tree (Section 3) and the batch-incremental MSF
// (Section 4).
//
// # Contraction model
//
// The structure maintains a Miller–Reif tree contraction of a forest with
// maximum degree 3 (package ternary adapts arbitrary-degree forests). The
// contraction proceeds in rounds; in round r every live vertex decides:
//
//   - degree 0: finalize — the vertex becomes the root (nullary) cluster of
//     its component;
//   - degree 1: rake into its neighbour, consuming the connecting edge
//     (when both endpoints of an edge are leaves, the lower id rakes);
//   - degree 2 with both neighbours of degree >= 2: compress when the
//     vertex's round priority exceeds that of each neighbour of degree
//     exactly 2 (a local maximum among the compress candidates), consuming
//     its two edges and creating a replacement edge between the neighbours;
//   - otherwise: stay live.
//
// Priorities are the deterministic hash Hash3(seed, v, r), ties broken by
// id, so the whole contraction is a pure function of the round-0 forest.
// No two adjacent vertices compress in one round: a neighbour of degree 3
// never compresses, and of two adjacent candidates only the higher priority
// can. A candidate beside zero, one or two other candidates compresses with
// probability 1, 1/2 or 1/3, so each round removes a constant fraction of
// the vertices in expectation and a contraction takes O(lg n) rounds w.h.p.
//
// Batch updates are implemented by change propagation: only vertices whose
// local neighbourhood differs from the previous contraction are re-executed,
// which costs O(l·lg(1+n/l)) expected work for a batch of l edge changes
// (Lemma 3.3). A decision reads only the vertex's own round adjacency and
// its neighbours' degrees and priorities, the neighbourhood the wave
// already re-examines. Determinism gives the key testing property: an
// incrementally updated tree is bit-for-bit (up to edge-slot renaming) the
// contraction a fresh build would produce.
//
// # RC-tree identification
//
// Every vertex dies exactly once per contraction, so clusters are identified
// with vertices: C(v) is the cluster created by v's death (unary for rake,
// binary for compress, nullary for finalize). Compress replacement edges are
// likewise identified with their owner vertex. Children of C(v) are
// derivable: the vertex leaf of v, the clusters of the vertices that raked
// into v, and the clusters of the edges v consumed. Binary clusters carry
// the maximum (W, ID) key on their boundary path, which is what the
// compressed path tree and PathMax queries consume.
package rctree

import (
	"fmt"
	"math/bits"

	"repro/internal/parallel"
	"repro/internal/wgraph"
)

// Decision encodes what a vertex did in the round it died.
type Decision uint8

// Decision values. Live is used transiently for vertices that survive a
// round; a completed contraction stores only Rake, Compress or Finalize.
const (
	Live Decision = iota
	Rake
	Compress
	Finalize
)

func (d Decision) String() string {
	switch d {
	case Live:
		return "live"
	case Rake:
		return "rake"
	case Compress:
		return "compress"
	case Finalize:
		return "finalize"
	}
	return fmt.Sprintf("decision(%d)", uint8(d))
}

// Handle identifies a live base edge for later deletion.
type Handle int32

// Edge is a base edge presented to BatchUpdate. Key must be unique across
// all edges ever inserted (package wgraph's (W, ID) order guarantees this
// when IDs are unique).
type Edge struct {
	U, V int32
	Key  wgraph.Key
}

const (
	nilVert = int32(-1)
	nilEdge = int32(-1)
)

type edgeKind uint8

const (
	kindBase edgeKind = iota
	kindCompress
)

// vround is the adjacency of a vertex at one contraction round. Each
// incident edge stores both its slot and the far endpoint (nb): neighbour
// identity must never be recovered by dereferencing a slot, because slots
// belonging to superseded parts of the contraction may be rewritten while a
// change-propagation wave still consults old history entries.
type vround struct {
	deg int8
	e   [3]int32
	nb  [3]int32
}

func (h *vround) add(s, nbv int32) {
	if h.deg >= 3 {
		panic("rctree: vertex degree exceeds 3 (ternarize the input forest)")
	}
	h.e[h.deg] = s
	h.nb[h.deg] = nbv
	h.deg++
}

func (h *vround) remove(s int32) bool {
	for i := int8(0); i < h.deg; i++ {
		if h.e[i] == s {
			h.deg--
			h.e[i] = h.e[h.deg]
			h.nb[i] = h.nb[h.deg]
			h.e[h.deg] = nilEdge
			h.nb[h.deg] = nilVert
			return true
		}
	}
	return false
}

func (h *vround) has(s int32) bool {
	for i := int8(0); i < h.deg; i++ {
		if h.e[i] == s {
			return true
		}
	}
	return false
}

func (h *vround) hasPair(s, nbv int32) bool {
	for i := int8(0); i < h.deg; i++ {
		if h.e[i] == s && h.nb[i] == nbv {
			return true
		}
	}
	return false
}

// equalSet reports whether two rounds hold the same (slot, neighbour) pairs.
func (h vround) equalSet(o vround) bool {
	if h.deg != o.deg {
		return false
	}
	for i := int8(0); i < h.deg; i++ {
		if !o.hasPair(h.e[i], h.nb[i]) {
			return false
		}
	}
	return true
}

type vertexRec struct {
	hist     []vround // hist[r] = adjacency at round r; len = death+1; a block (see histClass)
	death    int32    // round the vertex died; -1 transiently during a wave
	decision Decision
	target   int32    // rake target (nilVert otherwise)
	parentC  int32    // vertex owning the parent cluster; nilVert for roots
	boundary [2]int32 // cluster boundary vertices (nilVert padding)
	rakedIn  []int32  // vertices that raked into this one, sorted by id
	compEdge int32    // this vertex's compress-edge slot (nilEdge if none yet)
}

type edgeRec struct {
	u, v   int32
	key    wgraph.Key
	birth  int32
	kind   edgeKind
	owner  int32 // compress: owning vertex; base: nilVert
	parent int32 // vertex whose death consumed this edge
	live   bool
}

func (e *edgeRec) other(x int32) int32 {
	if e.u == x {
		return e.v
	}
	if e.v == x {
		return e.u
	}
	panic("rctree: vertex is not an endpoint of edge")
}

// Tree is a batch-dynamic rake-compress tree over a bounded-degree forest.
type Tree struct {
	seed  uint64
	verts []vertexRec
	edges []edgeRec
	freeE []int32
	// Slots cut in the current batch: recyclable only after the wave, so a
	// freed slot can never be reincarnated while old history entries that
	// the wave still diffs against mention it.
	pendingFree []int32
	roots       int // number of finalize vertices = number of components

	// Wave scratch (see update.go), kept across batches. Epoch-stamped to
	// avoid clearing.
	epoch     uint64
	waveA     [][]int32 // per-round pending affected vertices; rounds keep their backing arrays
	waveN     int32     // rounds of waveA in use by the current wave
	procBuf   []int32   // B set of the current round
	dSet      []int32   // vertices with effect changes this round
	dirtyK    []int32   // compress edges whose key changed in place
	handles   []Handle  // BatchUpdate's result
	inA       []uint64  // stamp: vertex queued in waveA for (epoch, round)
	inARound  []int32
	histCh    []uint64 // stamp: hist[v][round] committed as changed
	histChRnd []int32
	decSt     []uint64 // stamp: decision computed this (epoch, round)
	decRnd    []int32
	decVal    []Decision
	decTgt    []int32
	waveWork  int64 // Phase-1 decisions computed, over all waves (WaveWork)

	// histFree[c] holds the recycled history blocks of class c (see
	// histBlock), which no vertex uses.
	histFree [][][]vround

	// Marking scratch (see cpt marking in mark.go).
	marking    Marking
	markEpoch  uint64
	clustMark  []uint64
	vertMark   []uint64
	numBase    int
	maxRoundsC int // safety cap multiplier
}

// New returns a rake-compress tree over n isolated vertices.
func New(n int, seed uint64) *Tree {
	t := &Tree{seed: seed, maxRoundsC: 64}
	t.grow(n)
	return t
}

func (t *Tree) grow(k int) int32 {
	first := int32(len(t.verts))
	for i := 0; i < k; i++ {
		t.verts = append(t.verts, vertexRec{
			hist:     append(t.histBlock(0), vround{deg: 0, e: [3]int32{nilEdge, nilEdge, nilEdge}, nb: [3]int32{nilVert, nilVert, nilVert}}),
			death:    0,
			decision: Finalize,
			target:   nilVert,
			parentC:  nilVert,
			boundary: [2]int32{nilVert, nilVert},
			compEdge: nilEdge,
		})
	}
	t.roots += k
	t.inA = append(t.inA, make([]uint64, k)...)
	t.inARound = append(t.inARound, make([]int32, k)...)
	t.histCh = append(t.histCh, make([]uint64, k)...)
	t.histChRnd = append(t.histChRnd, make([]int32, k)...)
	t.decSt = append(t.decSt, make([]uint64, k)...)
	t.decRnd = append(t.decRnd, make([]int32, k)...)
	t.decVal = append(t.decVal, make([]Decision, k)...)
	t.decTgt = append(t.decTgt, make([]int32, k)...)
	t.clustMark = append(t.clustMark, make([]uint64, k)...)
	t.vertMark = append(t.vertMark, make([]uint64, k)...)
	return first
}

// A vertex's contraction history lives in a block of histMinRounds<<c
// rounds for some class c ≥ 0, more than a quarter full unless c = 0. Each
// round of contraction removes a constant fraction of the live vertices,
// so a vertex lives O(1) rounds in expectation (about 2.2 on the recency
// replay) and the smallest class covers most vertices. A wave that extends
// a vertex past its block moves it up a class; one that truncates it to a
// quarter of its block or less moves it down to the smallest class that
// holds it (commitNext). Vacated blocks are recycled per class, so the
// blocks held, in use or free, stay within a constant factor of the live
// rounds, and only a new peak of blocks in use in one class allocates.
const (
	histMinLog    = 2
	histMinRounds = 1 << histMinLog
)

// histClass returns the class of the smallest block that holds n rounds.
func histClass(n int) int {
	if n <= histMinRounds {
		return 0
	}
	return bits.Len(uint(n-1)) - histMinLog
}

// histBlock returns an empty block of class c, recycled when one is free.
func (t *Tree) histBlock(c int) []vround {
	if c < len(t.histFree) {
		if k := len(t.histFree[c]); k > 0 {
			b := t.histFree[c][k-1]
			t.histFree[c] = t.histFree[c][:k-1]
			return b
		}
	}
	return make([]vround, 0, histMinRounds<<c)
}

// moveHist copies vr's history into a block of class c and recycles the
// block it leaves.
func (t *Tree) moveHist(vr *vertexRec, c int) {
	old := vr.hist
	vr.hist = append(t.histBlock(c), old...)
	oc := histClass(cap(old))
	for len(t.histFree) <= oc {
		t.histFree = append(t.histFree, nil)
	}
	t.histFree[oc] = append(t.histFree[oc], old[:0])
}

// HistoryRounds returns the rounds of contraction history the tree keeps:
// live, the rounds its vertices are alive in (Σ death+1), and held, the
// capacity of the blocks that store them plus the recycled blocks. O(n).
func (t *Tree) HistoryRounds() (live, held int) {
	for i := range t.verts {
		live += len(t.verts[i].hist)
		held += cap(t.verts[i].hist)
	}
	for c, free := range t.histFree {
		held += len(free) * (histMinRounds << c)
	}
	return live, held
}

// AddVertices appends k isolated vertices and returns the id of the first.
func (t *Tree) AddVertices(k int) int32 { return t.grow(k) }

// NumVertices returns the number of vertices.
func (t *Tree) NumVertices() int { return len(t.verts) }

// NumComponents returns the number of trees in the forest (isolated vertices
// count as singleton components).
func (t *Tree) NumComponents() int { return t.roots }

// NumBaseEdges returns the number of live base edges.
func (t *Tree) NumBaseEdges() int { return t.numBase }

// priority returns v's compress priority at round r.
func (t *Tree) priority(v, r int32) uint64 {
	return parallel.Hash3(t.seed, uint64(v), uint64(r))
}

// outranks reports whether v, of priority p at round r, outranks u at r:
// a higher priority, or an equal one and a higher id.
func (t *Tree) outranks(v int32, p uint64, u, r int32) bool {
	pu := t.priority(u, r)
	return p > pu || p == pu && v > u
}

func (t *Tree) allocEdge() int32 {
	if n := len(t.freeE); n > 0 {
		s := t.freeE[n-1]
		t.freeE = t.freeE[:n-1]
		return s
	}
	t.edges = append(t.edges, edgeRec{})
	return int32(len(t.edges) - 1)
}

// EdgeKey returns the key of a live base edge.
func (t *Tree) EdgeKey(h Handle) wgraph.Key {
	e := &t.edges[h]
	if !e.live || e.kind != kindBase {
		panic("rctree: EdgeKey on dead or non-base edge")
	}
	return e.key
}

// EdgeEndpoints returns the endpoints of a live base edge.
func (t *Tree) EdgeEndpoints(h Handle) (int32, int32) {
	e := &t.edges[h]
	if !e.live || e.kind != kindBase {
		panic("rctree: EdgeEndpoints on dead or non-base edge")
	}
	return e.u, e.v
}

// Degree returns the round-0 degree of v.
func (t *Tree) Degree(v int32) int { return int(t.verts[v].hist[0].deg) }

// --- Cluster introspection (used by the compressed path tree and queries) ---

// DeathRound returns the round at which v died.
func (t *Tree) DeathRound(v int32) int32 { return t.verts[v].death }

// DecisionOf returns how v died.
func (t *Tree) DecisionOf(v int32) Decision { return t.verts[v].decision }

// TargetOf returns the rake target of v (nilVert = -1 if v did not rake).
func (t *Tree) TargetOf(v int32) int32 { return t.verts[v].target }

// ParentCluster returns the vertex whose cluster is the parent of C(v), or
// -1 when C(v) is a root cluster.
func (t *Tree) ParentCluster(v int32) int32 { return t.verts[v].parentC }

// RakedIn returns the vertices that raked into v, sorted by id. The returned
// slice must not be modified.
func (t *Tree) RakedIn(v int32) []int32 { return t.verts[v].rakedIn }

// Boundary returns the boundary vertices of C(v); unused positions are -1.
func (t *Tree) Boundary(v int32) [2]int32 { return t.verts[v].boundary }

// EdgeChild describes an edge cluster consumed by a vertex's death: either a
// base-edge leaf cluster or the binary cluster of a compressed vertex.
type EdgeChild struct {
	Slot       int32
	U, V       int32 // endpoints at consumption time
	Key        wgraph.Key
	IsCompress bool
	Owner      int32 // compressing vertex when IsCompress
}

// DeathEdges appends the edge clusters consumed by v's death to buf and
// returns it (0, 1 or 2 entries).
func (t *Tree) DeathEdges(v int32, buf []EdgeChild) []EdgeChild {
	vr := &t.verts[v]
	h := vr.hist[vr.death]
	for i := int8(0); i < h.deg; i++ {
		s := h.e[i]
		er := &t.edges[s]
		buf = append(buf, EdgeChild{
			Slot: s, U: er.u, V: er.v, Key: er.key,
			IsCompress: er.kind == kindCompress, Owner: er.owner,
		})
	}
	return buf
}

// CompressKey returns the boundary-path key of the binary cluster C(v).
// v must have died by compressing.
func (t *Tree) CompressKey(v int32) wgraph.Key {
	vr := &t.verts[v]
	if vr.decision != Compress {
		panic("rctree: CompressKey on non-compress cluster")
	}
	return t.edges[vr.compEdge].key
}
