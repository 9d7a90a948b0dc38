package rctree

import (
	"fmt"
	"math/bits"
)

// BatchUpdate deletes the base edges named by cuts, inserts ins, and
// re-contracts the affected region by change propagation. It returns the
// handles of the inserted edges, in order, in a slice the tree reuses: it
// stays valid only until the next BatchUpdate.
//
// Preconditions (panic on violation): the resulting edge set must remain a
// forest of maximum degree 3, cut handles must be live base edges, and
// inserted edges must not be self-loops. Package ternary discharges the
// degree obligation for arbitrary forests; package core discharges
// acyclicity (a minimum spanning forest is a forest).
func (t *Tree) BatchUpdate(ins []Edge, cuts []Handle) []Handle {
	t.epoch++
	t.waveN = 0

	// Round-0 surgery: cuts first, then inserts (keeps transient degree low
	// for the common replace pattern).
	for _, h := range cuts {
		er := &t.edges[h]
		if !er.live || er.kind != kindBase {
			panic(fmt.Sprintf("rctree: cut of dead or non-base edge %d", h))
		}
		if !t.verts[er.u].hist[0].remove(int32(h)) || !t.verts[er.v].hist[0].remove(int32(h)) {
			panic(fmt.Sprintf("rctree: edge %d missing from round-0 adjacency", h))
		}
		er.live = false
		t.pendingFree = append(t.pendingFree, int32(h))
		t.numBase--
		t.queueA(0, er.u)
		t.queueA(0, er.v)
		t.markHistChanged(er.u, 0)
		t.markHistChanged(er.v, 0)
	}
	handles := t.handles[:0]
	for _, e := range ins {
		if e.U == e.V {
			panic(fmt.Sprintf("rctree: self-loop insert (%d,%d)", e.U, e.V))
		}
		s := t.allocEdge()
		t.edges[s] = edgeRec{u: e.U, v: e.V, key: e.Key, birth: 0, kind: kindBase, owner: nilVert, parent: nilVert, live: true}
		t.verts[e.U].hist[0].add(s, e.V)
		t.verts[e.V].hist[0].add(s, e.U)
		t.numBase++
		handles = append(handles, Handle(s))
		t.queueA(0, e.U)
		t.queueA(0, e.V)
		t.markHistChanged(e.U, 0)
		t.markHistChanged(e.V, 0)
	}
	t.handles = handles
	if len(cuts)+len(ins) == 0 {
		return handles
	}
	// The decision of a vertex depends on its neighbours' degrees, so the
	// round-0 affected set must include one adjacency layer around the
	// modified endpoints. (Former neighbours across cut edges are the cut
	// edges' other endpoints, which are queued already.) The bound must be
	// snapshotted: iterating the growing queue would flood the entire
	// component with a transitive closure.
	if t.waveN > 0 {
		seeds := len(t.waveA[0])
		for i := 0; i < seeds; i++ {
			v := t.waveA[0][i]
			h := &t.verts[v].hist[0]
			for j := int8(0); j < h.deg; j++ {
				t.queueA(0, h.nb[j])
			}
		}
	}
	t.propagate()
	t.freeE = append(t.freeE, t.pendingFree...)
	t.pendingFree = t.pendingFree[:0]
	return handles
}

// queueA adds v to the pending affected set for round r (deduplicated).
func (t *Tree) queueA(r int32, v int32) {
	if t.inA[v] == t.epoch && t.inARound[v] == r {
		return
	}
	t.inA[v] = t.epoch
	t.inARound[v] = r
	for ; t.waveN <= r; t.waveN++ {
		if int(t.waveN) == len(t.waveA) {
			t.waveA = append(t.waveA, nil)
		}
		t.waveA[t.waveN] = t.waveA[t.waveN][:0]
	}
	t.waveA[r] = append(t.waveA[r], v)
}

func (t *Tree) markHistChanged(v int32, r int32) {
	t.histCh[v] = t.epoch
	t.histChRnd[v] = r
}

func (t *Tree) histChangedAt(v int32, r int32) bool {
	return t.histCh[v] == t.epoch && t.histChRnd[v] == r
}

func (t *Tree) aliveAt(v, r int32) bool {
	return int32(len(t.verts[v].hist)) > r
}

// oldDecisionAt reports what v did at round r according to its (not yet
// rewritten) record: its stored decision if it died at r, otherwise Live.
// Records already invalidated this wave (death == -1) read as Live.
func (t *Tree) oldDecisionAt(v, r int32) Decision {
	vr := &t.verts[v]
	if vr.death == r {
		return vr.decision
	}
	return Live
}

// decide computes v's contraction decision at round r from the current
// state. v must be alive at r.
func (t *Tree) decide(v, r int32) (Decision, int32) {
	h := &t.verts[v].hist[r]
	switch h.deg {
	case 0:
		return Finalize, nilVert
	case 1:
		u := h.nb[0]
		if t.verts[u].hist[r].deg == 1 && v > u {
			return Live, nilVert // the lower id rakes; we receive
		}
		return Rake, u
	case 2:
		u, w := h.nb[0], h.nb[1]
		du, dw := t.verts[u].hist[r].deg, t.verts[w].hist[r].deg
		if du < 2 || dw < 2 {
			return Live, nilVert
		}
		// Only a neighbour of degree 2 could compress too; v must outrank
		// each such neighbour.
		p := t.priority(v, r)
		if du == 2 && !t.outranks(v, p, u, r) || dw == 2 && !t.outranks(v, p, w, r) {
			return Live, nilVert
		}
		return Compress, nilVert
	default:
		return Live, nilVert
	}
}

// decisionAt returns the (possibly recomputed) decision of u at round r:
// the staged decision when u was processed this round, otherwise the stored
// record's verdict.
func (t *Tree) decisionAt(u, r int32) (Decision, int32) {
	if t.decSt[u] == t.epoch && t.decRnd[u] == r {
		return t.decVal[u], t.decTgt[u]
	}
	return t.oldDecisionAt(u, r), t.verts[u].target
}

// propagate runs the change-propagation wave from the queued round-0
// affected set until the contraction stabilizes.
func (t *Tree) propagate() {
	maxRounds := int32(t.maxRoundsC * (bits.Len(uint(len(t.verts))) + 2))
	procBuf, dSet := t.procBuf, t.dSet
	t.dirtyK = t.dirtyK[:0]
	for r := int32(0); r < t.waveN; r++ {
		if r > maxRounds {
			panic("rctree: contraction did not converge (cycle inserted or degree invariant broken)")
		}
		A := t.waveA[r]
		if len(A) == 0 {
			continue
		}
		// Phase 1: stage decisions for affected alive vertices.
		t.waveWork += int64(len(A))
		dSet = dSet[:0]
		for _, v := range A {
			if !t.aliveAt(v, r) {
				continue
			}
			dec, tgt := t.decide(v, r)
			t.decSt[v] = t.epoch
			t.decRnd[v] = r
			t.decVal[v] = dec
			t.decTgt[v] = tgt
			if dec != t.oldDecisionAt(v, r) || tgt != t.targetIfRake(v, r) ||
				(dec != Live && t.histChangedAt(v, r)) {
				dSet = append(dSet, v)
			}
		}
		// Phase 1c: materialize compress edges for changed compress
		// decisions before neighbours compute their next adjacency.
		for _, v := range dSet {
			if t.decVal[v] == Compress {
				t.refreshCompressEdge(v, r)
			}
		}
		// Phase 2+3: B = A ∪ N(dSet); diff and commit hist[v][r+1].
		procBuf = procBuf[:0]
		procBuf = append(procBuf, A...)
		for _, v := range dSet {
			h := &t.verts[v].hist[r]
			for i := int8(0); i < h.deg; i++ {
				u := h.nb[i]
				if t.inA[u] == t.epoch && t.inARound[u] == r {
					continue
				}
				t.inA[u] = t.epoch
				t.inARound[u] = r
				procBuf = append(procBuf, u)
			}
		}
		for _, v := range procBuf {
			t.commitNext(v, r)
		}
		// Phase 4: apply record/effect changes for dSet.
		for _, v := range dSet {
			t.applyEffects(v, r)
		}
	}
	t.procBuf, t.dSet = procBuf, dSet
	// Key-fix pass: recompute aggregated keys up the consumer chain for
	// compress edges whose key changed without structural change upstream.
	for _, s := range t.dirtyK {
		t.fixKeysUpward(s)
	}
}

// targetIfRake returns the stored rake target when the old record says v
// raked at round r, else nilVert — used to detect retarget-only changes.
func (t *Tree) targetIfRake(v, r int32) int32 {
	vr := &t.verts[v]
	if vr.death == r && vr.decision == Rake {
		return vr.target
	}
	return nilVert
}

// refreshCompressEdge (re)creates v's compress edge from its round-r
// adjacency. If the key changed while the edge stayed structurally in
// place, the slot is recorded for the post-wave key-fix pass.
func (t *Tree) refreshCompressEdge(v, r int32) {
	vr := &t.verts[v]
	h := &vr.hist[r]
	e0, e1 := &t.edges[h.e[0]], &t.edges[h.e[1]]
	u, w := h.nb[0], h.nb[1]
	key := e0.key
	if key.Less(e1.key) {
		key = e1.key
	}
	if vr.compEdge == nilEdge {
		vr.compEdge = t.allocEdge()
		t.edges[vr.compEdge] = edgeRec{parent: nilVert}
	}
	s := vr.compEdge
	er := &t.edges[s]
	prevLive := er.live
	prevKey := er.key
	// The previous parent is preserved even across a kill/revive: when the
	// consumer is semantically unchanged (same slot, same far endpoint in
	// its death-round adjacency) it is not reprocessed and the old pointer
	// is exactly right; when the consumer changes, the wave necessarily
	// reprocesses the new consumer, which overwrites the pointer.
	*er = edgeRec{u: u, v: w, key: key, birth: r + 1, kind: kindCompress, owner: v, parent: er.parent, live: true}
	// Conservatively flag any key that differs from the slot's previous
	// value — including kill/revive cycles where the consumer may not be
	// reprocessed. fixKeysUpward is idempotent, so over-flagging is safe.
	if !prevLive || prevKey != key {
		t.dirtyK = append(t.dirtyK, s)
	}
}

// commitNext computes v's new round-(r+1) adjacency, diffs it against the
// stored one, and on change commits it and queues the affected vertices for
// the next round.
func (t *Tree) commitNext(v, r int32) {
	vr := &t.verts[v]
	aliveNow := t.aliveAt(v, r)
	var aliveNext bool
	var next vround
	next.e = [3]int32{nilEdge, nilEdge, nilEdge}
	next.nb = [3]int32{nilVert, nilVert, nilVert}
	if aliveNow {
		dec, _ := t.decisionAt(v, r)
		if dec == Live {
			aliveNext = true
			h := &vr.hist[r]
			for i := int8(0); i < h.deg; i++ {
				s := h.e[i]
				u := h.nb[i]
				ud, _ := t.decisionAt(u, r)
				switch ud {
				case Rake:
					// u raked into v; the edge is consumed.
				case Compress:
					ce := t.verts[u].compEdge
					next.add(ce, t.edges[ce].other(v))
				default:
					next.add(s, u)
				}
			}
		}
	}
	hadNext := int32(len(vr.hist)) > r+1
	if !hadNext && !aliveNext {
		return
	}
	if hadNext && aliveNext && vr.hist[r+1].equalSet(next) {
		return
	}
	// Queue v and the union of old and new neighbours at r+1.
	t.queueA(r+1, v)
	t.markHistChanged(v, r+1)
	if hadNext {
		old := vr.hist[r+1]
		for i := int8(0); i < old.deg; i++ {
			t.queueA(r+1, old.nb[i])
		}
	}
	if aliveNext {
		for i := int8(0); i < next.deg; i++ {
			t.queueA(r+1, next.nb[i])
		}
	}
	switch {
	case aliveNext && hadNext:
		vr.hist[r+1] = next
	case aliveNext:
		if int32(len(vr.hist)) != r+1 {
			panic("rctree: non-contiguous hist extension")
		}
		if len(vr.hist) == cap(vr.hist) {
			t.moveHist(vr, histClass(len(vr.hist)+1))
		}
		vr.hist = append(vr.hist, next)
	default:
		// Newly dead at r+1: queue the stale rounds' neighbours so they
		// observe the disappearance, then truncate.
		for rr := r + 2; rr < int32(len(vr.hist)); rr++ {
			old := vr.hist[rr]
			for i := int8(0); i < old.deg; i++ {
				t.queueA(rr, old.nb[i])
			}
			t.queueA(rr, v)
		}
		vr.hist = vr.hist[:r+1]
		if n := int(r + 1); cap(vr.hist) > histMinRounds && 4*n <= cap(vr.hist) {
			t.moveHist(vr, histClass(n))
		}
	}
}

// applyEffects rewrites v's death record for its (possibly changed) round-r
// decision: undoing the old record's side effects and applying the new ones.
func (t *Tree) applyEffects(v, r int32) {
	vr := &t.verts[v]
	dec := t.decVal[v]
	// Undo the old record.
	if vr.death != -1 {
		switch vr.decision {
		case Rake:
			t.removeRakedIn(vr.target, v)
		case Compress:
			if vr.compEdge != nilEdge && dec != Compress {
				t.edges[vr.compEdge].live = false
			}
		case Finalize:
			t.roots--
		}
	}
	switch dec {
	case Live:
		vr.death = -1
		vr.decision = Live
		vr.target = nilVert
		vr.boundary = [2]int32{nilVert, nilVert}
	case Rake:
		tgt := t.decTgt[v]
		h := &vr.hist[r]
		vr.death = r
		vr.decision = Rake
		vr.target = tgt
		vr.parentC = tgt
		vr.boundary = [2]int32{tgt, nilVert}
		t.insertRakedIn(tgt, v)
		t.consume(h.e[0], v)
	case Compress:
		h := &vr.hist[r]
		vr.death = r
		vr.decision = Compress
		vr.target = nilVert
		vr.boundary = [2]int32{h.nb[0], h.nb[1]}
		// parentC is assigned when the compress edge is consumed.
		t.consume(h.e[0], v)
		t.consume(h.e[1], v)
	case Finalize:
		vr.death = r
		vr.decision = Finalize
		vr.target = nilVert
		vr.parentC = nilVert
		vr.boundary = [2]int32{nilVert, nilVert}
		t.roots++
	}
}

// consume records that vertex v's death absorbed edge slot s: the edge
// cluster's parent becomes C(v), and for compress edges the owning vertex's
// cluster parent is C(v) as well.
func (t *Tree) consume(s, v int32) {
	er := &t.edges[s]
	er.parent = v
	if er.kind == kindCompress {
		t.verts[er.owner].parentC = v
	}
}

func (t *Tree) insertRakedIn(target, v int32) {
	rs := t.verts[target].rakedIn
	lo := 0
	for lo < len(rs) && rs[lo] < v {
		lo++
	}
	if lo < len(rs) && rs[lo] == v {
		return
	}
	rs = append(rs, 0)
	copy(rs[lo+1:], rs[lo:])
	rs[lo] = v
	t.verts[target].rakedIn = rs
}

func (t *Tree) removeRakedIn(target, v int32) {
	if target == nilVert {
		return
	}
	rs := t.verts[target].rakedIn
	for i, x := range rs {
		if x == v {
			t.verts[target].rakedIn = append(rs[:i], rs[i+1:]...)
			return
		}
	}
}

// fixKeysUpward recomputes aggregated path keys along the consumer chain of
// edge slot s. It terminates when a recomputed key is unchanged or the chain
// leaves compress clusters (rakes and finalizes do not aggregate path keys).
func (t *Tree) fixKeysUpward(s int32) {
	for {
		er := &t.edges[s]
		if !er.live {
			return
		}
		x := er.parent
		if x == nilVert {
			return
		}
		xr := &t.verts[x]
		if xr.decision != Compress || xr.compEdge == nilEdge {
			return
		}
		h := &xr.hist[xr.death]
		if h.deg != 2 {
			return
		}
		k := t.edges[h.e[0]].key
		if k.Less(t.edges[h.e[1]].key) {
			k = t.edges[h.e[1]].key
		}
		ce := &t.edges[xr.compEdge]
		if ce.key == k {
			return
		}
		ce.key = k
		s = xr.compEdge
	}
}

// WaveWork returns the number of Phase-1 decision recomputations across
// all of this tree's change-propagation waves so far: the affected
// vertex-rounds whose locality Theorem 1.1's work bound rests on.
func (t *Tree) WaveWork() int64 { return t.waveWork }
