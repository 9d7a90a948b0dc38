package rctree

import (
	"fmt"

	"repro/internal/wgraph"
)

// Validate exhaustively checks the structural invariants of the contraction
// and the derived RC tree. It is O(n·lg n) and intended for tests and debug
// assertions, not production paths. It returns the first violation found.
func (t *Tree) Validate() error {
	n := int32(len(t.verts))
	liveEdges := map[int32]bool{}
	for s := range t.edges {
		if t.edges[s].live {
			liveEdges[int32(s)] = true
		}
	}
	consumed := map[int32]int32{} // edge slot -> consuming vertex
	rakedRef := map[int32][]int32{}
	roots := 0
	baseCount := 0
	for s, er := range t.edges {
		if er.live && er.kind == kindBase {
			baseCount++
			if !t.verts[er.u].hist[0].has(int32(s)) || !t.verts[er.v].hist[0].has(int32(s)) {
				return fmt.Errorf("base edge %d not in round-0 adjacency of both endpoints", s)
			}
		}
	}
	if baseCount != t.numBase {
		return fmt.Errorf("numBase=%d but %d live base edges", t.numBase, baseCount)
	}
	// History store: blocks are allocated whole at a class size and only
	// resliced from their start, so distinct first rounds mean disjoint
	// storage.
	owner := map[*vround]int32{} // a block's first round -> its vertex, nilVert if recycled
	claim := func(b []vround, v int32) error {
		p := &b[:1][0]
		if prev, ok := owner[p]; ok {
			return fmt.Errorf("history block shared by vertex %d and vertex %d (-1: recycled)", prev, v)
		}
		owner[p] = v
		return nil
	}
	for c, free := range t.histFree {
		for _, b := range free {
			if len(b) != 0 || cap(b) != histMinRounds<<c {
				return fmt.Errorf("recycled history block len %d cap %d in class %d", len(b), cap(b), c)
			}
			if err := claim(b, nilVert); err != nil {
				return err
			}
		}
	}
	for v := int32(0); v < n; v++ {
		h := t.verts[v].hist
		// A whole block, more than a quarter full unless it is of the
		// smallest class: waves grow it when full and shrink it at a
		// quarter, so it holds at most 4× the vertex's live rounds.
		if c := histClass(cap(h)); cap(h) != histMinRounds<<c || (c > 0 && 4*len(h) <= cap(h)) {
			return fmt.Errorf("vertex %d: %d history rounds in a block of %d", v, len(h), cap(h))
		}
		if err := claim(h, v); err != nil {
			return err
		}
	}
	for v := int32(0); v < n; v++ {
		vr := &t.verts[v]
		if vr.death < 0 {
			return fmt.Errorf("vertex %d has pending death (wave did not converge)", v)
		}
		if int32(len(vr.hist)) != vr.death+1 {
			return fmt.Errorf("vertex %d: hist len %d != death %d + 1", v, len(vr.hist), vr.death)
		}
		// Each round: edges alive, symmetric, v an endpoint, decision Live
		// before death and the stored decision at death.
		for r := int32(0); r <= vr.death; r++ {
			h := vr.hist[r]
			if h.deg < 0 || h.deg > 3 {
				return fmt.Errorf("vertex %d round %d: degree %d", v, r, h.deg)
			}
			seen := map[int32]bool{}
			for i := int8(0); i < h.deg; i++ {
				s := h.e[i]
				if seen[s] {
					return fmt.Errorf("vertex %d round %d: duplicate edge slot %d", v, r, s)
				}
				seen[s] = true
				er := &t.edges[s]
				if !er.live {
					return fmt.Errorf("vertex %d round %d: dead edge slot %d", v, r, s)
				}
				if er.u != v && er.v != v {
					return fmt.Errorf("vertex %d round %d: edge %d does not touch it", v, r, s)
				}
				u := er.other(v)
				if h.nb[i] != u {
					return fmt.Errorf("vertex %d round %d: cached neighbour %d != endpoint %d of edge %d", v, r, h.nb[i], u, s)
				}
				if !t.aliveAt(u, r) {
					return fmt.Errorf("vertex %d round %d: neighbour %d not alive", v, r, u)
				}
				if !t.verts[u].hist[r].has(s) {
					return fmt.Errorf("vertex %d round %d: edge %d not symmetric at %d", v, r, s, u)
				}
				if er.birth > r {
					return fmt.Errorf("vertex %d round %d: edge %d born later (%d)", v, r, s, er.birth)
				}
			}
			dec, tgt := t.decide(v, r)
			if r < vr.death {
				if dec != Live {
					return fmt.Errorf("vertex %d round %d: decide says %v before death round %d", v, r, dec, vr.death)
				}
			} else {
				if dec == Live {
					return fmt.Errorf("vertex %d death round %d: decide says live", v, r)
				}
				if dec != vr.decision {
					return fmt.Errorf("vertex %d: stored decision %v != recomputed %v", v, vr.decision, dec)
				}
				if dec == Rake && tgt != vr.target {
					return fmt.Errorf("vertex %d: stored target %d != recomputed %d", v, vr.target, tgt)
				}
			}
		}
		// Death-record side effects.
		h := vr.hist[vr.death]
		switch vr.decision {
		case Rake:
			if h.deg != 1 {
				return fmt.Errorf("vertex %d: rake with degree %d", v, h.deg)
			}
			if vr.parentC != vr.target {
				return fmt.Errorf("vertex %d: rake parentC %d != target %d", v, vr.parentC, vr.target)
			}
			if vr.boundary != [2]int32{vr.target, nilVert} {
				return fmt.Errorf("vertex %d: rake boundary %v", v, vr.boundary)
			}
			consumedBy(consumed, h.e[0], v)
			rakedRef[vr.target] = append(rakedRef[vr.target], v)
		case Compress:
			if h.deg != 2 {
				return fmt.Errorf("vertex %d: compress with degree %d", v, h.deg)
			}
			ce := vr.compEdge
			if ce == nilEdge || !t.edges[ce].live || t.edges[ce].owner != v {
				return fmt.Errorf("vertex %d: compress edge %d invalid", v, ce)
			}
			a, b := t.edges[h.e[0]].other(v), t.edges[h.e[1]].other(v)
			if vr.boundary != [2]int32{a, b} && vr.boundary != [2]int32{b, a} {
				return fmt.Errorf("vertex %d: compress boundary %v vs (%d,%d)", v, vr.boundary, a, b)
			}
			// Compressions are independent: the replacement edge joins two
			// vertices that outlive the round.
			if !t.aliveAt(a, vr.death+1) || !t.aliveAt(b, vr.death+1) {
				return fmt.Errorf("vertex %d compresses at round %d beside a neighbour that dies in it", v, vr.death)
			}
			er := &t.edges[ce]
			if !(er.u == a && er.v == b) && !(er.u == b && er.v == a) {
				return fmt.Errorf("vertex %d: compress edge endpoints (%d,%d) vs (%d,%d)", v, er.u, er.v, a, b)
			}
			wantKey := wgraph.MaxKeyOf(t.edges[h.e[0]].key, t.edges[h.e[1]].key)
			if er.key != wantKey {
				return fmt.Errorf("vertex %d: compress key %v want %v", v, er.key, wantKey)
			}
			if er.birth != vr.death+1 {
				return fmt.Errorf("vertex %d: compress edge birth %d want %d", v, er.birth, vr.death+1)
			}
			consumedBy(consumed, h.e[0], v)
			consumedBy(consumed, h.e[1], v)
		case Finalize:
			if h.deg != 0 {
				return fmt.Errorf("vertex %d: finalize with degree %d", v, h.deg)
			}
			if vr.parentC != nilVert {
				return fmt.Errorf("vertex %d: finalize with parentC %d", v, vr.parentC)
			}
			roots++
		default:
			return fmt.Errorf("vertex %d: decision %v", v, vr.decision)
		}
	}
	if roots != t.roots {
		return fmt.Errorf("root count %d != stored %d", roots, t.roots)
	}
	// Consumption: every live edge is consumed exactly once, with matching
	// parent pointers; compress owners' parentC is the consumer.
	for s := range liveEdges {
		er := &t.edges[s]
		c, ok := consumed[s]
		if !ok {
			return fmt.Errorf("edge %d never consumed", s)
		}
		if er.parent != c {
			return fmt.Errorf("edge %d: parent %d != consumer %d", s, er.parent, c)
		}
		if er.kind == kindCompress {
			if t.verts[er.owner].parentC != c {
				return fmt.Errorf("compress owner %d: parentC %d != consumer %d", er.owner, t.verts[er.owner].parentC, c)
			}
			if t.verts[er.owner].compEdge != int32(s) {
				return fmt.Errorf("compress edge %d not registered at owner %d", s, er.owner)
			}
		}
	}
	// rakedIn lists match the rake records and stay sorted.
	for v := int32(0); v < n; v++ {
		want := rakedRef[v]
		got := t.verts[v].rakedIn
		if len(want) != len(got) {
			return fmt.Errorf("vertex %d: rakedIn %v want %v", v, got, want)
		}
		for i := range got {
			if i > 0 && got[i-1] >= got[i] {
				return fmt.Errorf("vertex %d: rakedIn not sorted: %v", v, got)
			}
		}
		wm := map[int32]bool{}
		for _, x := range want {
			wm[x] = true
		}
		for _, x := range got {
			if !wm[x] {
				return fmt.Errorf("vertex %d: rakedIn has stray %d", v, x)
			}
		}
	}
	// Compress edges must be consumed strictly after birth; dead edges must
	// not appear in any hist (checked above via live flags).
	for s := range liveEdges {
		er := &t.edges[s]
		if er.kind != kindCompress {
			continue
		}
		cons := er.parent
		if t.verts[cons].death < er.birth {
			return fmt.Errorf("compress edge %d consumed at round %d before birth %d", s, t.verts[cons].death, er.birth)
		}
	}
	return nil
}

func consumedBy(consumed map[int32]int32, s, v int32) {
	consumed[s] = v
}
