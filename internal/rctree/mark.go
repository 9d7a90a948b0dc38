package rctree

// Marking is the result of the bottom-up marking phase of the compressed
// path tree algorithm (Section 3): every RC-tree cluster containing a marked
// vertex is stamped, and the root clusters of marked components are
// collected. A tree keeps one Marking and reuses it, so a Marking is valid
// until the next NewMarking or BatchUpdate on the same tree.
type Marking struct {
	t     *Tree
	epoch uint64
	roots []int32
}

// NewMarking marks the given vertices and propagates the marks up the RC
// tree. Cost O(l·lg(1+n/l)) expected for l marked vertices (Lemma 3.3).
func (t *Tree) NewMarking(marked []int32) *Marking {
	t.markEpoch++
	m := &t.marking
	m.t, m.epoch, m.roots = t, t.markEpoch, m.roots[:0]
	for _, u := range marked {
		if t.vertMark[u] == m.epoch {
			continue
		}
		t.vertMark[u] = m.epoch
		x := u
		for {
			if t.clustMark[x] == m.epoch {
				break
			}
			t.clustMark[x] = m.epoch
			p := t.verts[x].parentC
			if p == nilVert {
				m.roots = append(m.roots, x)
				break
			}
			x = p
		}
	}
	return m
}

// VertexMarked reports whether vertex u was in the marked set.
func (m *Marking) VertexMarked(u int32) bool {
	return m.t.vertMark[u] == m.epoch
}

// ClusterMarked reports whether the composite cluster C(x) contains a marked
// vertex.
func (m *Marking) ClusterMarked(x int32) bool {
	return m.t.clustMark[x] == m.epoch
}

// Roots returns the representatives of the root clusters of every component
// containing at least one marked vertex.
func (m *Marking) Roots() []int32 { return m.roots }
