// Package ordset implements a join-based treap keyed by int64 — the
// parallel ordered-set ingredient (references [8, 9] of the paper) used by
// the sliding-window structures to hold forest edges ordered by arrival
// time. Priorities are a deterministic hash of the key, so the tree shape
// is a pure function of the key set (history independence), which keeps
// every test reproducible.
//
// The operation the sliding window leans on is SplitLeq: split off and
// return all entries with key <= watermark in O(lg n + output) time.
package ordset

import (
	"repro/internal/parallel"
	"repro/internal/wgraph"
)

type node struct {
	key         int64
	val         wgraph.Edge
	prio        uint64
	left, right *node
	size        int
}

func sz(n *node) int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *node) update() { n.size = 1 + sz(n.left) + sz(n.right) }

// Set is an ordered map from int64 keys to edges.
type Set struct {
	root *node
	salt uint64
	free *node         // removed nodes, linked through right, for reuse
	out  []wgraph.Edge // SplitLeq's result, reused
}

// New returns an empty set. salt perturbs the treap priorities.
func New(salt uint64) *Set { return &Set{salt: salt} }

// Len returns the number of entries.
func (s *Set) Len() int { return sz(s.root) }

func (s *Set) prio(key int64) uint64 {
	return parallel.Hash2(s.salt, uint64(key))
}

// split divides t into (< key) and (>= key).
func split(t *node, key int64) (l, r *node) {
	if t == nil {
		return nil, nil
	}
	if t.key < key {
		a, b := split(t.right, key)
		t.right = a
		t.update()
		return t, b
	}
	a, b := split(t.left, key)
	t.left = b
	t.update()
	return a, t
}

// join merges l and r; all keys of l must precede all keys of r.
func join(l, r *node) *node {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio >= r.prio:
		l.right = join(l.right, r)
		l.update()
		return l
	default:
		r.left = join(l, r.left)
		r.update()
		return r
	}
}

// Insert adds or replaces the entry for key.
func (s *Set) Insert(key int64, val wgraph.Edge) {
	l, r := split(s.root, key)
	eq, rest := split(r, key+1) // eq holds the single node with this key, if any
	if eq == nil {
		eq = s.alloc()
		*eq = node{key: key, val: val, prio: s.prio(key), size: 1}
	} else {
		eq.val = val
		eq.left, eq.right = nil, nil
		eq.update()
	}
	s.root = join(join(l, eq), rest)
}

// Delete removes the entry for key, reporting whether it existed.
func (s *Set) Delete(key int64) bool {
	l, r := split(s.root, key)
	eq, rest := split(r, key+1)
	s.root = join(l, rest)
	if eq == nil {
		return false
	}
	s.release(eq)
	return true
}

// alloc returns a node from the free list, or a new one.
func (s *Set) alloc() *node {
	t := s.free
	if t == nil {
		return new(node)
	}
	s.free = t.right
	return t
}

// release puts the single node t on the free list.
func (s *Set) release(t *node) {
	*t = node{right: s.free}
	s.free = t
}

// Get returns the value stored at key.
func (s *Set) Get(key int64) (wgraph.Edge, bool) {
	t := s.root
	for t != nil {
		switch {
		case key < t.key:
			t = t.left
		case key > t.key:
			t = t.right
		default:
			return t.val, true
		}
	}
	return wgraph.Edge{}, false
}

// Has reports whether key is present.
func (s *Set) Has(key int64) bool {
	_, ok := s.Get(key)
	return ok
}

// SplitLeq removes and returns (in ascending key order) every entry with
// key <= watermark. The result is a buffer the set reuses: it stays valid
// only until the set's next mutation.
func (s *Set) SplitLeq(watermark int64) []wgraph.Edge {
	l, r := split(s.root, watermark+1)
	s.root = r
	if l == nil {
		return nil
	}
	s.out = s.out[:0]
	s.drain(l)
	return s.out
}

// drain appends t's entries to s.out in key order and frees its nodes.
func (s *Set) drain(t *node) {
	if t == nil {
		return
	}
	s.drain(t.left)
	s.out = append(s.out, t.val)
	right := t.right
	s.release(t)
	s.drain(right)
}

// Min returns the smallest key.
func (s *Set) Min() (int64, wgraph.Edge, bool) {
	t := s.root
	if t == nil {
		return 0, wgraph.Edge{}, false
	}
	for t.left != nil {
		t = t.left
	}
	return t.key, t.val, true
}

// Max returns the largest key.
func (s *Set) Max() (int64, wgraph.Edge, bool) {
	t := s.root
	if t == nil {
		return 0, wgraph.Edge{}, false
	}
	for t.right != nil {
		t = t.right
	}
	return t.key, t.val, true
}

// ForEach visits entries in ascending key order until fn returns false.
func (s *Set) ForEach(fn func(key int64, val wgraph.Edge) bool) {
	var walk func(t *node) bool
	walk = func(t *node) bool {
		if t == nil {
			return true
		}
		return walk(t.left) && fn(t.key, t.val) && walk(t.right)
	}
	walk(s.root)
}

// Validate checks treap invariants (tests only).
func (s *Set) Validate() error {
	var check func(t *node, lo, hi int64) error
	check = func(t *node, lo, hi int64) error {
		if t == nil {
			return nil
		}
		if t.key <= lo || t.key >= hi {
			return errOrder
		}
		if t.left != nil && t.left.prio > t.prio {
			return errHeap
		}
		if t.right != nil && t.right.prio > t.prio {
			return errHeap
		}
		if t.size != 1+sz(t.left)+sz(t.right) {
			return errSize
		}
		if err := check(t.left, lo, t.key); err != nil {
			return err
		}
		return check(t.right, t.key, hi)
	}
	return check(s.root, -1<<63, 1<<63-1)
}

type setErr string

func (e setErr) Error() string { return string(e) }

const (
	errOrder = setErr("ordset: key order violated")
	errHeap  = setErr("ordset: heap order violated")
	errSize  = setErr("ordset: size augmentation wrong")
)
