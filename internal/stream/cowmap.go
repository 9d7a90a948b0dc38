package stream

import (
	"maps"
	"sync/atomic"
)

// cowMap is a name-keyed table published copy-on-write: Load returns the
// current map without a lock, Put and Clear store a new one, and a stored
// map is never modified, so Load's callers must not modify it either.
// Writers serialize among themselves (each table's owner holds its own
// mutex). The zero value is an empty table.
type cowMap[T any] struct{ p atomic.Pointer[map[string]*T] }

// Load returns the current table.
func (c *cowMap[T]) Load() map[string]*T {
	if m := c.p.Load(); m != nil {
		return *m
	}
	return nil
}

// Put stores a copy of the table with name bound to v, or without name
// when v is nil.
func (c *cowMap[T]) Put(name string, v *T) {
	m := maps.Clone(c.Load())
	if m == nil {
		m = make(map[string]*T)
	}
	if v == nil {
		delete(m, name)
	} else {
		m[name] = v
	}
	c.p.Store(&m)
}

// Clear stores an empty table and returns the one it replaced.
func (c *cowMap[T]) Clear() map[string]*T {
	old := c.Load()
	c.p.Store(nil)
	return old
}
