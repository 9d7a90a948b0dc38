// Package fifo provides a first-in first-out queue over a circular buffer.
package fifo

// Ring is a FIFO queue over a circular buffer. The buffer grows by doubling
// when a push finds it full, so it holds at most twice the queue's peak
// length. A ring with a limit grows to at most limit slots: a push onto a
// full ring at its limit drops the oldest entry, so the ring keeps the last
// limit pushes. The zero value is an empty ring with no limit.
type Ring[T any] struct {
	buf   []T
	head  int // index of the oldest entry
	size  int
	limit int // most slots the buffer grows to; 0 for no limit
}

// minSlots is the buffer a first push allocates, below any limit.
const minSlots = 64

// WithLimit returns an empty ring that grows to at most limit slots
// (limit <= 0: no limit).
func WithLimit[T any](limit int) Ring[T] { return Ring[T]{limit: max(limit, 0)} }

// Len returns the number of entries.
func (r *Ring[T]) Len() int { return r.size }

// Cap returns the number of slots the buffer holds.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Push appends xs, newest last. At its limit, each push onto a full ring
// first drops the oldest entry.
func (r *Ring[T]) Push(xs ...T) {
	for _, x := range xs {
		if r.size == len(r.buf) {
			if r.limit > 0 && len(r.buf) == r.limit {
				r.Discard(1)
			} else {
				r.grow()
			}
		}
		i := r.head + r.size
		if i >= len(r.buf) {
			i -= len(r.buf)
		}
		r.buf[i] = x
		r.size++
	}
}

// grow doubles the buffer, up to the limit, oldest entry first.
func (r *Ring[T]) grow() {
	k := max(minSlots, 2*len(r.buf))
	if r.limit > 0 {
		k = min(k, r.limit)
	}
	grown := make([]T, k)
	older, newer := r.Slices()
	copy(grown[copy(grown, older):], newer)
	r.buf, r.head = grown, 0
}

// Pop removes and returns the oldest entry. The ring must not be empty.
func (r *Ring[T]) Pop() T {
	x := r.buf[r.head]
	r.Discard(1)
	return x
}

// At returns the i-th oldest entry, 0 <= i < Len().
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.size {
		panic("fifo: index out of range")
	}
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return r.buf[i]
}

// Discard removes the k oldest entries, 0 <= k <= Len(). Their slots keep
// their values until a push reuses them.
func (r *Ring[T]) Discard(k int) {
	if k < 0 || k > r.size {
		panic("fifo: discarding more entries than the ring holds")
	}
	r.size -= k
	if r.size == 0 {
		r.head = 0
		return
	}
	r.head += k
	if r.head >= len(r.buf) {
		r.head -= len(r.buf)
	}
}

// Slices returns the entries, oldest first, as two slices of the buffer:
// older holds the oldest entries and newer the rest. Both alias the ring
// and stay valid only until its next Push.
func (r *Ring[T]) Slices() (older, newer []T) {
	if end := r.head + r.size; end <= len(r.buf) {
		return r.buf[r.head:end], nil
	}
	return r.buf[r.head:], r.buf[:r.head+r.size-len(r.buf)]
}
