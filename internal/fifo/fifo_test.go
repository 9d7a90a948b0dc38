package fifo

import (
	"math/rand"
	"slices"
	"testing"
)

// contents returns the ring's entries oldest first, through Slices.
func contents(r *Ring[int]) []int {
	older, newer := r.Slices()
	return append(slices.Clone(older), newer...)
}

// TestRingMatchesSlice drives rings with and without a limit through
// random pushes, pops and discards, and checks them against a plain slice
// after every step: order, At, Slices and, for a limited ring, that it
// keeps the last limit pushes in at most limit slots.
func TestRingMatchesSlice(t *testing.T) {
	for _, limit := range []int{0, 1, 5, 64, 100, 300} {
		r := WithLimit[int](limit)
		var want []int
		rng := rand.New(rand.NewSource(int64(limit)))
		next := 0
		for step := range 3000 {
			switch op := rng.Intn(4); {
			case op < 2:
				k := rng.Intn(70)
				xs := make([]int, k)
				for i := range xs {
					xs[i] = next
					next++
				}
				r.Push(xs...)
				want = append(want, xs...)
				if limit > 0 && len(want) > limit {
					want = want[len(want)-limit:]
				}
			case op == 2 && len(want) > 0:
				if got := r.Pop(); got != want[0] {
					t.Fatalf("limit %d, step %d: Pop = %d, want %d", limit, step, got, want[0])
				}
				want = want[1:]
			default:
				k := rng.Intn(len(want) + 1)
				r.Discard(k)
				want = want[k:]
			}
			if got := contents(&r); !slices.Equal(got, want) || r.Len() != len(want) {
				t.Fatalf("limit %d, step %d: ring holds %v (Len %d), want %v", limit, step, got, r.Len(), want)
			}
			if len(want) > 0 {
				i := rng.Intn(len(want))
				if got := r.At(i); got != want[i] {
					t.Fatalf("limit %d, step %d: At(%d) = %d, want %d", limit, step, i, got, want[i])
				}
			}
			if limit > 0 && r.Cap() > limit {
				t.Fatalf("limit %d, step %d: %d slots", limit, step, r.Cap())
			}
		}
	}
}

// TestRingGrowsToPeak pins the buffer to the queue's peak: doubling from
// 64 slots, so an unlimited ring holds less than twice its peak length,
// and a limited one exactly its limit once that many entries have passed.
func TestRingGrowsToPeak(t *testing.T) {
	var r Ring[int]
	for i := range 1000 {
		r.Push(i)
		if r.Len() > 300 {
			r.Pop()
		}
	}
	if r.Cap() != 512 {
		t.Fatalf("unlimited ring with peak 301 holds %d slots, want 512", r.Cap())
	}
	lim := WithLimit[int](1000)
	for i := range 3000 {
		lim.Push(i)
	}
	if lim.Cap() != 1000 || lim.Len() != 1000 || lim.At(0) != 2000 {
		t.Fatalf("limited ring: %d slots, %d entries, oldest %d; want 1000, 1000, 2000", lim.Cap(), lim.Len(), lim.At(0))
	}
}
