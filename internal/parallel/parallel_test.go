package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, 2048, 2049, 100_000} {
		hits := make([]int32, n)
		ForGrained(n, 2048, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, h)
			}
		}
	}
}

func TestForGrainedSmallGrain(t *testing.T) {
	n := 10_000
	var sum int64
	hits := make([]int32, n)
	ForGrained(n, 1, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
		sum += int64(h)
	}
	if sum != int64(n) {
		t.Fatalf("sum=%d want %d", sum, n)
	}
}

func TestBlockedForPartition(t *testing.T) {
	n := 12_345
	var total int64
	var calls int64
	BlockedFor(n, 100, func(lo, hi int) {
		if lo >= hi {
			t.Errorf("empty block [%d,%d)", lo, hi)
		}
		atomic.AddInt64(&total, int64(hi-lo))
		atomic.AddInt64(&calls, 1)
	})
	if total != int64(n) {
		t.Fatalf("covered %d of %d", total, n)
	}
	if calls > int64(8*Procs()+1) {
		t.Fatalf("too many blocks: %d", calls)
	}
}

func TestDoRunsAll(t *testing.T) {
	var a, b, c int32
	Do(
		func() { atomic.AddInt32(&a, 1) },
		func() { atomic.AddInt32(&b, 1) },
		func() { atomic.AddInt32(&c, 1) },
	)
	if a != 1 || b != 1 || c != 1 {
		t.Fatalf("a=%d b=%d c=%d", a, b, c)
	}
	Do() // must not hang
}

func TestSplitmixDeterministic(t *testing.T) {
	if Splitmix64(1) != Splitmix64(1) {
		t.Fatal("not deterministic")
	}
	if Splitmix64(1) == Splitmix64(2) {
		t.Fatal("suspicious collision")
	}
	if Hash2(1, 2) == Hash2(2, 1) {
		t.Fatal("Hash2 should not be symmetric")
	}
	if Hash3(1, 2, 3) == Hash3(3, 2, 1) {
		t.Fatal("Hash3 should not be symmetric")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10_000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		if v := r.Int63(); v < 0 {
			t.Fatalf("Int63 negative: %d", v)
		}
	}
}

func TestRNGCoinBalance(t *testing.T) {
	r := NewRNG(99)
	heads := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		if r.Next()&1 == 1 {
			heads++
		}
	}
	if heads < n*45/100 || heads > n*55/100 {
		t.Fatalf("biased coin: %d/%d heads", heads, n)
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}
