package stream

import (
	"math/rand"
	"testing"
	"time"
)

// TestFanoutParallelMatchesSequential is the fan-out equivalence
// differential: two windows with identical configuration and seed — one
// applying batches to its monitors in parallel, one sequentially — must
// give identical answers to every query at every point of a randomized
// insert/expire schedule. The monitors are independent structures seeded
// identically, so any divergence means the parallel region leaked state
// (shared batch slice mutated, fan-out reordered against expiry, ...).
// CI runs this under -race, which additionally checks the fan-out region
// for data races between monitors.
func TestFanoutParallelMatchesSequential(t *testing.T) {
	const (
		n      = 120
		window = 400
		rounds = 60
	)
	base := WindowConfig{
		N:           n,
		Seed:        77,
		MaxArrivals: window,
		MaxAge:      time.Minute,
		Monitor:     MonitorConfig{Eps: 0.25, MaxWeight: 1 << 10, K: 3},
	}
	// Both windows share one fake clock so time-based expiry sees the
	// identical schedule.
	fc := NewFakeClock(time.Unix(0, 0))
	base.Clock = fc
	par, err := NewWindowManager(base)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewWindowManager(base)
	if err != nil {
		t.Fatal(err)
	}
	seq.mux.sequential = true

	r := rand.New(rand.NewSource(13))
	for round := 0; round < rounds; round++ {
		// Random batch, occasionally laced with invalid edges (dropped by
		// both windows identically).
		batch := randomEdges(r, n, 1+r.Intn(80))
		if r.Intn(4) == 0 {
			batch = append(batch, Edge{U: 5, V: 5}, Edge{U: -1, V: 2}, Edge{U: 0, V: int32(n) + 3})
		}
		now := fc.Now()
		for i := range batch {
			batch[i].T = now
		}
		// Apply compacts the batch in place; give each window its own copy.
		batchCopy := make([]Edge, len(batch))
		copy(batchCopy, batch)
		par.Apply(batch)
		seq.Apply(batchCopy)

		// Random time advance; sometimes far enough to trigger age expiry.
		fc.Advance(time.Duration(r.Intn(20)) * time.Second)
		if r.Intn(3) == 0 {
			nExp := par.ExpireByAge(fc.Now())
			if got := seq.ExpireByAge(fc.Now()); got != nExp {
				t.Fatalf("round %d: expiry diverged: parallel %d, sequential %d", round, nExp, got)
			}
		}

		if a, b := par.WindowLen(), seq.WindowLen(); a != b {
			t.Fatalf("round %d: window len %d vs %d", round, a, b)
		}
		if sa, sb := par.Stats(), seq.Stats(); sa != sb {
			t.Fatalf("round %d: stats diverged: %+v vs %+v", round, sa, sb)
		}
		cmp := func(what string, a, b any, err1, err2 error) {
			if err1 != nil || err2 != nil {
				t.Fatalf("round %d: %s errored: %v / %v", round, what, err1, err2)
			}
			if a != b {
				t.Fatalf("round %d: %s = %v (parallel) vs %v (sequential)", round, what, a, b)
			}
		}
		{
			a, e1 := par.NumComponents()
			b, e2 := seq.NumComponents()
			cmp("components", a, b, e1, e2)
		}
		{
			a, e1 := par.IsBipartite()
			b, e2 := seq.IsBipartite()
			cmp("bipartite", a, b, e1, e2)
		}
		{
			a, e1 := par.MSFWeight()
			b, e2 := seq.MSFWeight()
			cmp("msfweight", a, b, e1, e2)
		}
		{
			a, e1 := par.HasCycle()
			b, e2 := seq.HasCycle()
			cmp("cycle", a, b, e1, e2)
		}
		{
			a, ac, e1 := par.KCertInfo()
			b, bc, e2 := seq.KCertInfo()
			cmp("certsize", a, b, e1, e2)
			cmp("edge connectivity", ac, bc, e1, e2)
		}
		for trial := 0; trial < 10; trial++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			a, e1 := par.IsConnected(u, v)
			b, e2 := seq.IsConnected(u, v)
			cmp("connected", a, b, e1, e2)
		}
	}
}
