package stream

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/parallel"
)

// TestLevelsParallelMatchesSequential is the intra-monitor differential:
// two identically-seeded windows — one fork-joining the msfweight
// connectivity levels with a real worker budget, one forced to sequential
// level application (an empty budget set on its structure, as
// BenchmarkApproxMSFLevels does) — must answer every query
// identically at every point of a randomized weighted insert/expire
// schedule. Recency weights make each level's forest canonical in the
// arrival sequence, so any divergence means the level fan-out leaked state
// (prefix routing wrong, shared scratch raced, τ assignment reordered).
// CI runs this under -race, which additionally checks the level fork-join
// region for data races between levels.
func TestLevelsParallelMatchesSequential(t *testing.T) {
	const (
		n      = 120
		window = 400
		rounds = 60
	)
	base := WindowConfig{
		N:           n,
		Seed:        177,
		MaxArrivals: window,
		MaxAge:      time.Minute,
		Monitor:     MonitorConfig{Eps: 0.25, MaxWeight: 1 << 10, K: 3},
	}
	fc := NewFakeClock(time.Unix(0, 0))
	parCfg, seqCfg := base, base
	parCfg.Clock, seqCfg.Clock = fc, fc
	par, err := NewWindowManager(parCfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewWindowManager(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	levels := func(w *WindowManager) *msfWeightMonitor {
		return w.mux.byName[MonitorMSFWeight].mon.(*msfWeightMonitor)
	}
	levels(par).a.SetWorkers(parallel.NewLimiter(3)) // caller + 3 aux: real cross-goroutine level application
	levels(seq).a.SetWorkers(parallel.NewLimiter(0))

	r := rand.New(rand.NewSource(31))
	for round := 0; round < rounds; round++ {
		batch := randomEdges(r, n, 1+r.Intn(80))
		now := fc.Now()
		for i := range batch {
			batch[i].T = now
			batch[i].W = 1 + r.Int63n(1<<10)
		}
		batchCopy := make([]Edge, len(batch))
		copy(batchCopy, batch)
		par.Apply(batch)
		seq.Apply(batchCopy)

		fc.Advance(time.Duration(r.Intn(20)) * time.Second)
		if r.Intn(3) == 0 {
			nExp := par.ExpireByAge(fc.Now())
			if got := seq.ExpireByAge(fc.Now()); got != nExp {
				t.Fatalf("round %d: expiry diverged: parallel %d, sequential %d", round, nExp, got)
			}
		}

		a, e1 := par.MSFWeight()
		b, e2 := seq.MSFWeight()
		if e1 != nil || e2 != nil {
			t.Fatalf("round %d: msfweight errored: %v / %v", round, e1, e2)
		}
		if a != b {
			t.Fatalf("round %d: msfweight = %v (parallel levels) vs %v (sequential levels)", round, a, b)
		}
		ca, e1 := par.NumComponents()
		cb, e2 := seq.NumComponents()
		if e1 != nil || e2 != nil {
			t.Fatalf("round %d: components errored: %v / %v", round, e1, e2)
		}
		if ca != cb {
			t.Fatalf("round %d: components = %d vs %d", round, ca, cb)
		}
	}
}
