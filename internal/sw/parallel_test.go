package sw

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/wgraph"
)

// allLevels is the all-levels reference for ApproxMSF: every one of the R
// eager levels kept at all times and fed sequentially, each level a fresh
// filtered sub-slice of the batch in input order. It is what the lazy,
// fork-joined, bucket-routed structure is pinned against: recency weights
// make every level's MSF unique, so the two must agree bit-for-bit. It
// also keeps every arrival's weight, so tests can count occupied buckets
// without asking the structure under test.
type allLevels struct {
	n       int
	eps     float64
	maxW    int64
	thresh  []int64
	inst    []*KCert
	weights []int64 // every arrival's weight; the live ones are weights[tw:]
	tau, tw int64
}

func newAllLevels(n int, eps float64, maxW int64, seed uint64) *allLevels {
	r := &allLevels{n: n, eps: eps, maxW: maxW}
	for x := 1.0; ; x *= 1 + eps {
		t := int64(math.Floor(x))
		r.thresh = append(r.thresh, t)
		r.inst = append(r.inst, NewConnEager(n, seed+uint64(len(r.inst))*0x2545F491+3))
		if t >= maxW {
			break
		}
	}
	return r
}

func (r *allLevels) BatchInsert(edges []WeightedStreamEdge) {
	if len(edges) == 0 {
		return
	}
	for _, e := range edges {
		if e.W < 1 || e.W > r.maxW {
			panic("bad weight in reference")
		}
		r.weights = append(r.weights, e.W)
	}
	base := r.tau
	r.tau += int64(len(edges))
	for i, inst := range r.inst {
		var sub []StreamEdge
		var subTau []int64
		for j, e := range edges {
			if e.W <= r.thresh[i] {
				sub = append(sub, StreamEdge{U: e.U, V: e.V})
				subTau = append(subTau, base+int64(j)+1)
			}
		}
		inst.guard.enter()
		inst.batchInsertAt(sub, subTau)
		inst.guard.exit()
	}
}

func (r *allLevels) BatchExpire(delta int) {
	if delta <= 0 {
		return
	}
	r.tw += int64(delta)
	if r.tw > r.tau {
		r.tw = r.tau
	}
	for _, inst := range r.inst {
		inst.guard.enter()
		inst.expireTo(r.tw)
		inst.guard.exit()
	}
}

func (r *allLevels) Weight() float64 {
	w := float64(r.n - r.inst[0].NumComponents())
	scale := 1.0
	for i := 1; i < len(r.inst); i++ {
		scale *= 1 + r.eps
		w += float64(r.inst[i-1].NumComponents()-r.inst[i].NumComponents()) * scale
	}
	return w
}

func (r *allLevels) NumComponents() int { return r.inst[len(r.inst)-1].NumComponents() }

// occupied counts the buckets (first-admitting levels) of the live
// arrivals.
func (r *allLevels) occupied() int {
	seen := make(map[int]bool)
	for _, w := range r.weights[r.tw:] {
		i := 0
		for r.thresh[i] < w {
			i++
		}
		seen[i] = true
	}
	return len(seen)
}

func levelForest(c *KCert) []wgraph.Edge {
	var out []wgraph.Edge
	if c == nil {
		return out
	}
	c.ForestEdges(func(e wgraph.Edge) bool {
		out = append(out, e)
		return true
	})
	return out
}

// resolvedLevel is the structure that answers for level i: the nearest
// materialised level at or below it, or nil for an empty graph.
func resolvedLevel(a *ApproxMSF, i int) *KCert {
	for ; i >= 0; i-- {
		if a.inst[i] != nil {
			return a.inst[i]
		}
	}
	return nil
}

// requireIdentical pins a against the all-levels reference: bit-identical
// Weight, equal NumComponents, equal resolved per-level forests, and
// exactly the occupied buckets materialised.
func requireIdentical(t *testing.T, step int, a *ApproxMSF, ref *allLevels) {
	t.Helper()
	if aw, rw := a.Weight(), ref.Weight(); math.Float64bits(aw) != math.Float64bits(rw) {
		t.Fatalf("step %d: Weight %v != %v (all levels)", step, aw, rw)
	}
	if ac, rc := a.NumComponents(), ref.NumComponents(); ac != rc {
		t.Fatalf("step %d: NumComponents %d != %d (all levels)", step, ac, rc)
	}
	if a.Levels() != len(ref.inst) {
		t.Fatalf("step %d: Levels %d != %d", step, a.Levels(), len(ref.inst))
	}
	if got, want := a.LiveLevels(), ref.occupied(); got != want {
		t.Fatalf("step %d: LiveLevels %d, want %d occupied buckets", step, got, want)
	}
	for i := range ref.inst {
		af, rf := levelForest(resolvedLevel(a, i)), levelForest(ref.inst[i])
		if len(af) != len(rf) {
			t.Fatalf("step %d level %d: forest sizes %d != %d", step, i, len(af), len(rf))
		}
		for j := range af {
			if af[j] != rf[j] {
				t.Fatalf("step %d level %d edge %d: %+v != %+v", step, i, j, af[j], rf[j])
			}
		}
	}
}

// TestApproxMSFParallelMatchesSequential pins the fork-join, bucket-routed
// apply bit-identically to the sequential all-levels reference across
// randomized insert/expire schedules and seeds (run under -race in CI: the
// small worker budget forces real cross-goroutine level application).
func TestApproxMSFParallelMatchesSequential(t *testing.T) {
	const (
		n    = 48
		eps  = 0.3
		maxW = int64(1 << 10)
	)
	for _, seed := range []uint64{1, 0xC0FFEE, 0x5EED5EED} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			par := NewApproxMSF(n, eps, maxW, seed)
			par.SetWorkers(parallel.NewLimiter(3))
			ref := newAllLevels(n, eps, maxW, seed)
			r := rand.New(rand.NewSource(int64(seed)))
			live := 0
			for step := 0; step < 60; step++ {
				if live > 0 && r.Intn(4) == 0 {
					delta := 1 + r.Intn(live)
					par.BatchExpire(delta)
					ref.BatchExpire(delta)
					live -= delta
				} else {
					b := r.Intn(40) // occasionally zero: empty batches must be no-ops
					batch := make([]WeightedStreamEdge, b)
					for j := range batch {
						batch[j] = WeightedStreamEdge{
							U: int32(r.Intn(n)),
							V: int32(r.Intn(n)),
							W: 1 + r.Int63n(maxW),
						}
					}
					par.BatchInsert(batch)
					ref.BatchInsert(batch)
					live += b
				}
				requireIdentical(t, step, par, ref)
			}
		})
	}
}

// TestApproxMSFValidationAtomic is the regression test for the mid-batch
// validation bug: a batch with an out-of-range weight must panic before ANY
// state moves — previously τ was advanced edge-by-edge during validation,
// leaving the clock ahead with nothing inserted.
func TestApproxMSFValidationAtomic(t *testing.T) {
	a := NewApproxMSF(16, 0.5, 100, 7)
	good := []WeightedStreamEdge{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 50}}
	a.BatchInsert(good)
	tau, tw, w, cc := a.tau, a.tw, a.Weight(), a.NumComponents()

	bad := []WeightedStreamEdge{{U: 2, V: 3, W: 7}, {U: 3, V: 4, W: 101}, {U: 4, V: 5, W: 9}}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range weight did not panic")
			}
		}()
		a.BatchInsert(bad)
	}()

	if a.tau != tau || a.tw != tw {
		t.Fatalf("rejected batch moved the clocks: tau %d->%d, tw %d->%d", tau, a.tau, tw, a.tw)
	}
	if a.Weight() != w || a.NumComponents() != cc {
		t.Fatalf("rejected batch changed state: weight %v->%v, components %d->%d",
			w, a.Weight(), cc, a.NumComponents())
	}

	// The structure must remain usable and track a clean twin thereafter.
	twin := newAllLevels(16, 0.5, 100, 7)
	twin.BatchInsert(good)
	more := []WeightedStreamEdge{{U: 2, V: 3, W: 7}, {U: 4, V: 5, W: 9}}
	a.BatchInsert(more)
	twin.BatchInsert(more)
	requireIdentical(t, 0, a, twin)
}

// TestEmptyBatchesAllocateNothing covers the empty-input early returns of
// every batch entry point in the package.
func TestEmptyBatchesAllocateNothing(t *testing.T) {
	conn := NewConn(8, 1)
	eager := NewConnEager(8, 2)
	kc := NewKCert(8, 2, 3)
	bip := NewBipartite(8, 4)
	amsf := NewApproxMSF(8, 0.5, 64, 5)
	if allocs := testing.AllocsPerRun(50, func() {
		conn.BatchInsert(nil)
		eager.BatchInsert(nil)
		kc.BatchInsert(nil)
		bip.BatchInsert(nil)
		amsf.BatchInsert(nil)
		conn.BatchInsert([]StreamEdge{})
		amsf.BatchExpire(0)
	}); allocs != 0 {
		t.Fatalf("empty batches allocated %v times per run", allocs)
	}
}

// TestApproxMSFSteadyStateRoutingReuse checks that the level-routing scratch
// is actually reused: after a warm-up batch, routing a same-sized batch must
// not grow the scratch buffers.
func TestApproxMSFSteadyStateRoutingReuse(t *testing.T) {
	a := NewApproxMSF(32, 0.5, 1<<10, 9)
	a.SetWorkers(parallel.NewLimiter(0)) // keep goroutine machinery out of the measurement
	r := rand.New(rand.NewSource(42))
	mk := func(b int) []WeightedStreamEdge {
		batch := make([]WeightedStreamEdge, b)
		for j := range batch {
			batch[j] = WeightedStreamEdge{
				U: int32(r.Intn(32)), V: int32(r.Intn(32)), W: 1 + r.Int63n(1<<10),
			}
		}
		return batch
	}
	a.BatchInsert(mk(256)) // warm up scratch
	capSorted, capTaus, capLvls := cap(a.sorted), cap(a.sortedTaus), cap(a.lvls)
	for i := 0; i < 8; i++ {
		a.BatchInsert(mk(256))
	}
	if cap(a.sorted) != capSorted || cap(a.sortedTaus) != capTaus || cap(a.lvls) != capLvls {
		t.Fatalf("routing scratch reallocated at steady state: sorted %d->%d taus %d->%d lvls %d->%d",
			capSorted, cap(a.sorted), capTaus, cap(a.sortedTaus), capLvls, cap(a.lvls))
	}
}
