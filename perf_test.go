package repro

import (
	"testing"

	"repro/internal/graphgen"
	"repro/internal/linkcut"
	"repro/internal/parallel"
	"repro/internal/sw"
	"repro/internal/wgraph"
)

// TestWaveLocality is a performance regression guard on the change
// propagation: at steady state (saturated forest with every insert causing
// a replace or a reject), the average affected-set work per single-edge
// insert must stay polylogarithmic. A transitive-closure style seeding bug
// once made this ~39,000 per insert; the healthy figure is well under 200
// at n=20,000.
func TestWaveLocality(t *testing.T) {
	const n = 20_000
	stream := graphgen.ErdosRenyi(n, 40_000, 1<<40, 0xC0FFEE)
	m := NewBatchMSF(n, 0xC0FFEE)
	// Saturate.
	m.BatchInsert(stream[:20_000])
	before := m.WaveWork()
	const probes = 10_000
	for i := 20_000; i < 20_000+probes; i++ {
		m.BatchInsert(stream[i : i+1])
	}
	avg := (m.WaveWork() - before) / probes
	t.Logf("average wave work per steady-state insert: %d", avg)
	if avg > 2_000 {
		t.Fatalf("change propagation is not local: %d affected vertex-rounds per insert", avg)
	}
}

// recencyReplay is the stream every sliding-window monitor runs its engine
// on: arrival τ is an edge with ID τ and weight −τ (as in sw.ConnEager),
// its endpoints distinct and uniform among n vertices, in batches of ℓ,
// under a count window of W arrivals. It follows the engine's forest so
// that expiry can be eager: after each batch, the forest edges that left
// the window are cut. Its bookkeeping costs O(ℓ) per step and its buffers
// are reused, so a step's time and allocations are the structure's own.
type recencyReplay struct {
	n, window int
	r         *parallel.RNG
	tau       int64
	batch     []wgraph.Edge
	plain     []StreamEdge
	// forest[head:] holds, in ascending τ, every edge that entered the
	// forest and has not yet left the window; gone marks those that were
	// evicted since. Evicted edges are skipped when they reach the front.
	forest, expired []wgraph.EdgeID
	head            int
	gone            map[wgraph.EdgeID]bool
	added, removed  []wgraph.Edge // link-cut's forest changes in one batch
}

func newRecencyReplay(n, window, l int, seed uint64) *recencyReplay {
	return &recencyReplay{
		n: n, window: window, r: parallel.NewRNG(seed),
		batch: make([]wgraph.Edge, l), plain: make([]StreamEdge, l),
		gone: map[wgraph.EdgeID]bool{},
	}
}

// next returns the next ℓ arrivals, in a buffer the next call reuses.
func (rp *recencyReplay) next() []wgraph.Edge {
	for i := range rp.batch {
		rp.tau++
		u, v := int32(rp.r.Intn(rp.n)), int32(rp.r.Intn(rp.n-1))
		if v >= u {
			v++
		}
		rp.batch[i] = wgraph.Edge{ID: wgraph.EdgeID(rp.tau), U: u, V: v, W: -rp.tau}
	}
	return rp.batch
}

// nextStream returns the next ℓ arrivals as sliding-window edges, for the
// monitors, which number arrivals themselves.
func (rp *recencyReplay) nextStream() []StreamEdge {
	for i, e := range rp.next() {
		rp.plain[i] = StreamEdge{U: e.U, V: e.V}
	}
	return rp.plain
}

// settle records one batch's forest changes and returns the forest edges
// that have left the window, oldest first, in a buffer the next call
// reuses. An edge both added and removed within the batch never expires.
func (rp *recencyReplay) settle(added, removed []wgraph.Edge) []wgraph.EdgeID {
	for _, e := range removed {
		rp.gone[e.ID] = true
	}
	for _, e := range added {
		rp.forest = append(rp.forest, e.ID)
	}
	rp.expired = rp.expired[:0]
	for ; rp.head < len(rp.forest) && int64(rp.forest[rp.head]) <= rp.tau-int64(rp.window); rp.head++ {
		if id := rp.forest[rp.head]; rp.gone[id] {
			delete(rp.gone, id)
		} else {
			rp.expired = append(rp.expired, id)
		}
	}
	if rp.head > len(rp.forest)/2 {
		rp.forest = rp.forest[:copy(rp.forest, rp.forest[rp.head:])]
		rp.head = 0
	}
	return rp.expired
}

// stepEngine runs one step on the engine: a batch, then eager expiry.
func (rp *recencyReplay) stepEngine(m *BatchMSF) {
	added, removed, _ := m.BatchInsert(rp.next())
	m.BatchDelete(rp.settle(added, removed))
}

// stepLinkCut runs one step on the sequential link-cut baseline: the batch
// edge by edge, then eager expiry through Forest.Cut.
func (rp *recencyReplay) stepLinkCut(m *linkcut.IncrementalMSF) {
	rp.added, rp.removed = rp.added[:0], rp.removed[:0]
	for _, e := range rp.next() {
		in, evicted, ok := m.Insert(e)
		if in {
			rp.added = append(rp.added, e)
		}
		if ok {
			rp.removed = append(rp.removed, evicted)
		}
	}
	for _, id := range rp.settle(rp.added, rp.removed) {
		m.F.Cut(id)
	}
}

// TestWaveLocalityRecency guards the engine at the shape every sliding-window
// monitor runs: the recency replay at n = 500, W = 2000, ℓ = 32. It pins
// the rake-compress tree's size, its wave work per step (insert plus
// expiry) once the window is full, and its contraction depth: the live
// history rounds per tree vertex, Σ(death+1) ÷ vertices, after the last
// step. Fixed seeds make all three exact:
//
//	                    chain node per   compact gadgets,  compact gadgets,  node pool,
//	                    edge end, coins  coins             local maxima      local maxima  bound
//	rctree vertices          1498             614               614               614      1000
//	wave work per step       3840            2117              1210              1209      1600
//	rounds per vertex                        3.22              2.15              2.17      2.7
//
// A layout that gives every forest edge its own chain node at both ends
// holds n + 2m vertices; compact gadgets let a vertex anchor up to three
// forest edges itself (package ternary). The coin rule compresses a
// degree-2 vertex on heads beside two tails; the local-maximum rule
// compresses it when it outranks its degree-2 neighbours (package rctree).
// With the node pool a real vertex takes its rctree vertex on its first
// forest edge, so ids are assigned in order of first touch: the forest
// here touches all 500 vertices, and the counts moved only with the ids.
// The vertex bound fails with chain nodes; the other two fail with coins.
func TestWaveLocalityRecency(t *testing.T) {
	const n, window, l, steps = 500, 2000, 32, 400
	rp := newRecencyReplay(n, window, l, 0x5EED)
	m := NewBatchMSF(n, 0x5EED)
	for rp.tau < window {
		rp.stepEngine(m)
	}
	before := m.WaveWork()
	for range steps {
		rp.stepEngine(m)
	}
	perStep := (m.WaveWork() - before) / steps
	live, _ := m.HistoryRounds()
	depth := float64(live) / float64(m.TreeVertices())
	t.Logf("rctree vertices %d, wave work per step %d, rounds per vertex %.2f", m.TreeVertices(), perStep, depth)
	if got := m.TreeVertices(); got > 1000 {
		t.Errorf("rake-compress tree holds %d vertices for n = %d and %d forest edges", got, n, m.Size())
	}
	if perStep > 1600 {
		t.Errorf("wave work per recency step %d", perStep)
	}
	if depth > 2.7 {
		t.Errorf("a tree vertex lives %.2f contraction rounds", depth)
	}
}

// TestEngineHistoryFootprint pins the rake-compress tree's contraction
// histories to the rounds its vertices live, which keeps them within the
// O(n) space bound of batch-dynamic RC-trees. On the recency replay, the
// history rounds held (blocks in use plus recycled ones) must stay within
// 4× the live rounds, Σ(death+1). Keeping each vertex at the capacity of
// the deepest round it ever reached held 8.7× the live rounds at n = 500
// and 7.3× at n = 10000.
func TestEngineHistoryFootprint(t *testing.T) {
	for _, sh := range []struct{ n, window, l, steps int }{
		{500, 2000, 32, 1000}, {10_000, 20_000, 512, 200},
	} {
		rp := newRecencyReplay(sh.n, sh.window, sh.l, 0x5EED)
		m := NewBatchMSF(sh.n, 0x5EED)
		for range sh.steps {
			rp.stepEngine(m)
		}
		live, held := m.HistoryRounds()
		t.Logf("n = %d, ℓ = %d: %d history rounds held for %d live (%.2f×)",
			sh.n, sh.l, held, live, float64(held)/float64(live))
		if held > 4*live {
			t.Errorf("n = %d, ℓ = %d: %d history rounds held for %d live", sh.n, sh.l, held, live)
		}
	}
}

// TestEngineStepAllocs pins a steady-state engine step at zero allocations.
// Once the recency replay (n = 500, W = 2000, ℓ = 32) has run through some
// windows and every reused buffer has grown, one step — a batch plus eager
// expiry — allocates nothing in core.BatchMSF or in the monitors built on
// it. What still allocates is a new peak: more live forest edges than ever
// before, or more rctree history blocks of one size class in use at once
// (a vertex contracted deeper than before takes a recycled block). Peaks
// get rarer as the stream goes on: after 1000 warm-up steps they cost
// under a sixth of an allocation per step for each structure. msfweight's
// weights, 1 and 2, keep its two occupied buckets occupied, so the
// measured steps neither materialise nor retire a level (materialising
// builds a new engine, which allocates); its levels run sequentially.
func TestEngineStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, window, l, warm, runs = 500, 2000, 32, 1000, 100
	measure := func(name string, step func()) {
		t.Helper()
		for range warm {
			step()
		}
		if got := testing.AllocsPerRun(runs, step); got != 0 {
			t.Errorf("%s: %v allocs per step, want 0", name, got)
		}
	}
	rp := newRecencyReplay(n, window, l, 0x5EED)
	m := NewBatchMSF(n, 0x5EED)
	measure("core.BatchMSF", func() { rp.stepEngine(m) })

	slide := func(name string, insert func([]StreamEdge), expire func(int)) {
		t.Helper()
		rp := newRecencyReplay(n, window, l, 0x5EED)
		measure(name, func() {
			insert(rp.nextStream())
			if rp.tau > window {
				expire(l)
			}
		})
	}
	conn := NewSWConnEager(n, 1)
	slide("sw.ConnEager", conn.BatchInsert, conn.BatchExpire)
	cert := NewSWKCert(n, 2, 1)
	slide("sw.KCert", cert.BatchInsert, cert.BatchExpire)
	bip := NewSWBipartite(n, 1)
	slide("sw.Bipartite", bip.BatchInsert, bip.BatchExpire)
	cover := sw.NewDoubleCover(n, 1)
	slide("sw.DoubleCover", cover.BatchInsert, cover.BatchExpire)

	amsf := NewSWApproxMSF(n, 0.25, 1<<10, 1)
	amsf.SetWorkers(parallel.NewLimiter(0))
	wr := parallel.NewRNG(7)
	weighted := make([]WeightedStreamEdge, l)
	levels := -1
	slide("sw.ApproxMSF", func(batch []StreamEdge) {
		for i, e := range batch {
			weighted[i] = WeightedStreamEdge{U: e.U, V: e.V, W: 1 + int64(wr.Intn(2))}
		}
		amsf.BatchInsert(weighted)
	}, func(delta int) {
		amsf.BatchExpire(delta)
		if levels < 0 {
			levels = amsf.LiveLevels()
		} else if amsf.LiveLevels() != levels {
			t.Fatalf("msfweight kept levels moved %d -> %d: a bucket drained or filled", levels, amsf.LiveLevels())
		}
	})
}
