// Benchmarks regenerating every row of Table 1 and both figures of the
// paper, plus the scaling-shape, crossover and ablation experiments indexed
// in DESIGN.md §4. EXPERIMENTS.md records the measured results against the
// paper's bounds. Run:
//
//	go test -bench=. -benchmem
//
// Conventions: every benchmark reports ns/edge (the work-per-update measure
// Table 1 bounds); batch-size sweeps expose the lg(1+n/l) shape; the
// link-cut baseline anchors work-efficiency comparisons.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/cpt"
	"repro/internal/graphgen"
	"repro/internal/linkcut"
	"repro/internal/msf"
	"repro/internal/rctree"
	"repro/internal/wgraph"
)

// kruskalRebuild is the recompute-from-scratch ablation baseline: the MSF of
// the previous forest plus the batch, recomputed statically.
func kruskalRebuild(n int, forest, batch []wgraph.Edge) []wgraph.Edge {
	all := make([]wgraph.Edge, 0, len(forest)+len(batch))
	all = append(all, forest...)
	all = append(all, batch...)
	return msf.Kruskal(n, all)
}

const (
	benchN    = 20_000 // vertices
	benchWin  = 40_000 // sliding-window length
	benchSeed = 0xC0FFEE
)

// insertDriver runs batched insertions of a pre-generated stream, rebuilding
// the structure when the stream is exhausted. build must return a fresh
// consumer of one batch.
func insertDriver(b *testing.B, ell int, makeSink func() func([]wgraph.Edge)) {
	b.Helper()
	stream := graphgen.ErdosRenyi(benchN, 400_000, 1<<40, benchSeed)
	batches := graphgen.Batches(stream, ell)
	sink := makeSink()
	bi := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bi >= len(batches) {
			b.StopTimer()
			sink = makeSink()
			bi = 0
			b.StartTimer()
		}
		sink(batches[bi])
		bi++
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ell), "ns/edge")
}

// slidingDriver runs a steady-state sliding window: each iteration inserts
// one batch and expires one batch worth of old arrivals.
func slidingDriver(b *testing.B, ell int, makeSink func() (func([]StreamEdge), func(int))) {
	b.Helper()
	rounds := benchWin/ell*2 + 128 // enough to warm the window and keep cycling
	s := graphgen.SlidingStream(benchN, rounds, ell, benchWin, benchSeed)
	insert, expire := makeSink()
	// Warm to steady state (at most half the rounds).
	warm := 0
	for _, r := range s.Rounds {
		batch := make([]StreamEdge, len(r.Insert))
		for i, p := range r.Insert {
			batch[i] = StreamEdge{U: p[0], V: p[1]}
		}
		insert(batch)
		expire(r.Expire)
		warm++
		if warm*ell > benchWin || warm >= len(s.Rounds)/2 {
			break
		}
	}
	ri := warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ri >= len(s.Rounds) {
			ri = warm // keep cycling the steady-state rounds
		}
		r := s.Rounds[ri]
		batch := make([]StreamEdge, len(r.Insert))
		for j, p := range r.Insert {
			batch[j] = StreamEdge{U: p[0], V: p[1]}
		}
		insert(batch)
		expire(len(batch)) // hold the window size fixed
		ri++
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ell), "ns/edge")
}

// --- Table 1, row "Connectivity" --------------------------------------------

func BenchmarkTable1ConnectivityIncremental(b *testing.B) {
	for _, ell := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("l=%d", ell), func(b *testing.B) {
			insertDriver(b, ell, func() func([]wgraph.Edge) {
				c := NewIncConn(benchN)
				return func(batch []wgraph.Edge) { c.BatchInsert(batch) }
			})
		})
	}
}

func BenchmarkTable1ConnectivitySlidingWindow(b *testing.B) {
	for _, ell := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("l=%d", ell), func(b *testing.B) {
			slidingDriver(b, ell, func() (func([]StreamEdge), func(int)) {
				c := NewSWConnEager(benchN, benchSeed)
				return c.BatchInsert, c.BatchExpire
			})
		})
	}
}

// --- Table 1, row "k-certificate" --------------------------------------------

func BenchmarkTable1KCertificateIncremental(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			insertDriver(b, 1024, func() func([]wgraph.Edge) {
				c := NewIncKCert(benchN, k)
				return func(batch []wgraph.Edge) { c.BatchInsert(batch) }
			})
		})
	}
}

func BenchmarkTable1KCertificateSlidingWindow(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			slidingDriver(b, 1024, func() (func([]StreamEdge), func(int)) {
				c := NewSWKCert(benchN, k, benchSeed)
				return c.BatchInsert, c.BatchExpire
			})
		})
	}
}

// --- Table 1, row "Bipartiteness" --------------------------------------------

func BenchmarkTable1BipartitenessIncremental(b *testing.B) {
	insertDriver(b, 1024, func() func([]wgraph.Edge) {
		c := NewIncBipartite(benchN)
		return func(batch []wgraph.Edge) { c.BatchInsert(batch) }
	})
}

func BenchmarkTable1BipartitenessSlidingWindow(b *testing.B) {
	slidingDriver(b, 1024, func() (func([]StreamEdge), func(int)) {
		c := NewSWBipartite(benchN, benchSeed)
		return c.BatchInsert, c.BatchExpire
	})
}

// --- Table 1, row "Cycle-freeness" -------------------------------------------

func BenchmarkTable1CycleFreenessIncremental(b *testing.B) {
	insertDriver(b, 1024, func() func([]wgraph.Edge) {
		c := NewIncCycleFree(benchN)
		return func(batch []wgraph.Edge) { c.BatchInsert(batch) }
	})
}

func BenchmarkTable1CycleFreenessSlidingWindow(b *testing.B) {
	slidingDriver(b, 1024, func() (func([]StreamEdge), func(int)) {
		c := NewSWCycleFree(benchN, benchSeed)
		return c.BatchInsert, c.BatchExpire
	})
}

// --- Table 1, row "MSF" (Theorem 1.1, the headline) --------------------------

func BenchmarkTable1MSFIncremental(b *testing.B) {
	for _, ell := range []int{16, 256, 4096, 65536} {
		b.Run(fmt.Sprintf("l=%d", ell), func(b *testing.B) {
			insertDriver(b, ell, func() func([]wgraph.Edge) {
				m := NewBatchMSF(benchN, benchSeed)
				return func(batch []wgraph.Edge) { m.BatchInsert(batch) }
			})
		})
	}
}

func BenchmarkTable1MSFSlidingWindow(b *testing.B) {
	for _, eps := range []float64{0.5, 0.1} {
		b.Run(fmt.Sprintf("eps=%v", eps), func(b *testing.B) {
			const maxW = 1 << 20
			s := graphgen.SlidingStream(benchN, 256, 1024, benchWin, benchSeed)
			a := NewSWApproxMSF(benchN, eps, maxW, benchSeed)
			wsrc := graphgen.ErdosRenyi(benchN, 512*1024, maxW, benchSeed+1)
			ri, wi, live := 0, 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ri >= len(s.Rounds) {
					ri = 0
				}
				round := s.Rounds[ri]
				batch := make([]WeightedStreamEdge, len(round.Insert))
				for j, p := range round.Insert {
					batch[j] = WeightedStreamEdge{U: p[0], V: p[1], W: wsrc[wi%len(wsrc)].W}
					wi++
				}
				a.BatchInsert(batch)
				live += len(batch)
				if live > benchWin {
					a.BatchExpire(live - benchWin)
					live = benchWin
				}
				_ = a.Weight()
				ri++
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*1024), "ns/edge")
		})
	}
}

// --- Table 1, row "ε-sparsifier" ---------------------------------------------

func BenchmarkTable1SparsifierSlidingWindow(b *testing.B) {
	const n = 2_000 // K·L connectivity structures + L certificates: keep n modest
	const win = 4_000
	cfg := SparsifierConfig{Eps: 0.5, Levels: 8, Trials: 2, CertOrder: 8, SampleConst: 8}
	s := graphgen.SlidingStream(n, 256, 256, win, benchSeed)
	sp := NewSWSparsifier(n, cfg, benchSeed)
	ri, live := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ri >= len(s.Rounds) {
			ri = 0
		}
		r := s.Rounds[ri]
		batch := make([]StreamEdge, len(r.Insert))
		for j, p := range r.Insert {
			batch[j] = StreamEdge{U: p[0], V: p[1]}
		}
		sp.BatchInsert(batch)
		live += len(batch)
		if live > win {
			sp.BatchExpire(live - win)
			live = win
		}
		ri++
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*256), "ns/edge")
}

func BenchmarkSparsifierQuery(b *testing.B) {
	const n = 2_000
	cfg := SparsifierConfig{Eps: 0.5, Levels: 8, Trials: 2, CertOrder: 8, SampleConst: 8}
	sp := NewSWSparsifier(n, cfg, benchSeed)
	edges := graphgen.ErdosRenyi(n, 8_000, 1, benchSeed)
	batch := make([]StreamEdge, len(edges))
	for i, e := range edges {
		batch[i] = StreamEdge{U: e.U, V: e.V}
	}
	sp.BatchInsert(batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := sp.Sparsify()
		if len(out) == 0 {
			b.Fatal("empty sparsifier")
		}
	}
}

// --- Baseline: sequential link-cut incremental MSF [47] ----------------------

func BenchmarkBaselineLinkCutMSF(b *testing.B) {
	stream := graphgen.ErdosRenyi(benchN, 400_000, 1<<40, benchSeed)
	m := linkcut.NewIncrementalMSF(benchN)
	si := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if si >= len(stream) {
			b.StopTimer()
			m = linkcut.NewIncrementalMSF(benchN)
			si = 0
			b.StartTimer()
		}
		m.Insert(stream[si])
		si++
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/edge")
}

// BenchmarkRecencyReplay scores the engine against the link-cut baseline
// at the service's batch sizes, on the stream every sliding-window monitor
// runs: TestWaveLocalityRecency's recency replay, with eager expiry on both
// sides (link-cut cuts through Forest.Cut). Shapes: ℓ = 4, 32 and 128 at
// n = 500, W = 2000, and ℓ = 512 at n = 10000, W = 20000. One iteration is
// one step, a batch plus its expiry, timed after the window has filled
// twice.
func BenchmarkRecencyReplay(b *testing.B) {
	shapes := []struct{ n, window, l int }{
		{500, 2000, 4}, {500, 2000, 32}, {500, 2000, 128}, {10_000, 20_000, 512},
	}
	replay := func(b *testing.B, rp *recencyReplay, l int, step func()) {
		for rp.tau < 2*int64(rp.window) {
			step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			step()
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*l), "ns/edge")
	}
	for _, sh := range shapes {
		name := fmt.Sprintf("n=%d/W=%d/l=%d", sh.n, sh.window, sh.l)
		b.Run("batchmsf/"+name, func(b *testing.B) {
			rp := newRecencyReplay(sh.n, sh.window, sh.l, benchSeed)
			m := NewBatchMSF(sh.n, benchSeed)
			replay(b, rp, sh.l, func() { rp.stepEngine(m) })
		})
		b.Run("linkcut/"+name, func(b *testing.B) {
			rp := newRecencyReplay(sh.n, sh.window, sh.l, benchSeed)
			m := linkcut.NewIncrementalMSF(sh.n)
			replay(b, rp, sh.l, func() { rp.stepLinkCut(m) })
		})
	}
}

// --- S1: the l·lg(1+n/l) shape behind Theorems 3.2/4.2 ------------------------

func BenchmarkBatchSizeSweep(b *testing.B) {
	for _, ell := range []int{1, 16, 64, 256, 1024, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("l=%d", ell), func(b *testing.B) {
			insertDriver(b, ell, func() func([]wgraph.Edge) {
				m := NewBatchMSF(benchN, benchSeed)
				return func(batch []wgraph.Edge) { m.BatchInsert(batch) }
			})
		})
	}
}

// --- F1: compressed path tree construction (Figure 1 / Theorem 3.2) ----------

func BenchmarkFig1CompressedPathTree(b *testing.B) {
	for _, ell := range []int{2, 16, 256, 4096} {
		b.Run(fmt.Sprintf("l=%d", ell), func(b *testing.B) {
			tr := rctree.New(benchN, benchSeed)
			tree := graphgen.BoundedDegreeTree(benchN, 3, 1<<40, benchSeed)
			var ins []rctree.Edge
			for _, e := range tree {
				ins = append(ins, rctree.Edge{U: e.U, V: e.V, Key: wgraph.KeyOf(e)})
			}
			tr.BatchUpdate(ins, nil)
			r := graphgen.ErdosRenyi(benchN, ell, 1, benchSeed+9)
			marked := make([]int32, ell)
			for i := range marked {
				marked[i] = r[i].U
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := cpt.Build(tr, marked)
				if len(res.Vertices) == 0 {
					b.Fatal("empty CPT")
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ell), "ns/marked")
		})
	}
}

// --- F2: RC tree build and batch update (Figure 2 substrate) -----------------

func BenchmarkFig2RCTreeBuild(b *testing.B) {
	tree := graphgen.BoundedDegreeTree(benchN, 3, 1<<40, benchSeed)
	var ins []rctree.Edge
	for _, e := range tree {
		ins = append(ins, rctree.Edge{U: e.U, V: e.V, Key: wgraph.KeyOf(e)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := rctree.New(benchN, benchSeed)
		tr.BatchUpdate(ins, nil)
	}
}

func BenchmarkFig2RCTreeBatchUpdate(b *testing.B) {
	for _, ell := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("l=%d", ell), func(b *testing.B) {
			tr := rctree.New(benchN, benchSeed)
			tree := graphgen.BoundedDegreeTree(benchN, 3, 1<<40, benchSeed)
			handles := make([]rctree.Handle, 0, len(tree))
			var ins []rctree.Edge
			for _, e := range tree {
				ins = append(ins, rctree.Edge{U: e.U, V: e.V, Key: wgraph.KeyOf(e)})
			}
			hs := tr.BatchUpdate(ins, nil)
			handles = append(handles, hs...)
			idx := 0
			nextKey := int64(1 << 50)
			seen := make([]bool, len(handles))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Cut l random tree edges and relink them with fresh keys.
				cuts := make([]rctree.Handle, 0, ell)
				cutPos := make([]int, 0, ell)
				var re []rctree.Edge
				for j := 0; j < ell; j++ {
					pos := (idx + j*7919) % len(handles)
					if seen[pos] {
						continue
					}
					seen[pos] = true
					h := handles[pos]
					u, v := tr.EdgeEndpoints(h)
					cuts = append(cuts, h)
					cutPos = append(cutPos, pos)
					re = append(re, rctree.Edge{U: u, V: v, Key: wgraph.Key{W: nextKey, ID: wgraph.EdgeID(nextKey)}})
					nextKey++
				}
				nh := tr.BatchUpdate(re, cuts)
				for j, pos := range cutPos {
					handles[pos] = nh[j]
					seen[pos] = false
				}
				idx += ell
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ell), "ns/edge")
		})
	}
}

// --- A1: ablation — Algorithm 2 vs recompute-from-scratch --------------------

func BenchmarkAblationRebuildVsCPT(b *testing.B) {
	// The static rebuild pays O(n) per batch regardless of l, so it wins
	// for large batches and loses for small ones; the crossover is the
	// point of the dynamic structure.
	for _, ell := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("cpt-incremental/l=%d", ell), func(b *testing.B) {
			insertDriver(b, ell, func() func([]wgraph.Edge) {
				m := NewBatchMSF(benchN, benchSeed)
				return func(batch []wgraph.Edge) { m.BatchInsert(batch) }
			})
		})
		b.Run(fmt.Sprintf("kruskal-rebuild/l=%d", ell), func(b *testing.B) {
			insertDriver(b, ell, func() func([]wgraph.Edge) {
				var forest []wgraph.Edge
				return func(batch []wgraph.Edge) {
					forest = kruskalRebuild(benchN, forest, batch)
				}
			})
		})
	}
}

// --- A2: ablation — eager vs lazy sliding-window expiry ----------------------

func BenchmarkAblationEagerVsLazy(b *testing.B) {
	const ell = 1024
	b.Run("lazy", func(b *testing.B) {
		slidingDriver(b, ell, func() (func([]StreamEdge), func(int)) {
			c := NewSWConn(benchN, benchSeed)
			return c.BatchInsert, c.BatchExpire
		})
	})
	b.Run("eager", func(b *testing.B) {
		slidingDriver(b, ell, func() (func([]StreamEdge), func(int)) {
			c := NewSWConnEager(benchN, benchSeed)
			return c.BatchInsert, c.BatchExpire
		})
	})
}

// --- Query benchmarks ---------------------------------------------------------

func BenchmarkQueryConnected(b *testing.B) {
	m := NewBatchMSF(benchN, benchSeed)
	for _, batch := range graphgen.Batches(graphgen.ErdosRenyi(benchN, 100_000, 1<<40, benchSeed), 4096) {
		m.BatchInsert(batch)
	}
	qs := graphgen.ErdosRenyi(benchN, 4096, 1, benchSeed+3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		m.Connected(q.U, q.V)
	}
}

func BenchmarkQueryPathMax(b *testing.B) {
	m := NewBatchMSF(benchN, benchSeed)
	for _, batch := range graphgen.Batches(graphgen.ErdosRenyi(benchN, 100_000, 1<<40, benchSeed), 4096) {
		m.BatchInsert(batch)
	}
	qs := graphgen.ErdosRenyi(benchN, 4096, 1, benchSeed+3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		m.PathMaxEdge(q.U, q.V)
	}
}
