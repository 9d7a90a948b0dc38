package repro

import (
	"slices"
	"testing"

	"repro/internal/graphgen"
	"repro/internal/parallel"
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

// TestWaveLocalityRecency guards the engine at the shape every sliding-window
// monitor runs: one core.BatchMSF under recency weights (edge τ weighs −τ,
// as in sw.ConnEager), n = 500, a count window of 2000 arrivals, batches of
// ℓ = 32 and eager expiry of the forest edges that leave the window. It
// pins the rake-compress tree's size and its wave work per step (insert
// plus expiry) once the window is full. Fixed seeds make both exact:
//
//	                      chain node per edge end   compact gadgets   bound
//	rctree vertices                1498                   614          1000
//	wave work per step             3840                  2117          2900
//
// A layout that gives every forest edge its own chain node at both ends
// holds n + 2m vertices; compact gadgets let a vertex anchor up to three
// forest edges itself (package ternary). Either bound fails at the former.
func TestWaveLocalityRecency(t *testing.T) {
	const n, window, l, steps = 500, 2000, 32, 400
	r := parallel.NewRNG(0x5EED)
	m := NewBatchMSF(n, 0x5EED)
	var forest []wgraph.EdgeID // forest edges, ascending τ
	tau := int64(0)
	step := func() {
		batch := make([]wgraph.Edge, l)
		for i := range batch {
			tau++
			u, v := int32(r.Intn(n)), int32(r.Intn(n-1))
			if v >= u {
				v++
			}
			batch[i] = wgraph.Edge{ID: wgraph.EdgeID(tau), U: u, V: v, W: -tau}
		}
		added, removed, _ := m.BatchInsert(batch)
		gone := make(map[wgraph.EdgeID]bool, len(removed))
		for _, e := range removed {
			gone[e.ID] = true
		}
		forest = slices.DeleteFunc(forest, func(id wgraph.EdgeID) bool { return gone[id] })
		for _, e := range added {
			forest = append(forest, e.ID)
		}
		k := 0
		for k < len(forest) && int64(forest[k]) <= tau-window {
			k++
		}
		m.BatchDelete(forest[:k])
		forest = forest[k:]
	}
	for tau < window {
		step()
	}
	before := m.WaveWork()
	for range steps {
		step()
	}
	perStep := (m.WaveWork() - before) / steps
	t.Logf("rctree vertices %d, wave work per step %d", m.TreeVertices(), perStep)
	if got := m.TreeVertices(); got > 1000 {
		t.Errorf("rake-compress tree holds %d vertices for n = %d and %d forest edges", got, n, len(forest))
	}
	if perStep > 2900 {
		t.Errorf("wave work per recency step %d", perStep)
	}
}
