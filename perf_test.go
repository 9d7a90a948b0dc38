package repro

import (
	"testing"

	"repro/internal/graphgen"
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
