package stream

import "repro/internal/sw"

// MonitorConfig carries the per-monitor tuning knobs.
type MonitorConfig struct {
	// Eps is the msfweight approximation parameter (default 0.25).
	Eps float64
	// MaxWeight is the msfweight weight ceiling (default 1<<20); edge
	// weights above it are clamped.
	MaxWeight int64
	// K is the kcert certificate order (default 2).
	K int
}

func (c *MonitorConfig) withDefaults() MonitorConfig {
	out := *c
	if out.Eps <= 0 {
		out.Eps = 0.25
	}
	if out.MaxWeight < 1 {
		out.MaxWeight = 1 << 20
	}
	if out.K < 1 {
		out.K = 2
	}
	return out
}

// slotOf maps each monitor name to its fan-out slot: conn, kcert and
// cyclefree are views of one maximal spanning forest decomposition, so they
// share the forest slot. The bipartite slot keeps the double cover, whose
// answer also reads the forest slot's count (NewMultiplexer adds it).
var slotOf = map[string]string{
	MonitorConn:      SlotForest,
	MonitorKCert:     SlotForest,
	MonitorCycleFree: SlotForest,
	MonitorBipartite: MonitorBipartite,
	MonitorMSFWeight: MonitorMSFWeight,
}

// newMonitor builds the structure behind slot s from the slot's seed and
// the multiplexer's retained (defaulted) config and monitor names, so a
// rebuilt replacement is distribution-identical to the original at birth.
// The forest slot serves the views among the names.
//
// Every monitor adapter below carries its own conversion scratch buffer,
// reused across batches. That is sound under the same single-writer
// contract the internal/sw structures assert: BatchInsert runs under the
// slot's write lock with exactly one writer in the pipeline, and the
// sw structures convert the slice into their own representation before
// returning, retaining nothing.
func (m *Multiplexer) newMonitor(s *monitorSlot) Monitor {
	switch s.name {
	case SlotForest:
		return newForestMonitor(m.names, m.n, m.cfg.K, s.seed)
	case MonitorBipartite:
		return &coverMonitor{d: sw.NewDoubleCover(m.n, s.seed^0x5bd1e995)}
	default:
		// The level fork-join borrows from the process-wide
		// parallel.Default budget, so N windows × levels stay bounded.
		a := sw.NewApproxMSF(m.n, m.cfg.Eps, m.cfg.MaxWeight, s.seed)
		a.SetLevelTiming(m.levelTiming)
		return &msfWeightMonitor{a: a, maxW: m.cfg.MaxWeight}
	}
}

// appendStreamEdges converts a batch into buf (reused across calls).
func appendStreamEdges(buf []sw.StreamEdge, edges []Edge) []sw.StreamEdge {
	for _, e := range edges {
		buf = append(buf, sw.StreamEdge{U: e.U, V: e.V})
	}
	return buf
}

// forestMonitor is the forest slot: one sliding-window k-certificate
// (Theorem 5.5) whose views answer four monitors. conn reads F_1, the
// eager connectivity forest of Theorem 5.2; cyclefree reads |F_2| > 0
// (Theorem 5.6); kcert reads F_1, ..., F_K; bipartite reads
// c(G) = n − |F_1| (Theorem 5.3, beside the bipartite slot's cover). The
// certificate's order is the largest any configured view needs: 1 for
// conn and bipartite, 2 for cyclefree, K for kcert — so a conn-only
// window keeps exactly one forest.
type forestMonitor struct {
	kc *sw.KCert
	// k is the kcert view's order K, 0 when kcert is not configured. The
	// view reads F_1, ..., F_K only: cyclefree may keep F_2 beyond K = 1.
	k       int
	scratch []sw.StreamEdge
}

func newForestMonitor(names []string, n, k int, seed uint64) *forestMonitor {
	m := &forestMonitor{}
	order := 0
	for _, name := range names {
		switch name {
		case MonitorConn, MonitorBipartite:
			order = max(order, 1)
		case MonitorCycleFree:
			order = max(order, 2)
		case MonitorKCert:
			m.k, order = k, max(order, k)
		}
	}
	m.kc = sw.NewKCert(n, order, seed)
	return m
}

func (m *forestMonitor) BatchInsert(edges []Edge) {
	m.scratch = appendStreamEdges(m.scratch[:0], edges)
	m.kc.BatchInsert(m.scratch)
}
func (m *forestMonitor) BatchExpire(delta int) { m.kc.BatchExpire(delta) }

func (m *forestMonitor) summarize(a *answers) {
	a.components = m.kc.NumComponents()
	if m.kc.K() > 1 {
		a.cycle = m.kc.HasCycle()
	}
	if m.k > 0 {
		a.kcertSize = m.kc.SizeUpTo(m.k)
	}
}

func (m *forestMonitor) treeVertices() int { return m.kc.TreeVertices() }

// coverMonitor is the bipartite slot: the window graph's double cover. The
// bipartite answer compares its count with the forest slot's (Theorem 5.3),
// so the forest keeps the other half of the test.
type coverMonitor struct {
	d       *sw.DoubleCover
	scratch []sw.StreamEdge
}

func (m *coverMonitor) BatchInsert(edges []Edge) {
	m.scratch = appendStreamEdges(m.scratch[:0], edges)
	m.d.BatchInsert(m.scratch)
}
func (m *coverMonitor) BatchExpire(delta int) { m.d.BatchExpire(delta) }

func (m *coverMonitor) summarize(a *answers) { a.coverComponents = m.d.NumComponents() }

func (m *coverMonitor) treeVertices() int { return m.d.TreeVertices() }

// msfWeightMonitor wraps the (1+ε)-approximate MSF weight structure
// (Theorem 5.4). Weights are clamped into [1, MaxWeight] so arbitrary
// client input cannot panic the structure.
type msfWeightMonitor struct {
	a       *sw.ApproxMSF
	maxW    int64
	scratch []sw.WeightedStreamEdge
}

func (m *msfWeightMonitor) BatchInsert(edges []Edge) {
	batch := m.scratch[:0]
	for _, e := range edges {
		w := e.W
		if w < 1 {
			w = 1
		} else if w > m.maxW {
			w = m.maxW
		}
		batch = append(batch, sw.WeightedStreamEdge{U: e.U, V: e.V, W: w})
	}
	m.scratch = batch
	m.a.BatchInsert(batch)
}

func (m *msfWeightMonitor) BatchExpire(delta int) { m.a.BatchExpire(delta) }

func (m *msfWeightMonitor) summarize(a *answers) {
	a.weight = m.a.Weight()
	a.levels = m.a.LiveLevels()
}

func (m *msfWeightMonitor) treeVertices() int { return m.a.TreeVertices() }
