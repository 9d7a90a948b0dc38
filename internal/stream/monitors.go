package stream

import (
	"fmt"
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/sw"
)

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

// newMonitor builds the named monitor over n vertices. Each monitor derives
// its own seed so window instances stay independent.
//
// Every monitor adapter below carries its own conversion scratch buffer,
// reused across batches. That is sound under the same single-writer
// contract the internal/sw structures assert: BatchInsert runs under the
// monitor's write lock with exactly one writer in the pipeline, and the
// sw structures convert the slice into their own representation before
// returning, retaining nothing.
//
// levels receives the msfweight monitor's materialised level count after
// every mutation (the sw_msfweight_levels_live gauge reads it lock-free).
func newMonitor(name string, n int, cfg MonitorConfig, seed uint64, workers *parallel.Limiter, levels *atomic.Int64) (Monitor, error) {
	switch name {
	case MonitorConn:
		return &connMonitor{c: sw.NewConnEager(n, seed)}, nil
	case MonitorBipartite:
		return &bipartiteMonitor{b: sw.NewBipartite(n, seed)}, nil
	case MonitorMSFWeight:
		a := sw.NewApproxMSF(n, cfg.Eps, cfg.MaxWeight, seed)
		// The level fork-join borrows from the window's (or registry's)
		// shared budget, so nested parallelism — monitor fan-out × level
		// fan-out × N windows — stays bounded by one configured number.
		a.SetWorkers(workers)
		return &msfWeightMonitor{a: a, maxW: cfg.MaxWeight, levels: levels}, nil
	case MonitorKCert:
		return &kcertMonitor{k: sw.NewKCert(n, cfg.K, seed)}, nil
	case MonitorCycleFree:
		return &cycleFreeMonitor{c: sw.NewCycleFree(n, seed)}, nil
	default:
		return nil, fmt.Errorf("stream: unknown monitor %q", name)
	}
}

// appendStreamEdges converts a batch into buf (reused across calls).
func appendStreamEdges(buf []sw.StreamEdge, edges []Edge) []sw.StreamEdge {
	for _, e := range edges {
		buf = append(buf, sw.StreamEdge{U: e.U, V: e.V})
	}
	return buf
}

// connMonitor wraps eager sliding-window connectivity (Theorem 5.2).
type connMonitor struct {
	c       *sw.ConnEager
	scratch []sw.StreamEdge
}

func (m *connMonitor) Name() string { return MonitorConn }
func (m *connMonitor) BatchInsert(edges []Edge) {
	m.scratch = appendStreamEdges(m.scratch[:0], edges)
	m.c.BatchInsert(m.scratch)
}
func (m *connMonitor) BatchExpire(delta int) { m.c.BatchExpire(delta) }

// bipartiteMonitor wraps sliding-window bipartiteness (Theorem 5.3).
type bipartiteMonitor struct {
	b       *sw.Bipartite
	scratch []sw.StreamEdge
}

func (m *bipartiteMonitor) Name() string { return MonitorBipartite }
func (m *bipartiteMonitor) BatchInsert(edges []Edge) {
	m.scratch = appendStreamEdges(m.scratch[:0], edges)
	m.b.BatchInsert(m.scratch)
}
func (m *bipartiteMonitor) BatchExpire(delta int) { m.b.BatchExpire(delta) }

// msfWeightMonitor wraps the (1+ε)-approximate MSF weight structure
// (Theorem 5.4). Weights are clamped into [1, MaxWeight] so arbitrary
// client input cannot panic the structure.
type msfWeightMonitor struct {
	a       *sw.ApproxMSF
	maxW    int64
	levels  *atomic.Int64 // published LiveLevels
	scratch []sw.WeightedStreamEdge
}

func (m *msfWeightMonitor) Name() string { return MonitorMSFWeight }

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
	m.levels.Store(int64(m.a.LiveLevels()))
}

func (m *msfWeightMonitor) BatchExpire(delta int) {
	m.a.BatchExpire(delta)
	m.levels.Store(int64(m.a.LiveLevels()))
}

// kcertMonitor wraps the sliding-window k-certificate (Theorem 5.5).
type kcertMonitor struct {
	k       *sw.KCert
	scratch []sw.StreamEdge
}

func (m *kcertMonitor) Name() string { return MonitorKCert }
func (m *kcertMonitor) BatchInsert(edges []Edge) {
	m.scratch = appendStreamEdges(m.scratch[:0], edges)
	m.k.BatchInsert(m.scratch)
}
func (m *kcertMonitor) BatchExpire(delta int) { m.k.BatchExpire(delta) }

// cycleFreeMonitor wraps sliding-window cycle detection (Theorem 5.6).
type cycleFreeMonitor struct {
	c       *sw.CycleFree
	scratch []sw.StreamEdge
}

func (m *cycleFreeMonitor) Name() string { return MonitorCycleFree }
func (m *cycleFreeMonitor) BatchInsert(edges []Edge) {
	m.scratch = appendStreamEdges(m.scratch[:0], edges)
	m.c.BatchInsert(m.scratch)
}
func (m *cycleFreeMonitor) BatchExpire(delta int) { m.c.BatchExpire(delta) }
