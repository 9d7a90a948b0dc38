package stream

import (
	"context"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// Multiplexer fans one ingested stream out to one slot per structure
// (slotOf: conn, kcert and cyclefree share the forest slot), at most
// three: every slot receives every batch and every expiry count, so all
// monitors observe the same window at all times.
//
// Each slot sits behind its own RWMutex. The window's single writer (see
// WindowManager) applies a staged op — batch insert plus expiry — to
// every slot under that slot's write lock, in parallel across slots by
// default (parallel.Do). The reads that need a structure rather than a
// count — connected and kcert's certificate copy, both on the forest
// slot — take that slot's read lock, so they block for at most the
// forest's own apply, never the slowest slot's. Insert and expiry land
// under one lock hold, so a reader always observes a whole number of
// staged ops on its slot — never half a batch.
//
// The fan-out is also where apply time becomes observable: each slot
// keeps a log₂ histogram of the time the writer spent holding (apply) and
// waiting for (wait) its lock — not just cumulative sums, so /stats and
// /metrics can answer "what does the p99 lock hold on the forest slot
// look like", which is exactly the window a query can block for. The
// apply runs under a pprof label ("monitor" = slot name) so CPU profiles
// attribute fan-out time per slot.
//
// Writer-side methods (Apply) must only be called by the window's writer
// goroutine, one op at a time; the WindowManager's writer lock enforces
// that. Read-side methods are safe for any number of goroutines.
type Multiplexer struct {
	slots  []*monitorSlot
	byName map[string]*monitorSlot // configured monitor name → its slot
	names  []string                // configured monitor names, deduplicated
	forest *monitorSlot            // the forest slot, nil when no monitor needs it
	// sequential applies the slots one at a time, as a window with a
	// single slot does. Only tests set it: the sequential loop is the
	// reference the parallel fan-out must match.
	sequential bool

	// The op being applied, read by every slot's apply: set by Apply
	// before the fan-out starts and cleared after it joins. fanout holds
	// each slot's apply, built once.
	edges   []Edge
	delta   int
	traceID uint64
	fanout  []func()

	// Construction parameters, retained so a quarantined slot can be
	// rebuilt bit-identically (same defaulted config and monitor names, so
	// the same forest order; same per-slot seed).
	n       int
	cfg     MonitorConfig
	workers *parallel.Limiter

	// applyCheck, when set, runs at the top of every per-slot apply — the
	// fault injector's hook for inducing panics and latency at the fan-out
	// boundary ("op":"apply", path "window/slot").
	applyCheck func(slot string)

	// onQuarantine, when set, fires once per new quarantine (metrics +
	// structured log wiring; runs on the panicking fan-out goroutine).
	onQuarantine func(q *QuarantineInfo)

	// quarTotal counts slots currently quarantined; the post-apply rebuild
	// scan is gated on it so the healthy hot path pays one atomic load.
	quarTotal atomic.Int32

	// msfLevels is the msfweight monitor's materialised level count, which
	// the monitor publishes after every mutation so a metrics scrape reads
	// it without taking the monitor's lock. Shared with rebuilt monitors.
	msfLevels atomic.Int64
}

// QuarantineInfo describes one quarantined slot: why it was isolated and
// whether a rebuild can bring it back. Served machine-readably on 503s and
// in /stats. Every monitor the slot answers is quarantined with it.
type QuarantineInfo struct {
	Monitor string    `json:"monitor"` // the slot name
	Reason  string    `json:"reason"`
	Stack   string    `json:"stack,omitempty"`
	At      time.Time `json:"at"`
	// Permanent means no rebuild is possible (the window retains no live
	// edges to rebuild from, or the rebuild itself failed); only a process
	// restart recovers the monitor.
	Permanent  bool   `json:"permanent,omitempty"`
	RebuildErr string `json:"rebuild_error,omitempty"`
}

// monitorSlot is one structure plus its lock and apply accounting.
type monitorSlot struct {
	mon  Monitor
	name string // slot name: SlotForest, MonitorBipartite or MonitorMSFWeight
	idx  int    // fan-out position; the span Arg monitor-scoped spans carry
	seed uint64
	mu   sync.RWMutex
	// labels carries the pprof label monitor=<slot name>, set on the
	// goroutine running this slot's apply.
	labels context.Context

	// quar is non-nil while the monitor is quarantined: an apply panicked
	// mid-mutation, so the structure may be arbitrarily corrupt. Applies
	// skip the slot, queries 503, and a background rebuild replaces the
	// monitor wholesale. Written under s.mu (write lock); a reader that
	// observes quar == nil under its read lock is therefore guaranteed a
	// monitor no panic has touched.
	quar atomic.Pointer[QuarantineInfo]

	// rebuilding guards the one-rebuild-at-a-time CAS for this slot.
	rebuilding atomic.Bool

	// Per-slot apply/wait histograms (nanoseconds). Written only by the
	// single writer's fan-out (one Apply at a time), read by Stats
	// snapshots at any time — Observe and Snapshot are both lock-free, so
	// stats readers never queue behind a slow apply. These always record:
	// they back the /stats JSON, which predates the telemetry subsystem.
	applyH telemetry.Histogram
	waitH  telemetry.Histogram

	// Shared process-wide per-slot-name histograms from the telemetry
	// bundle (nil when telemetry is off) — the /metrics view, aggregated
	// across windows.
	applyShared *telemetry.Histogram
	waitShared  *telemetry.Histogram

	// Last op's timings, written by this slot's fan-out goroutine and read
	// on the writer after the fork-join barrier — ordinary fields, no
	// atomics needed. They feed the batch trace's per-monitor spans
	// (forEachLastTiming).
	lastApplyNS int64
	lastWaitNS  int64
}

// MonitorApplyStats is one fan-out slot's cumulative apply accounting.
type MonitorApplyStats struct {
	Name string `json:"name"` // the slot name
	// Ops counts applied staged ops (batch inserts and/or expiries).
	Ops int64 `json:"ops"`
	// ApplyNS is the cumulative time the writer held this slot's write
	// lock — the window a lock-path query on this slot can block for.
	ApplyNS int64 `json:"apply_ns"`
	// WaitNS is the cumulative time the writer waited to acquire the
	// write lock (in-flight readers of this monitor hold it out).
	WaitNS int64 `json:"wait_ns"`
	// Per-op lock-hold distribution (log₂ buckets, upper-bound quantiles
	// clamped to max — overestimates by at most 2×).
	ApplyP50NS int64 `json:"apply_p50_ns"`
	ApplyP99NS int64 `json:"apply_p99_ns"`
	ApplyMaxNS int64 `json:"apply_max_ns"`
	WaitP99NS  int64 `json:"wait_p99_ns"`
}

// NewMultiplexer builds a multiplexer over the named monitors, one slot
// per structure they need, in order of each slot's first monitor. workers
// is the budget monitors with internal fork-joins (msfweight's per-level
// apply) borrow auxiliary goroutines from; nil uses the process-wide
// default budget.
func NewMultiplexer(names []string, n int, cfg MonitorConfig, seed uint64, workers *parallel.Limiter) (*Multiplexer, error) {
	if len(names) == 0 {
		names = AllMonitors()
	}
	cfg = cfg.withDefaults()
	m := &Multiplexer{
		byName:  make(map[string]*monitorSlot, len(names)),
		n:       n,
		cfg:     cfg,
		workers: workers,
	}
	bySlot := make(map[string]*monitorSlot, len(slotOf))
	slotFor := func(slot string, i int) *monitorSlot {
		s := bySlot[slot]
		if s == nil {
			s = &monitorSlot{name: slot, idx: len(m.slots), seed: seed + uint64(i)*0x9e3779b97f4a7c15 + 1,
				labels: pprof.WithLabels(context.Background(), pprof.Labels("monitor", slot))}
			m.slots = append(m.slots, s)
			bySlot[slot] = s
		}
		return s
	}
	for i, name := range names {
		if _, dup := m.byName[name]; dup {
			continue
		}
		slot, ok := slotOf[name]
		if !ok {
			return nil, fmt.Errorf("stream: unknown monitor %q", name)
		}
		m.names = append(m.names, name)
		if name == MonitorBipartite {
			// Theorem 5.3 compares the cover's count with c(G), which the
			// forest keeps.
			slotFor(SlotForest, i)
		}
		m.byName[name] = slotFor(slot, i)
	}
	m.forest = bySlot[SlotForest]
	// Built once every name is known: the forest's order depends on all
	// of its views.
	for _, s := range m.slots {
		s.mon = m.newMonitor(s)
		m.fanout = append(m.fanout, func() { m.applySlot(s) })
	}
	return m, nil
}

// setApplyCheck installs the fault-injection hook run at the top of every
// per-slot apply. Called during wiring, before the window is published.
func (m *Multiplexer) setApplyCheck(fn func(slot string)) { m.applyCheck = fn }

// setOnQuarantine installs the new-quarantine callback. Called during
// wiring, before the window is published.
func (m *Multiplexer) setOnQuarantine(fn func(q *QuarantineInfo)) { m.onQuarantine = fn }

// describePanic extracts a reason and stack from a recovered panic value,
// unwrapping the fork-join capture wrapper when the panic crossed a
// parallel boundary (msfweight's per-level workers).
func describePanic(r any) (reason, stack string) {
	if p, ok := r.(*parallel.Panic); ok {
		return fmt.Sprint(p.Unwrap()), string(p.Stack)
	}
	return fmt.Sprint(r), string(debug.Stack())
}

// setTelemetry points each slot at the process-wide per-slot histograms
// so fan-out timings land in /metrics as well as /stats. Called during
// wiring, before the window is published to writers.
func (m *Multiplexer) setTelemetry(tm *Metrics) {
	for _, s := range m.slots {
		s.applyShared = tm.monitorApplyHist(s.name)
		s.waitShared = tm.monitorWaitHist(s.name)
	}
}

// Apply applies one staged op — a batch insert (possibly empty) followed
// by an expiry of delta arrivals — to every slot, each under its own
// write lock, in parallel unless the multiplexer is sequential or
// trivially small. The batch slice is only read by the monitors (each
// converts it into its own representation) and is not retained past the
// call, so sharing it across the parallel region — and recycling it after
// Apply returns — is safe. Single-writer: never call concurrently.
//
// traceID tags the shared per-slot histograms' observations with the
// flight-recorder trace of this op (0 = untraced), so a per-slot p99
// exemplar links back to the batch that set it.
func (m *Multiplexer) Apply(edges []Edge, delta int, traceID uint64) {
	if len(edges) == 0 && delta <= 0 {
		return
	}
	m.edges, m.delta, m.traceID = edges, delta, traceID
	if m.sequential || len(m.slots) <= 1 {
		for _, s := range m.slots {
			m.applySlot(s)
		}
	} else {
		parallel.Do(m.fanout...)
	}
	m.edges = nil
}

// applySlot applies the current op to one slot under its write lock.
func (m *Multiplexer) applySlot(s *monitorSlot) {
	if s.quar.Load() != nil {
		// Quarantined: the structure is corrupt; feeding it more ops
		// would only deepen the damage. The rebuild catches this slot
		// up from the live ring afterwards.
		s.lastWaitNS, s.lastApplyNS = 0, 0
		return
	}
	pprof.SetGoroutineLabels(s.labels)
	defer pprof.SetGoroutineLabels(context.Background())
	t0 := time.Now()
	s.mu.Lock()
	t1 := time.Now()
	// The mutation runs inside its own frame so a panic anywhere in the
	// monitor (internal/sw and internal/rctree panic liberally on
	// invariant violations) is converted into a quarantine while the
	// write lock is STILL HELD — the quarantine marker is published
	// before any reader can acquire the lock and observe the half-mutated
	// structure.
	func() {
		defer func() {
			if r := recover(); r != nil {
				reason, stack := describePanic(r)
				q := &QuarantineInfo{Monitor: s.name, Reason: reason, Stack: stack, At: time.Now()}
				s.quar.Store(q)
				m.quarTotal.Add(1)
				if m.onQuarantine != nil {
					m.onQuarantine(q)
				}
			}
		}()
		if m.applyCheck != nil {
			m.applyCheck(s.name)
		}
		if len(m.edges) > 0 {
			s.mon.BatchInsert(m.edges)
		}
		if m.delta > 0 {
			s.mon.BatchExpire(m.delta)
		}
	}()
	t2 := time.Now()
	s.mu.Unlock()
	s.lastWaitNS = t1.Sub(t0).Nanoseconds()
	s.lastApplyNS = t2.Sub(t1).Nanoseconds()
	s.waitH.ObserveVal(s.lastWaitNS)
	s.applyH.ObserveVal(s.lastApplyNS)
	s.waitShared.ObserveValTraced(s.lastWaitNS, m.traceID)
	s.applyShared.ObserveValTraced(s.lastApplyNS, m.traceID)
}

// read runs fn on the slot's monitor under the read lock unless the slot
// is quarantined, returning the quarantine record if it is (fn did NOT
// run), with how long fn waited for the lock (the time an in-flight apply
// held it out) and how long it ran. The check happens under the read
// lock: a quarantine is published while the apply still holds the write
// lock, so a reader that sees no record holds a monitor no panic has
// touched. fn runs concurrently with other readers and with applies to
// OTHER slots; it waits out only an in-flight apply to this one.
func (s *monitorSlot) read(fn func(Monitor)) (waitNS, execNS int64, q *QuarantineInfo) {
	t0 := time.Now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	t1 := time.Now()
	if q := s.quar.Load(); q != nil {
		return t1.Sub(t0).Nanoseconds(), 0, q
	}
	fn(s.mon)
	return t1.Sub(t0).Nanoseconds(), time.Since(t1).Nanoseconds(), nil
}

// anyQuarantined reports whether any slot is quarantined — one atomic load,
// cheap enough for the post-apply hot path.
func (m *Multiplexer) anyQuarantined() bool { return m.quarTotal.Load() > 0 }

// Quarantined snapshots every quarantined slot's record, in fan-out
// order. Empty on a healthy multiplexer.
func (m *Multiplexer) Quarantined() []QuarantineInfo {
	if m.quarTotal.Load() == 0 {
		return nil
	}
	var out []QuarantineInfo
	for _, s := range m.slots {
		if q := s.quar.Load(); q != nil {
			out = append(out, *q)
		}
	}
	return out
}

// claimRebuilds returns the quarantined, non-permanent slots this caller
// just won the right to rebuild (rebuilding CAS false→true). The caller
// must finish each claim with swapMonitor or failRebuild.
func (m *Multiplexer) claimRebuilds() []*monitorSlot {
	if m.quarTotal.Load() == 0 {
		return nil
	}
	var out []*monitorSlot
	for _, s := range m.slots {
		q := s.quar.Load()
		if q == nil || q.Permanent {
			continue
		}
		if s.rebuilding.CompareAndSwap(false, true) {
			out = append(out, s)
		}
	}
	return out
}

// swapMonitor installs the rebuilt monitor and lifts the quarantine. The
// swap happens under the slot's write lock, so lock-path readers move
// atomically from "503 quarantined" to the healthy replacement. publish
// runs after the install and before the lift, so the answers a read sees
// once the quarantine is gone already come from the replacement.
func (m *Multiplexer) swapMonitor(s *monitorSlot, mon Monitor, publish func()) {
	s.mu.Lock()
	s.mon = mon
	publish()
	s.quar.Store(nil)
	s.mu.Unlock()
	m.quarTotal.Add(-1)
	s.rebuilding.Store(false)
}

// failRebuild marks a claimed rebuild as permanently failed; the quarantine
// stays, annotated with why no further rebuilds will be attempted.
func (m *Multiplexer) failRebuild(s *monitorSlot, reason string) {
	if q := s.quar.Load(); q != nil {
		qq := *q
		qq.Permanent = true
		qq.RebuildErr = reason
		s.quar.Store(&qq)
	}
	s.rebuilding.Store(false)
}

// forEachLastTiming reads every slot's last-op lock wait and hold. Only
// valid on the writer goroutine after an Apply's fork-join barrier —
// exactly where the flight recorder stamps per-slot spans.
func (m *Multiplexer) forEachLastTiming(fn func(idx int, waitNS, applyNS int64)) {
	for _, s := range m.slots {
		fn(s.idx, s.lastWaitNS, s.lastApplyNS)
	}
}

// Names lists the configured monitors, deduplicated, in config order.
func (m *Multiplexer) Names() []string { return append([]string(nil), m.names...) }

// slotNames lists the slot names in fan-out order.
func (m *Multiplexer) slotNames() []string {
	out := make([]string, len(m.slots))
	for i, s := range m.slots {
		out[i] = s.name
	}
	return out
}

// Stats snapshots every slot's apply accounting, in fan-out order.
func (m *Multiplexer) Stats() []MonitorApplyStats {
	out := make([]MonitorApplyStats, len(m.slots))
	for i, s := range m.slots {
		a := s.applyH.Snapshot()
		w := s.waitH.Snapshot()
		out[i] = MonitorApplyStats{
			Name:       s.name,
			Ops:        a.Count,
			ApplyNS:    a.Sum,
			WaitNS:     w.Sum,
			ApplyP50NS: a.P50,
			ApplyP99NS: a.P99,
			ApplyMaxNS: a.Max,
			WaitP99NS:  w.P99,
		}
	}
	return out
}
