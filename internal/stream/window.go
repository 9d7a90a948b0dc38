package stream

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fifo"
	"repro/internal/mincut"
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/internal/wgraph"
)

// ErrNoMonitor is wrapped by query methods whose monitor is not configured.
var ErrNoMonitor = errors.New("stream: monitor not configured")

// ErrMonitorQuarantined is wrapped by query methods whose monitor is
// quarantined after an apply panic: the structure may be corrupt, so it is
// isolated (503, machine-readable reason) while a background rebuild
// replaces it. Every other monitor and window keeps serving.
var ErrMonitorQuarantined = errors.New("stream: monitor quarantined after apply panic")

// WindowConfig describes one managed window.
type WindowConfig struct {
	// Name identifies the window in trace/log output (slow batch traces,
	// recovery lines). Purely informational; "" is fine for tests.
	Name string
	// N is the number of vertices (vertex ids are [0, N)).
	N int
	// Seed drives every randomized structure in the window.
	Seed uint64
	// Monitors names the monitors to maintain; empty means all of them.
	Monitors []string
	// Monitor carries per-monitor tuning (eps, max weight, k).
	Monitor MonitorConfig
	// MaxArrivals caps the window at the most recent MaxArrivals edges
	// (count-based expiry). 0 disables the cap.
	MaxArrivals int
	// MaxAge expires arrivals whose event time is older than MaxAge
	// (time-based expiry). 0 disables it. The window structures can only
	// expire arrival-order prefixes, so recorded event times are clamped
	// monotone non-decreasing and never in the future — an edge carrying
	// an out-of-order or future timestamp ages out as if it had arrived
	// in order, rather than stalling expiry for everything after it.
	MaxAge time.Duration
	// Clock defaults to RealClock; tests inject FakeClock.
	Clock Clock
	// SyncAck makes durable acknowledgment the window's default ingest
	// mode: POST /edges blocks until the batch's WAL append (and fsync,
	// under fsync=batch) completes, so a 202 means durable, not queued.
	// Requests can override per-call with ?sync=0/1. Meaningless without
	// a durability layer.
	SyncAck bool

	// durable marks a window whose checkpoints snapshot its live ring. A
	// durable registry sets it on every window it creates or recovers,
	// before the first arrival (recovery replays before the write-ahead
	// recorder attaches).
	durable bool
}

// WindowStats is a point-in-time snapshot of a window's counters.
type WindowStats struct {
	Arrivals  int64 `json:"arrivals"`   // edges ever inserted
	Expired   int64 `json:"expired"`    // edges ever expired
	WindowLen int64 `json:"window_len"` // unexpired arrivals
	Batches   int64 `json:"batches"`    // Apply calls with ≥1 valid edge
	Dropped   int64 `json:"dropped"`    // out-of-range or self-loop edges
	// Epoch is the apply epoch at snapshot time: even = all staged ops
	// fully applied to every monitor, odd = a fan-out is in flight. It
	// advances twice per applied op, so Epoch/2 counts completed ops.
	Epoch uint64 `json:"epoch"`
}

// answers is one epoch's scalar answers, built by the writer from every
// healthy slot once the fan-out has joined and never modified after it is
// published, so every field describes the same prefix of staged ops.
type answers struct {
	epoch uint64
	// Forest slot: components is c(G) = n − |F_1|, kept without conn too,
	// since bipartite reads it.
	components      int
	cycle           bool
	kcertSize       int
	coverComponents int // bipartite slot: c(D(G))
	weight          float64
	levels          int  // msfweight slot: its kept levels
	bipartite       bool // c(D(G)) == 2·c(G), Theorem 5.3
	// vertices is each slot's rctree vertices in use, over its engines, by
	// fan-out index (sw_engine_vertices).
	vertices [3]int
	// quar is each slot's quarantine record by fan-out index (one entry per
	// AllSlots name), nil while healthy. A quarantined slot's answers are
	// absent, and bipartite's when either of its two slots is.
	quar [3]*QuarantineInfo
}

// noAnswers is what a failed read returns beside its error.
var noAnswers = &answers{}

// QuerySummary is one consistent multi-monitor read: every field reflects
// the same apply epoch, i.e. the same prefix of staged ops (see
// WindowManager.QuerySummary). Fields for monitors the window does not
// maintain are nil.
type QuerySummary struct {
	Epoch           uint64   `json:"epoch"`
	Components      *int     `json:"components,omitempty"`
	Bipartite       *bool    `json:"bipartite,omitempty"`
	MSFWeight       *float64 `json:"msfweight,omitempty"`
	HasCycle        *bool    `json:"cycle,omitempty"`
	CertificateSize *int     `json:"kcert_size,omitempty"`
	// Quarantined lists the slots (forest = conn, cyclefree and kcert)
	// isolated after an apply panic; their fields above stay nil, and a
	// forest quarantine also takes bipartite, which reads c(G) from it.
	Quarantined []string `json:"quarantined,omitempty"`
}

// WindowManager owns one window's monitors behind a staged-apply,
// per-monitor-locking discipline:
//
//   - writerMu serializes the window's writers end to end — the ingester's
//     flush goroutine (Apply) and the expiry ticker (ExpireByAge). Queries
//     never touch it, so a writer convoy cannot form behind readers.
//   - coord is the narrow coordinator lock. The writer holds it only to
//     STAGE an op: validate and clamp the batch, append the live-edge
//     ring, hand the batch to the write-ahead recorder, and compute the
//     expiry delta — bookkeeping, no monitor work. Metadata readers
//     (Stats, Watermark, WindowLen, LiveEdges — including the checkpoint
//     snapshot capture) take coord and therefore wait out at most a
//     staging, never a monitor apply.
//   - each fan-out slot has its own RWMutex inside the Multiplexer. The
//     staged op is applied to every slot under that slot's lock (parallel
//     fork-join by default). Only the reads that need the forest itself —
//     IsConnected and KCertInfo's certificate copy — take a lock, the
//     forest slot's read lock, so they block for at most its own apply.
//   - epoch is odd while an op is being applied, even once every monitor
//     reflects every staged op. After the fan-out joins, the writer
//     publishes one answers record stamped with the next even epoch. The
//     scalar reads (NumComponents, HasCycle, IsBipartite, MSFWeight,
//     QuerySummary) are one atomic load of it: they never wait for an
//     apply, and all their answers correspond to one op prefix.
//
// Because the Multiplexer feeds every monitor every staged op, one
// (tau, tw) pair describes the window of all monitors — uniform timestamp
// advancement; per-monitor answers always correspond to a whole number of
// staged ops (insert and expiry land under one lock hold).
type WindowManager struct {
	cfg WindowConfig
	mux *Multiplexer

	// writerMu serializes Apply and ExpireByAge (see above).
	writerMu sync.Mutex

	// coord guards everything below it: the staging state and counters.
	coord sync.Mutex

	// rec, when set, is handed every valid batch (event times already
	// clamped) before the monitors see it — the write-ahead hook the
	// durability layer logs through. It returns the WAL sequence (arrival
	// index) of the batch's first edge, which becomes the batch's flight
	// trace ID so traces correlate across restarts, plus the append error
	// (Apply propagates it to the ingester so durable acks report append
	// failures). Called under coord, so record order is exactly staging
	// order and the logged arrival indices line up with the stats
	// counters.
	rec func([]Edge) (uint64, error)

	// live holds the unexpired arrivals in arrival order, oldest first —
	// the canonical window content LiveEdges serves to the snapshot layer
	// and to quarantine rebuilds. Event times are the post-clamp values
	// (when MaxAge > 0 they are clamped into [lastT, now] on insert so the
	// sequence is monotone and prefix-expiry is sound against out-of-order
	// or future timestamps); time-based expiry reads them back from here.
	// A count-bounded window caps the ring at MaxArrivals slots, and that
	// limit is the count cap: staging pushes a batch before it expires
	// anything, a full ring drops the oldest arrivals itself, and the
	// expiry delta is those dropped arrivals plus the age prefix of what
	// the ring still holds. Kept only when keepsRing says so.
	live  fifo.Ring[Edge]
	lastT int64

	stats WindowStats

	// epoch and ans: see the type comment. Only the writer (under
	// writerMu) advances epoch and publishes ans.
	epoch atomic.Uint64
	ans   atomic.Pointer[answers]

	// metrics is the telemetry bundle (noMetrics when disabled — never
	// nil, so observation sites are branch-only when off). Installed by
	// setTelemetry during wiring, before the window is published.
	metrics *Metrics

	// Flight recorder wiring (setFlight; nil = recording off, e.g.
	// standalone windows built outside a registry).
	//
	// flight receives one batch trace per applied op; qflight receives
	// query traces. ftrace is the reusable batch-trace scratch — only the
	// writer (under writerMu) touches it, so recording is lock-free and
	// 0 allocs.
	flight  *trace.Ring
	qflight *trace.Ring
	ftrace  trace.Trace

	// pendingEnqNS is the enqueue wall time (unix ns) of the oldest
	// submission in the batch the ingester is about to Apply — the queue
	// span's start. The flush goroutine writes it immediately before
	// calling Apply on the same goroutine, so a plain field suffices; 0
	// means unknown (direct Apply callers, tests). pendingAdmitNS is the
	// admission-check time that submission paid before its enqueue — the
	// trace's admit span.
	pendingEnqNS   int64
	pendingAdmitNS int64

	// walFsyncNS accumulates fsync time observed during the current WAL
	// append (the durability layer's per-window ObserveFsync wrapper adds
	// to it; Apply swaps it out around the rec call). Atomic because
	// close-time and checkpoint-path syncs may fire off the writer
	// goroutine; those land outside an append window and are discarded by
	// the pre-append reset.
	walFsyncNS atomic.Int64

	// logger, when set (setLogger, wiring time), receives quarantine and
	// rebuild events. Nil on standalone windows.
	logger *slog.Logger
}

// NewWindowManager builds a window and its monitors.
func NewWindowManager(cfg WindowConfig) (*WindowManager, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("stream: window needs N > 0, got %d", cfg.N)
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock()
	}
	mux, err := NewMultiplexer(cfg.Monitors, cfg.N, cfg.Monitor, cfg.Seed)
	if err != nil {
		return nil, err
	}
	w := &WindowManager{cfg: cfg, mux: mux, metrics: noMetrics, live: fifo.WithLimit[Edge](cfg.MaxArrivals)}
	mux.setOnQuarantine(func(q *QuarantineInfo) {
		w.metrics.monQuarantines.Inc()
		if w.logger != nil {
			w.logger.Error("monitor quarantined after apply panic",
				"window", cfg.Name, "monitor", q.Monitor, "reason", q.Reason)
		}
	})
	w.publish(0, nil)
	return w, nil
}

// setLogger installs the structured logger quarantine and rebuild events go
// to. Wiring time only, before the window is published.
func (w *WindowManager) setLogger(l *slog.Logger) { w.logger = l }

// setApplyCheck installs the fault-injection hook on the fan-out boundary.
// Wiring time only.
func (w *WindowManager) setApplyCheck(fn func(monitor string)) { w.mux.setApplyCheck(fn) }

// setTelemetry installs the telemetry bundle on the window and its fan-out
// slots. Called during wiring, after recovery replay (so replay
// mega-batches don't pollute the live histograms) and before the window is
// published to producers.
func (w *WindowManager) setTelemetry(m *Metrics) {
	w.metrics = m.orNoop()
	w.mux.setTelemetry(w.metrics)
}

// setFlight installs the flight-recorder rings (batch and query) and turns
// on msfweight's level timing, so batch traces carry the fork-join detail.
// Wiring time only, before the window is published.
func (w *WindowManager) setFlight(batch, query *trace.Ring) {
	w.flight = batch
	w.qflight = query
	if batch != nil {
		w.mux.timeLevels()
	}
}

// noteEnqueueTime hands Apply the enqueue wall time of the oldest
// submission in the batch about to be flushed, plus the admission time
// that submission paid. The ingester's flush goroutine calls it right
// before the sink call — same goroutine as Apply, so no synchronization.
func (w *WindowManager) noteEnqueueTime(enqNS, admitNS int64) {
	w.pendingEnqNS = enqNS
	w.pendingAdmitNS = admitNS
}

// noteWALFsync records fsync time the WAL observed for this window; the
// durability layer's per-window ObserveFsync wrapper feeds it.
func (w *WindowManager) noteWALFsync(d time.Duration) { w.walFsyncNS.Add(d.Nanoseconds()) }

// N returns the vertex-set size.
func (w *WindowManager) N() int { return w.cfg.N }

// Monitors lists the configured monitor names.
func (w *WindowManager) Monitors() []string { return w.mux.Names() }

// Apply inserts a batch and runs the expiry policy — the writer entry
// point, called by the ingester's flush goroutine (the expiry ticker is
// the only other writer; writerMu serializes them). Invalid edges
// (endpoints outside [0, N), self-loops) are dropped and counted; the
// batch slice may be compacted in place and is read by the monitor
// fan-out until Apply returns, so the caller yields ownership for the
// duration of the call (and may recycle the slice afterwards — nothing
// retains it). The return is the write-ahead recorder's append error
// (nil on undurable windows): the batch is still applied in-memory
// either way, but a durable ack must report that the WAL did not keep
// it.
func (w *WindowManager) Apply(batch []Edge) error {
	w.writerMu.Lock()
	defer w.writerMu.Unlock()
	enqNS, admitNS := w.pendingEnqNS, w.pendingAdmitNS
	w.pendingEnqNS, w.pendingAdmitNS = 0, 0
	now := w.cfg.Clock.Now()
	m := w.metrics
	ft := w.flight
	// Lifecycle timing costs extra monotonic clock reads, so it only runs
	// for the telemetry registry or the flight recorder. Always the real
	// clock, never the injected Clock — FakeClock does not advance during
	// a call.
	timed := m.on() || ft != nil
	var stageStart time.Time
	if timed {
		stageStart = time.Now()
	}
	var queueNS int64
	if ft != nil && enqNS > 0 {
		if queueNS = stageStart.UnixNano() - enqNS; queueNS < 0 {
			queueNS = 0
		}
	}

	// Stage: everything under the narrow coordinator lock, no monitor
	// work. After this block the op is durable (recorder) and counted;
	// the monitors just haven't seen it yet — the epoch stays odd until
	// they all have.
	dropped := 0
	var walSeq uint64
	var recErr error
	durable := false
	var walOffNS, walNS, fsyncNS int64
	w.coord.Lock()
	valid := batch[:0]
	n32 := int32(w.cfg.N)
	for _, e := range batch {
		if e.U < 0 || e.U >= n32 || e.V < 0 || e.V >= n32 || e.U == e.V {
			w.stats.Dropped++
			dropped++
			continue
		}
		valid = append(valid, e)
	}
	if len(valid) > 0 {
		// Clamp event times before recording so the durability log
		// carries exactly the times expiry will see again on replay (the
		// clamp is monotone, so re-clamping logged times is a no-op).
		if w.cfg.MaxAge > 0 {
			nowNS := now.UnixNano()
			for i := range valid {
				t := valid[i].T.UnixNano()
				if t > nowNS {
					t = nowNS
				}
				if t < w.lastT {
					t = w.lastT
				}
				w.lastT = t
				valid[i].T = time.Unix(0, t)
			}
		}
		// Retain the arrivals (append copies the edge values; the batch
		// slice goes back to the caller) so LiveEdges can serve the window
		// content in arrival order under any expiry mode.
		if w.keepsRing() {
			w.live.Push(valid...)
		}
		if w.rec != nil {
			durable = true
			if ft != nil {
				// Bracket the append so the trace carries wal_append and
				// (via the durability layer's per-window fsync note) the
				// wal_fsync sub-span. The WAL fsyncs on the append path
				// for both the batch and interval policies, so the swap
				// after the call captures exactly this append's fsync.
				w.walFsyncNS.Store(0)
				walT0 := time.Now()
				walSeq, recErr = w.rec(valid)
				walNS = time.Since(walT0).Nanoseconds()
				walOffNS = walT0.Sub(stageStart).Nanoseconds()
				fsyncNS = w.walFsyncNS.Swap(0)
			} else {
				walSeq, recErr = w.rec(valid)
			}
		} else {
			// No WAL: the batch's first arrival index plays the sequence
			// role so trace IDs stay monotone and unique per window.
			walSeq = uint64(w.stats.Arrivals)
		}
		w.stats.Arrivals += int64(len(valid))
		w.stats.Batches++
	}
	delta := w.stageExpiryLocked(now)
	w.coord.Unlock()
	if dropped > 0 {
		m.edgesDropped.Add(int64(dropped))
	}
	if delta > 0 {
		m.edgesExpired.Add(int64(delta))
	}
	var stageNS int64
	if timed {
		stageNS = time.Since(stageStart).Nanoseconds()
	}

	if len(valid) == 0 && delta == 0 {
		return recErr
	}
	// The trace ID is known before the fan-out so per-monitor histogram
	// exemplars can be tagged with it as they observe.
	var traceID uint64
	if ft != nil {
		traceID = ft.ID(walSeq)
	}
	// Fan out under the per-monitor locks, bracketed by the epoch.
	w.epoch.Add(1)
	m.applyInflight.Add(1)
	applyStart := time.Now()
	w.mux.Apply(valid, delta, traceID)
	applyNS := time.Since(applyStart).Nanoseconds()
	m.applyInflight.Add(-1)
	w.publish(w.epoch.Load()+1, nil)
	w.epoch.Add(1)
	if len(valid) > 0 {
		m.batchesApplied.Inc()
		m.edgesApplied.Add(int64(len(valid)))
	}
	if m.on() {
		m.stageSeconds.ObserveValTraced(stageNS, traceID)
		m.fanoutSeconds.ObserveValTraced(applyNS, traceID)
		m.batchSeconds.ObserveValTraced(stageNS+applyNS, traceID)
	}
	if ft != nil {
		w.commitBatchTrace(ft, admitNS, queueNS, stageNS, applyNS,
			walSeq, durable, walOffNS, walNS, fsyncNS,
			applyStart, stageStart, len(valid), delta)
	}
	w.kickRebuilds()
	return recErr
}

// commitBatchTrace assembles the batch's span tree in the reusable
// scratch and commits it to the flight ring — 0 allocs: the scratch, the
// span array, and the ring slots are all preallocated. Runs under
// writerMu on the flush goroutine, after the fan-out barrier (so the
// per-monitor and per-level timings are settled plain reads).
func (w *WindowManager) commitBatchTrace(ft *trace.Ring,
	admitNS, queueNS, stageNS, applyNS int64,
	walSeq uint64, durable bool, walOffNS, walNS, fsyncNS int64,
	applyStart, stageStart time.Time, edges, expired int,
) {
	t := &w.ftrace
	t.Reset(trace.KindBatch)
	t.Seq = walSeq
	t.Durable = durable
	t.Edges = int32(edges)
	t.Expired = int32(expired)
	// The trace starts when its oldest submission entered admission, so
	// the admit and queue spans are part of the tree (and of total_ms —
	// the latency a producer actually experienced).
	t.StartNS = stageStart.UnixNano() - queueNS - admitNS
	if admitNS > 0 {
		t.Add(trace.SpanAdmit, 0, 0, admitNS)
	}
	if queueNS > 0 {
		t.Add(trace.SpanQueue, 0, admitNS, queueNS)
	}
	pre := admitNS + queueNS
	t.Add(trace.SpanStage, 0, pre, stageNS)
	if walNS > 0 {
		t.Add(trace.SpanWALAppend, 0, pre+walOffNS, walNS)
		if fsyncNS > 0 {
			t.Add(trace.SpanWALFsync, 0, pre+walOffNS, fsyncNS)
		}
	}
	applyOff := pre + applyStart.Sub(stageStart).Nanoseconds()
	w.mux.forEachLastTiming(func(idx int, waitNS, monApplyNS int64) {
		t.Add(trace.SpanMonitorWait, int32(idx), applyOff, waitNS)
		t.Add(trace.SpanMonitorApply, int32(idx), applyOff+waitNS, monApplyNS)
	})
	pubOff := applyOff + applyNS
	pubNS := time.Since(stageStart).Nanoseconds() + pre - pubOff
	if pubNS < 0 {
		pubNS = 0
	}
	t.Add(trace.SpanPublish, 0, pubOff, pubNS)
	// Level spans go last. Their number grows with msfweight's kept
	// levels, so when a trace runs out of its trace.MaxSpans the spans
	// dropped are levels, never a slot's wait or apply or the publish,
	// whatever the slot order.
	if edges > 0 {
		w.mux.forEachLevelSpan(func(level int, startNS, durNS int64) {
			t.Add(trace.SpanLevel, int32(level), applyOff+startNS, durNS)
		})
	}
	t.TotalNS = pubOff + pubNS
	ft.Commit(t)
}

// setRecorder installs the write-ahead hook batches are logged through;
// the hook returns the WAL sequence assigned to the batch's first edge,
// which becomes the batch's flight-recorder trace ID (stable across
// restarts — replaying the log reproduces the same sequences).
// Must be installed before any producer can reach Apply (the registry
// attaches it while the window is still unpublished).
func (w *WindowManager) setRecorder(rec func([]Edge) (uint64, error)) {
	w.coord.Lock()
	w.rec = rec
	w.coord.Unlock()
}

// Watermark returns the expiry low-watermark: the number of arrivals this
// manager has expired (staged — the durable truth; the monitors may be
// mid-apply). The durability layer persists it (offset by the recovery
// base) so restarts replay only the unexpired suffix.
func (w *WindowManager) Watermark() int64 {
	w.coord.Lock()
	defer w.coord.Unlock()
	return w.stats.Expired
}

// LiveEdges calls fn exactly once with the expiry watermark (arrivals
// expired so far) and the unexpired arrivals in arrival order, as two
// slices of the live ring: older holds the oldest arrivals and newer the
// rest. That is the canonical window content: count/time/both expiry have
// already trimmed the prefix, and event times are the post-clamp values
// the WAL logged, so re-applying older then newer reproduces the window
// state exactly (recency weights make the forests canonical in the arrival
// sequence). fn runs under the coordinator lock — NOT the monitor locks:
// queries proceed untouched, staging waits, and the (watermark, edges)
// pair is atomic because both are staging state — no arrival can land or
// expire between the two. The pair is consistent with the write-ahead log
// for the same reason: the recorder appends under the same coord hold
// that updates both. fn must not retain the slices.
//
// Fails with errNoRing on a window that keeps no ring: serving a partial
// ring as "the window" would be silent data loss.
func (w *WindowManager) LiveEdges(fn func(expired int64, older, newer []Edge) error) error {
	if !w.keepsRing() {
		return errNoRing
	}
	w.coord.Lock()
	defer w.coord.Unlock()
	older, newer := w.live.Slices()
	return fn(w.stats.Expired, older, newer)
}

// skipEdges drops the first k arrivals of the sequence older, newer that
// LiveEdges serves, 0 <= k <= len(older)+len(newer).
func skipEdges(older, newer []Edge, k int64) ([]Edge, []Edge) {
	if k <= int64(len(older)) {
		return older[k:], newer
	}
	return nil, newer[k-int64(len(older)):]
}

var errNoRing = errors.New("stream: window keeps no live ring (in memory, with no expiry)")

// keepsRing reports whether the window keeps its live ring. A window
// that expires arrivals keeps it (time-based expiry reads event times
// back from it), at sizeof(Edge) per slot: MaxArrivals slots under a
// count cap, and under time expiry alone up to twice the peak number of
// unexpired arrivals; a durable one keeps it for its checkpoint
// snapshots. An in-memory window with no expiry keeps none: its ring
// would hold every arrival ever, where its monitors hold only their
// forests. Such a window cannot rebuild a quarantined slot.
func (w *WindowManager) keepsRing() bool {
	return w.cfg.MaxArrivals > 0 || w.cfg.MaxAge > 0 || w.cfg.durable
}

// ExpireByAge runs the time-based expiry policy without inserting anything;
// the service's expiry ticker calls it so idle streams still age out.
func (w *WindowManager) ExpireByAge(now time.Time) int {
	w.writerMu.Lock()
	defer w.writerMu.Unlock()
	w.coord.Lock()
	delta := w.stageExpiryLocked(now)
	w.coord.Unlock()
	if delta == 0 {
		return 0
	}
	m := w.metrics
	m.edgesExpired.Add(int64(delta))
	w.epoch.Add(1)
	m.applyInflight.Add(1)
	w.mux.Apply(nil, delta, 0)
	m.applyInflight.Add(-1)
	w.publish(w.epoch.Load()+1, nil)
	w.epoch.Add(1)
	w.kickRebuilds()
	return delta
}

// stageExpiryLocked computes and stages the expiry delta under coord:
// the arrivals the count-capped ring dropped, then the ring's prefix by
// age, then the ring and the Expired counter advance. The monitors have
// NOT seen the delta yet — the caller applies it through the fan-out.
func (w *WindowManager) stageExpiryLocked(now time.Time) int {
	if !w.keepsRing() {
		return 0 // such a window has no expiry
	}
	// The dropped arrivals are older than all the ring holds, so they lead
	// the age prefix.
	dropped := int(w.windowLenLocked()) - w.live.Len()
	delta := dropped
	if w.cfg.MaxAge > 0 {
		cutoff := now.Add(-w.cfg.MaxAge).UnixNano()
		for i := 0; i < w.live.Len() && w.live.At(i).T.UnixNano() <= cutoff; i++ {
			delta++
		}
	}
	if delta == 0 {
		return 0
	}
	w.live.Discard(delta - dropped)
	w.stats.Expired += int64(delta)
	return delta
}

func (w *WindowManager) windowLenLocked() int64 {
	return w.stats.Arrivals - w.stats.Expired
}

// WindowLen returns the number of unexpired arrivals (staged).
func (w *WindowManager) WindowLen() int64 {
	w.coord.Lock()
	defer w.coord.Unlock()
	return w.windowLenLocked()
}

// Stats snapshots the window counters. The counters are staging state
// (mutually consistent under coord — they always describe a whole number
// of staged ops); Epoch records whether the monitors had fully caught up
// (even) or an apply was in flight (odd) at snapshot time.
func (w *WindowManager) Stats() WindowStats {
	e := w.epoch.Load()
	w.coord.Lock()
	s := w.stats
	w.coord.Unlock()
	s.WindowLen = s.Arrivals - s.Expired
	s.Epoch = e
	return s
}

// ApplyParallelism reports the width of the msfweight level fork-join in
// this window's batch applies: the calling goroutine plus the auxiliary
// workers of the process-wide parallel.Default budget, which the levels
// of every window share.
func (w *WindowManager) ApplyParallelism() int { return parallel.Default().Aux() + 1 }

// publish builds the scalar answers of every healthy slot, stamped with
// epoch, and stores them for readers. Writer-only (under writerMu, or
// before the window is shared), after the fan-out has joined, so the
// monitors are read without their locks. lifting, when non-nil, is a
// rebuilt slot about to leave quarantine: its replacement is read.
func (w *WindowManager) publish(epoch uint64, lifting *monitorSlot) {
	a := &answers{epoch: epoch}
	for _, s := range w.mux.slots {
		if q := s.quar.Load(); q != nil && s != lifting {
			a.quar[s.idx] = q
			continue
		}
		s.mon.summarize(a)
		a.vertices[s.idx] = s.mon.treeVertices()
	}
	a.bipartite = a.coverComponents == 2*a.components
	w.ans.Store(a)
}

// absent returns the quarantine record that keeps the named configured
// monitor's answer out of a, nil when the answer is in.
func (w *WindowManager) absent(a *answers, name string) *QuarantineInfo {
	if name == MonitorBipartite {
		if q := a.quar[w.mux.forest.idx]; q != nil {
			return q
		}
	}
	return a.quar[w.mux.byName[name].idx]
}

// published returns the latest published answers for a read of the named
// monitor: one atomic load, so the read never waits for an apply. It
// translates "not configured" into ErrNoMonitor and "a slot the answer
// reads is quarantined" into ErrMonitorQuarantined (nudging the rebuild),
// returning noAnswers beside the error. With the flight recorder wired,
// the read commits a query trace with one exec span.
func (w *WindowManager) published(name string) (*answers, error) {
	s := w.mux.byName[name]
	if s == nil {
		return noAnswers, fmt.Errorf("%w: %s", ErrNoMonitor, name)
	}
	start := time.Now()
	a := w.ans.Load()
	if q := w.absent(a, name); q != nil {
		return noAnswers, w.quarantineErr(name, q)
	}
	if qf := w.qflight; qf != nil {
		traceQuery(qf, s.idx, start, 0, time.Since(start).Nanoseconds())
	}
	return a, nil
}

// readMonitor runs fn on the slot that answers the named monitor, under
// that slot's read lock, translating "not configured" into ErrNoMonitor
// and "quarantined after an apply panic" into ErrMonitorQuarantined (and
// nudging the background rebuild, in case no apply has run since the
// panic). When the flight recorder is wired, each query commits a
// two-span trace (lock wait + execute) to the window's query ring.
func (w *WindowManager) readMonitor(name string, fn func(Monitor)) error {
	s := w.mux.byName[name]
	if s == nil {
		return fmt.Errorf("%w: %s", ErrNoMonitor, name)
	}
	start := time.Now()
	waitNS, execNS, q := s.read(fn)
	if q != nil {
		return w.quarantineErr(name, q)
	}
	if qf := w.qflight; qf != nil {
		traceQuery(qf, s.idx, start, waitNS, execNS)
	}
	return nil
}

// traceQuery commits a query's trace: a lock-wait span when it waited,
// then its exec span, both on slot idx. The trace lives on the stack, so
// concurrent queries never contend on anything but the ring slot.
func traceQuery(qf *trace.Ring, idx int, start time.Time, waitNS, execNS int64) {
	var t trace.Trace
	t.Reset(trace.KindQuery)
	t.Seq = qf.SeqNext()
	t.StartNS = start.UnixNano()
	if waitNS > 0 {
		t.Add(trace.SpanLockWait, int32(idx), 0, waitNS)
	}
	t.Add(trace.SpanExec, int32(idx), waitNS, execNS)
	t.TotalNS = waitNS + execNS
	qf.Commit(&t)
}

// quarantineErr wraps a quarantine record met by a read of the named
// monitor into ErrMonitorQuarantined, naming the quarantined slot, and
// nudges the background rebuild; nil for no record.
func (w *WindowManager) quarantineErr(name string, q *QuarantineInfo) error {
	if q == nil {
		return nil
	}
	w.kickRebuilds()
	return fmt.Errorf("%w: %s: slot %s: %s", ErrMonitorQuarantined, name, q.Monitor, q.Reason)
}

// IsConnected reports window connectivity of u and v (conn monitor: the
// forest's F_1), under the forest slot's read lock.
func (w *WindowManager) IsConnected(u, v int32) (bool, error) {
	if u < 0 || int(u) >= w.cfg.N || v < 0 || int(v) >= w.cfg.N {
		return false, fmt.Errorf("stream: vertex out of range [0, %d)", w.cfg.N)
	}
	var ans bool
	err := w.readMonitor(MonitorConn, func(m Monitor) {
		ans = m.(*forestMonitor).kc.IsConnected(u, v)
	})
	return ans, err
}

// NumComponents returns the number of connected components of the window
// graph (conn monitor: n − |F_1|), from the published answers.
func (w *WindowManager) NumComponents() (int, error) {
	a, err := w.published(MonitorConn)
	return a.components, err
}

// IsBipartite reports whether the window graph is bipartite (Theorem 5.3:
// the double cover has twice the forest's component count), from the
// published answers.
func (w *WindowManager) IsBipartite() (bool, error) {
	a, err := w.published(MonitorBipartite)
	return a.bipartite, err
}

// MSFWeight returns the (1+ε)-approximate MSF weight of the window graph,
// from the published answers.
func (w *WindowManager) MSFWeight() (float64, error) {
	a, err := w.published(MonitorMSFWeight)
	return a.weight, err
}

// edgeConnectivity is KCertInfo's min-cut, a variable for tests to hold.
var edgeConnectivity = mincut.EdgeConnectivityUpTo

// KCertInfo returns the k-certificate size and min(K, edge connectivity),
// both from one copy of F_1, ..., F_K taken under ONE read-lock hold. The
// min-cut runs on the copy after the lock is released, so neither the
// forest's apply nor the conn reads behind it wait it out: O(n) for K <= 2,
// a dense Stoer–Wagner above (mincut.EdgeConnectivityUpTo).
func (w *WindowManager) KCertInfo() (size, conn int, err error) {
	k := w.mux.cfg.K
	var cert []wgraph.Edge
	err = w.readMonitor(MonitorKCert, func(m Monitor) {
		cert = m.(*forestMonitor).kc.CertificateUpTo(k)
	})
	if err != nil {
		return 0, 0, err
	}
	return len(cert), edgeConnectivity(w.cfg.N, cert, k), nil
}

// HasCycle reports whether the window graph contains a cycle (cyclefree
// monitor: |F_2| > 0), from the published answers.
func (w *WindowManager) HasCycle() (bool, error) {
	a, err := w.published(MonitorCycleFree)
	return a.cycle, err
}

// QuerySummary returns every configured monitor's scalar answer from one
// published record, so they ALL correspond to one apply epoch — one prefix
// of staged ops — and the cross-monitor invariants hold (e.g. cycle =>
// components < n). One atomic load: it never waits for an apply. A
// quarantined slot's answers are left out and its name is listed instead —
// a partial summary with an explicit reason beats failing the healthy
// answers.
func (w *WindowManager) QuerySummary() QuerySummary {
	a := w.ans.Load()
	res := QuerySummary{Epoch: a.epoch}
	for _, s := range w.mux.slots {
		if a.quar[s.idx] != nil {
			res.Quarantined = append(res.Quarantined, s.name)
		}
	}
	for _, name := range w.mux.names {
		if w.absent(a, name) != nil {
			continue
		}
		switch name {
		case MonitorConn:
			res.Components = ptr(a.components)
		case MonitorCycleFree:
			res.HasCycle = ptr(a.cycle)
		case MonitorKCert:
			res.CertificateSize = ptr(a.kcertSize)
		case MonitorBipartite:
			res.Bipartite = ptr(a.bipartite)
		case MonitorMSFWeight:
			res.MSFWeight = ptr(a.weight)
		}
	}
	return res
}

func ptr[T any](v T) *T { return &v }

// Quarantined snapshots the quarantined monitors' records (nil when
// healthy). /stats serves it so operators see the reason and stack without
// grepping logs.
func (w *WindowManager) Quarantined() []QuarantineInfo { return w.mux.Quarantined() }

// hasQuarantine reports whether any monitor is quarantined (one atomic
// load — the health gauges poll it per scrape).
func (w *WindowManager) hasQuarantine() bool { return w.mux.anyQuarantined() }

// kickRebuilds claims every quarantined monitor nobody is rebuilding yet
// and starts a background rebuild for each. Gated on a single atomic load,
// so calling it after every apply — and on every query that hits a
// quarantined monitor — is free in the healthy steady state.
func (w *WindowManager) kickRebuilds() {
	if !w.mux.anyQuarantined() {
		return
	}
	for _, s := range w.mux.claimRebuilds() {
		go w.rebuildSlot(s)
	}
}

// rebuildSlot replaces a quarantined monitor with a freshly built one fed
// the window's canonical content, without ever stopping the writer:
// catch-up rounds copy the missing arrival suffix under coord and apply it
// to the private replacement outside all locks while the stream keeps
// flowing; only the final (small) delta is applied with the writer held
// out, then the swap lifts the quarantine. Sound because every monitor's
// state is a function of the unexpired arrival suffix applied as in-order
// inserts plus a prefix expiry — exactly what LiveEdges serves — and
// because insert-then-expire batching is equivalent to the interleaved
// history (recency weights make the forests canonical in the arrival
// sequence).
func (w *WindowManager) rebuildSlot(s *monitorSlot) {
	defer func() {
		if r := recover(); r != nil {
			reason, _ := describePanic(r)
			w.mux.failRebuild(s, "rebuild panicked: "+reason)
			if w.logger != nil {
				w.logger.Error("monitor rebuild failed permanently",
					"window", w.cfg.Name, "monitor", s.name, "reason", reason)
			}
		}
	}()
	if !w.keepsRing() {
		// No canonical content to rebuild from.
		w.mux.failRebuild(s, errNoRing.Error())
		return
	}
	start := time.Now()
	fresh := w.mux.newMonitor(s)
	// fresh holds arrivals [fExp, fEnd) in absolute arrival indices; both
	// are 0 until the first round seeds it.
	var fExp, fEnd int64
	seeded := false
	// expireCount is how many of fresh's entries fall below the new expiry
	// watermark exp2: its entries are [fExp, fEnd) plus a suffix starting
	// at max(fEnd, exp2), so min(fEnd, exp2) − fExp of them expire. The
	// same formula covers the lapped case (exp2 > fEnd: everything old
	// expires, the middle arrivals were never inserted).
	expireCount := func(exp2 int64) int64 {
		cut := fEnd
		if exp2 < cut {
			cut = exp2
		}
		return cut - fExp
	}
	const (
		maxRounds   = 8    // offline rounds before forcing the locked finish
		finalMaxLag = 4096 // captured-suffix size small enough to finish locked
	)
	// LiveEdges fails only without a ring (ruled out above) or when its
	// callback does, and the callbacks below never fail.
	var scratch []Edge
	for r := 0; r < maxRounds; r++ {
		var exp2, end2 int64
		_ = w.LiveEdges(func(expired int64, older, newer []Edge) error {
			exp2 = expired
			end2 = expired + int64(len(older)+len(newer))
			from := fEnd
			if exp2 > from {
				from = exp2
			}
			// Copy: the batch is applied after coord is released.
			older, newer = skipEdges(older, newer, from-exp2)
			scratch = append(append(scratch[:0], older...), newer...)
			return nil
		})
		expire := int64(0)
		if seeded {
			expire = expireCount(exp2)
		}
		if len(scratch) > 0 {
			fresh.BatchInsert(scratch)
		}
		if expire > 0 {
			fresh.BatchExpire(int(expire))
		}
		seeded = true
		fExp, fEnd = exp2, end2
		if int64(len(scratch)) <= finalMaxLag {
			break // close enough: the locked delta will be tiny
		}
	}
	// Final round: with the writer held out the content is frozen, so the
	// remaining delta is applied inside the coord hold (no copy) and the
	// swap publishes a replacement that exactly matches its siblings. The
	// deferred unlock lets a panic here fail the rebuild (see the recover
	// above) without wedging the writer.
	func() {
		w.writerMu.Lock()
		defer w.writerMu.Unlock()
		// Fault rules on the slot's apply path reach its rebuild too, here
		// where the apply path checks them: with the writer held out.
		if w.mux.applyCheck != nil {
			w.mux.applyCheck(s.name)
		}
		_ = w.LiveEdges(func(expired int64, older, newer []Edge) error {
			exp2 := expired
			from := fEnd
			if exp2 > from {
				from = exp2
			}
			older, newer = skipEdges(older, newer, from-exp2)
			for _, batch := range [2][]Edge{older, newer} {
				if len(batch) > 0 {
					fresh.BatchInsert(batch)
				}
			}
			if expire := expireCount(exp2); expire > 0 {
				fresh.BatchExpire(int(expire))
			}
			return nil
		})
		w.mux.swapMonitor(s, fresh, func() { w.publish(w.epoch.Load(), s) })
	}()
	w.metrics.monRebuilds.Inc()
	if w.logger != nil {
		w.logger.Info("quarantined monitor rebuilt",
			"window", w.cfg.Name, "monitor", s.name,
			"elapsed", time.Since(start).Round(time.Millisecond))
	}
}
