package stream

import (
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// processStart anchors sw_uptime_seconds; package init is close enough to
// process start for an uptime gauge.
var processStart = time.Now()

// Metrics bundles every stream-layer instrument. The bundle is resolved
// once at wiring time (NewMetrics) and handed to each pipeline component,
// which holds the instruments it needs as direct fields — the hot path
// never touches the registry, a map, or a lock.
//
// A nil *Metrics (or the package-level noMetrics zero bundle) is the
// "compiled-out" recorder: every instrument field is nil and every
// observation is a nil-check branch and nothing else. This is what
// BenchmarkIngestTelemetryOff measures the instrumented build against.
//
// Cardinality discipline: windows come and go under tenant control, so no
// metric is labeled by window name — per-window numbers live in /stats,
// and the Prometheus families aggregate across windows. The only labels in
// the bundle are the monitor label, whose universe is the fixed AllSlots
// set, and the HTTP route pattern, whose universe is the route table.
type Metrics struct {
	reg *telemetry.Registry

	// Ingester.
	ingestEdges    *telemetry.Counter
	queueBatches   *telemetry.Gauge
	queueEdges     *telemetry.Gauge
	queueBytes     *telemetry.Gauge
	queueWait      *telemetry.Histogram
	flushEdges     *telemetry.Histogram
	flushThreshold *telemetry.Counter
	flushDeadline  *telemetry.Counter
	flushManual    *telemetry.Counter
	flushShutdown  *telemetry.Counter

	// Admission control, indexed by admitReason (fixed label universe:
	// edges, bytes, rate).
	rejectedBatches [admitReasons]*telemetry.Counter
	rejectedEdges   [admitReasons]*telemetry.Counter

	// Batch lifecycle (WindowManager.Apply).
	stageSeconds   *telemetry.Histogram
	fanoutSeconds  *telemetry.Histogram
	batchSeconds   *telemetry.Histogram
	batchesApplied *telemetry.Counter
	edgesApplied   *telemetry.Counter
	edgesDropped   *telemetry.Counter
	edgesExpired   *telemetry.Counter
	applyInflight  *telemetry.Gauge

	// Per-monitor fan-out, labeled by the fixed monitor-name set.
	monApply map[string]*telemetry.Histogram
	monWait  map[string]*telemetry.Histogram

	// Fault isolation: apply-panic quarantines and completed rebuilds.
	// Counters, not per-monitor gauges — live quarantine state is served by
	// sw_window_health and /stats (cardinality discipline).
	monQuarantines *telemetry.Counter
	monRebuilds    *telemetry.Counter

	// WAL / durability.
	walAppendSeconds  *telemetry.Histogram
	walFsyncSeconds   *telemetry.Histogram
	walAppends        *telemetry.Counter
	walBytes          *telemetry.Counter
	walFsyncs         *telemetry.Counter
	walRepairs        *telemetry.Counter
	walRepairedBytes  *telemetry.Counter
	checkpointSeconds *telemetry.Histogram
	checkpoints       *telemetry.Counter
	snapshots         *telemetry.Counter
	snapshotEdges     *telemetry.Counter

	// Recovery.
	recoveryRecords *telemetry.Counter
	recoveryEdges   *telemetry.Counter

	// HTTP front-end.
	httpInflight *telemetry.Gauge
}

// noMetrics is the shared disabled bundle: every instrument nil, every
// observation a no-op. Pipeline components default to it so observation
// sites never need their own nil checks on the bundle itself.
var noMetrics = &Metrics{}

// NewMetrics registers the stream-layer metric families on reg and returns
// the wired bundle. Call once per process; re-calling with the same
// registry returns instruments backed by the same families (registration
// is get-or-create).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	m := &Metrics{reg: reg}

	m.ingestEdges = reg.Counter("sw_ingest_edges_total",
		"Edges accepted by Submit across all windows.")
	m.queueBatches = reg.Gauge("sw_ingest_queue_batches",
		"Submitted batches waiting in ingest queues (all windows).")
	m.queueEdges = reg.Gauge("sw_ingest_queue_edges",
		"Edges inside queued submissions (all windows).")
	m.queueBytes = reg.Gauge("sw_ingest_queue_bytes",
		"In-memory bytes of queued edges (edges × sizeof(Edge), all windows).")
	m.queueWait = reg.Histogram("sw_ingest_queue_wait_seconds",
		"Time a submission waited in the ingest queue before the flush goroutine absorbed it.")
	m.flushEdges = reg.ValueHistogram("sw_ingest_flush_edges",
		"Edges per flushed batch.")
	reason := func(r string) *telemetry.Counter {
		return reg.Counter("sw_ingest_flushes_total",
			"Batches flushed to the apply path, by trigger.", telemetry.L("reason", r))
	}
	m.flushThreshold = reason("threshold")
	m.flushDeadline = reason("deadline")
	m.flushManual = reason("manual")
	m.flushShutdown = reason("shutdown")
	for r := admitReason(0); r < admitReasons; r++ {
		m.rejectedBatches[r] = reg.Counter("sw_ingest_rejected_total",
			"Submissions turned away by admission control, by cause.",
			telemetry.L("reason", admitReasonNames[r]))
		m.rejectedEdges[r] = reg.Counter("sw_ingest_rejected_edges_total",
			"Edges inside submissions turned away by admission control, by cause.",
			telemetry.L("reason", admitReasonNames[r]))
	}

	m.stageSeconds = reg.Histogram("sw_apply_stage_seconds",
		"Batch staging under the coordinator lock: validate, clamp, ring append, WAL append, expiry computation.")
	m.fanoutSeconds = reg.Histogram("sw_apply_fanout_seconds",
		"Monitor fan-out wall time per staged op (max across monitors under parallel fan-out).")
	m.batchSeconds = reg.Histogram("sw_apply_batch_seconds",
		"Whole batch apply: staging plus fan-out.")
	m.batchesApplied = reg.Counter("sw_apply_batches_total",
		"Staged ops carrying at least one valid edge.")
	m.edgesApplied = reg.Counter("sw_apply_edges_total",
		"Valid edges applied to the window monitors.")
	m.edgesDropped = reg.Counter("sw_apply_edges_dropped_total",
		"Edges dropped at staging (endpoint out of range or self-loop).")
	m.edgesExpired = reg.Counter("sw_expired_edges_total",
		"Arrivals expired out of the sliding window (count cap and age policy).")
	m.applyInflight = reg.Gauge("sw_apply_inflight",
		"Monitor fan-outs currently in flight (all windows).")

	m.monApply = make(map[string]*telemetry.Histogram)
	m.monWait = make(map[string]*telemetry.Histogram)
	for _, name := range AllSlots() {
		m.monApply[name] = reg.Histogram("sw_monitor_apply_seconds",
			"Time the writer held one fan-out slot's write lock per staged op — the window a query that slot answers can block for.",
			telemetry.L("monitor", name))
		m.monWait[name] = reg.Histogram("sw_monitor_wait_seconds",
			"Time the writer waited to acquire one fan-out slot's write lock (readers holding it out).",
			telemetry.L("monitor", name))
	}

	m.monQuarantines = reg.Counter("sw_monitor_quarantines_total",
		"Monitors quarantined after a panic during batch apply.")
	m.monRebuilds = reg.Counter("sw_monitor_rebuilds_total",
		"Quarantined monitors replaced by a completed background rebuild.")

	m.walAppendSeconds = reg.Histogram("sw_wal_append_seconds",
		"WAL record write latency (encode + write, excluding fsync).")
	m.walFsyncSeconds = reg.Histogram("sw_wal_fsync_seconds",
		"WAL fsync latency.")
	m.walAppends = reg.Counter("sw_wal_appends_total",
		"WAL records written.")
	m.walBytes = reg.Counter("sw_wal_appended_bytes_total",
		"Encoded bytes appended to WAL segments.")
	m.walFsyncs = reg.Counter("sw_wal_fsyncs_total",
		"WAL fsync calls.")
	m.walRepairs = reg.Counter("sw_wal_torn_tail_repairs_total",
		"Segment tails truncated at open because of a torn or corrupt record.")
	m.walRepairedBytes = reg.Counter("sw_wal_repaired_bytes_total",
		"Bytes discarded by torn-tail repairs.")
	m.checkpointSeconds = reg.Histogram("sw_checkpoint_seconds",
		"Whole checkpoint pass duration (snapshots, manifest, segment GC).")
	m.checkpoints = reg.Counter("sw_checkpoints_total",
		"Completed checkpoint passes.")
	m.snapshots = reg.Counter("sw_snapshots_total",
		"Live-edge snapshot files committed.")
	m.snapshotEdges = reg.Counter("sw_snapshot_edges_total",
		"Live edges captured into committed snapshots.")

	m.recoveryRecords = reg.Counter("sw_recovery_replayed_records_total",
		"WAL records replayed during boot recovery.")
	m.recoveryEdges = reg.Counter("sw_recovery_replayed_edges_total",
		"Edges replayed during boot recovery.")

	m.httpInflight = reg.Gauge("sw_http_inflight",
		"HTTP requests currently being served.")

	// Identification families: which build is this, and how long has it
	// been up — the first two questions of any incident. The build info is
	// the standard value-is-1 gauge whose labels carry the metadata.
	reg.Gauge("sw_build_info",
		"Build metadata; the value is always 1.",
		telemetry.L("go_version", runtime.Version()),
		telemetry.L("gomaxprocs", strconv.Itoa(runtime.GOMAXPROCS(0))),
		telemetry.L("revision", buildRevision()),
	).Set(1)
	reg.GaugeFunc("sw_uptime_seconds",
		"Seconds since process start.",
		func() float64 { return time.Since(processStart).Seconds() })
	return m
}

// buildRevision extracts the VCS revision stamped into the binary
// ("unknown" for test binaries and non-VCS builds, "-dirty" appended for
// modified trees).
func buildRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// on reports whether the bundle records anything: only bundles built by
// NewMetrics do. Sites that would pay for a measurement even with nil-safe
// instruments (an extra clock read, a map lookup) gate on it.
func (m *Metrics) on() bool { return m != nil && m.reg != nil }

// orNoop normalizes a possibly-nil bundle so components can hold it
// unconditionally.
func (m *Metrics) orNoop() *Metrics {
	if m == nil {
		return noMetrics
	}
	return m
}

// Registry exposes the underlying telemetry registry (nil when disabled) —
// the server mounts its Handler at /metrics.
func (m *Metrics) Registry() *telemetry.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// monitorApplyHist / monitorWaitHist resolve the per-monitor histograms;
// nil (a no-op instrument) for unknown monitors or a disabled bundle.
func (m *Metrics) monitorApplyHist(name string) *telemetry.Histogram {
	if m == nil {
		return nil
	}
	return m.monApply[name]
}

func (m *Metrics) monitorWaitHist(name string) *telemetry.Histogram {
	if m == nil {
		return nil
	}
	return m.monWait[name]
}

// ExemplarView is one histogram family's p-max exemplar for /stats: the
// largest observation the family has seen and the flight-recorder trace
// that produced it, resolvable at /debug/flight.
type ExemplarView struct {
	Family  string  `json:"family"`
	Monitor string  `json:"monitor,omitempty"`
	Seconds float64 `json:"seconds"`
	TraceID string  `json:"trace_id"`
}

// Exemplars snapshots the max exemplar of every trace-tagged histogram
// family (batch lifecycle and per-monitor fan-out); families that never
// saw a traced observation are omitted.
func (m *Metrics) Exemplars() []ExemplarView {
	if !m.on() {
		return nil
	}
	var out []ExemplarView
	add := func(family, monitor string, h *telemetry.Histogram) {
		ex := h.MaxExemplar()
		if ex.TraceID == 0 {
			return
		}
		out = append(out, ExemplarView{
			Family:  family,
			Monitor: monitor,
			Seconds: float64(ex.Value) / 1e9,
			TraceID: trace.FormatID(ex.TraceID),
		})
	}
	add("sw_apply_stage_seconds", "", m.stageSeconds)
	add("sw_apply_fanout_seconds", "", m.fanoutSeconds)
	add("sw_apply_batch_seconds", "", m.batchSeconds)
	for _, name := range AllSlots() {
		add("sw_monitor_apply_seconds", name, m.monApply[name])
		add("sw_monitor_wait_seconds", name, m.monWait[name])
	}
	return out
}

// routeHist registers (or fetches) the per-route request latency histogram.
// Returns nil — a no-op instrument — when the bundle is disabled.
func (m *Metrics) routeHist(route string) *telemetry.Histogram {
	if !m.on() {
		return nil
	}
	return m.reg.Histogram("sw_http_request_seconds",
		"HTTP request latency by route pattern.", telemetry.L("route", route))
}
