package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wal"
)

// ErrNotPersistent is returned by Checkpoint on a registry without a
// durability layer.
var ErrNotPersistent = errors.New("stream: registry has no persistence")

// ErrWindowDegraded marks a window whose WAL lost its append path: edges
// are still accepted and applied (availability over durability) but are NOT
// reaching the log. Sync-ack submissions fail with it (503 upstream)
// instead of lying about durability; async ingest keeps flowing. The
// self-heal loop clears it only after the log is writable again AND a
// forced live-edge snapshot has closed the un-logged gap — recovery
// correctness restored, not just append success.
var ErrWindowDegraded = errors.New("stream: window WAL degraded (appends not durable)")

// FsyncPolicy names a WAL fsync policy on the wire and the command line.
type FsyncPolicy string

const (
	// FsyncInterval fsyncs at most once per SyncEvery (default); a power
	// loss risks one interval of acknowledged edges, a process crash none.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncBatch fsyncs every flushed batch; nothing acknowledged is lost.
	FsyncBatch FsyncPolicy = "batch"
	// FsyncOff never fsyncs from the hot path.
	FsyncOff FsyncPolicy = "off"
)

// ParseFsyncPolicy validates a policy name ("" selects the default).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case "":
		return FsyncInterval, nil
	case FsyncInterval, FsyncBatch, FsyncOff:
		return FsyncPolicy(s), nil
	}
	return "", fmt.Errorf("stream: unknown fsync policy %q (want batch, interval or off)", s)
}

func (p FsyncPolicy) walPolicy() wal.SyncPolicy {
	switch p {
	case FsyncBatch:
		return wal.SyncBatch
	case FsyncOff:
		return wal.SyncNone
	default:
		return wal.SyncInterval
	}
}

// PersistenceConfig enables the durability layer of a WindowRegistry: a
// per-window write-ahead batch log plus an atomically-updated manifest,
// giving crash recovery by suffix replay. Zero values select defaults.
type PersistenceConfig struct {
	// Dir is the data directory (required): MANIFEST.json plus one
	// windows/<name>/ log directory per window.
	Dir string
	// Fsync is the WAL fsync policy (default FsyncInterval).
	Fsync FsyncPolicy
	// SyncEvery is the FsyncInterval period (default 100ms).
	SyncEvery time.Duration
	// SegmentBytes is the log segment rotation threshold (default 4 MiB).
	SegmentBytes int64
	// CheckpointInterval runs Checkpoint on a background ticker
	// (persisting expiry watermarks and pruning fully-expired segments).
	// 0 disables the ticker; Checkpoint can still be called manually or
	// via POST /admin/checkpoint.
	CheckpointInterval time.Duration
	// ReplayBatch is the recovery coalescing target in edges (default
	// 128k): replayed records are merged into batches of at least this
	// many edges before being applied, exploiting the paper's batch bound
	// — one BatchInsert of ℓ edges costs O(ℓ·lg(1+n/ℓ)), so rebuilding
	// from a handful of huge batches is far cheaper than re-paying the
	// live stream's per-batch costs. Merging is sound because each
	// monitor's forests are canonical in the arrival sequence (recency
	// weights are distinct), so batch boundaries never change answers.
	ReplayBatch int
	// SnapshotThreshold bounds recovery time: at checkpoint time, a window
	// whose replayable suffix (arrivals past max(expiry watermark, last
	// committed snapshot end)) exceeds this many arrivals gets a fresh
	// live-edge snapshot, and log segments the snapshot covers become
	// GC-eligible. Recovery then seeds the window from the snapshot with
	// one mega-batch apply and replays only the records after it. Default
	// 1M arrivals (0 selects it); negative disables snapshot writing.
	SnapshotThreshold int
	// HealRetry is the initial delay between self-heal attempts on a
	// degraded window's WAL (default 250ms); the delay doubles per failed
	// attempt, capped at 32× the initial value. Tests shrink it.
	HealRetry time.Duration

	// fs routes every durability-layer disk operation (WAL segments,
	// snapshots, manifest, heal probes); nil selects the real filesystem.
	// The registry injects its fault.Injector here so chaos tests and
	// swload outage schedules exercise the degrade→heal machinery.
	fs fault.FS
}

func (c PersistenceConfig) healRetry() time.Duration {
	if c.HealRetry > 0 {
		return c.HealRetry
	}
	return 250 * time.Millisecond
}

// snapshotThreshold resolves the configured threshold: -1 disabled,
// otherwise the arrival count that triggers a checkpoint snapshot.
func (c PersistenceConfig) snapshotThreshold() int {
	switch {
	case c.SnapshotThreshold < 0:
		return -1
	case c.SnapshotThreshold == 0:
		return 1 << 20
	default:
		return c.SnapshotThreshold
	}
}

// CheckpointStats summarizes one Checkpoint pass.
type CheckpointStats struct {
	Windows        int           `json:"windows"`
	PrunedSegments int           `json:"pruned_segments"`
	Snapshots      int           `json:"snapshots"`        // snapshot files written this pass
	SnapshotEdges  int64         `json:"snapshot_edges"`   // live edges they captured
	PrunedSnaps    int           `json:"pruned_snapshots"` // superseded snapshot files deleted
	Elapsed        time.Duration `json:"elapsed_ns"`
}

// PersistenceStats is the /stats snapshot of the durability layer.
type PersistenceStats struct {
	Dir              string `json:"dir"`
	Fsync            string `json:"fsync"`
	Checkpoints      int64  `json:"checkpoints"`
	Snapshots        int64  `json:"snapshots"` // snapshot files written since boot
	CheckpointErrors int64  `json:"checkpoint_errors"`
	AppendErrors     int64  `json:"append_errors"`
	LastError        string `json:"last_error,omitempty"`
	// DegradedWindows counts windows currently serving without a working
	// WAL; GapEdges is the total arrivals they accepted un-logged so far.
	DegradedWindows int      `json:"degraded_windows"`
	Degraded        []string `json:"degraded,omitempty"` // their names
	GapEdges        int64    `json:"gap_edges,omitempty"`
	// WALHeals counts degraded→healthy transitions since boot.
	WALHeals int64 `json:"wal_heals"`
	// CheckpointFailStreak is the consecutive-failure count of the
	// checkpoint pass (0 after any success) — the number the checkpoint
	// loop's backoff keys off.
	CheckpointFailStreak int64 `json:"checkpoint_fail_streak"`
}

// RecoveryReport summarizes a boot-time recovery pass.
type RecoveryReport struct {
	Windows         int           // windows re-created from the manifest
	Batches         int64         // log records replayed
	Edges           int64         // edges replayed from the log
	SkippedRecords  int64         // records skipped as fully expired
	Snapshots       int           // windows seeded from a snapshot
	SnapshotEdges   int64         // edges loaded from snapshots
	DegradedAtCrash int           // windows the manifest marked WAL-degraded
	LostEdges       int64         // arrivals those windows accepted un-logged (gone)
	Elapsed         time.Duration // wall time of the whole recovery
}

// windowMeta is the JSON image of a window's configuration stored in the
// manifest — everything needed to rebuild the ServiceConfig except the
// clocks, which recovery takes from the registry template.
type windowMeta struct {
	N              int      `json:"n"`
	Seed           uint64   `json:"seed"`
	Monitors       []string `json:"monitors,omitempty"`
	Eps            float64  `json:"eps,omitempty"`
	MaxWeight      int64    `json:"max_weight,omitempty"`
	K              int      `json:"k,omitempty"`
	MaxArrivals    int      `json:"max_arrivals,omitempty"`
	MaxAgeNS       int64    `json:"max_age_ns,omitempty"`
	SyncAck        bool     `json:"sync_ack,omitempty"`
	MaxBatch       int      `json:"max_batch,omitempty"`
	MaxDelayNS     int64    `json:"max_delay_ns,omitempty"`
	QueueLen       int      `json:"queue_len,omitempty"`
	MaxQueueEdges  int64    `json:"max_queue_edges,omitempty"`
	MaxEdgesPerSec int      `json:"max_edges_per_sec,omitempty"`
	BurstEdges     int      `json:"burst_edges,omitempty"`
}

func metaFromConfig(cfg ServiceConfig) windowMeta {
	return windowMeta{
		N:              cfg.Window.N,
		Seed:           cfg.Window.Seed,
		Monitors:       cfg.Window.Monitors,
		Eps:            cfg.Window.Monitor.Eps,
		MaxWeight:      cfg.Window.Monitor.MaxWeight,
		K:              cfg.Window.Monitor.K,
		MaxArrivals:    cfg.Window.MaxArrivals,
		MaxAgeNS:       int64(cfg.Window.MaxAge),
		SyncAck:        cfg.Window.SyncAck,
		MaxBatch:       cfg.Ingest.MaxBatch,
		MaxDelayNS:     int64(cfg.Ingest.MaxDelay),
		QueueLen:       cfg.Ingest.QueueLen,
		MaxQueueEdges:  cfg.Ingest.MaxQueueEdges,
		MaxEdgesPerSec: cfg.Ingest.MaxEdgesPerSec,
		BurstEdges:     cfg.Ingest.BurstEdges,
	}
}

// configFromMeta rebuilds a ServiceConfig, borrowing clocks from the
// template (tests inject FakeClock through it; production leaves it nil
// and gets the real clock).
func configFromMeta(m windowMeta, tpl ServiceConfig) ServiceConfig {
	return ServiceConfig{
		Window: WindowConfig{
			N:           m.N,
			Seed:        m.Seed,
			Monitors:    m.Monitors,
			Monitor:     MonitorConfig{Eps: m.Eps, MaxWeight: m.MaxWeight, K: m.K},
			MaxArrivals: m.MaxArrivals,
			MaxAge:      time.Duration(m.MaxAgeNS),
			Clock:       tpl.Window.Clock,
			SyncAck:     m.SyncAck,
		},
		Ingest: IngesterConfig{
			MaxBatch:       m.MaxBatch,
			MaxDelay:       time.Duration(m.MaxDelayNS),
			QueueLen:       m.QueueLen,
			MaxQueueEdges:  m.MaxQueueEdges,
			MaxEdgesPerSec: m.MaxEdgesPerSec,
			BurstEdges:     m.BurstEdges,
			Clock:          tpl.Ingest.Clock,
		},
	}.withClockDefaults()
}

// persistedWindow is the durability state of one live window.
type persistedWindow struct {
	name string
	svc  *Service
	log  *wal.Log
	meta json.RawMessage
	// base is the absolute arrival index of the window manager's arrival
	// 0: zero for windows created this process lifetime, the first
	// replayed record's seq after a recovery. The manifest watermark is
	// base + WindowManager.Watermark().
	base uint64
	// committed marks the window as published: manifest saves skip
	// uncommitted entries, so a Create that loses its race against Close
	// (and reports ErrRegistryClosed) can never leak a ghost manifest
	// entry that a later restart would resurrect.
	committed bool
	// snapName/snapEnd describe the newest snapshot that reached disk
	// durably (Commit's fsync+rename succeeded): the file name and the
	// arrival index one past its last edge. They feed the manifest and —
	// critically — the GC horizon: a snapshot attempt that failed must
	// leave them untouched, or pruning would eat the log suffix the next
	// recovery still needs.
	snapName string
	snapEnd  uint64
	// scratch is the wal.Edge conversion buffer; only the single flush
	// goroutine touches it (the recorder runs under the window coordinator
	// lock, from the one staging writer — the heal loop's catch-up append
	// also runs under that lock, so it may share the buffer).
	scratch []wal.Edge

	// degraded marks the WAL append path broken: the recorder stops
	// touching the log, tallies the un-logged arrivals in gap, and returns
	// ErrWindowDegraded so sync acks fail honestly. Set by the recorder on
	// append failure, cleared only by a completed heal (log writable again
	// AND a forced snapshot covering every un-logged arrival committed).
	degraded atomic.Bool
	gap      atomic.Int64
	// healing guards the per-window heal loop: one goroutine at a time.
	healing atomic.Bool
}

func (pw *persistedWindow) watermark() uint64 {
	return pw.base + uint64(pw.svc.Window().Watermark())
}

// persister owns a registry's durability state: the per-window logs and
// the manifest image. Its mutex serializes window-table changes and
// manifest writes; it is never taken from the recorder hot path (which
// holds the window coordinator lock), so {coord → log} and {persister →
// coord, persister → log} never form a cycle.
type persister struct {
	cfg    PersistenceConfig
	fs     fault.FS // every disk op routes through it (never nil)
	walOpt wal.Options
	m      *Metrics        // telemetry bundle (never nil; noMetrics when off)
	flight *trace.Recorder // registry's flight recorder (recovery wiring)
	logger *slog.Logger    // structured log sink (never nil)

	// Heal-loop lifecycle: loops register on healWG and exit on stopHeal
	// (or when their window is gone). closeAll stops and joins them OUTSIDE
	// p.mu — a heal's publish step takes p.mu, so joining under it would
	// deadlock.
	stopHeal chan struct{}
	stopOnce sync.Once
	healWG   sync.WaitGroup

	healsTotal      atomic.Int64 // completed degraded→healthy transitions
	healedGapEdges  atomic.Int64 // un-logged arrivals those heals covered
	ckptConsecFails atomic.Int64 // consecutive checkpoint failures (0 after success)

	// Health/age tracking for the readiness probes and age gauges, all
	// UnixNano (0 = never). lastCheckpointAt starts at open so
	// checkpoint-age alerts measure from boot, not from 1970.
	lastCheckpointAt  atomic.Int64
	lastSnapshotAt    atomic.Int64
	lastSnapshotEdges atomic.Int64

	mu sync.Mutex
	// wins is the window table, copy-on-write: add, drop and close store a
	// new map under mu, and a stored map is never modified. Reading the
	// degraded flags (/stats, /readyz, sw_window_health) and the segment
	// count (sw_wal_segments) loads it without mu, so it never waits out a
	// manifest write or a checkpoint's syncs.
	wins   cowMap[persistedWindow]
	closed bool // set by closeAll: no further manifest writes

	// ckptMu serializes whole checkpoint passes (ticker, manual trigger,
	// tests) so p.mu can be released during the multi-megabyte snapshot
	// file writes without two passes interleaving. Ordering: ckptMu may
	// take p.mu, never the reverse.
	ckptMu sync.Mutex

	// Completed checkpoint passes and committed snapshots since boot: the
	// persistence block of /stats, and sw_checkpoints_total and
	// sw_snapshots_total on /metrics.
	checkpoints atomic.Int64
	snapshots   atomic.Int64

	// testSnapshotFail, when set (tests only), is invoked before a
	// snapshot's Commit and can force the write to fail — the regression
	// hook for "a failed snapshot must never move the GC horizon".
	testSnapshotFail func(window string) error

	// errMu guards the error tallies; the append side is written from the
	// recorder (which holds the window coordinator lock — see the ordering
	// note above), so it must never nest inside p.mu acquisition from
	// there.
	errMu       sync.Mutex
	appendErrs  int64
	lastErr     error // sticky: an append error means acknowledged data is missing from the log
	ckptErrs    int64
	lastCkptErr error // transient: cleared by the next successful checkpoint
}

func newPersister(cfg PersistenceConfig, m *Metrics, logger *slog.Logger) (*persister, error) {
	if cfg.Dir == "" {
		return nil, errors.New("stream: persistence needs a data directory")
	}
	pol, err := ParseFsyncPolicy(string(cfg.Fsync))
	if err != nil {
		return nil, err
	}
	cfg.Fsync = pol
	if cfg.fs == nil {
		cfg.fs = fault.OS()
	}
	if err := cfg.fs.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	p := &persister{
		cfg:    cfg,
		fs:     cfg.fs,
		m:      m.orNoop(),
		logger: logger,
		walOpt: wal.Options{
			SegmentBytes: cfg.SegmentBytes,
			Sync:         pol.walPolicy(),
			SyncEvery:    cfg.SyncEvery,
			FS:           cfg.fs,
		},
		stopHeal: make(chan struct{}),
	}
	p.lastCheckpointAt.Store(time.Now().UnixNano())
	if p.m.on() {
		// The wal package stays metrics-free: the persister injects these
		// closures into every log it opens.
		p.walOpt.ObserveAppend = func(d time.Duration, edges, bytes int) {
			p.m.walAppendSeconds.Observe(d)
			p.m.walAppends.Inc()
			p.m.walBytes.Add(int64(bytes))
		}
		p.walOpt.ObserveFsync = func(d time.Duration) {
			p.m.walFsyncSeconds.Observe(d)
			p.m.walFsyncs.Inc()
		}
		p.walOpt.ObserveRepair = func(bytes int64) {
			p.m.walRepairs.Inc()
			p.m.walRepairedBytes.Add(bytes)
		}
		p.registerDurabilityGauges(p.m.Registry())
	}
	return p, nil
}

// registerDurabilityGauges publishes the durability state the persister
// already keeps: segment counts, checkpoint/snapshot ages and tallies,
// error tallies.
func (p *persister) registerDurabilityGauges(reg *telemetry.Registry) {
	reg.GaugeFunc("sw_wal_segments",
		"WAL segment files across all windows.", func() float64 {
			total := 0
			for _, pw := range p.wins.Load() {
				total += pw.log.Segments()
			}
			return float64(total)
		})
	reg.GaugeFunc("sw_checkpoint_age_seconds",
		"Seconds since the last completed checkpoint (since boot if none yet).", func() float64 {
			return time.Since(time.Unix(0, p.lastCheckpointAt.Load())).Seconds()
		})
	reg.GaugeFunc("sw_snapshot_age_seconds",
		"Seconds since the last committed snapshot (0 until one commits).", func() float64 {
			at := p.lastSnapshotAt.Load()
			if at == 0 {
				return 0
			}
			return time.Since(time.Unix(0, at)).Seconds()
		})
	reg.GaugeFunc("sw_snapshot_last_edges",
		"Live edges captured by the most recent committed snapshot.", func() float64 {
			return float64(p.lastSnapshotEdges.Load())
		})
	reg.CounterFunc("sw_wal_append_errors_total",
		"WAL append failures (acknowledged batches missing from the log — sticky until restart).", func() float64 {
			p.errMu.Lock()
			defer p.errMu.Unlock()
			return float64(p.appendErrs)
		})
	reg.CounterFunc("sw_checkpoints_total",
		"Completed checkpoint passes.", func() float64 {
			return float64(p.checkpoints.Load())
		})
	reg.CounterFunc("sw_snapshots_total",
		"Live-edge snapshot files committed.", func() float64 {
			return float64(p.snapshots.Load())
		})
	reg.CounterFunc("sw_checkpoint_errors_total",
		"Checkpoint passes that failed.", func() float64 {
			p.errMu.Lock()
			defer p.errMu.Unlock()
			return float64(p.ckptErrs)
		})
	reg.CounterFunc("sw_wal_heals_total",
		"Degraded windows restored to full durability by the self-heal loop.", func() float64 {
			return float64(p.healsTotal.Load())
		})
	reg.CounterFunc("sw_wal_heal_gap_edges_total",
		"Arrivals accepted while degraded and later covered by a heal's forced snapshot.", func() float64 {
			return float64(p.healedGapEdges.Load())
		})
	reg.GaugeFunc("sw_checkpoint_fail_streak",
		"Consecutive checkpoint-pass failures (0 after any success).", func() float64 {
			return float64(p.ckptConsecFails.Load())
		})
}

func (p *persister) windowDir(name string) string {
	return filepath.Join(p.cfg.Dir, "windows", name)
}

// windowGone reports whether pw no longer backs name — dropped, replaced
// by a newer window that re-won the name, or the persister closed.
func (p *persister) windowGone(name string, pw *persistedWindow) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed || p.wins.Load()[name] != pw
}

func (p *persister) noteErr(err error) {
	p.errMu.Lock()
	p.appendErrs++
	p.lastErr = err
	p.errMu.Unlock()
}

func (p *persister) noteCkptErr(err error) {
	p.errMu.Lock()
	p.ckptErrs++
	p.lastCkptErr = err
	p.errMu.Unlock()
}

// appendWALEdges appends the log records of the edge slices, in order, to
// dst.
func appendWALEdges(dst []wal.Edge, parts ...[]Edge) []wal.Edge {
	for _, part := range parts {
		for _, e := range part {
			dst = append(dst, wal.Edge{U: e.U, V: e.V, W: e.W, T: e.T.UnixNano()})
		}
	}
	return dst
}

// attachRecorder wires the window's write-ahead hook to the log. On an
// append failure the window keeps serving (availability over durability)
// but transitions to the explicit DEGRADED state: the error is tallied,
// subsequent batches skip the dead log entirely (their count accumulates in
// pw.gap), every recorder return carries ErrWindowDegraded so durable acks
// report 503 instead of claiming durability, and the self-heal loop starts
// probing. The hook returns the WAL sequence of the batch's first edge —
// the window's flight-recorder trace ID source, stable across restarts;
// while degraded the sequence is extrapolated (NextSeq + gap) so trace IDs
// stay monotone. The sync escalator attaches alongside it and fails fast
// while degraded: fsyncing a poisoned fd cannot restore the pages the
// kernel already dropped.
func (p *persister) attachRecorder(pw *persistedWindow) {
	pw.svc.Window().setRecorder(func(edges []Edge) (uint64, error) {
		if pw.degraded.Load() {
			gapEnd := pw.gap.Add(int64(len(edges)))
			return pw.log.NextSeq() + uint64(gapEnd) - uint64(len(edges)), ErrWindowDegraded
		}
		pw.scratch = appendWALEdges(pw.scratch[:0], edges)
		seq, err := pw.log.Append(pw.scratch)
		if err != nil {
			p.noteErr(err)
			// The batch was accepted and applied but never reached the log:
			// it IS the first gap entry. Mark degraded before kicking the
			// heal so the loop can only observe a consistent state.
			pw.gap.Add(int64(len(edges)))
			pw.degraded.Store(true)
			p.logger.Error("WAL append failed: window degraded (serving without durability)",
				slog.String("window", pw.name),
				slog.String("error", err.Error()))
			p.kickHeal(pw)
			return seq, fmt.Errorf("%w: %w", ErrWindowDegraded, err)
		}
		return seq, err
	})
	pw.svc.setDurableSync(func() error {
		if pw.degraded.Load() {
			return ErrWindowDegraded
		}
		return pw.log.Sync()
	})
}

// kickHeal starts the window's self-heal loop unless one is already
// running. Called from the recorder (under the window coordinator lock) and
// from recovery for windows that boot degraded-marked.
func (p *persister) kickHeal(pw *persistedWindow) {
	if !pw.healing.CompareAndSwap(false, true) {
		return
	}
	p.healWG.Add(1)
	go p.healLoop(pw)
}

// healLoop drives heal attempts with capped exponential backoff until one
// succeeds, the window is gone, or the persister shuts down.
func (p *persister) healLoop(pw *persistedWindow) {
	defer p.healWG.Done()
	healed := false
	defer func() {
		pw.healing.Store(false)
		// healWindow turns degraded off before healing clears. An append
		// that failed in between saw this loop still running and started
		// no heal, and a degraded window never appends again to start one,
		// so start it here.
		if healed && pw.degraded.Load() {
			p.kickHeal(pw)
		}
	}()
	delay := p.cfg.healRetry()
	maxDelay := delay * 32
	for attempt := 1; ; attempt++ {
		if p.windowGone(pw.name, pw) {
			return
		}
		err := p.healWindow(pw)
		if err == nil {
			healed = true
			return
		}
		if errors.Is(err, wal.ErrClosed) {
			return // shutdown closed the log under us
		}
		p.logger.Warn("WAL heal attempt failed",
			slog.String("window", pw.name),
			slog.Int("attempt", attempt),
			slog.Duration("retry_in", delay),
			slog.String("error", err.Error()))
		select {
		case <-p.stopHeal:
			return
		case <-time.After(delay):
		}
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}
	}
}

// healWindow performs one heal attempt. Recovery correctness — not mere
// append success — is the bar for leaving DEGRADED: after the log is
// writable again, the un-logged gap is closed by a forced live-edge
// snapshot covering everything below `end` plus a catch-up append of the
// arrivals that landed after the capture, so a crash at any later point
// recovers the exact window. The steps, each failable and retried whole:
//
//  1. probe: prove the directory takes a write+fsync with a scratch file —
//     never by re-fsyncing the failed fd (the kernel dropped those pages).
//  2. wal.Log.Heal: abandon the poisoned fd, truncate-or-create a tail
//     segment, resume numbering at NextSeq. Committed records survive.
//  3. capture the canonical window content (watermark + live edges) under
//     the coordinator lock.
//  4. commit a snapshot of it — the artifact that makes the gap durable.
//  5. back under the coordinator lock: advance the log past everything the
//     snapshot covers, append the arrivals that raced in since the capture
//     (the recorder was still gap-counting them), and flip degraded off —
//     from this instant the recorder logs normally and no arrival is in
//     neither snapshot nor log.
//  6. publish the snapshot and rewrite the manifest so recovery (and GC)
//     see it.
//
// A failure after 4 leaves an unpublished snapshot on disk: harmless —
// it is valid and newer than the published one, and recovery's directory
// scan may legitimately use it. maybeSnapshot skips degraded windows, so
// no checkpoint can prune it out from under the retry.
func (p *persister) healWindow(pw *persistedWindow) error {
	dir := p.windowDir(pw.name)
	if err := p.probeDir(dir); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	if err := pw.log.Heal(); err != nil {
		return fmt.Errorf("heal log: %w", err)
	}
	var edges []wal.Edge
	var absW, end uint64
	if err := pw.svc.Window().LiveEdges(func(expired int64, older, newer []Edge) error {
		absW = pw.base + uint64(expired)
		edges = appendWALEdges(make([]wal.Edge, 0, len(older)+len(newer)), older, newer)
		end = absW + uint64(len(edges))
		return nil
	}); err != nil {
		return err
	}
	w, err := wal.CreateSnapshotFS(p.fs, dir, absW, uint64(len(edges)))
	if err != nil {
		return err
	}
	if err := w.Append(edges); err != nil {
		return err // Append aborts the writer on failure
	}
	snapName, err := w.Commit()
	if err != nil {
		return err
	}
	var closedGap int64
	if err := pw.svc.Window().LiveEdges(func(expired int64, older, newer []Edge) error {
		// The snapshot covers [absW, end); the log must cover [end, …).
		// Arrivals in [end, base+expired) — if expiry lapped the capture —
		// are expired, and the manifest watermark covers them; the live
		// suffix from max(end, base+expired) is appended explicitly.
		absW2 := pw.base + uint64(expired)
		from := end
		if absW2 > from {
			from = absW2
		}
		pw.log.AdvanceTo(from)
		older, newer = skipEdges(older, newer, int64(from-absW2))
		if pw.scratch = appendWALEdges(pw.scratch[:0], older, newer); len(pw.scratch) > 0 {
			if _, err := pw.log.Append(pw.scratch); err != nil {
				return err
			}
		}
		// Atomic resume: degraded flips off under the same coordinator hold
		// the catch-up append ran in, so the next recorder call appends to
		// a log that is exactly contiguous with the snapshot.
		closedGap = pw.gap.Swap(0)
		pw.degraded.Store(false)
		return nil
	}); err != nil {
		return err
	}
	p.healsTotal.Add(1)
	p.healedGapEdges.Add(closedGap)
	p.errMu.Lock()
	p.lastErr = nil // durability restored (appendErrs stays as history)
	p.errMu.Unlock()
	p.logger.Info("WAL healed: degraded window restored to full durability",
		slog.String("window", pw.name),
		slog.String("snapshot", snapName),
		slog.Int64("gap_edges_covered", closedGap),
		slog.Int("snapshot_edges", len(edges)))
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.wins.Load()[pw.name] != pw {
		return nil
	}
	pw.snapName = snapName
	pw.snapEnd = end
	p.snapshots.Add(1)
	p.m.snapshotEdges.Add(int64(len(edges)))
	p.lastSnapshotAt.Store(time.Now().UnixNano())
	p.lastSnapshotEdges.Store(int64(len(edges)))
	if _, err := p.saveManifestLocked(); err != nil {
		// The snapshot and log are already consistent; only the manifest
		// pointer is stale. The next checkpoint rewrites it — do not
		// re-degrade a healthy window over it.
		p.logger.Warn("heal: manifest rewrite failed (next checkpoint retries)",
			slog.String("window", pw.name), slog.String("error", err.Error()))
	}
	return nil
}

// probeDir proves the directory accepts a durable write by round-tripping a
// scratch file through write+fsync. The heal sequence runs only after it
// passes, so a still-broken disk costs a retry, not a half-healed log.
func (p *persister) probeDir(dir string) error {
	f, err := p.fs.CreateTemp(dir, "heal-probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	defer func() { _ = p.fs.Remove(name) }()
	if _, err := f.Write([]byte("heal probe\n")); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// walOptFor copies the persister's WAL options with the fsync hook
// additionally feeding the window's flight recorder, so batch traces can
// carry a wal_fsync sub-span attributed to exactly their own append.
func (p *persister) walOptFor(wm *WindowManager) wal.Options {
	opt := p.walOpt
	prev := opt.ObserveFsync
	opt.ObserveFsync = func(d time.Duration) {
		wm.noteWALFsync(d)
		if prev != nil {
			prev(d)
		}
	}
	return opt
}

// addWindow opens a fresh log for a window being created and attaches the
// recorder. Called by Create after the service is built but before the
// window is published, so no edge can be accepted un-logged. The manifest
// is NOT written here — commitWindow does that at publish time, so a
// Create that loses its race against Close leaves no durable trace.
func (p *persister) addWindow(name string, cfg ServiceConfig, svc *Service) error {
	meta, err := json.Marshal(metaFromConfig(cfg))
	if err != nil {
		return err
	}
	dir := p.windowDir(name)
	// A crashed Drop can leave an orphan log dir with no manifest entry;
	// reusing the name must not resurrect its records.
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	log, err := wal.Open(dir, p.walOptFor(svc.Window()))
	if err != nil {
		return err
	}
	pw := &persistedWindow{name: name, svc: svc, log: log, meta: meta}
	p.attachRecorder(pw)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		log.Close()
		return ErrRegistryClosed
	}
	p.wins.Put(name, pw)
	return nil
}

// commitWindow registers a created window in the manifest. Create calls
// it while holding the registry lock, after its closed re-check and
// before publishing the handle, so the manifest gains the window exactly
// when the registry does. The fsync+rename under the registry lock only
// stalls other creates, drops and Close — lookups read the registry's
// table without the lock, and creates are rare.
func (p *persister) commitWindow(name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	pw, ok := p.wins.Load()[name]
	if !ok || p.closed {
		return ErrRegistryClosed
	}
	pw.committed = true
	if _, err := p.saveManifestLocked(); err != nil {
		pw.committed = false
		return err
	}
	return nil
}

// removeWindow forgets a dropped window: manifest entry first (so a crash
// mid-removal leaves an ignorable orphan dir, not a manifest entry with no
// log), then the log itself. svc pins the identity: a Drop that already
// freed the name must not tear down a newer window that won the name in
// the meantime. Unknown names no-op (attached, non-persisted windows drop
// through here too), as does a persister already finalized by Close — in
// the narrow Drop-races-Close window the final manifest may keep the
// dropped window, which a restart resurrects empty-handed but consistent.
func (p *persister) removeWindow(name string, svc *Service) error {
	p.mu.Lock()
	pw, ok := p.wins.Load()[name]
	if !ok || p.closed || (svc != nil && pw.svc != svc) {
		p.mu.Unlock()
		return nil
	}
	p.wins.Put(name, nil)
	var err error
	if pw.committed {
		_, err = p.saveManifestLocked()
	}
	p.mu.Unlock()
	pw.log.Close()
	if rmErr := os.RemoveAll(p.windowDir(name)); err == nil {
		err = rmErr
	}
	return err
}

// saveManifestLocked rewrites the manifest from the live window table.
// Callers hold p.mu. The ordering is load-bearing: watermarks are captured
// FIRST, then every log is fsynced, then the manifest is written. A
// watermark counts only arrivals already staged (and therefore already
// appended — the recorder runs in the same coordinator-lock hold that
// advances the counters) when it was read, so the sync that follows makes
// the log durable past everything the persisted watermark invalidates —
// the manifest can never claim an expiry horizon beyond the durable log
// end, which would let a post-crash restart renumber new appends below
// the watermark and silently skip them on the crash after that.
// The returned map carries each window's GC horizon — max(watermark,
// committed snapshot end) exactly as the durable manifest now records it.
// Prune decisions must use these, never fresher in-memory values: a
// snapshot (or watermark) the manifest does not yet know about cannot
// justify deleting log records a crash would still replay.
func (p *persister) saveManifestLocked() (map[string]uint64, error) {
	wins := p.wins.Load()
	watermarks := make(map[string]uint64, len(wins))
	horizons := make(map[string]uint64, len(wins))
	for name, pw := range wins {
		if !pw.committed {
			continue // an unpublished Create must leave no durable trace
		}
		wm := pw.watermark()
		watermarks[name] = wm
		if pw.snapEnd > wm {
			wm = pw.snapEnd
		}
		horizons[name] = wm
	}
	for _, pw := range wins {
		if pw.degraded.Load() {
			// A degraded log is broken by definition (it may still hold
			// the failed append's buffered bytes, so syncing it would
			// fail and veto the whole manifest save — keeping the
			// Degraded marker OFF disk exactly when a crash most needs
			// it). The heal loop owns this log; the marker below makes
			// the gap loud on recovery.
			continue
		}
		if err := pw.log.Sync(); err != nil && !errors.Is(err, wal.ErrClosed) {
			return nil, err
		}
	}
	m := &wal.Manifest{Version: wal.ManifestVersion, Windows: make(map[string]wal.WindowState, len(watermarks))}
	for name, pw := range wins {
		if w, ok := watermarks[name]; ok {
			m.Windows[name] = wal.WindowState{
				Config:      pw.meta,
				Watermark:   w,
				Snapshot:    pw.snapName,
				SnapshotEnd: pw.snapEnd,
				// Correct-or-loud: a crash while degraded must not recover
				// silently — the marker makes the next boot warn that the
				// gap arrivals are unrecoverable.
				Degraded: pw.degraded.Load(),
				GapEdges: uint64(pw.gap.Load()),
			}
		}
	}
	if err := wal.SaveManifestFS(p.fs, p.cfg.Dir, m); err != nil {
		return nil, err
	}
	return horizons, nil
}

// maybeSnapshot writes a live-edge snapshot of one window if its
// replayable suffix (arrivals a recovery would have to replay, i.e.
// everything past max(expiry watermark, last committed snapshot end))
// exceeds threshold. Runs under ckptMu but NOT p.mu. The commit ordering
// is load-bearing:
//
//	capture (watermark, live edges) under the window coordinator lock →
//	write temp file → fsync the log → rename the snapshot into place →
//	publish pw.snapName/snapEnd under p.mu →
//	[caller: manifest → segment GC]
//
// Only the capture holds the coordinator lock — a wal.Edge conversion
// copy, memcpy-speed — so staging (and therefore ingest) stalls for the
// copy, not for the file write; queries never touch the coordinator lock
// and are never blocked at all; and registry control-plane operations
// (which contend on p.mu) proceed throughout. The log fsync before the
// rename guarantees a committed snapshot never describes arrivals the
// log hasn't durably recorded — otherwise a power loss could leave a
// snapshot whose edges re-enter the log under reused sequence numbers
// (the capture is consistent with the log because the recorder appends
// under the same coordinator hold the capture excludes). Only a fully
// committed snapshot updates pw.snapName/snapEnd; any failure leaves the
// previous snapshot (and therefore the GC horizon) in place, so a failed
// write can never strand recovery without its suffix.
func (p *persister) maybeSnapshot(name string, pw *persistedWindow, threshold int) (int64, error) {
	if pw.degraded.Load() {
		// The heal loop owns snapshotting while degraded: its forced
		// snapshot is the gap-closing artifact, and skipping here keeps a
		// concurrent checkpoint's PruneSnapshots from eating the heal's
		// not-yet-published file.
		return -1, nil
	}
	var edges []wal.Edge
	var absW uint64
	skipped := true
	// pw.base is immutable after construction, and pw.snapEnd is written
	// only by this function (all callers hold ckptMu), so both reads are
	// ordered without p.mu.
	if err := pw.svc.Window().LiveEdges(func(expired int64, older, newer []Edge) error {
		absW = pw.base + uint64(expired)
		start := absW
		if pw.snapEnd > start {
			start = pw.snapEnd
		}
		live := len(older) + len(newer)
		if absW+uint64(live) <= start+uint64(threshold) {
			return nil // suffix still cheap to replay: skip
		}
		skipped = false
		edges = appendWALEdges(make([]wal.Edge, 0, live), older, newer)
		return nil
	}); err != nil {
		return -1, err
	}
	if skipped {
		return -1, nil
	}
	w, err := wal.CreateSnapshotFS(p.fs, p.windowDir(name), absW, uint64(len(edges)))
	if err != nil {
		return -1, err
	}
	if err := w.Append(edges); err != nil {
		return -1, err // Append aborts the writer on failure
	}
	if err := pw.log.Sync(); err != nil {
		w.Abort()
		return -1, err
	}
	if p.testSnapshotFail != nil {
		if err := p.testSnapshotFail(name); err != nil {
			w.Abort()
			return -1, err
		}
	}
	snapName, err := w.Commit()
	if err != nil {
		return -1, err
	}
	// Publish. A window dropped (or a persister closed) while the file
	// was being written must not resurrect through the stale pw: the
	// committed file either vanished with the removed directory or sits
	// as a harmless orphan a future recovery may still validly use.
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.wins.Load()[name] != pw {
		return -1, nil
	}
	pw.snapName = snapName
	pw.snapEnd = absW + uint64(len(edges))
	p.snapshots.Add(1)
	p.m.snapshotEdges.Add(int64(len(edges)))
	p.lastSnapshotAt.Store(time.Now().UnixNano())
	p.lastSnapshotEdges.Store(int64(len(edges)))
	p.logger.Debug("snapshot committed",
		slog.String("window", name),
		slog.String("file", snapName),
		slog.Int("edges", len(edges)))
	return int64(len(edges)), nil
}

// checkpoint makes the current expiry progress durable and reclaims
// fully-expired log segments: first write any snapshots the threshold
// calls for, then the manifest (capture watermarks → sync logs → atomic
// rename, see saveManifestLocked), then prune with exactly the GC
// horizons the durable manifest records — pruning with fresher ones could
// delete segments a crash would still replay. Any append error tallied
// since the last checkpoint is surfaced here. A snapshot failure does not
// abort the pass (snapshots are an accelerator; watermark persistence and
// watermark-based GC still proceed safely) but is surfaced in the error.
func (p *persister) checkpoint() (CheckpointStats, error) {
	st, err := p.checkpointPass()
	switch {
	case err == nil:
		p.ckptConsecFails.Store(0)
	case !errors.Is(err, ErrRegistryClosed):
		// The streak feeds the ticker's backoff and /stats; a pass refused
		// because the registry is closing is shutdown, not failure.
		p.ckptConsecFails.Add(1)
	}
	return st, err
}

func (p *persister) checkpointPass() (CheckpointStats, error) {
	start := time.Now()
	// Serialize whole passes; keep p.mu free during the file writes so
	// Create/Drop/stats never stall behind a multi-megabyte snapshot.
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	var st CheckpointStats

	// Phase 1: snapshot writes. p.mu is held only to pick the candidates
	// (and read the threshold, which tests mutate under p.mu); the temp
	// writes, fsyncs and renames run outside it.
	type candidate struct {
		name string
		pw   *persistedWindow
	}
	var cands []candidate
	threshold := -1
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		// A checkpoint racing (or following) Close must not rewrite the
		// manifest from the emptied window table — that would erase every
		// durable registration the final checkpoint just wrote.
		return st, ErrRegistryClosed
	}
	if threshold = p.cfg.snapshotThreshold(); threshold >= 0 {
		for name, pw := range p.wins.Load() {
			if pw.committed {
				cands = append(cands, candidate{name, pw})
			}
		}
	}
	p.mu.Unlock()
	var snapErr error
	snapped := make(map[string]bool)
	for _, c := range cands {
		edges, err := p.maybeSnapshot(c.name, c.pw, threshold)
		if err != nil {
			if p.windowGone(c.name, c.pw) {
				// The window was Dropped (or the registry closed) while its
				// snapshot was being written: the failure is the expected
				// debris of tearing down a healthy window, not a durability
				// problem.
				continue
			}
			p.noteCkptErr(err)
			snapErr = err
			continue
		}
		if edges >= 0 {
			st.Snapshots++
			st.SnapshotEdges += edges
			snapped[c.name] = true
		}
	}

	// Phase 2: manifest + GC, under p.mu as ever.
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return st, ErrRegistryClosed
	}
	horizons, err := p.saveManifestLocked()
	if err != nil {
		p.noteCkptErr(err)
		return st, err
	}
	for name, pw := range p.wins.Load() {
		pruned, err := pw.log.Prune(horizons[name])
		if err != nil {
			p.noteCkptErr(err)
			return st, err
		}
		st.PrunedSegments += pruned
		if snapped[name] && pw.snapName != "" {
			// The manifest pointing at the newest snapshot is durable;
			// superseded snapshot files are now dead weight. Only a pass
			// that wrote a snapshot can have superseded one, so steady-state
			// checkpoints skip the per-window directory scan entirely.
			prunedSnaps, err := wal.PruneSnapshotsFS(p.fs, p.windowDir(name), pw.snapName)
			if err != nil {
				p.noteCkptErr(err)
				return st, err
			}
			st.PrunedSnaps += prunedSnaps
		}
	}
	st.Windows = len(horizons)
	st.Elapsed = time.Since(start)
	p.checkpoints.Add(1)
	p.lastCheckpointAt.Store(time.Now().UnixNano())
	p.m.checkpointSeconds.Observe(st.Elapsed)
	p.logger.Debug("checkpoint complete",
		slog.Int("windows", st.Windows),
		slog.Int("pruned_segments", st.PrunedSegments),
		slog.Int("snapshots", st.Snapshots),
		slog.Int64("snapshot_edges", st.SnapshotEdges),
		slog.Duration("elapsed", st.Elapsed))
	if snapErr == nil {
		p.errMu.Lock()
		p.lastCkptErr = nil // durability restored: the manifest write succeeded
		p.errMu.Unlock()
	}
	// A recorded append error means some acknowledged batch never reached
	// the log: the checkpoint "succeeded" mechanically but durability is
	// compromised until restart, so keep surfacing it (sticky; also
	// visible in PersistenceStats).
	p.errMu.Lock()
	aerr := p.lastErr
	p.errMu.Unlock()
	if aerr != nil {
		return st, fmt.Errorf("stream: WAL append failed: %w", aerr)
	}
	if snapErr != nil {
		return st, fmt.Errorf("stream: snapshot write failed (watermarks persisted, GC horizon unchanged): %w", snapErr)
	}
	return st, nil
}

// closeAll runs after every service has been closed (so the shutdown
// drain's final appends are in the logs): persist final watermarks, then
// close the logs, then stop and join the heal loops — strictly outside
// p.mu, since a heal's publish step takes it.
func (p *persister) closeAll() {
	p.mu.Lock()
	p.closed = true               // later checkpoints/creates/drops must not touch the manifest
	_, _ = p.saveManifestLocked() // captures watermarks, syncs, renames
	for _, pw := range p.wins.Load() {
		_ = pw.log.Close()
	}
	p.wins.Clear()
	p.mu.Unlock()
	p.stopOnce.Do(func() { close(p.stopHeal) })
	p.healWG.Wait()
}

func (p *persister) stats() PersistenceStats {
	var degraded []string
	var gap int64
	for name, pw := range p.wins.Load() {
		if pw.degraded.Load() {
			degraded = append(degraded, name)
			gap += pw.gap.Load()
		}
	}
	sort.Strings(degraded)
	p.errMu.Lock()
	defer p.errMu.Unlock()
	st := PersistenceStats{
		Dir:                  p.cfg.Dir,
		Fsync:                string(p.cfg.Fsync),
		Checkpoints:          p.checkpoints.Load(),
		Snapshots:            p.snapshots.Load(),
		CheckpointErrors:     p.ckptErrs,
		AppendErrors:         p.appendErrs,
		DegradedWindows:      len(degraded),
		Degraded:             degraded,
		GapEdges:             gap,
		WALHeals:             p.healsTotal.Load(),
		CheckpointFailStreak: p.ckptConsecFails.Load(),
	}
	switch { // a lost append outranks a failed checkpoint
	case p.lastErr != nil:
		st.LastError = p.lastErr.Error()
	case p.lastCkptErr != nil:
		st.LastError = p.lastCkptErr.Error()
	}
	return st
}

// degradedWindows snapshots the names of windows currently serving without
// a working WAL (readiness and /stats feed).
func (p *persister) degradedWindows() []string {
	var out []string
	for name, pw := range p.wins.Load() {
		if pw.degraded.Load() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// recoverResult is one window's recovery accounting: the log replay stats
// plus the snapshot contribution.
type recoverResult struct {
	wal.ReplayStats
	SnapshotUsed  bool
	SnapshotEdges int64
	// DegradedAtCrash: the manifest recorded the window WAL-degraded, so
	// LostEdges arrivals it had accepted are durably gone.
	DegradedAtCrash bool
	LostEdges       int64
}

// recoverWindow rebuilds one manifest window: fresh monitors, then —
// when a valid snapshot exists — one mega-batch apply of the snapshot's
// live-edge list, then a replay of the log records past it. Replayed
// records are delivered whole and in order but coalesced into
// ReplayBatch-sized mega-batches before being applied: the arrival
// sequence and the clamped event times are exactly the live run's, and
// each monitor's forests are a canonical function of that sequence
// (distinct recency weights), so answers match an uninterrupted run while
// the rebuild pays the paper's large-ℓ batch cost instead of the live
// stream's small-batch cost. The window's own expiry policy
// deterministically re-trims any already-expired prefix the snapshot or
// the first replayed record carries.
//
// Snapshot selection scans the log directory for the newest snapshot that
// decodes cleanly — the manifest pointer is only a hint, since a crash
// between a snapshot's rename and the manifest rewrite leaves a newer
// (always usable) file than the pointer. A corrupt or missing snapshot
// falls back to older snapshots and finally to full suffix replay; the
// only hard failure is a provable gap — the log's oldest retained record
// starting after the replay point, meaning segments were GC'd against a
// snapshot that no longer validates.
func (p *persister) recoverWindow(name string, ws wal.WindowState, tpl ServiceConfig) (*Service, recoverResult, error) {
	var res recoverResult
	var meta windowMeta
	if err := json.Unmarshal(ws.Config, &meta); err != nil {
		return nil, res, fmt.Errorf("stream: window %q manifest config: %w", name, err)
	}
	cfg := configFromMeta(meta, tpl)
	cfg.Window.Name = name
	cfg.Window.durable = true
	// The bundle attaches to the pipeline only in newServiceWith, AFTER
	// the replay below — recovery mega-batches must not pollute the
	// live-traffic histograms (the recovery counters cover them instead).
	// Same for the flight rings: replay records no traces.
	cfg.Telemetry = p.m
	cfg.flight = p.flight
	wm, err := NewWindowManager(cfg.Window)
	if err != nil {
		return nil, res, fmt.Errorf("stream: window %q: %w", name, err)
	}
	dir := p.windowDir(name)
	log, err := wal.Open(dir, p.walOptFor(wm))
	if err != nil {
		return nil, res, fmt.Errorf("stream: window %q log: %w", name, err)
	}

	if ws.Degraded {
		// Correct-or-loud: the process died while this window was serving
		// without a working WAL. Everything durable is recovered below;
		// the gap arrivals were acknowledged non-durably (sync acks had
		// been failing with 503) and are unrecoverable.
		res.DegradedAtCrash = true
		res.LostEdges = int64(ws.GapEdges)
		p.logger.Error("window was WAL-degraded at crash: arrivals accepted after the append failure were never logged and cannot be recovered",
			slog.String("window", name),
			slog.Uint64("lost_edges", ws.GapEdges))
	}

	var snap *wal.Snapshot
	var snapName string
	marks, err := wal.SnapshotsFS(p.fs, dir)
	if err != nil {
		log.Close()
		return nil, res, fmt.Errorf("stream: window %q snapshots: %w", name, err)
	}
	for i := len(marks) - 1; i >= 0; i-- {
		cand := wal.SnapshotName(marks[i])
		s, err := wal.ReadSnapshotFS(p.fs, filepath.Join(dir, cand))
		if err != nil {
			continue // corrupt: try an older snapshot, else full replay
		}
		if s.End() <= ws.Watermark {
			// Fully stale: every edge in it is expired, so seeding would
			// pay an O(window) apply+expire for zero live state — the
			// watermark-based replay alone is strictly cheaper and needs
			// nothing below the watermark (GC's horizon was at most
			// max(watermark, this end), so no gap opens). Older snapshots
			// are staler still: stop looking.
			break
		}
		snap, snapName = &s, cand
		break
	}
	if snapName != "" && len(marks) > 1 {
		// Sweep superseded snapshot files now: a crash between a past
		// checkpoint's manifest write and its snapshot prune would
		// otherwise leak window-sized images forever (steady-state
		// checkpoints only prune on passes that write a new snapshot).
		// Best-effort — recovery must not fail over dead weight.
		_, _ = wal.PruneSnapshotsFS(p.fs, dir, snapName)
	}
	// replayFrom is where log replay must pick up: past everything the
	// snapshot covers and everything the manifest says is expired.
	replayFrom := ws.Watermark
	if snap != nil && snap.End() > replayFrom {
		replayFrom = snap.End()
	}
	if first, ok := log.FirstSeq(); ok && first > replayFrom {
		log.Close()
		return nil, res, fmt.Errorf(
			"stream: window %q: log starts at arrival %d but replay must begin at %d — segments were GC'd against a snapshot that is now missing or corrupt",
			name, first, replayFrom)
	}

	chunk := p.cfg.ReplayBatch
	if chunk <= 0 {
		chunk = 128 << 10
	}
	if snap != nil {
		// Seed the window with ONE batch of the whole live edge list: for a
		// window of ℓ arrivals this costs O(ℓ·lg(1+n/ℓ)) — the cheapest
		// point on the paper's batch-cost curve, well under replaying the
		// same edges in ReplayBatch-sized chunks.
		seed := make([]Edge, len(snap.Edges))
		for i, e := range snap.Edges {
			seed[i] = Edge{U: e.U, V: e.V, W: e.W, T: time.Unix(0, e.T)}
		}
		wm.Apply(seed)
		res.SnapshotUsed = true
		res.SnapshotEdges = int64(len(snap.Edges))
	}
	var batch []Edge
	flush := func() {
		if len(batch) > 0 {
			wm.Apply(batch)
			batch = batch[:0] // Apply's monitors copy what they keep
		}
	}
	st, err := log.Replay(replayFrom, func(rec wal.Record) error {
		edges := rec.Edges
		if snap != nil && rec.Seq < replayFrom {
			// A record straddling the replay point duplicates arrivals the
			// snapshot already seeded; drop the covered prefix — expiry
			// re-trim cannot undo a mid-sequence duplicate the way it
			// re-trims an expired prefix.
			edges = edges[replayFrom-rec.Seq:]
		}
		for _, e := range edges {
			batch = append(batch, Edge{U: e.U, V: e.V, W: e.W, T: time.Unix(0, e.T)})
		}
		if len(batch) >= chunk {
			flush()
		}
		return nil
	})
	flush()
	res.ReplayStats = st
	if err != nil {
		log.Close()
		return nil, res, fmt.Errorf("stream: window %q replay: %w", name, err)
	}

	// Re-derive the window's arrival numbering: every applied arrival
	// (snapshot seed + replayed suffix) is contiguous up to the absolute
	// end, so base = end − arrivals makes base + Watermark() the absolute
	// expiry watermark across any number of restarts — including runs
	// where a stale snapshot left an applied gap of expired arrivals.
	// end is the largest arrival index any durable state has ever claimed:
	// a snapshot outliving the log tail, or a manifest watermark past it
	// (log bytes vanished after they were recorded), must both push the
	// numbering forward — reusing indices at or below either would make
	// the next recovery skip the reused range as already covered.
	end := log.NextSeq()
	if snap != nil && snap.End() > end {
		end = snap.End()
	}
	if ws.Watermark > end {
		end = ws.Watermark
	}
	log.AdvanceTo(end)
	base := end - uint64(wm.Stats().Arrivals)
	svc := newServiceWith(wm, cfg)
	pw := &persistedWindow{name: name, svc: svc, log: log, meta: ws.Config, base: base, committed: true}
	if snap != nil {
		pw.snapName, pw.snapEnd = snapName, snap.End()
	}
	p.attachRecorder(pw)
	p.mu.Lock()
	p.wins.Put(name, pw)
	p.mu.Unlock()
	p.m.recoveryRecords.Add(st.Records)
	p.m.recoveryEdges.Add(st.Edges)
	p.logger.Info("window recovered",
		slog.String("window", name),
		slog.Int64("replayed_records", st.Records),
		slog.Int64("replayed_edges", st.Edges),
		slog.Int64("skipped_records", st.SkippedRecords),
		slog.Bool("snapshot_used", res.SnapshotUsed),
		slog.Int64("snapshot_edges", res.SnapshotEdges))
	return svc, res, nil
}

// OpenRegistry builds a registry from its durable state: every window in
// the manifest is re-created and its unexpired log suffix replayed, after
// which the background checkpoint ticker (if configured) starts. With a
// nil Persistence config it degenerates to NewRegistry. Windows created
// through Create on the returned registry are durable.
func OpenRegistry(cfg RegistryConfig) (*WindowRegistry, *RecoveryReport, error) {
	r := NewRegistry(cfg)
	rep := &RecoveryReport{}
	if cfg.Persistence == nil {
		return r, rep, nil
	}
	pcfg := *cfg.Persistence
	if cfg.FaultInjector != nil {
		pcfg.fs = cfg.FaultInjector
	}
	p, err := newPersister(pcfg, r.metrics, r.logger)
	if err != nil {
		return nil, nil, err
	}
	r.persist = p
	p.flight = r.flight
	// A durable registry persists its slow traces: one JSONL line per
	// slow batch, append-only, so post-mortems survive the process. Purely
	// best-effort — a sink failure must never take durability down.
	if f, err := os.OpenFile(filepath.Join(p.cfg.Dir, "flight_slow.jsonl"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err == nil {
		r.flight.SetSlowSink(f)
		r.flightSink = f
	} else {
		r.logger.Warn("flight: slow-trace sink unavailable", slog.String("error", err.Error()))
	}
	// Sink appends are best-effort, but silently dropping forensics is a
	// fault of its own kind: count every failed line and log the first.
	r.flight.SetSinkErrorHook(func(err error) {
		r.logger.Warn("flight: slow-trace sink append failed; further failures counted in sw_flight_sink_errors_total",
			slog.String("error", err.Error()))
	})
	if r.metrics.on() {
		r.metrics.Registry().CounterFunc("sw_flight_sink_errors_total",
			"Slow-trace JSONL sink appends that failed (lines dropped).",
			func() float64 { return float64(r.flight.SinkErrors()) })
	}
	man, err := wal.LoadManifestFS(p.fs, p.cfg.Dir)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	names := make([]string, 0, len(man.Windows))
	for name := range man.Windows {
		names = append(names, name)
	}
	sort.Strings(names)
	tpl := r.cfg.Template.withClockDefaults()
	// abort unwinds a partial recovery WITHOUT touching the on-disk
	// manifest: one window's corruption must not erase the durable
	// registration of windows not yet (or already) recovered. The logs
	// are closed here and the persister detached before Close, so Close's
	// final-checkpoint path cannot rewrite the manifest from the partial
	// window table.
	abort := func() {
		p.mu.Lock()
		for _, pw := range p.wins.Load() {
			_ = pw.log.Close()
		}
		p.wins.Clear()
		p.mu.Unlock()
		r.persist = nil
		r.Close()
	}
	for _, name := range names {
		svc, st, err := p.recoverWindow(name, man.Windows[name], tpl)
		if err != nil {
			abort()
			return nil, nil, err
		}
		r.armWindow(name, svc)
		if err := r.attachService(name, svc); err != nil {
			svc.Close()
			abort()
			return nil, nil, fmt.Errorf("stream: recovered window %q: %w", name, err)
		}
		rep.Windows++
		rep.Batches += st.Records
		rep.Edges += st.Edges
		rep.SkippedRecords += st.SkippedRecords
		if st.SnapshotUsed {
			rep.Snapshots++
			rep.SnapshotEdges += st.SnapshotEdges
		}
		if st.DegradedAtCrash {
			rep.DegradedAtCrash++
			rep.LostEdges += st.LostEdges
		}
	}
	rep.Elapsed = time.Since(start)
	if r.metrics.on() {
		elapsed := rep.Elapsed.Seconds()
		r.metrics.Registry().GaugeFunc("sw_recovery_seconds",
			"Wall time of the boot recovery pass.", func() float64 { return elapsed })
	}
	r.logger.Info("recovery complete",
		slog.Int("windows", rep.Windows),
		slog.Int64("replayed_records", rep.Batches),
		slog.Int64("replayed_edges", rep.Edges),
		slog.Int("snapshots_used", rep.Snapshots),
		slog.Duration("elapsed", rep.Elapsed))
	if p.cfg.CheckpointInterval > 0 {
		r.startCheckpointLoop(p.cfg.CheckpointInterval)
	}
	return r, rep, nil
}
