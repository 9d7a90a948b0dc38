package stream

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// DefaultWindow is the window name the legacy single-window HTTP routes
// resolve to.
const DefaultWindow = "default"

// Registry errors, distinguished so the HTTP layer can map them to status
// codes (409 exists, 404 not found, 429 too many, 503 closed, 400 name).
var (
	ErrWindowExists   = errors.New("stream: window already exists")
	ErrWindowNotFound = errors.New("stream: window not found")
	ErrTooManyWindows = errors.New("stream: window limit reached")
	ErrRegistryClosed = errors.New("stream: registry closed")
	ErrBadWindowName  = errors.New("stream: bad window name")
)

// RegistryConfig tunes a WindowRegistry; zero values select defaults.
type RegistryConfig struct {
	// Shards is the number of independent lock shards the window table is
	// hash-partitioned over (default 16, rounded up to a power of two).
	// Operations on windows in different shards never contend.
	Shards int
	// MaxWindows caps the number of live windows (0 = unlimited). Creation
	// beyond the cap fails with ErrTooManyWindows.
	MaxWindows int
	// Template is the ServiceConfig new windows inherit when the creator
	// leaves fields zero (see mergeTemplate). Template.Window.N must be set
	// for template-based creation to work.
	Template ServiceConfig
	// Persistence enables the durability layer (write-ahead batch logs +
	// manifest + crash recovery); nil keeps the registry in-memory. Only
	// OpenRegistry honours it — NewRegistry ignores the field.
	Persistence *PersistenceConfig
	// Telemetry, when set, instruments every pipeline the registry owns
	// (ingest, apply, fan-out, WAL, checkpoints) into that registry's
	// metric families. nil disables metrics at zero hot-path cost.
	Telemetry *telemetry.Registry
	// Logger receives the registry's structured operational records
	// (recovery, checkpoints). nil discards them.
	Logger *slog.Logger
	// Flight tunes the batch flight recorder (ring sizes, slow threshold).
	// The recorder itself is always on — zero values select the trace
	// package defaults; a negative Flight.SlowThreshold disables only the
	// slow-retention ring.
	Flight trace.Options
	// FaultInjector, when set, is threaded through every durability-layer
	// disk operation (WAL, snapshots, manifest, heal probes) and through
	// the monitor apply boundary (CheckApply with "window/monitor" paths),
	// so fault schedules — set programmatically or via /admin/fault — can
	// exercise the degrade→heal and quarantine→rebuild machinery against a
	// live registry. Nil (production default) costs nothing.
	FaultInjector *fault.Injector
}

func (c *RegistryConfig) withDefaults() RegistryConfig {
	out := *c
	if out.Shards <= 0 {
		out.Shards = 16
	}
	// Round up to a power of two so shard selection is a mask, not a mod.
	n := 1
	for n < out.Shards {
		n <<= 1
	}
	out.Shards = n
	return out
}

// WindowInfo is a point-in-time public snapshot of one registered window.
type WindowInfo struct {
	Name     string      `json:"name"`
	N        int         `json:"n"`
	Monitors []string    `json:"monitors"`
	Created  time.Time   `json:"created"`
	Window   WindowStats `json:"window"`
	Edges    int64       `json:"ingest_edges"`
	Batches  int64       `json:"ingest_batches"`
}

// windowHandle is one registry entry. svc is nil while the window is still
// being constructed (Create publishes a placeholder first so it can build
// the Service outside the shard lock); every reader treats a nil-svc
// handle as "window does not exist yet".
type windowHandle struct {
	name    string
	svc     *Service
	created time.Time
}

type registryShard struct {
	mu   sync.RWMutex
	wins map[string]*windowHandle
}

// WindowRegistry owns many named windows — each a full Service pipeline
// (Ingester + WindowManager + expiry ticker) — hash-sharded across
// independent locks so tenants operating on different windows never
// contend on registry state. The shard locks guard only the name → window
// table; each window's own single-writer/many-reader discipline is
// unchanged, so one tenant's batch application never blocks another
// tenant's queries.
type WindowRegistry struct {
	cfg    RegistryConfig
	shards []registryShard
	mask   uint64

	// countMu serializes the MaxWindows admission check across shards;
	// count is the number of live windows. closed is atomic so Create can
	// re-check it under the shard lock (see the comment there) without
	// taking countMu inside it.
	countMu sync.Mutex
	count   int
	closed  atomic.Bool

	// persist is the durability layer, set only by OpenRegistry; nil
	// means in-memory. ckptStop/ckptWG manage the background checkpoint
	// ticker.
	persist  *persister
	ckptStop chan struct{}
	ckptWG   sync.WaitGroup

	// metrics is the shared telemetry bundle every owned pipeline records
	// into (never nil — noMetrics when disabled); logger is the registry's
	// structured logger (never nil — a discard logger when unset).
	metrics *Metrics
	logger  *slog.Logger

	// workers is the intra-monitor fork-join budget shared by every window
	// the registry creates or recovers, sized once from the template's
	// ApplyParallelism (see WindowConfig). One budget across all windows
	// keeps total auxiliary parallelism at the configured number no matter
	// how many windows apply batches at once. applyParallelism is the
	// effective total (callers + auxiliaries) the gauge reports.
	workers          *parallel.Limiter
	applyParallelism int

	// flight is the batch flight recorder every owned pipeline traces
	// into — always on (recording is 0 allocs/op; cost is a handful of
	// clock reads per batch). flightSink is the slow-trace JSONL file on
	// a durable registry (nil otherwise), closed with the registry.
	flight     *trace.Recorder
	flightSink io.Closer
}

// NewRegistry returns an empty registry.
func NewRegistry(cfg RegistryConfig) *WindowRegistry {
	cfg = cfg.withDefaults()
	r := &WindowRegistry{
		cfg:    cfg,
		shards: make([]registryShard, cfg.Shards),
		mask:   uint64(cfg.Shards - 1),
		logger: cfg.Logger,
		flight: trace.New(cfg.Flight),
	}
	if r.logger == nil {
		r.logger = slog.New(slog.DiscardHandler)
	}
	if p := cfg.Template.Window.ApplyParallelism; p > 0 {
		r.workers = parallel.NewLimiter(p - 1)
		r.applyParallelism = p
	} else {
		r.workers = parallel.Default()
		r.applyParallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.Telemetry != nil {
		r.metrics = NewMetrics(cfg.Telemetry)
		cfg.Telemetry.GaugeFunc("sw_windows_live",
			"Live windows registered.", func() float64 { return float64(r.Len()) })
		cfg.Telemetry.GaugeFunc("sw_apply_parallelism",
			"Shared intra-monitor batch-apply worker budget (caller + auxiliaries).",
			func() float64 { return float64(r.applyParallelism) })
		// Window health by state — registry-level counts, not per-window
		// labels (windows are tenant-controlled; names would be unbounded
		// cardinality). Per-window detail lives in /stats.
		health := func(state string, pick func(h, d, q int) int) {
			cfg.Telemetry.GaugeFunc("sw_window_health",
				"Live windows by health state (quarantined outranks degraded).",
				func() float64 { h, d, q := r.healthCounts(); return float64(pick(h, d, q)) },
				telemetry.L("state", state))
		}
		health("healthy", func(h, _, _ int) int { return h })
		health("degraded", func(_, d, _ int) int { return d })
		health("quarantined", func(_, _, q int) int { return q })
		// Same rule: one registry-wide sum, no per-window label.
		cfg.Telemetry.GaugeFunc("sw_msfweight_levels_live",
			"Materialised msfweight weight levels (buckets holding a live edge), summed over windows.",
			func() float64 { return float64(r.msfLevelsLive()) })
	} else {
		r.metrics = noMetrics
	}
	for i := range r.shards {
		r.shards[i].wins = make(map[string]*windowHandle)
	}
	return r
}

// Metrics returns the registry's telemetry bundle (never nil; a no-op
// bundle when telemetry is disabled). The HTTP server records its
// request-level instruments through it.
func (r *WindowRegistry) Metrics() *Metrics { return r.metrics }

// Flight returns the registry's batch flight recorder (never nil). The
// HTTP server mounts its handler at /debug/flight.
func (r *WindowRegistry) Flight() *trace.Recorder { return r.flight }

// Logger returns the registry's structured logger (never nil).
func (r *WindowRegistry) Logger() *slog.Logger { return r.logger }

// Template returns the config new windows inherit defaults from.
func (r *WindowRegistry) Template() ServiceConfig { return r.cfg.Template }

// Shards returns the number of lock shards.
func (r *WindowRegistry) Shards() int { return len(r.shards) }

// shardFor picks the shard owning a name (FNV-1a).
func (r *WindowRegistry) shardFor(name string) *registryShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return &r.shards[h&r.mask]
}

// ValidateWindowName enforces the name grammar shared by the registry and
// the HTTP routes: 1–128 chars from [A-Za-z0-9._-], not "." or "..".
func ValidateWindowName(name string) error {
	if name == "" || len(name) > 128 || name == "." || name == ".." {
		return fmt.Errorf("%w: %q", ErrBadWindowName, name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '.' || c == '_' || c == '-') {
			return fmt.Errorf("%w: %q", ErrBadWindowName, name)
		}
	}
	return nil
}

// mergeTemplate fills the zero fields of cfg from the template. Explicit
// zero-disables are impossible through this path for MaxArrivals/MaxAge —
// tenants that need them pass a fully-specified config to Create instead of
// relying on the template.
func mergeTemplate(cfg, tpl ServiceConfig) ServiceConfig {
	if cfg.Window.N == 0 {
		cfg.Window.N = tpl.Window.N
	}
	if cfg.Window.Seed == 0 {
		cfg.Window.Seed = tpl.Window.Seed
	}
	if cfg.Window.Monitors == nil {
		cfg.Window.Monitors = tpl.Window.Monitors
	}
	// MonitorConfig merges per field like everything else: a tenant that
	// overrides only K must still inherit the template's Eps/MaxWeight.
	if cfg.Window.Monitor.Eps == 0 {
		cfg.Window.Monitor.Eps = tpl.Window.Monitor.Eps
	}
	if cfg.Window.Monitor.MaxWeight == 0 {
		cfg.Window.Monitor.MaxWeight = tpl.Window.Monitor.MaxWeight
	}
	if cfg.Window.Monitor.K == 0 {
		cfg.Window.Monitor.K = tpl.Window.Monitor.K
	}
	if cfg.Window.MaxArrivals == 0 {
		cfg.Window.MaxArrivals = tpl.Window.MaxArrivals
	}
	if cfg.Window.MaxAge == 0 {
		cfg.Window.MaxAge = tpl.Window.MaxAge
	}
	if cfg.Window.ApplyParallelism == 0 {
		cfg.Window.ApplyParallelism = tpl.Window.ApplyParallelism
	}
	if cfg.Window.Clock == nil {
		cfg.Window.Clock = tpl.Window.Clock
	}
	// SyncAck is NOT inherited: a bool cannot distinguish "unset" from an
	// explicit false, so the merged value is exactly what the caller set.
	// Callers that want the template's mode pass the template itself as
	// the base config (cmd/swserver, cmd/swload) or resolve it before
	// calling Create (the HTTP create handler's tri-state sync_ack field).
	if cfg.Ingest.MaxBatch == 0 {
		cfg.Ingest.MaxBatch = tpl.Ingest.MaxBatch
	}
	if cfg.Ingest.MaxDelay == 0 {
		cfg.Ingest.MaxDelay = tpl.Ingest.MaxDelay
	}
	if cfg.Ingest.QueueLen == 0 {
		cfg.Ingest.QueueLen = tpl.Ingest.QueueLen
	}
	if cfg.Ingest.MaxQueueEdges == 0 {
		cfg.Ingest.MaxQueueEdges = tpl.Ingest.MaxQueueEdges
	}
	if cfg.Ingest.MaxQueueBytes == 0 {
		cfg.Ingest.MaxQueueBytes = tpl.Ingest.MaxQueueBytes
	}
	if cfg.Ingest.MaxEdgesPerSec == 0 {
		cfg.Ingest.MaxEdgesPerSec = tpl.Ingest.MaxEdgesPerSec
	}
	if cfg.Ingest.BurstEdges == 0 {
		cfg.Ingest.BurstEdges = tpl.Ingest.BurstEdges
	}
	if cfg.Ingest.Clock == nil {
		cfg.Ingest.Clock = tpl.Ingest.Clock
	}
	return cfg
}

// reserve admits one window-to-be against MaxWindows and the closed flag.
// The caller must call release on any failure after reserve succeeded.
func (r *WindowRegistry) reserve() error {
	r.countMu.Lock()
	defer r.countMu.Unlock()
	if r.closed.Load() {
		return ErrRegistryClosed
	}
	if r.cfg.MaxWindows > 0 && r.count >= r.cfg.MaxWindows {
		return fmt.Errorf("%w (max %d)", ErrTooManyWindows, r.cfg.MaxWindows)
	}
	r.count++
	return nil
}

func (r *WindowRegistry) release() {
	r.countMu.Lock()
	r.count--
	r.countMu.Unlock()
}

// Create builds and registers a new window named name. Zero fields of cfg
// inherit from the registry template. Fails with ErrWindowExists if the
// name is taken.
func (r *WindowRegistry) Create(name string, cfg ServiceConfig) (*Service, error) {
	if err := ValidateWindowName(name); err != nil {
		return nil, err
	}
	cfg = mergeTemplate(cfg, r.cfg.Template)
	cfg.Window.Name = name
	cfg.Window.workers = r.workers
	cfg.Telemetry = r.metrics
	cfg.flight = r.flight
	if err := r.reserve(); err != nil {
		return nil, err
	}
	sh := r.shardFor(name)
	sh.mu.Lock()
	// Re-check closed under the shard lock (see the matching re-check
	// below for why this pairs safely with Close).
	if r.closed.Load() {
		sh.mu.Unlock()
		r.release()
		return nil, ErrRegistryClosed
	}
	if _, dup := sh.wins[name]; dup {
		sh.mu.Unlock()
		r.release()
		return nil, fmt.Errorf("%w: %q", ErrWindowExists, name)
	}
	// Publish a placeholder and construct outside the lock: building
	// monitors is O(N) and must not stall Get for unrelated windows in
	// this shard. The placeholder reserves the name (racing creates see a
	// duplicate); Get/List/Drop all treat nil svc as "no such window".
	h := &windowHandle{name: name, created: time.Now()}
	sh.wins[name] = h
	sh.mu.Unlock()

	svc, err := NewService(cfg)
	if err == nil {
		r.armWindow(name, svc)
	}
	if err == nil && r.persist != nil {
		// Open the window's log and attach the write-ahead recorder while
		// the window is still an unpublished placeholder: no producer can
		// reach it, so no edge is ever accepted un-logged.
		if perr := r.persist.addWindow(name, cfg, svc); perr != nil {
			svc.Close()
			svc, err = nil, perr
		}
	}

	sh.mu.Lock()
	if err != nil {
		delete(sh.wins, name)
		sh.mu.Unlock()
		r.release()
		return nil, err
	}
	// Re-check closed before publishing: a Close that stored the flag
	// before this load skipped our placeholder in its sweep (nil svc) and
	// expects us to clean up; one that stores after will sweep the
	// published window once we release the lock. Either way no window
	// outlives Close.
	if r.closed.Load() {
		delete(sh.wins, name)
		sh.mu.Unlock()
		svc.Close()
		if r.persist != nil {
			_ = r.persist.removeWindow(name, svc)
		}
		r.release()
		return nil, ErrRegistryClosed
	}
	// Commit to the manifest at the same moment the registry commits to
	// the name (under the shard lock, after the closed re-check): the
	// durable registry and the in-memory one can never disagree about a
	// successfully-created window.
	if r.persist != nil {
		if perr := r.persist.commitWindow(name); perr != nil {
			delete(sh.wins, name)
			sh.mu.Unlock()
			svc.Close()
			_ = r.persist.removeWindow(name, svc)
			r.release()
			return nil, perr
		}
	}
	h.svc = svc
	sh.mu.Unlock()
	return svc, nil
}

// Attach registers an externally-built Service under name. The registry
// takes ownership: Drop and Close will Close it. Attached windows are
// never persisted — the registry cannot serialize an external pipeline's
// config into the manifest — so on a durable registry they vanish at
// restart; use Create for durable windows.
func (r *WindowRegistry) Attach(name string, svc *Service) error {
	return r.attachService(name, svc)
}

// attachService is Attach without the persistence caveat — the recovery
// path registers windows whose durability state it has already wired.
func (r *WindowRegistry) attachService(name string, svc *Service) error {
	if err := ValidateWindowName(name); err != nil {
		return err
	}
	if err := r.reserve(); err != nil {
		return err
	}
	sh := r.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r.closed.Load() { // same Close handshake as Create
		r.release()
		return ErrRegistryClosed
	}
	if _, dup := sh.wins[name]; dup {
		r.release()
		return fmt.Errorf("%w: %q", ErrWindowExists, name)
	}
	sh.wins[name] = &windowHandle{name: name, svc: svc, created: time.Now()}
	return nil
}

// Get returns the named window's service. A window whose Create is still
// constructing does not resolve yet.
func (r *WindowRegistry) Get(name string) (*Service, bool) {
	sh := r.shardFor(name)
	sh.mu.RLock()
	h, ok := sh.wins[name]
	var svc *Service
	if ok {
		svc = h.svc
	}
	sh.mu.RUnlock()
	if svc == nil {
		return nil, false
	}
	return svc, true
}

// Drop unregisters the named window and closes its pipeline (draining the
// ingester). The close runs outside the shard lock so a slow drain never
// blocks other registry operations; readers that fetched the service before
// the drop keep a usable (query-only, once closed) handle. On a durable
// registry the window's log directory and manifest entry are deleted —
// a dropped window does not come back at restart.
func (r *WindowRegistry) Drop(name string) error {
	sh := r.shardFor(name)
	sh.mu.Lock()
	h, ok := sh.wins[name]
	ok = ok && h.svc != nil // a mid-construction placeholder is not droppable
	if ok {
		delete(sh.wins, name)
	}
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrWindowNotFound, name)
	}
	r.release()
	// Flush before Close so every edge accepted up to the drop is applied
	// (Close's shutdown drain would cover this too; the explicit flush
	// keeps the applied-before-closed guarantee independent of it), then
	// delete the log only after the drained pipeline stops appending.
	h.svc.Flush()
	h.svc.Close()
	if r.persist != nil {
		// Pass the handle's service so a concurrent Create that re-won
		// this name while we were draining keeps its fresh log.
		return r.persist.removeWindow(name, h.svc)
	}
	return nil
}

// armWindow wires the registry's operational hooks into a window before it
// is published: the structured logger for quarantine/heal/rebuild events,
// and the fault-injection apply check when an injector is configured.
func (r *WindowRegistry) armWindow(name string, svc *Service) {
	wm := svc.Window()
	wm.setLogger(r.logger)
	if inj := r.cfg.FaultInjector; inj != nil {
		wm.setApplyCheck(func(mon string) { inj.CheckApply(name + "/" + mon) })
	}
}

// healthCounts classifies every live window: quarantined (≥1 monitor
// isolated after an apply panic — outranks degraded), degraded (serving
// without a working WAL), else healthy.
func (r *WindowRegistry) healthCounts() (healthy, degraded, quarantined int) {
	degradedSet := make(map[string]bool)
	if r.persist != nil {
		for _, n := range r.persist.degradedWindows() {
			degradedSet[n] = true
		}
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for name, h := range sh.wins {
			if h.svc == nil {
				continue
			}
			switch {
			case h.svc.Window().hasQuarantine():
				quarantined++
			case degradedSet[name]:
				degraded++
			default:
				healthy++
			}
		}
		sh.mu.RUnlock()
	}
	return healthy, degraded, quarantined
}

// msfLevelsLive sums the materialised msfweight levels over the live
// windows. Each window's count is an atomic its writer publishes, so this
// takes no monitor lock.
func (r *WindowRegistry) msfLevelsLive() int64 {
	var total int64
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for _, h := range sh.wins {
			if h.svc != nil {
				total += h.svc.Window().mux.msfLevels.Load()
			}
		}
		sh.mu.RUnlock()
	}
	return total
}

// DegradedWindows lists windows currently serving without a working WAL,
// sorted (nil on healthy or in-memory registries). The readiness probe's
// wal_writable check keys off it — and goes green again when the self-heal
// loop empties it.
func (r *WindowRegistry) DegradedWindows() []string {
	if r.persist == nil {
		return nil
	}
	return r.persist.degradedWindows()
}

// FaultInjector returns the configured injector (nil in production). The
// HTTP server gates /admin/fault on it.
func (r *WindowRegistry) FaultInjector() *fault.Injector { return r.cfg.FaultInjector }

// Checkpoint persists every window's expiry low-watermark to the manifest
// (after fsyncing the logs, so the watermarks never outrun the data) and
// prunes log segments that hold only expired arrivals. Fails with
// ErrNotPersistent on an in-memory registry. Also surfaces any WAL append
// error recorded since the last checkpoint.
func (r *WindowRegistry) Checkpoint() (CheckpointStats, error) {
	if r.persist == nil {
		return CheckpointStats{}, ErrNotPersistent
	}
	return r.persist.checkpoint()
}

// Persistent reports whether the registry has a durability layer.
func (r *WindowRegistry) Persistent() bool { return r.persist != nil }

// PersistenceStats snapshots the durability layer's counters; ok is false
// on an in-memory registry.
func (r *WindowRegistry) PersistenceStats() (PersistenceStats, bool) {
	if r.persist == nil {
		return PersistenceStats{}, false
	}
	return r.persist.stats(), true
}

// LastCheckpoint returns when the last checkpoint pass completed (boot
// time until one runs); ok is false on an in-memory registry. The
// readiness probe's checkpoint-age bound reads it.
func (r *WindowRegistry) LastCheckpoint() (time.Time, bool) {
	if r.persist == nil {
		return time.Time{}, false
	}
	return time.Unix(0, r.persist.lastCheckpointAt.Load()), true
}

// startCheckpointLoop runs Checkpoint on a fixed period until Close. A
// failed pass is retried with bounded exponential backoff (period/8 · 2^k,
// capped at the period) instead of waiting out the whole interval with
// durability progress stale — a transient stall (disk briefly full, fsync
// hiccup) recovers in a fraction of the checkpoint interval, while a hard
// failure degenerates to the normal cadence.
func (r *WindowRegistry) startCheckpointLoop(period time.Duration) {
	r.ckptStop = make(chan struct{})
	r.ckptWG.Add(1)
	go func() {
		defer r.ckptWG.Done()
		t := time.NewTimer(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				// Checkpoint records its own failures (checkpoint_errors
				// + last_error in PersistenceStats), so dropping the
				// error's content here loses nothing.
				_, err := r.Checkpoint()
				next := period
				if err != nil && !errors.Is(err, ErrRegistryClosed) {
					retry := period / 8
					for i := r.persist.ckptConsecFails.Load(); i > 1 && retry < period; i-- {
						retry *= 2
					}
					if retry < 10*time.Millisecond {
						retry = 10 * time.Millisecond
					}
					if retry < next {
						next = retry
					}
				}
				t.Reset(next)
			case <-r.ckptStop:
				return
			}
		}
	}()
}

// Len returns the number of live windows.
func (r *WindowRegistry) Len() int {
	r.countMu.Lock()
	defer r.countMu.Unlock()
	return r.count
}

// Names lists the registered window names, sorted.
func (r *WindowRegistry) Names() []string {
	var out []string
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for name, h := range sh.wins {
			if h.svc != nil {
				out = append(out, name)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// List snapshots every window's info, sorted by name. Stats are gathered
// outside the shard locks.
func (r *WindowRegistry) List() []WindowInfo {
	var handles []*windowHandle
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for _, h := range sh.wins {
			if h.svc != nil {
				handles = append(handles, h)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(handles, func(i, j int) bool { return handles[i].name < handles[j].name })
	out := make([]WindowInfo, len(handles))
	for i, h := range handles {
		edges, batches := h.svc.IngestStats()
		out[i] = WindowInfo{
			Name:     h.name,
			N:        h.svc.Window().N(),
			Monitors: h.svc.Window().Monitors(),
			Created:  h.created,
			Window:   h.svc.Window().Stats(),
			Edges:    edges,
			Batches:  batches,
		}
	}
	return out
}

// Close drops every window (flushing and closing each pipeline) and
// rejects further creates. On a durable registry it then writes a final
// checkpoint (the drained pipelines' last appends and watermarks) and
// closes the logs. Idempotent.
func (r *WindowRegistry) Close() {
	r.countMu.Lock()
	already := r.closed.Swap(true)
	r.countMu.Unlock()
	if !already && r.ckptStop != nil {
		close(r.ckptStop)
		r.ckptWG.Wait()
	}
	var handles []*windowHandle
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for name, h := range sh.wins {
			// Skip mid-construction placeholders: their Create observes
			// the closed flag when it re-locks the shard and cleans up its
			// own reservation (see Create).
			if h.svc == nil {
				continue
			}
			handles = append(handles, h)
			delete(sh.wins, name)
		}
		sh.mu.Unlock()
	}
	for _, h := range handles {
		r.release()
		// Flush, then Close: edges accepted before shutdown — including
		// ones still buffered under the ingester's MaxDelay deadline —
		// are applied (and logged) rather than dropped. Close's shutdown
		// drain gives the same guarantee on its own; the explicit flush
		// pins it against future ingester changes.
		h.svc.Flush()
		h.svc.Close()
	}
	if !already && r.persist != nil {
		r.persist.closeAll()
	}
	if !already && r.flightSink != nil {
		r.flight.SetSlowSink(nil)
		_ = r.flightSink.Close()
	}
}
