package stream

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
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
	// MaxWindows caps the number of live windows, counting ones still being
	// created (0 = unlimited). Creation beyond the cap fails with
	// ErrTooManyWindows.
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

// windowHandle is one registry entry, never modified once stored. svc is
// nil while the window is still being constructed (Create publishes a
// placeholder first so it can build the Service outside the registry
// lock, then replaces it with the finished handle); every reader treats a
// nil-svc handle as "window does not exist yet".
type windowHandle struct {
	name    string
	svc     *Service
	created time.Time
}

// WindowRegistry owns many named windows — each a full Service pipeline
// (Ingester + WindowManager + expiry ticker). Its one lock guards only the
// name → window table and only its writers; each window's own
// single-writer/many-reader discipline is unchanged, so one tenant's batch
// application never blocks another tenant's queries.
type WindowRegistry struct {
	cfg RegistryConfig

	// mu serializes changes to the window table and guards closed. wins is
	// the table, copy-on-write: Create, Drop, attachService and Close store
	// a new map under mu, and a stored map is never modified, so every
	// lookup (Get on each request, the listings, the gauges) loads it
	// without a lock.
	mu     sync.Mutex
	wins   cowMap[windowHandle]
	closed bool

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

	// flight is the batch flight recorder every owned pipeline traces
	// into — always on (recording is 0 allocs/op; cost is a handful of
	// clock reads per batch). flightSink is the slow-trace JSONL file on
	// a durable registry (nil otherwise), closed with the registry.
	flight     *trace.Recorder
	flightSink io.Closer
}

// NewRegistry returns an empty registry.
func NewRegistry(cfg RegistryConfig) *WindowRegistry {
	r := &WindowRegistry{
		cfg:    cfg,
		logger: cfg.Logger,
		flight: trace.New(cfg.Flight),
	}
	if r.logger == nil {
		r.logger = slog.New(slog.DiscardHandler)
	}
	if cfg.Telemetry != nil {
		r.metrics = NewMetrics(cfg.Telemetry)
		cfg.Telemetry.GaugeFunc("sw_windows_live",
			"Live windows registered.", func() float64 { return float64(r.Len()) })
		cfg.Telemetry.GaugeFunc("sw_apply_parallelism",
			"Process-wide msfweight level fork-join width (caller + auxiliaries).",
			func() float64 { return float64(parallel.Default().Aux() + 1) })
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
		// Same rule: registry-wide sums, labelled at most by slot (a fixed
		// set), read from each window's published answers.
		cfg.Telemetry.GaugeFunc("sw_msfweight_levels_live",
			"Materialised msfweight weight levels (buckets holding a live edge), summed over windows.",
			func() float64 {
				return float64(r.sumAnswers(func(_ *WindowManager, a *answers) int { return a.levels }))
			})
		for _, slot := range AllSlots() {
			cfg.Telemetry.GaugeFunc("sw_engine_vertices",
				"Rake-compress tree vertices in use over the slot's engines, summed over windows.",
				func() float64 {
					return float64(r.sumAnswers(func(w *WindowManager, a *answers) int {
						for _, s := range w.mux.slots {
							if s.name == slot {
								return a.vertices[s.idx]
							}
						}
						return 0
					}))
				},
				telemetry.L("slot", slot))
		}
	} else {
		r.metrics = noMetrics
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

// admitLocked checks a window-to-be against the closed flag, MaxWindows
// (the table's size, placeholders included) and the names taken. Callers
// hold r.mu.
func (r *WindowRegistry) admitLocked(name string) error {
	if r.closed {
		return ErrRegistryClosed
	}
	wins := r.wins.Load()
	if r.cfg.MaxWindows > 0 && len(wins) >= r.cfg.MaxWindows {
		return fmt.Errorf("%w (max %d)", ErrTooManyWindows, r.cfg.MaxWindows)
	}
	if _, dup := wins[name]; dup {
		return fmt.Errorf("%w: %q", ErrWindowExists, name)
	}
	return nil
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

// Create builds and registers a new window named name. Zero fields of cfg
// inherit from the registry template. Fails with ErrWindowExists if the
// name is taken.
func (r *WindowRegistry) Create(name string, cfg ServiceConfig) (*Service, error) {
	if err := ValidateWindowName(name); err != nil {
		return nil, err
	}
	cfg = mergeTemplate(cfg, r.cfg.Template)
	cfg.Window.Name = name
	cfg.Window.durable = r.persist != nil
	cfg.Telemetry = r.metrics
	cfg.flight = r.flight
	// Publish a placeholder and construct outside the lock: building
	// monitors is O(N) and must not stall the registry's other writers.
	// The placeholder reserves the name (racing creates see a duplicate)
	// and a MaxWindows slot; Get/List/Drop all treat nil svc as "no such
	// window".
	r.mu.Lock()
	if err := r.admitLocked(name); err != nil {
		r.mu.Unlock()
		return nil, err
	}
	created := time.Now()
	r.wins.Put(name, &windowHandle{name: name, created: created})
	r.mu.Unlock()

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

	r.mu.Lock()
	switch {
	case err != nil:
	case r.closed:
		// Close took the table while this window was a placeholder and
		// left it to us: no window outlives Close.
		err = ErrRegistryClosed
	case r.persist != nil:
		// Commit to the manifest in the same hold that publishes the
		// window (after the closed check): the durable registry and the
		// in-memory one can never disagree about a successfully-created
		// window.
		err = r.persist.commitWindow(name)
	}
	if err != nil {
		r.wins.Put(name, nil)
		r.mu.Unlock()
		if svc != nil {
			svc.Close()
			if r.persist != nil {
				_ = r.persist.removeWindow(name, svc)
			}
		}
		return nil, err
	}
	r.wins.Put(name, &windowHandle{name: name, svc: svc, created: created})
	r.mu.Unlock()
	return svc, nil
}

// attachService registers an already-built Service under name; the
// registry takes ownership, so Drop and Close will Close it. The recovery
// path registers windows whose durability state it has already wired;
// NewServer registers its caller's window, which is never persisted.
func (r *WindowRegistry) attachService(name string, svc *Service) error {
	if err := ValidateWindowName(name); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.admitLocked(name); err != nil {
		return err
	}
	r.wins.Put(name, &windowHandle{name: name, svc: svc, created: time.Now()})
	return nil
}

// Get returns the named window's service. A window whose Create is still
// constructing does not resolve yet.
func (r *WindowRegistry) Get(name string) (*Service, bool) {
	h := r.wins.Load()[name]
	if h == nil || h.svc == nil {
		return nil, false
	}
	return h.svc, true
}

// Drop unregisters the named window and closes its pipeline (draining the
// ingester). The close runs outside the registry lock so a slow drain
// never blocks other registry operations; readers that fetched the service
// before the drop keep a usable (query-only, once closed) handle. On a
// durable registry the window's log directory and manifest entry are
// deleted — a dropped window does not come back at restart.
func (r *WindowRegistry) Drop(name string) error {
	r.mu.Lock()
	h := r.wins.Load()[name]
	ok := h != nil && h.svc != nil // a mid-construction placeholder is not droppable
	if ok {
		r.wins.Put(name, nil)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrWindowNotFound, name)
	}
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
	for name, h := range r.wins.Load() {
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
	return healthy, degraded, quarantined
}

// sumAnswers sums fn over the live windows' published answers: one atomic
// load per window, no monitor lock.
func (r *WindowRegistry) sumAnswers(fn func(w *WindowManager, a *answers) int) int {
	total := 0
	for _, h := range r.wins.Load() {
		if h.svc != nil {
			w := h.svc.Window()
			total += fn(w, w.ans.Load())
		}
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

// Len returns the number of live windows, counting ones whose Create is
// still building them — the number MaxWindows admits against.
func (r *WindowRegistry) Len() int { return len(r.wins.Load()) }

// Names lists the registered window names, sorted.
func (r *WindowRegistry) Names() []string {
	var out []string
	for name, h := range r.wins.Load() {
		if h.svc != nil {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// List snapshots every window's info, sorted by name.
func (r *WindowRegistry) List() []WindowInfo {
	var handles []*windowHandle
	for _, h := range r.wins.Load() {
		if h.svc != nil {
			handles = append(handles, h)
		}
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
	r.mu.Lock()
	already := r.closed
	r.closed = true
	wins := r.wins.Clear()
	r.mu.Unlock()
	if !already && r.ckptStop != nil {
		close(r.ckptStop)
		r.ckptWG.Wait()
	}
	for _, h := range wins {
		// Skip mid-construction placeholders: their Create sees the
		// closed flag when it re-takes the lock and cleans up its own
		// window (see Create).
		if h.svc == nil {
			continue
		}
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
