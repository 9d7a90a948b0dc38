package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// DefaultMaxBodyBytes caps a POST /edges request body (8 MiB ≈ 200k edges)
// unless ServerConfig overrides it.
const DefaultMaxBodyBytes = 8 << 20

// Server is the HTTP JSON front-end over a WindowRegistry, the handler
// behind cmd/swserver. Every window registered in the registry is
// addressable under /windows/{name}/...; the legacy single-window paths
// are preserved and resolve to the configured default window.
//
//	POST   /windows                             create a window (template + overrides)
//	GET    /windows                             list windows with stats
//	GET    /windows/{name}                      one window's info
//	DELETE /windows/{name}                      drop a window (closes its pipeline)
//	POST   /windows/{name}/edges                ingest a batch of edges
//	GET    /windows/{name}/query/connected?u=&v=
//	GET    /windows/{name}/query/components
//	GET    /windows/{name}/query/bipartite
//	GET    /windows/{name}/query/msfweight
//	GET    /windows/{name}/query/cycle
//	GET    /windows/{name}/query/kcert
//	GET    /windows/{name}/query/summary     all monitors at one apply epoch
//	GET    /windows/{name}/stats                per-window counters and health
//	POST   /edges, GET /query/..., GET /stats   same, on the default window
//	GET    /healthz                             liveness (process up)
//	GET    /readyz                              readiness (see ServerConfig)
//	GET    /metrics                             Prometheus text exposition
//	GET    /debug/flight                        flight recorder (per-window timings)
//
// When the registry carries a telemetry bundle, every routed request is
// observed once, into the sw_http_request_seconds{route=...} histogram
// keyed by route pattern (shared across windows, so cardinality stays
// bounded). The stats documents carry counters and health, no latencies.
type Server struct {
	reg        *WindowRegistry
	defaultWin string
	maxBody    int64
	m          *Metrics
	health     *telemetry.Health
	mux        *http.ServeMux
	start      time.Time
}

// ServerConfig tunes the HTTP front-end; zero values select defaults.
type ServerConfig struct {
	// DefaultWindow is the window name the legacy root routes resolve to
	// (default "default").
	DefaultWindow string
	// MaxBodyBytes caps the POST /edges (and POST /windows) request body;
	// oversized bodies get 413 (default DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// Metrics overrides the telemetry bundle (default: the registry's own
	// bundle). /metrics is mounted only when the resolved bundle carries a
	// registry.
	Metrics *Metrics
	// QueueBudget is the ingest-queue utilization (queued submissions over
	// queue capacity, per window) above which /readyz reports not-ready —
	// the load-shedding signal for balancers. Default 0.9; negative
	// disables the check.
	QueueBudget float64
	// CheckpointAgeBound fails /readyz when the durable registry has not
	// completed a checkpoint for this long — durability (expiry watermarks,
	// segment GC) has stalled. 0 disables the check.
	CheckpointAgeBound time.Duration
}

// edgeJSON is the wire form of one edge.
type edgeJSON struct {
	U int32 `json:"u"`
	V int32 `json:"v"`
	W int64 `json:"w,omitempty"`
	// T is an optional RFC 3339 event time; empty means "now".
	T string `json:"t,omitempty"`
}

type edgesRequest struct {
	Edges []edgeJSON `json:"edges"`
}

// createWindowRequest is the wire form of POST /windows. Zero fields
// inherit from the registry template.
type createWindowRequest struct {
	Name        string   `json:"name"`
	N           int      `json:"n,omitempty"`
	Seed        uint64   `json:"seed,omitempty"`
	Monitors    []string `json:"monitors,omitempty"`
	MaxArrivals int      `json:"max_arrivals,omitempty"`
	MaxAgeMS    int64    `json:"max_age_ms,omitempty"`
	Eps         float64  `json:"eps,omitempty"`
	MaxWeight   int64    `json:"max_weight,omitempty"`
	K           int      `json:"k,omitempty"`
	MaxBatch    int      `json:"max_batch,omitempty"`
	MaxDelayMS  int64    `json:"max_delay_ms,omitempty"`
	// Admission budgets and rate limit (see IngesterConfig); zero inherits
	// the registry template.
	MaxQueueEdges  int64 `json:"max_queue_edges,omitempty"`
	MaxEdgesPerSec int   `json:"max_edges_per_sec,omitempty"`
	BurstEdges     int   `json:"burst_edges,omitempty"`
	// SyncAck is tri-state: absent inherits the template's ack mode, an
	// explicit true/false overrides it. True makes POST /edges on this
	// window block for durability by default (per-request ?sync= still
	// overrides).
	SyncAck *bool `json:"sync_ack,omitempty"`
}

// NewServer wraps one Service in the HTTP front-end as the default window
// of a fresh single-window registry — the original single-tenant shape.
// The caller keeps ownership of svc (its Close is idempotent, so closing
// through both paths is harmless). The internal registry is capped at one
// window, so the /windows admin routes can list and inspect but not grow
// a server whose owner never closes the registry; multi-tenant callers
// use NewRegistryServer.
func NewServer(svc *Service) *Server {
	reg := NewRegistry(RegistryConfig{MaxWindows: 1})
	if err := reg.attachService(DefaultWindow, svc); err != nil {
		panic(err) // fresh registry, valid constant name: unreachable
	}
	return NewRegistryServer(reg, ServerConfig{})
}

// NewRegistryServer wraps a registry in the HTTP front-end.
func NewRegistryServer(reg *WindowRegistry, cfg ServerConfig) *Server {
	if cfg.DefaultWindow == "" {
		cfg.DefaultWindow = DefaultWindow
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.Metrics == nil {
		cfg.Metrics = reg.Metrics()
	}
	if cfg.QueueBudget == 0 {
		cfg.QueueBudget = 0.9
	}
	s := &Server{
		reg:        reg,
		defaultWin: cfg.DefaultWindow,
		maxBody:    cfg.MaxBodyBytes,
		m:          cfg.Metrics.orNoop(),
		health:     buildHealth(reg, cfg),
		mux:        http.NewServeMux(),
		start:      time.Now(),
	}
	s.handle("POST /windows", s.handleCreateWindow)
	s.handle("POST /admin/checkpoint", s.handleCheckpoint)
	// The chaos control plane exists only when the process was booted with
	// a fault injector (-fault-inject); a production server has no fault
	// surface and these routes 404.
	if reg.FaultInjector() != nil {
		s.handle("GET /admin/fault", s.handleFaultGet)
		s.handle("POST /admin/fault", s.handleFaultSet)
		s.handle("DELETE /admin/fault", s.handleFaultDelete)
	}
	s.handle("GET /windows", s.handleListWindows)
	s.handle("GET /windows/{name}", s.handleWindowInfo)
	s.handle("DELETE /windows/{name}", s.handleDropWindow)
	// Each data-plane route is registered twice — namespaced and legacy —
	// sharing one handler; the legacy form reads the default window because
	// its pattern has no {name}.
	both := func(method, suffix string, fn http.HandlerFunc) {
		s.handle(method+" /windows/{name}"+suffix, fn)
		s.handle(method+" "+suffix, fn)
	}
	both("POST", "/edges", s.handleEdges)
	both("GET", "/query/connected", s.handleConnected)
	both("GET", "/query/components", s.handleComponents)
	both("GET", "/query/bipartite", s.handleBipartite)
	both("GET", "/query/msfweight", s.handleMSFWeight)
	both("GET", "/query/cycle", s.handleCycle)
	both("GET", "/query/kcert", s.handleKCert)
	both("GET", "/query/summary", s.handleSummary)
	s.handle("GET /windows/{name}/stats", s.handleWindowStats)
	s.handle("GET /stats", s.handleStats)
	// Probes and the exposition endpoint are deliberately NOT routed
	// through handle(): a scraper hitting /metrics every few seconds must
	// not shift the request-latency histograms it is reading.
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.Handle("GET /readyz", s.health.ReadyHandler())
	if treg := s.m.Registry(); treg != nil {
		s.mux.Handle("GET /metrics", treg.Handler())
	}
	// The flight recorder is read-side forensics like /metrics: raw-mounted
	// so scraping traces never shifts the request histograms.
	s.mux.Handle("GET /debug/flight", reg.Flight().Handler())
	return s
}

// buildHealth assembles the readiness probe set for /readyz:
//
//   - recovery_complete (gate): the registry finished boot recovery. True
//     from construction — OpenRegistry returns only after recovery — and
//     flippable through Health() by embedders that serve during a warm-up
//     of their own.
//   - wal_writable (check, durable registries): no WAL append has failed;
//     an append error means acknowledged edges are missing from the log,
//     which a restart-with-recovery fixes and a live process cannot.
//   - checkpoint_age (check, durable registries, opt-in): the last
//     completed checkpoint is within CheckpointAgeBound.
//   - queue_budget (check, opt-out): no window's ingest queue is above
//     QueueBudget of its capacity — past it, producers are blocking and
//     a balancer should route elsewhere.
func buildHealth(reg *WindowRegistry, cfg ServerConfig) *telemetry.Health {
	h := telemetry.NewHealth()
	h.SetGate("recovery_complete", true)
	if reg.Persistent() {
		// Live state, not a sticky tally: the check fails while any window
		// is in the degraded durability state and passes again once the
		// self-heal loop re-arms the log and closes the gap — a balancer
		// sees degrade → heal without a restart.
		h.AddCheck("wal_writable", func() string {
			if deg := reg.DegradedWindows(); len(deg) > 0 {
				ps, _ := reg.PersistenceStats()
				return fmt.Sprintf("%d degraded window(s) [%s]: WAL appends failing, self-heal pending (last: %s)",
					len(deg), strings.Join(deg, ", "), ps.LastError)
			}
			return ""
		})
		if cfg.CheckpointAgeBound > 0 {
			bound := cfg.CheckpointAgeBound
			h.AddCheck("checkpoint_age", func() string {
				last, ok := reg.LastCheckpoint()
				if !ok {
					return ""
				}
				if age := time.Since(last); age > bound {
					return fmt.Sprintf("last checkpoint %s ago (bound %s)", age.Round(time.Millisecond), bound)
				}
				return ""
			})
		}
	}
	if cfg.QueueBudget >= 0 {
		budget := cfg.QueueBudget
		h.AddCheck("queue_budget", func() string {
			for _, name := range reg.Names() {
				svc, ok := reg.Get(name)
				if !ok {
					continue
				}
				// Budgeted windows flip readiness in the unit admission
				// enforces — queued edges against the configured budget — so
				// a queue of mega-batches cannot read healthy while memory
				// grows. Submission count over QueueCap is only the fallback
				// for unbudgeted windows.
				batches, qEdges := svc.QueueDepth()
				if maxEdges := svc.QueueBudget(); maxEdges > 0 {
					if float64(qEdges) > budget*float64(maxEdges) {
						return fmt.Sprintf("window %q ingest queue at %d/%d edges (budget %.0f%%)",
							name, qEdges, maxEdges, budget*100)
					}
					continue
				}
				if cap := svc.QueueCap(); cap > 0 && float64(batches) > budget*float64(cap) {
					return fmt.Sprintf("window %q ingest queue at %d/%d submissions (budget %.0f%%)",
						name, batches, cap, budget*100)
				}
			}
			return ""
		})
	}
	return h
}

// Health exposes the server's readiness probe set so embedders can add
// their own checks or flip gates (e.g. during a warm-up phase).
func (s *Server) Health() *telemetry.Health { return s.health }

// windowDegraded reports whether the named window is in the degraded
// durability state (always false on in-memory registries).
func (s *Server) windowDegraded(name string) bool {
	for _, d := range s.reg.DegradedWindows() {
		if d == name {
			return true
		}
	}
	return false
}

// Registry returns the registry the server routes over.
func (s *Server) Registry() *WindowRegistry { return s.reg }

// Handler returns the root handler for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// handle registers a pattern with latency recording keyed by the pattern
// into the per-route /metrics histogram, plus the in-flight gauge.
func (s *Server) handle(pattern string, fn http.HandlerFunc) {
	hist := s.m.routeHist(pattern) // nil (no-op) when telemetry is off
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		s.m.httpInflight.Add(1)
		start := time.Now()
		fn(w, r)
		hist.Observe(time.Since(start))
		s.m.httpInflight.Add(-1)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// queryErr maps query failures: missing monitor is a client configuration
// problem (404); a quarantined monitor is 503 with a machine-readable
// reason — the monitor's state is being rebuilt in the background and the
// query is retryable; anything else a bad request.
func queryErr(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrNoMonitor) {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if errors.Is(err, ErrMonitorQuarantined) {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":  err.Error(),
			"reason": "monitor_quarantined",
		})
		return
	}
	writeErr(w, http.StatusBadRequest, err)
}

// registryErr maps registry failures onto status codes.
func registryErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrWindowNotFound):
		writeErr(w, http.StatusNotFound, err)
	case errors.Is(err, ErrWindowExists):
		writeErr(w, http.StatusConflict, err)
	case errors.Is(err, ErrTooManyWindows):
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrRegistryClosed):
		writeErr(w, http.StatusServiceUnavailable, err)
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
}

// windowName resolves the window a request addresses: the {name} path
// segment, or the default window on the legacy routes.
func (s *Server) windowName(r *http.Request) string {
	if name := r.PathValue("name"); name != "" {
		return name
	}
	return s.defaultWin
}

// service resolves the addressed window's pipeline, answering 404 (and
// returning nil) when it does not exist.
func (s *Server) service(w http.ResponseWriter, r *http.Request) *Service {
	name := s.windowName(r)
	svc, ok := s.reg.Get(name)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("%w: %q", ErrWindowNotFound, name))
		return nil
	}
	return svc
}

// decodeBody decodes exactly one JSON document from a size-capped request
// body into v: oversized bodies yield 413, malformed JSON or trailing
// garbage after the document yield 400. Returns false after writing the
// error response.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
		return false
	}
	// Exactly one document: anything but EOF after it is trailing garbage
	// (another value, or bytes that are not JSON at all).
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeErr(w, http.StatusBadRequest, errors.New("trailing data after JSON body"))
		return false
	}
	return true
}

func (s *Server) handleCreateWindow(w http.ResponseWriter, r *http.Request) {
	var req createWindowRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	syncAck := s.reg.Template().Window.SyncAck
	if req.SyncAck != nil {
		syncAck = *req.SyncAck
	}
	cfg := ServiceConfig{
		Window: WindowConfig{
			N:           req.N,
			Seed:        req.Seed,
			Monitors:    req.Monitors,
			Monitor:     MonitorConfig{Eps: req.Eps, MaxWeight: req.MaxWeight, K: req.K},
			MaxArrivals: req.MaxArrivals,
			MaxAge:      time.Duration(req.MaxAgeMS) * time.Millisecond,
			SyncAck:     syncAck,
		},
		Ingest: IngesterConfig{
			MaxBatch:       req.MaxBatch,
			MaxDelay:       time.Duration(req.MaxDelayMS) * time.Millisecond,
			MaxQueueEdges:  req.MaxQueueEdges,
			MaxEdgesPerSec: req.MaxEdgesPerSec,
			BurstEdges:     req.BurstEdges,
		},
	}
	svc, err := s.reg.Create(req.Name, cfg)
	if err != nil {
		registryErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"name":     req.Name,
		"n":        svc.Window().N(),
		"monitors": svc.Window().Monitors(),
	})
}

// handleCheckpoint persists expiry watermarks, writes any live-edge
// snapshots the threshold calls for, and prunes fully-expired WAL
// segments (plus superseded snapshots) on demand — the durable registry's
// manual GC trigger (a background ticker usually does this on a period).
func (s *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	st, err := s.reg.Checkpoint()
	if err != nil {
		if errors.Is(err, ErrNotPersistent) {
			writeErr(w, http.StatusConflict, err)
			return
		}
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"windows":          st.Windows,
		"pruned_segments":  st.PrunedSegments,
		"snapshots":        st.Snapshots,
		"snapshot_edges":   st.SnapshotEdges,
		"pruned_snapshots": st.PrunedSnaps,
		"elapsed_ms":       float64(st.Elapsed) / 1e6,
	})
}

// handleFaultGet lists the injector's rule set with per-rule match/fire
// counters and the total trip count.
func (s *Server) handleFaultGet(w http.ResponseWriter, _ *http.Request) {
	inj := s.reg.FaultInjector()
	writeJSON(w, http.StatusOK, map[string]any{
		"rules": inj.Rules(),
		"trips": inj.Trips(),
	})
}

// handleFaultSet installs fault rules at runtime: a JSON object installs
// (or replaces, by ID) one rule; a JSON array replaces the whole rule set
// atomically — the shape swload's outage scheduler posts.
func (s *Server) handleFaultSet(w http.ResponseWriter, r *http.Request) {
	inj := s.reg.FaultInjector()
	data := s.readBody(w, r)
	if data == nil {
		return
	}
	if trimmed := bytes.TrimSpace(data); len(trimmed) > 0 && trimmed[0] == '[' {
		if err := inj.SetRulesJSON(trimmed); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"rules": inj.Rules()})
		return
	}
	var rule fault.Rule
	if err := json.Unmarshal(data, &rule); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad fault rule: %w", err))
		return
	}
	id, err := inj.Set(rule)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": id})
}

// handleFaultDelete clears one rule (?id=) or, with no id, the whole set —
// the "end of outage" control.
func (s *Server) handleFaultDelete(w http.ResponseWriter, r *http.Request) {
	inj := s.reg.FaultInjector()
	if id := r.URL.Query().Get("id"); id != "" {
		if !inj.Clear(id) {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no fault rule %q", id))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"cleared": id})
		return
	}
	inj.Reset()
	writeJSON(w, http.StatusOK, map[string]string{"cleared": "all"})
}

func (s *Server) handleListWindows(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"windows": s.reg.List(),
		"count":   s.reg.Len(),
	})
}

func (s *Server) handleWindowInfo(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	svc, ok := s.reg.Get(name)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("%w: %q", ErrWindowNotFound, name))
		return
	}
	edges, batches := svc.IngestStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"name":           name,
		"n":              svc.Window().N(),
		"monitors":       svc.Window().Monitors(),
		"window":         svc.Window().Stats(),
		"ingest_edges":   edges,
		"ingest_batches": batches,
	})
}

func (s *Server) handleDropWindow(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Drop(name); err != nil {
		registryErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"dropped": name})
}

// ndjsonRequest reports whether the ingest request uses the compact
// NDJSON format: ?format=ndjson, or an application/x-ndjson content type
// when no format parameter says otherwise.
func ndjsonRequest(r *http.Request) bool {
	if f := r.URL.Query().Get("format"); f != "" {
		return f == "ndjson"
	}
	return strings.HasPrefix(r.Header.Get("Content-Type"), "application/x-ndjson")
}

// ingestErr maps a Submit failure onto the ingest status contract:
// admission rejections are 429 with a Retry-After hint (whole seconds,
// rounded up — the header's unit) and machine-readable reason; a closed
// pipeline or an abandoned wait is 503; anything else — a WAL append or
// fsync failure under sync-ack — is 500, because the edges were accepted
// in memory but the durability promise failed.
func ingestErr(w http.ResponseWriter, err error) {
	var adm *AdmissionError
	if errors.As(err, &adm) {
		secs := (adm.RetryAfter + time.Second - 1) / time.Second
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(int64(secs), 10))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":          adm.Error(),
			"reason":         adm.Reason,
			"retry_after_ms": adm.RetryAfter.Milliseconds(),
		})
		return
	}
	if errors.Is(err, ErrClosed) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	// A degraded window accepted the edges in memory but cannot currently
	// make them durable — 503 (retryable once the self-heal loop re-arms
	// the log), not a false 202 and not a 500: the server is not broken,
	// the durability promise is suspended and loudly flagged.
	if errors.Is(err, ErrWindowDegraded) {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":  err.Error(),
			"reason": "wal_degraded",
		})
		return
	}
	writeErr(w, http.StatusInternalServerError, fmt.Errorf("durability failure: %w", err))
}

// readBody reads the size-capped raw request body (the NDJSON path);
// oversized bodies get 413. Returns nil after writing the error response.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) []byte {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	data, err := io.ReadAll(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("body exceeds %d bytes", tooLarge.Limit))
			return nil
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
		return nil
	}
	return data
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w, r)
	if svc == nil {
		return
	}
	var batch []Edge
	if ndjsonRequest(r) {
		data := s.readBody(w, r)
		if data == nil {
			return
		}
		var err error
		if batch, err = parseNDJSON(data, nil); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	} else {
		var req edgesRequest
		if !s.decodeBody(w, r, &req) {
			return
		}
		batch = make([]Edge, 0, len(req.Edges))
		for i, e := range req.Edges {
			var t time.Time
			if e.T != "" {
				var err error
				t, err = time.Parse(time.RFC3339Nano, e.T)
				if err != nil {
					writeErr(w, http.StatusBadRequest, fmt.Errorf("edge %d: bad time: %w", i, err))
					return
				}
			}
			batch = append(batch, Edge{U: e.U, V: e.V, W: e.W, T: t})
		}
	}
	if len(batch) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("no edges in body"))
		return
	}
	n := int32(svc.Window().N())
	for i := range batch {
		if e := &batch[i]; e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("edge %d: vertex out of range [0, %d)", i, n))
			return
		} else if e.U == e.V {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("edge %d: self-loop", i))
			return
		}
	}
	// Ack mode: the window's SyncAck default, overridable per request with
	// ?sync=1 / ?sync=0. Sync means the 202 is written only after the
	// batch's WAL append + fsync completed — durable, not just queued.
	sync := svc.SyncAckDefault()
	if v := r.URL.Query().Get("sync"); v != "" {
		sync = v == "1" || v == "true"
	}
	var err error
	if sync {
		err = svc.submitOwnedDurable(r.Context(), batch)
	} else {
		err = svc.submitOwned(batch)
	}
	if err != nil {
		ingestErr(w, err)
		return
	}
	resp := map[string]any{"accepted": len(batch)}
	if sync {
		resp["durable"] = svc.Durable()
	}
	writeJSON(w, http.StatusAccepted, resp)
}

func vertexParam(r *http.Request, name string) (int32, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad vertex %q: %w", raw, err)
	}
	return int32(v), nil
}

func (s *Server) handleConnected(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w, r)
	if svc == nil {
		return
	}
	u, err := vertexParam(r, "u")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	v, err := vertexParam(r, "v")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	conn, err := svc.Window().IsConnected(u, v)
	if err != nil {
		queryErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"u": u, "v": v, "connected": conn})
}

func (s *Server) handleComponents(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w, r)
	if svc == nil {
		return
	}
	cc, err := svc.Window().NumComponents()
	if err != nil {
		queryErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"components": cc})
}

func (s *Server) handleBipartite(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w, r)
	if svc == nil {
		return
	}
	b, err := svc.Window().IsBipartite()
	if err != nil {
		queryErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"bipartite": b})
}

func (s *Server) handleMSFWeight(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w, r)
	if svc == nil {
		return
	}
	wt, err := svc.Window().MSFWeight()
	if err != nil {
		queryErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{"weight": wt})
}

func (s *Server) handleCycle(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w, r)
	if svc == nil {
		return
	}
	hc, err := svc.Window().HasCycle()
	if err != nil {
		queryErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"cycle": hc})
}

func (s *Server) handleKCert(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w, r)
	if svc == nil {
		return
	}
	// One lock hold for both values: two separate queries could straddle
	// an apply and report a (size, connectivity) pair from two different
	// window states.
	size, conn, err := svc.Window().KCertInfo()
	if err != nil {
		queryErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"size": size, "edge_connectivity_up_to_k": conn})
}

// handleSummary is the consistent multi-monitor read: every answer in the
// response comes from one published record, so all correspond to the same
// apply epoch (the same prefix of applied batches); separate queries could
// straddle an apply.
func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w, r)
	if svc == nil {
		return
	}
	writeJSON(w, http.StatusOK, svc.Window().QuerySummary())
}

// windowStatsBody builds the per-window stats document shared by
// /windows/{name}/stats and the default-window section of /stats.
// degraded is the window's durability state (always false for in-memory
// registries — the caller resolves it against the persister).
func windowStatsBody(svc *Service, degraded bool) map[string]any {
	edges, batches := svc.IngestStats()
	win := svc.Window().Stats()
	qBatches, qEdges := svc.QueueDepth()
	ingest := map[string]any{
		"edges_accepted": edges,
		"batches":        batches,
		// Queue depth in two units: queued submissions are the
		// backpressure signal (the channel fills in submissions), queued
		// edges the magnitude signal the admission budget bounds — a
		// thousand singleton submissions and one thousand-edge submission
		// are very different queues.
		"queue_batches": qBatches,
		"queue_edges":   qEdges,
		"queue_cap":     svc.QueueCap(),
	}
	if maxEdges := svc.QueueBudget(); maxEdges > 0 {
		ingest["queue_budget_edges"] = maxEdges
	}
	if rejSubs, rejEdges := svc.RejectStats(); rejSubs > 0 {
		ingest["rejected_batches"] = rejSubs
		ingest["rejected_edges"] = rejEdges
	}
	if svc.SyncAckDefault() {
		ingest["sync_ack"] = true
	}
	if batches > 0 {
		ingest["mean_batch_size"] = float64(edges) / float64(batches)
	}
	body := map[string]any{
		"monitors": svc.Window().Monitors(),
		"window":   win,
		"ingest":   ingest,
	}
	// Health is per-window state, not process state: quarantined (a monitor
	// panicked during apply and is being rebuilt) outranks degraded (WAL
	// appends failing, self-heal pending), which outranks healthy.
	quar := svc.Window().Quarantined()
	state := "healthy"
	if degraded {
		state = "degraded"
	}
	if len(quar) > 0 {
		state = "quarantined"
	}
	health := map[string]any{"state": state, "wal_degraded": degraded}
	if len(quar) > 0 {
		health["quarantined"] = quar
	}
	body["health"] = health
	// The msfweight level fork-join width (caller + auxiliaries), one
	// process-wide budget. Apply timings are per batch and per slot in
	// the window's flight traces.
	body["apply"] = map[string]any{"parallelism": svc.Window().ApplyParallelism()}
	return body
}

func (s *Server) handleWindowStats(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w, r)
	if svc == nil {
		return
	}
	body := windowStatsBody(svc, s.windowDegraded(s.windowName(r)))
	body["name"] = s.windowName(r)
	writeJSON(w, http.StatusOK, body)
}

// handleStats serves the process-wide view: registry shape, durability,
// and — when the default window exists — its stats inline under the
// original keys, so single-window clients keep working untouched.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"uptime_seconds": time.Since(s.start).Seconds(),
		"registry": map[string]any{
			"windows": s.reg.Names(),
			"count":   s.reg.Len(),
		},
	}
	if ps, ok := s.reg.PersistenceStats(); ok {
		resp["persistence"] = ps
	}
	if svc, ok := s.reg.Get(s.defaultWin); ok {
		for k, v := range windowStatsBody(svc, s.windowDegraded(s.defaultWin)) {
			resp[k] = v
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
