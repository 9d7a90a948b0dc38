package stream

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"

	"repro/internal/telemetry"
)

// newTelemetryServer boots a registry with a telemetry bundle, one default
// window, and the HTTP front-end — the full instrumented stack.
func newTelemetryServer(t *testing.T, cfg RegistryConfig, srvCfg ServerConfig) (*Server, *WindowRegistry) {
	t.Helper()
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	if cfg.Template.Window.N == 0 {
		cfg.Template.Window.N = 64
	}
	reg := NewRegistry(cfg)
	t.Cleanup(reg.Close)
	if _, err := reg.Create(DefaultWindow, ServiceConfig{}); err != nil {
		t.Fatalf("Create: %v", err)
	}
	return NewRegistryServer(reg, srvCfg), reg
}

// TestMetricsEndToEnd drives edges through the HTTP server and checks that
// /metrics serves valid exposition text whose counters reflect the traffic
// across every pipeline stage the tentpole instruments.
func TestMetricsEndToEnd(t *testing.T) {
	srv, reg := newTelemetryServer(t, RegistryConfig{}, ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"edges":[{"u":1,"v":2},{"u":2,"v":3},{"u":3,"v":4}]}`
	res, err := ts.Client().Post(ts.URL+"/edges", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /edges: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != 202 {
		t.Fatalf("POST /edges: status %d", res.StatusCode)
	}
	svc, _ := reg.Get(DefaultWindow)
	svc.Flush()
	if _, err := ts.Client().Get(ts.URL + "/query/components"); err != nil {
		t.Fatalf("GET components: %v", err)
	}

	res, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("GET /metrics: status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	exp, err := telemetry.ParseExposition(res.Body)
	if err != nil {
		t.Fatalf("parse exposition: %v", err)
	}
	if err := exp.Validate(); err != nil {
		t.Fatalf("validate exposition: %v", err)
	}

	wantValue := func(name string, labels map[string]string, want float64) {
		t.Helper()
		got, ok := exp.Value(name, labels)
		if !ok {
			t.Fatalf("metric %s%v missing", name, labels)
		}
		if got != want {
			t.Errorf("%s%v = %v, want %v", name, labels, got, want)
		}
	}
	wantValue("sw_ingest_edges_total", nil, 3)
	wantValue("sw_apply_edges_total", nil, 3)
	wantValue("sw_windows_live", nil, 1)
	// The three unweighted edges clamp to weight 1: one occupied bucket.
	wantValue("sw_msfweight_levels_live", nil, 1)
	// The path 1-2-3-4 touches 4 of the 64 vertices: F_1 holds them and
	// F_2 none, the double cover holds their 8 copies, and msfweight's one
	// level 4 again. Isolated vertices hold no rctree vertex.
	wantValue("sw_engine_vertices", map[string]string{"slot": SlotForest}, 4)
	wantValue("sw_engine_vertices", map[string]string{"slot": MonitorBipartite}, 8)
	wantValue("sw_engine_vertices", map[string]string{"slot": MonitorMSFWeight}, 4)
	wantValue("sw_ingest_queue_batches", nil, 0)
	wantValue("sw_ingest_queue_edges", nil, 0)

	// The batch lifecycle histograms all saw the one flushed batch.
	for _, name := range []string{
		"sw_ingest_queue_wait_seconds_count",
		"sw_apply_stage_seconds_count",
		"sw_apply_fanout_seconds_count",
		"sw_apply_batch_seconds_count",
	} {
		if got, ok := exp.Value(name, nil); !ok || got < 1 {
			t.Errorf("%s = %v (present=%v), want >= 1", name, got, ok)
		}
	}
	// Per-slot apply histograms exist for every fan-out slot, labeled.
	for _, mon := range AllSlots() {
		lbl := map[string]string{"monitor": mon}
		if got, ok := exp.Value("sw_monitor_apply_seconds_count", lbl); !ok || got < 1 {
			t.Errorf("sw_monitor_apply_seconds_count{monitor=%s} = %v (present=%v), want >= 1", mon, got, ok)
		}
	}
	// HTTP route histograms carry the pattern label.
	if got, ok := exp.Value("sw_http_request_seconds_count", map[string]string{"route": "POST /edges"}); !ok || got != 1 {
		t.Errorf(`sw_http_request_seconds_count{route="POST /edges"} = %v (present=%v), want 1`, got, ok)
	}
	if _, ok := exp.Value("sw_http_request_seconds_count", map[string]string{"route": "GET /metrics"}); ok {
		t.Error("/metrics must not record itself into the request histograms")
	}
}

// TestMetricNameLint walks every family a fully-wired process registers and
// re-checks it against the naming rules — the registration-time panics
// enforce this too, but only on code paths a given run exercises; this test
// wires everything (durable registry, server, per-route histograms) and
// sweeps the result.
func TestMetricNameLint(t *testing.T) {
	treg := telemetry.NewRegistry()
	reg, _, err := OpenRegistry(RegistryConfig{
		Telemetry: treg,
		Template:  ServiceConfig{Window: WindowConfig{N: 32}},
		Persistence: &PersistenceConfig{
			Dir: t.TempDir(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if _, err := reg.Create("w", ServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	srv := NewRegistryServer(reg, ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := ts.Client().Get(ts.URL + "/windows/w/query/summary"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	fams := treg.Families()
	if len(fams) < 25 {
		t.Fatalf("only %d families registered — wiring is missing whole subsystems", len(fams))
	}
	for _, f := range fams {
		if err := telemetry.CheckMetricName(f.Name, f.Type); err != nil {
			t.Errorf("family %q: %v", f.Name, err)
		}
		if !strings.HasPrefix(f.Name, "sw_") {
			t.Errorf("family %q: missing sw_ namespace prefix", f.Name)
		}
		if f.Help == "" {
			t.Errorf("family %q: no help text", f.Name)
		}
	}
}

// TestMetricsScrapeSkipsPersisterLock: a /metrics scrape reads the
// durability gauges without the persister's mutex, which a checkpoint
// holds through every log's fsync and the manifest's write and rename.
func TestMetricsScrapeSkipsPersisterLock(t *testing.T) {
	reg, _, err := OpenRegistry(RegistryConfig{
		Telemetry:   telemetry.NewRegistry(),
		Template:    ServiceConfig{Window: WindowConfig{N: 32}},
		Persistence: &PersistenceConfig{Dir: t.TempDir(), Fsync: FsyncOff},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	svc, err := reg.Create("w", ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit([]Edge{{U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	svc.Flush()
	ts := httptest.NewServer(NewRegistryServer(reg, ServerConfig{}).Handler())
	defer ts.Close()

	type scrape struct {
		exp *telemetry.Exposition
		err error
	}
	done := make(chan scrape, 1)
	reg.persist.mu.Lock()
	go func() {
		res, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			done <- scrape{err: err}
			return
		}
		defer res.Body.Close()
		exp, err := telemetry.ParseExposition(res.Body)
		done <- scrape{exp, err}
	}()
	var got scrape
	select {
	case got = <-done:
		reg.persist.mu.Unlock()
	case <-time.After(2 * time.Second):
		reg.persist.mu.Unlock()
		<-done
		t.Fatal("GET /metrics still waiting on the persister's lock after 2s")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if segs, ok := got.exp.Value("sw_wal_segments", nil); !ok || segs < 1 {
		t.Fatalf("sw_wal_segments = %v (present %v), want at least the window's one segment", segs, ok)
	}
}

// TestReadyzFlipsOnWALFailure pins the readiness semantics: ready on a
// healthy durable registry, 503 with a wal_writable failure while a
// window is in the degraded durability state — and back to 200 once the
// self-heal loop re-arms the log, with no restart.
func TestReadyzFlipsOnWALFailure(t *testing.T) {
	treg := telemetry.NewRegistry()
	inj := fault.NewInjector(nil, 1)
	reg, _, err := OpenRegistry(RegistryConfig{
		Telemetry:     treg,
		FaultInjector: inj,
		Template:      ServiceConfig{Window: WindowConfig{N: 32}},
		Persistence:   &PersistenceConfig{Dir: t.TempDir(), HealRetry: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if _, err := reg.Create(DefaultWindow, ServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	srv := NewRegistryServer(reg, ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	readyz := func() (int, map[string]any) {
		t.Helper()
		res, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return res.StatusCode, body
	}

	if code, body := readyz(); code != 200 || body["ready"] != true {
		t.Fatalf("healthy /readyz = %d %v, want 200 ready", code, body)
	}

	// Break the WAL for real: segment and snapshot-temp writes fail, so
	// the next append degrades the window and the heal loop cannot close
	// the gap. /readyz must flip to 503 and name the failing check.
	for _, rule := range []fault.Rule{
		{ID: "seg", Op: fault.OpWrite, Path: ".seg", Kind: fault.KindEIO},
		{ID: "snap", Op: fault.OpWrite, Path: ".snap-tmp-", Kind: fault.KindEIO},
	} {
		if _, err := inj.Set(rule); err != nil {
			t.Fatal(err)
		}
	}
	svc, _ := reg.Get(DefaultWindow)
	if err := svc.Submit([]Edge{{U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	svc.Flush()
	code, body := readyz()
	if code != 503 || body["ready"] != false {
		t.Fatalf("post-failure /readyz = %d %v, want 503 not-ready", code, body)
	}
	found := false
	for _, c := range body["checks"].([]any) {
		m := c.(map[string]any)
		if m["name"] == "wal_writable" && m["ok"] == false {
			found = true
			if !strings.Contains(m["detail"].(string), DefaultWindow) {
				t.Errorf("wal_writable detail %q does not name the degraded window", m["detail"])
			}
		}
	}
	if !found {
		t.Fatalf("no failing wal_writable check in %v", body["checks"])
	}

	// The check is live, not sticky: clearing the fault lets the heal
	// loop re-arm the log, and /readyz returns to 200 without a restart.
	inj.Reset()
	healed := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if code, _ := readyz(); code == 200 {
			healed = true
			break
		}
	}
	if !healed {
		t.Fatal("/readyz still 503 10s after the WAL fault cleared; heal never completed")
	}

	// /healthz (liveness) stays 200 throughout: the process is up even
	// when it should be drained of traffic.
	res, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("/healthz = %d during WAL failure, want 200", res.StatusCode)
	}
}

// TestReadyzRecoveryGate simulates an embedder's warm-up: flipping the
// recovery_complete gate takes /readyz to 503 and back.
func TestReadyzRecoveryGate(t *testing.T) {
	srv, _ := newTelemetryServer(t, RegistryConfig{}, ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status := func() int {
		t.Helper()
		res, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		return res.StatusCode
	}
	if got := status(); got != 200 {
		t.Fatalf("/readyz = %d, want 200", got)
	}
	srv.Health().SetGate("recovery_complete", false)
	if got := status(); got != 503 {
		t.Fatalf("/readyz with recovery gate down = %d, want 503", got)
	}
	srv.Health().SetGate("recovery_complete", true)
	if got := status(); got != 200 {
		t.Fatalf("/readyz after gate restored = %d, want 200", got)
	}
}

// TestReadyzQueueBudget drives the ingest queue over the budget with a
// blocked sink and checks the queue_budget probe trips.
func TestReadyzQueueBudget(t *testing.T) {
	release := make(chan struct{})
	first := make(chan struct{})
	var once bool
	ing := NewIngester(IngesterConfig{MaxBatch: 1, QueueLen: 4}, func([]Edge) error {
		if !once {
			once = true
			close(first)
		}
		<-release
		return nil
	})
	defer func() { close(release); ing.Close() }()
	for i := 0; i < 5; i++ { // 1 in the sink + 4 filling the queue
		if err := ing.Submit(Edge{U: 1, V: 2}); err != nil {
			t.Fatal(err)
		}
	}
	<-first
	batches, edges := ing.QueueDepth()
	if batches != 4 || edges != 4 {
		t.Fatalf("QueueDepth = (%d, %d), want (4, 4)", batches, edges)
	}
	if ing.QueueCap() != 4 {
		t.Fatalf("QueueCap = %d, want 4", ing.QueueCap())
	}
}

// TestLatencyRecorderQuantiles pins the summary of request latency, which
// is recorded once, into the per-route sw_http_request_seconds histogram
// that Server.handle observes (it used to pass through a LatencyRecorder
// for /stats as well).
func TestLatencyRecorderQuantiles(t *testing.T) {
	m := NewMetrics(telemetry.NewRegistry())
	h := m.routeHist("POST /edges")
	if s := h.Snapshot(); s.Count != 0 || s.P99 != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	// 99 fast observations and 1 slow one: p50 must stay near the fast
	// cluster, p99 may reach the slow one, and all quantiles are bounded
	// by Max.
	for i := 0; i < 99; i++ {
		h.Observe(100 * time.Microsecond)
	}
	// A second lookup of the route fetches the same instrument.
	m.routeHist("POST /edges").Observe(80 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	p50, p99, max, mean := time.Duration(s.P50), time.Duration(s.P99), time.Duration(s.Max), time.Duration(s.Mean)
	if max != 80*time.Millisecond {
		t.Fatalf("max = %v", max)
	}
	if p50 < 100*time.Microsecond || p50 >= time.Millisecond {
		t.Fatalf("p50 = %v, want within 2x of 100µs", p50)
	}
	if p99 > max || p99 < p50 {
		t.Fatalf("p99 = %v outside [p50=%v, max=%v]", p99, p50, max)
	}
	if mean <= 0 || mean > max {
		t.Fatalf("mean = %v out of range", mean)
	}
	if other := m.routeHist("GET /stats").Snapshot(); other.Count != 0 {
		t.Fatalf("GET /stats count = %d, want 0: routes must not share a histogram", other.Count)
	}
}

// TestIngestHotPathAllocs pins the instrumented submit path: Submit with
// telemetry ON must not allocate beyond the pre-existing batch copy.
func TestIngestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m := NewMetrics(telemetry.NewRegistry())
	sunk := func([]Edge) error { return nil }
	ing := newIngesterWith(IngesterConfig{MaxBatch: 4, QueueLen: 1 << 16}, sunk, m, nil)
	defer ing.Close()
	batch := []Edge{{U: 1, V: 2}}
	allocs := testing.AllocsPerRun(200, func() {
		if err := ing.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	// One alloc: the defensive copy SubmitBatch has always made. The
	// telemetry must add zero.
	if allocs > 1 {
		t.Fatalf("SubmitBatch with telemetry = %.1f allocs/op, want <= 1", allocs)
	}
}
