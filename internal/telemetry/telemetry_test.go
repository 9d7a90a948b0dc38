package telemetry

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sw_test_events_total", "events")
	c.Inc()
	c.Add(4)
	c.Add(-1) // dropped: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("sw_test_depth", "depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	// Get-or-create: same name returns the same instrument.
	if c2 := r.Counter("sw_test_events_total", "events"); c2 != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(time.Second)
	h.ObserveVal(5)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil instruments must read as zero")
	}
}

func TestHistogramSnapshotQuantiles(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.P99 != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	// 1000 observations at 1ms, 10 at 100ms: p50 should land near 1ms
	// (within the 2x bucket rounding), p99 likewise, max exact.
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 1010 {
		t.Fatalf("count = %d, want 1010", s.Count)
	}
	if s.Max != int64(100*time.Millisecond) {
		t.Fatalf("max = %d, want 100ms", s.Max)
	}
	if s.P50 < int64(time.Millisecond) || s.P50 > int64(2*time.Millisecond) {
		t.Fatalf("p50 = %v, want within [1ms, 2ms]", time.Duration(s.P50))
	}
	if s.P99 < int64(time.Millisecond) || s.P99 > int64(2*time.Millisecond) {
		t.Fatalf("p99 = %v, want within [1ms, 2ms]", time.Duration(s.P99))
	}
	// p99 rank 1000.9→ceil 1000 falls in the 1ms bucket; the tail is the
	// last 10. A p(99.5%) would cross into the 100ms bucket:
	if s.Mean <= int64(time.Millisecond) {
		t.Fatalf("mean = %v, want > 1ms", time.Duration(s.Mean))
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	var h Histogram
	h.ObserveVal(-5)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 0 || s.Max != 0 {
		t.Fatalf("negative observation not clamped: %+v", s)
	}
}

func TestNameValidationPanics(t *testing.T) {
	cases := []struct {
		name string
		typ  MetricType
	}{
		{"BadCase_total", TypeCounter},
		{"sw_events", TypeCounter},          // counter missing _total
		{"sw_depth_total", TypeGauge},       // gauge with _total
		{"sw_latency", TypeHistogram},       // histogram missing unit
		{"sw__double_total", TypeCounter},   // double underscore
		{"sw_trailing__total", TypeCounter}, // double underscore mid-name
	}
	for _, c := range cases {
		if err := CheckMetricName(c.name, c.typ); err == nil {
			t.Errorf("CheckMetricName(%q, %s) = nil, want error", c.name, c.typ)
		}
	}
	if err := CheckMetricName("sw_wal_appends_total", TypeCounter); err != nil {
		t.Errorf("valid counter name rejected: %v", err)
	}
	if err := CheckMetricName("sw_apply_seconds", TypeHistogram); err != nil {
		t.Errorf("valid histogram name rejected: %v", err)
	}

	r := NewRegistry()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	mustPanic("bad counter name", func() { r.Counter("sw_events", "x") })
	r.Gauge("sw_test_depth", "x")
	mustPanic("type conflict", func() { r.Counter("sw_test_depth_total", "x"); r.Gauge("sw_test_depth_total", "x") })
	mustPanic("duration histogram wrong suffix", func() { r.Histogram("sw_batch_edges", "x") })
	mustPanic("bad label name", func() { r.Counter("sw_ok_total", "x", L("Bad-Label", "v")) })
}

// TestExpositionGolden locks the exact text format for one of each
// instrument kind, including histogram bucket/sum/count structure.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sw_golden_events_total", "Total golden events.", L("kind", "a"))
	c.Add(42)
	g := r.Gauge("sw_golden_depth", "Current golden depth.")
	g.Set(-3)
	r.GaugeFunc("sw_golden_age_seconds_gauge", "Polled gauge.", func() float64 { return 1.5 })
	h := r.ValueHistogram("sw_golden_batch_edges", "Batch sizes.")
	h.ObserveVal(0)
	h.ObserveVal(3)   // bucket le=3
	h.ObserveVal(4)   // bucket le=15
	h.ObserveVal(100) // bucket le=127 → exposition le=255

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	want := `# HELP sw_golden_age_seconds_gauge Polled gauge.
# TYPE sw_golden_age_seconds_gauge gauge
sw_golden_age_seconds_gauge 1.5
# HELP sw_golden_batch_edges Batch sizes.
# TYPE sw_golden_batch_edges histogram
sw_golden_batch_edges_bucket{le="3"} 2
sw_golden_batch_edges_bucket{le="15"} 3
sw_golden_batch_edges_bucket{le="63"} 3
sw_golden_batch_edges_bucket{le="255"} 4
sw_golden_batch_edges_bucket{le="1023"} 4
sw_golden_batch_edges_bucket{le="4095"} 4
sw_golden_batch_edges_bucket{le="16383"} 4
sw_golden_batch_edges_bucket{le="65535"} 4
sw_golden_batch_edges_bucket{le="262143"} 4
sw_golden_batch_edges_bucket{le="1.048575e+06"} 4
sw_golden_batch_edges_bucket{le="4.194303e+06"} 4
sw_golden_batch_edges_bucket{le="1.6777215e+07"} 4
sw_golden_batch_edges_bucket{le="6.7108863e+07"} 4
sw_golden_batch_edges_bucket{le="2.68435455e+08"} 4
sw_golden_batch_edges_bucket{le="1.073741823e+09"} 4
sw_golden_batch_edges_bucket{le="4.294967295e+09"} 4
sw_golden_batch_edges_bucket{le="+Inf"} 4
sw_golden_batch_edges_sum 107
sw_golden_batch_edges_count 4
# HELP sw_golden_depth Current golden depth.
# TYPE sw_golden_depth gauge
sw_golden_depth -3
# HELP sw_golden_events_total Total golden events.
# TYPE sw_golden_events_total counter
sw_golden_events_total{kind="a"} 42
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The golden scrape must round-trip through our own parser+validator.
	e, err := ParseExposition(strings.NewReader(got))
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if v, ok := e.Value("sw_golden_events_total", map[string]string{"kind": "a"}); !ok || v != 42 {
		t.Fatalf("Value lookup = %v,%v want 42,true", v, ok)
	}
}

func TestDurationHistogramExposesSeconds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sw_test_apply_seconds", "apply latency")
	h.Observe(2 * time.Millisecond)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	e, err := ParseExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, out)
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("validate: %v\n%s", err, out)
	}
	sum, ok := e.Value("sw_test_apply_seconds_sum", nil)
	if !ok || sum < 0.0019 || sum > 0.0021 {
		t.Fatalf("sum = %v, want ~0.002 s", sum)
	}
	// 2ms = 2e6 ns → bits.Len 21 → cumulative from le bucket 22
	// ((2^22-1)/1e9 ≈ 0.0042) upward must be 1; le≈0.001 must be 0.
	low, ok := e.Value("sw_test_apply_seconds_bucket", map[string]string{"le": "0.001048575"})
	if !ok || low != 0 {
		t.Fatalf("low bucket = %v,%v want 0,true", low, ok)
	}
	hi, ok := e.Value("sw_test_apply_seconds_bucket", map[string]string{"le": "0.004194303"})
	if !ok || hi != 1 {
		t.Fatalf("covering bucket = %v,%v want 1,true", hi, ok)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	bad := []string{
		"sw_x{le=\"1\" 3\n",     // unterminated label set
		"sw_x 1e\n",             // bad value
		"# TYPE sw_x summary\n", // unsupported type
		"# TYPE Bad name\n",     // malformed TYPE
		"sw_x{l=\"a\\q\"} 1\n",  // bad escape
	}
	for _, in := range bad {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("ParseExposition(%q) = nil error, want failure", in)
		}
	}
}

func TestValidateCatchesBrokenHistogram(t *testing.T) {
	in := `# TYPE sw_x_seconds histogram
sw_x_seconds_bucket{le="1"} 5
sw_x_seconds_bucket{le="2"} 3
sw_x_seconds_bucket{le="+Inf"} 5
sw_x_seconds_count 5
`
	e, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err == nil {
		t.Fatal("Validate accepted non-cumulative buckets")
	}
	in2 := `# TYPE sw_y_seconds histogram
sw_y_seconds_bucket{le="1"} 5
sw_y_seconds_count 5
`
	e2, err := ParseExposition(strings.NewReader(in2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Validate(); err == nil {
		t.Fatal("Validate accepted histogram without +Inf bucket")
	}
	in3 := "sw_orphan_total 3\n"
	e3, err := ParseExposition(strings.NewReader(in3))
	if err != nil {
		t.Fatal(err)
	}
	if err := e3.Validate(); err == nil {
		t.Fatal("Validate accepted sample without TYPE")
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("sw_test_hits_total", "hits").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content-type = %q", ct)
	}
	e, err := ParseExposition(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := e.Value("sw_test_hits_total", nil); !ok || v != 1 {
		t.Fatalf("hits = %v,%v", v, ok)
	}
}

func TestHealthGatesAndChecks(t *testing.T) {
	h := NewHealth()
	ok, _ := h.Ready()
	if !ok {
		t.Fatal("empty health must be ready")
	}
	h.SetGate("recovery", false)
	if ok, _ := h.Ready(); ok {
		t.Fatal("closed gate must make not-ready")
	}
	h.SetGate("recovery", true)
	detail := ""
	h.AddCheck("wal_writable", func() string { return detail })
	if ok, _ := h.Ready(); !ok {
		t.Fatal("passing check must be ready")
	}
	detail = "append error: disk gone"
	ok, results := h.Ready()
	if ok {
		t.Fatal("failing check must make not-ready")
	}
	found := false
	for _, r := range results {
		if r.Name == "wal_writable" && !r.OK && r.Detail == detail {
			found = true
		}
	}
	if !found {
		t.Fatalf("breakdown missing failing check: %+v", results)
	}

	// Handlers: /healthz always 200; /readyz tracks readiness.
	live := httptest.NewRecorder()
	h.LiveHandler().ServeHTTP(live, httptest.NewRequest("GET", "/healthz", nil))
	if live.Code != 200 {
		t.Fatalf("healthz = %d", live.Code)
	}
	ready := httptest.NewRecorder()
	h.ReadyHandler().ServeHTTP(ready, httptest.NewRequest("GET", "/readyz", nil))
	if ready.Code != 503 {
		t.Fatalf("readyz = %d, want 503", ready.Code)
	}
	detail = ""
	ready2 := httptest.NewRecorder()
	h.ReadyHandler().ServeHTTP(ready2, httptest.NewRequest("GET", "/readyz", nil))
	if ready2.Code != 200 {
		t.Fatalf("readyz = %d, want 200", ready2.Code)
	}
	// Nil Health is ready and inert.
	var nh *Health
	nh.SetGate("x", false)
	nh.AddCheck("y", func() string { return "boom" })
	if ok, _ := nh.Ready(); !ok {
		t.Fatal("nil Health must be ready")
	}
}

// TestHotPathAllocs is the 0-allocs acceptance gate for the instrument
// hot paths. Skipped under -race (the race runtime allocates).
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts unreliable under -race")
	}
	r := NewRegistry()
	c := r.Counter("sw_alloc_events_total", "x")
	g := r.Gauge("sw_alloc_depth", "x")
	h := r.Histogram("sw_alloc_apply_seconds", "x")
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocs = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(3) }); n != 0 {
		t.Errorf("Counter.Add allocs = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(9) }); n != 0 {
		t.Errorf("Gauge.Set allocs = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(123456) }); n != 0 {
		t.Errorf("Histogram.Observe allocs = %v, want 0", n)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilH.Observe(1) }); n != 0 {
		t.Errorf("nil Histogram.Observe allocs = %v, want 0", n)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 10000; j++ {
				h.ObserveVal(int64(j))
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	s := h.Snapshot()
	if s.Count != 40000 {
		t.Fatalf("count = %d, want 40000", s.Count)
	}
	if s.Max != 9999 {
		t.Fatalf("max = %d, want 9999", s.Max)
	}
}
