package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/sw"
)

func newTestServer(t *testing.T, n int) (*httptest.Server, *Service) {
	t.Helper()
	svc, err := NewService(ServiceConfig{
		Window: WindowConfig{N: n, Seed: 5, Monitor: MonitorConfig{Eps: 0.25, MaxWeight: 1 << 10, K: 3}},
		Ingest: IngesterConfig{MaxBatch: 64, MaxDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc).Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts, svc
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func postEdges(t *testing.T, url string, edges []edgeJSON) (int, map[string]any) {
	t.Helper()
	body, err := json.Marshal(edgesRequest{Edges: edges})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

// TestServerEndToEnd round-trips every endpoint over HTTP and cross-checks
// each answer against direct internal/sw structures fed the same edges.
// Queries here are exact window-graph properties, so they agree with the
// oracle regardless of batch partitioning inside the ingester.
func TestServerEndToEnd(t *testing.T) {
	const n = 150
	ts, svc := newTestServer(t, n)

	r := rand.New(rand.NewSource(3))
	all := randomEdges(r, n, 500)
	for i := 0; i < len(all); i += 50 {
		chunk := all[i : i+50]
		wire := make([]edgeJSON, len(chunk))
		for j, e := range chunk {
			wire[j] = edgeJSON{U: e.U, V: e.V, W: e.W}
		}
		code, resp := postEdges(t, ts.URL, wire)
		if code != http.StatusAccepted {
			t.Fatalf("POST /edges = %d (%v)", code, resp)
		}
		if got := resp["accepted"].(float64); int(got) != len(chunk) {
			t.Fatalf("accepted = %v, want %d", got, len(chunk))
		}
	}
	svc.Flush()

	// Oracle: same edges, one batch (answers don't depend on batching).
	conn := sw.NewConnEager(n, 321)
	bip := sw.NewBipartite(n, 322)
	amsf := sw.NewApproxMSF(n, 0.25, 1<<10, 323)
	kc := sw.NewKCert(n, 3, 324)
	cyc := sw.NewCycleFree(n, 325)
	plain := make([]sw.StreamEdge, len(all))
	weighted := make([]sw.WeightedStreamEdge, len(all))
	for i, e := range all {
		plain[i] = sw.StreamEdge{U: e.U, V: e.V}
		weighted[i] = sw.WeightedStreamEdge{U: e.U, V: e.V, W: e.W}
	}
	conn.BatchInsert(plain)
	bip.BatchInsert(plain)
	amsf.BatchInsert(weighted)
	kc.BatchInsert(plain)
	cyc.BatchInsert(plain)

	var comp struct {
		Components int `json:"components"`
	}
	if code := getJSON(t, ts.URL+"/query/components", &comp); code != 200 {
		t.Fatalf("components status %d", code)
	}
	if want := conn.NumComponents(); comp.Components != want {
		t.Fatalf("components = %d, want %d", comp.Components, want)
	}

	var bp struct {
		Bipartite bool `json:"bipartite"`
	}
	if code := getJSON(t, ts.URL+"/query/bipartite", &bp); code != 200 {
		t.Fatalf("bipartite status %d", code)
	}
	if want := bip.IsBipartite(); bp.Bipartite != want {
		t.Fatalf("bipartite = %v, want %v", bp.Bipartite, want)
	}

	var mw struct {
		Weight float64 `json:"weight"`
	}
	if code := getJSON(t, ts.URL+"/query/msfweight", &mw); code != 200 {
		t.Fatalf("msfweight status %d", code)
	}
	if want := amsf.Weight(); mw.Weight != want {
		t.Fatalf("msfweight = %v, want %v", mw.Weight, want)
	}

	var cy struct {
		Cycle bool `json:"cycle"`
	}
	if code := getJSON(t, ts.URL+"/query/cycle", &cy); code != 200 {
		t.Fatalf("cycle status %d", code)
	}
	if want := cyc.HasCycle(); cy.Cycle != want {
		t.Fatalf("cycle = %v, want %v", cy.Cycle, want)
	}

	var kcResp struct {
		Size int `json:"size"`
		EC   int `json:"edge_connectivity_up_to_k"`
	}
	if code := getJSON(t, ts.URL+"/query/kcert", &kcResp); code != 200 {
		t.Fatalf("kcert status %d", code)
	}
	if want := kc.EdgeConnectivityUpToK(); kcResp.EC != want {
		t.Fatalf("edge connectivity = %d, want %d", kcResp.EC, want)
	}
	if kcResp.Size <= 0 || kcResp.Size > 3*(n-1) {
		t.Fatalf("certificate size %d out of range (0, %d]", kcResp.Size, 3*(n-1))
	}

	for trial := 0; trial < 25; trial++ {
		u, v := r.Intn(n), r.Intn(n)
		var cr struct {
			Connected bool `json:"connected"`
		}
		url := fmt.Sprintf("%s/query/connected?u=%d&v=%d", ts.URL, u, v)
		if code := getJSON(t, url, &cr); code != 200 {
			t.Fatalf("connected status %d", code)
		}
		if want := conn.IsConnected(int32(u), int32(v)); cr.Connected != want {
			t.Fatalf("connected(%d,%d) = %v, want %v", u, v, cr.Connected, want)
		}
	}

	var stats struct {
		Window    WindowStats                `json:"window"`
		Endpoints map[string]LatencySnapshot `json:"endpoints"`
		Monitors  []string                   `json:"monitors"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if stats.Window.Arrivals != int64(len(all)) {
		t.Fatalf("stats arrivals = %d, want %d", stats.Window.Arrivals, len(all))
	}
	if len(stats.Monitors) != len(AllMonitors()) {
		t.Fatalf("monitors = %v", stats.Monitors)
	}
	if ep, ok := stats.Endpoints["POST /edges"]; !ok || ep.Count != 10 {
		t.Fatalf("POST /edges latency count = %+v", stats.Endpoints)
	}

	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
}

func TestServerRejectsBadInput(t *testing.T) {
	ts, _ := newTestServer(t, 10)

	cases := []struct {
		name  string
		edges []edgeJSON
	}{
		{"out of range", []edgeJSON{{U: 0, V: 99}}},
		{"negative", []edgeJSON{{U: -2, V: 3}}},
		{"self loop", []edgeJSON{{U: 4, V: 4}}},
		{"bad time", []edgeJSON{{U: 0, V: 1, T: "yesterday"}}},
		{"empty", nil},
	}
	for _, tc := range cases {
		if code, _ := postEdges(t, ts.URL, tc.edges); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, code)
		}
	}

	// The legacy single-window server caps its hidden registry at one
	// window: admin creates are rejected, not leaked.
	if code, _ := doJSON(t, "POST", ts.URL+"/windows", `{"name":"x","n":10}`); code != http.StatusTooManyRequests {
		t.Errorf("create on single-window server = %d, want 429", code)
	}

	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/edges", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status = %d, want 400", resp.StatusCode)
	}

	// Bad / missing query parameters.
	for _, url := range []string{
		ts.URL + "/query/connected",
		ts.URL + "/query/connected?u=1",
		ts.URL + "/query/connected?u=1&v=abc",
		ts.URL + "/query/connected?u=1&v=50",
	} {
		if code := getJSON(t, url, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", url, code)
		}
	}

	// Nothing accepted by any of the rejected requests.
	var stats struct {
		Window WindowStats `json:"window"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Window.Arrivals != 0 {
		t.Fatalf("arrivals = %d after rejected input", stats.Window.Arrivals)
	}
}

// newRegistryTestServer serves a registry whose template matches
// newTestServer's window, with the default window pre-created.
func newRegistryTestServer(t *testing.T, n int, cfg ServerConfig) (*httptest.Server, *WindowRegistry) {
	t.Helper()
	reg := NewRegistry(RegistryConfig{
		Shards: 4,
		Template: ServiceConfig{
			Window: WindowConfig{N: n, Seed: 5, Monitor: MonitorConfig{Eps: 0.25, MaxWeight: 1 << 10, K: 3}},
			Ingest: IngesterConfig{MaxBatch: 64, MaxDelay: time.Millisecond},
		},
	})
	if _, err := reg.Create(DefaultWindow, ServiceConfig{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewRegistryServer(reg, cfg).Handler())
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	return ts, reg
}

func doJSON(t *testing.T, method, url string, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

// TestServerWindowsCRUD drives the registry admin endpoints and the
// namespaced data plane end-to-end: create, list, ingest + query through
// /windows/{name}/..., drop, and the error statuses.
func TestServerWindowsCRUD(t *testing.T) {
	ts, reg := newRegistryTestServer(t, 50, ServerConfig{})

	code, resp := doJSON(t, "POST", ts.URL+"/windows", `{"name":"t1","n":20,"monitors":["conn","bipartite"]}`)
	if code != http.StatusCreated {
		t.Fatalf("create = %d (%v)", code, resp)
	}
	if resp["n"].(float64) != 20 {
		t.Fatalf("created n = %v", resp["n"])
	}
	// Duplicate → 409, bad name → 400, unknown monitor → 400, a key the
	// API no longer has → 400 that names it.
	if code, _ := doJSON(t, "POST", ts.URL+"/windows", `{"name":"t1"}`); code != http.StatusConflict {
		t.Fatalf("duplicate create = %d, want 409", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/windows", `{"name":"a/b"}`); code != http.StatusBadRequest {
		t.Fatalf("bad name = %d, want 400", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/windows", `{"name":"t2","monitors":["nope"]}`); code != http.StatusBadRequest {
		t.Fatalf("bad monitor = %d, want 400", code)
	}
	code, resp = doJSON(t, "POST", ts.URL+"/windows", `{"name":"t2","sequential_fanout":true}`)
	if msg, _ := resp["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, `"sequential_fanout"`) {
		t.Fatalf("removed key = %d (%v), want 400 naming sequential_fanout", code, resp)
	}

	var list struct {
		Count   int          `json:"count"`
		Windows []WindowInfo `json:"windows"`
	}
	if code := getJSON(t, ts.URL+"/windows", &list); code != 200 {
		t.Fatalf("list = %d", code)
	}
	if list.Count != 2 || len(list.Windows) != 2 || list.Windows[1].Name != "t1" {
		t.Fatalf("list = %+v", list)
	}

	// Ingest into t1 only; the default window must stay empty.
	if code, resp := doJSON(t, "POST", ts.URL+"/windows/t1/edges", `{"edges":[{"u":0,"v":1},{"u":1,"v":2}]}`); code != http.StatusAccepted {
		t.Fatalf("post to t1 = %d (%v)", code, resp)
	}
	svc, _ := reg.Get("t1")
	svc.Flush()
	var cr struct {
		Connected bool `json:"connected"`
	}
	if code := getJSON(t, ts.URL+"/windows/t1/query/connected?u=0&v=2", &cr); code != 200 || !cr.Connected {
		t.Fatalf("t1 connectivity = %d %+v", code, cr)
	}
	var st struct {
		Name   string      `json:"name"`
		Window WindowStats `json:"window"`
	}
	if code := getJSON(t, ts.URL+"/windows/t1/stats", &st); code != 200 || st.Name != "t1" || st.Window.Arrivals != 2 {
		t.Fatalf("t1 stats = %d %+v", code, st)
	}
	if code := getJSON(t, ts.URL+"/windows/default/stats", &st); code != 200 || st.Window.Arrivals != 0 {
		t.Fatalf("default stats = %d %+v (tenants leaked)", code, st)
	}
	// The t1 window rejects vertices valid only in the default window.
	if code, _ := doJSON(t, "POST", ts.URL+"/windows/t1/edges", `{"edges":[{"u":0,"v":30}]}`); code != http.StatusBadRequest {
		t.Fatalf("out-of-range for t1 = %d, want 400", code)
	}

	// Unknown window → 404 on every data-plane route.
	for _, probe := range []struct{ method, path string }{
		{"POST", "/windows/ghost/edges"},
		{"GET", "/windows/ghost/query/components"},
		{"GET", "/windows/ghost/stats"},
		{"GET", "/windows/ghost"},
		{"DELETE", "/windows/ghost"},
	} {
		body := ""
		if probe.method == "POST" {
			body = `{"edges":[{"u":0,"v":1}]}`
		}
		if code, _ := doJSON(t, probe.method, ts.URL+probe.path, body); code != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", probe.method, probe.path, code)
		}
	}

	// Drop t1; its routes 404, the registry shrinks, default survives.
	if code, _ := doJSON(t, "DELETE", ts.URL+"/windows/t1", ""); code != http.StatusOK {
		t.Fatalf("drop = %d", code)
	}
	if code := getJSON(t, ts.URL+"/windows/t1/query/components", nil); code != http.StatusNotFound {
		t.Fatalf("query after drop = %d, want 404", code)
	}
	if reg.Len() != 1 {
		t.Fatalf("Len after drop = %d", reg.Len())
	}
	if code := getJSON(t, ts.URL+"/query/components", nil); code != 200 {
		t.Fatalf("default window after drop = %d", code)
	}
}

// TestServerBodyLimits covers the request-hardening paths: oversized
// bodies 413, trailing garbage 400, trailing whitespace accepted.
func TestServerBodyLimits(t *testing.T) {
	ts, _ := newRegistryTestServer(t, 50, ServerConfig{MaxBodyBytes: 200})

	big := `{"edges":[`
	for i := 0; i < 40; i++ {
		if i > 0 {
			big += ","
		}
		big += fmt.Sprintf(`{"u":%d,"v":%d}`, i%50, (i+1)%50)
	}
	big += `]}`
	if code, resp := doJSON(t, "POST", ts.URL+"/edges", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d (%v), want 413", code, resp)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/windows", `{"name":"`+strings.Repeat("a", 300)+`"}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized create body = %d, want 413", code)
	}

	for _, body := range []string{
		`{"edges":[{"u":0,"v":1}]}{"edges":[]}`,
		`{"edges":[{"u":0,"v":1}]} trailing`,
		`{"edges":[{"u":0,"v":1}]}]`,
	} {
		if code, _ := doJSON(t, "POST", ts.URL+"/edges", body); code != http.StatusBadRequest {
			t.Errorf("trailing garbage %q = %d, want 400", body, code)
		}
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/edges", `{"edges":[{"u":0,"v":1}]}`+"\n\t "); code != http.StatusAccepted {
		t.Errorf("trailing whitespace = %d, want 202", code)
	}

	var stats struct {
		Window WindowStats `json:"window"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Window.Arrivals > 1 {
		t.Fatalf("rejected bodies leaked arrivals: %+v", stats.Window)
	}
}

func TestServerMissingMonitor(t *testing.T) {
	svc, err := NewService(ServiceConfig{
		Window: WindowConfig{N: 10, Monitors: []string{MonitorConn}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc).Handler())
	defer ts.Close()
	defer svc.Close()
	for _, path := range []string{"/query/bipartite", "/query/msfweight", "/query/cycle", "/query/kcert"} {
		if code := getJSON(t, ts.URL+path, nil); code != http.StatusNotFound {
			t.Errorf("%s: status = %d, want 404", path, code)
		}
	}
	if code := getJSON(t, ts.URL+"/query/components", nil); code != http.StatusOK {
		t.Errorf("components with conn monitor: status = %d, want 200", code)
	}
}

// TestServerQuerySummary exercises the consistent multi-monitor read over
// HTTP: all configured monitors' answers at one apply epoch, agreeing
// with the individual query endpoints on a quiescent window.
func TestServerQuerySummary(t *testing.T) {
	ts, svc := newTestServer(t, 50)
	if code, _ := postEdges(t, ts.URL, []edgeJSON{{U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 1, W: 9}}); code != http.StatusAccepted {
		t.Fatalf("post status %d", code)
	}
	svc.Flush()
	var sum struct {
		Epoch      uint64   `json:"epoch"`
		Components *int     `json:"components"`
		Bipartite  *bool    `json:"bipartite"`
		MSFWeight  *float64 `json:"msfweight"`
		Cycle      *bool    `json:"cycle"`
		KCertSize  *int     `json:"kcert_size"`
	}
	if code := getJSON(t, ts.URL+"/query/summary", &sum); code != http.StatusOK {
		t.Fatalf("summary status %d", code)
	}
	if sum.Epoch%2 == 1 {
		t.Fatalf("summary epoch %d is odd", sum.Epoch)
	}
	if sum.Components == nil || sum.Bipartite == nil || sum.MSFWeight == nil || sum.Cycle == nil || sum.KCertSize == nil {
		t.Fatalf("summary missing monitors: %+v", sum)
	}
	// 1-2-3-1 triangle: one non-singleton component, odd cycle.
	if got, _ := svc.Window().NumComponents(); got != *sum.Components {
		t.Fatalf("summary components %d, query %d", *sum.Components, got)
	}
	if *sum.Bipartite {
		t.Fatal("triangle reported bipartite")
	}
	if !*sum.Cycle {
		t.Fatal("triangle reported cycle-free")
	}
	// Per-slot apply stats surfaced in /stats.
	var stats struct {
		Apply struct {
			PerMonitor map[string]struct {
				Ops         int64   `json:"ops"`
				MeanApplyMs float64 `json:"mean_apply_ms"`
				MeanWaitMs  float64 `json:"mean_wait_ms"`
			} `json:"per_monitor"`
		} `json:"apply"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	for _, name := range AllSlots() {
		pm, ok := stats.Apply.PerMonitor[name]
		if !ok {
			t.Fatalf("/stats apply.per_monitor missing %q: %+v", name, stats.Apply.PerMonitor)
		}
		if pm.Ops < 1 {
			t.Fatalf("monitor %q shows %d ops after a flushed batch", name, pm.Ops)
		}
	}
}
