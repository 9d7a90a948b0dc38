// Command swload drives an swserver end to end over HTTP. It has three
// modes.
//
// The default mode is the HTTP driver: -producers concurrent POST loops
// send -edges edges in -chunk-edge requests while -readers query loops
// poll the endpoints the -monitors answer, and the report carries
// sustained ingest throughput (edges/sec) and client-observed POST and
// query p50/p99. It targets the swserver at -url or, without -url, one it
// starts in-process on a loopback port, so the whole HTTP → ingester →
// window pipeline is exercised either way. -ndjson posts the compact
// NDJSON wire format, -sync-ack requests durable acks (?sync=1), and
// -burst retries a 429 at once instead of honoring Retry-After.
//
// The -mixed mode is the query-latency harness: -readers concurrent
// queriers draw endpoints from the weighted -query-mix distribution
// (default conn-heavy) against one in-process window maintaining all five
// monitors, while -producers sustain ingest for -duration; the report
// carries per-endpoint query p50/p99/max plus ingest throughput, and the
// headline query percentiles are the worst endpoint's. This is the harness
// behind EXPERIMENTS S7: a cheap connectivity probe must not wait out the
// slowest monitor's apply. The -mixed report also carries the ingest-queue
// backlog in both units (queue_batches and queue_edges, scraped from
// /stats before the drain), a per-slot apply p50/p99 table scraped from
// /metrics — the server-side view the client percentiles can only
// approximate — and a slowest-stage attribution table scraped from the
// batch flight recorder (/debug/flight): per batch, which pipeline stage
// dominated its wall time, so fsync-bound, apply-bound, and queue-bound
// runs are told apart at a glance. -chaos-outage gives the server a
// temporary WAL and breaks it through /admin/fault every -chaos-interval.
//
// The -check-metrics mode scrapes GET /metrics — from -url, or from an
// in-process server after a short ingest so every family has samples —
// and strictly validates the Prometheus exposition: parse round-trip,
// histogram invariants (cumulative buckets, +Inf == _count), and the sw_
// naming rules. It then scrapes GET /debug/flight and checks that the
// batch flight recorder served valid JSON with non-empty span trees and
// that the exposition's histogram exemplars carry trace IDs that resolve
// in the recorder. CI's smoke step runs this against a freshly booted
// swserver.
//
// -cpuprofile/-memprofile write pprof profiles of any mode; the fan-out
// labels every slot apply with its slot name, so a CPU profile attributes
// apply time per slot (go tool pprof -tags).
//
//	swload -n 50000 -edges 200000 -producers 8 -chunk 256
//	swload -url http://localhost:8080 -burst -ndjson -sync-ack
//	swload -mixed -readers 8 -duration 5s -window 200000 -json mixed.json
//	swload -check-metrics -url http://localhost:8080
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

type options struct {
	url           string
	n             int
	edges         int
	producers     int
	chunk         int
	readers       int
	window        int
	batch         int
	delay         time.Duration
	monitors      string
	seed          int64
	fsync         string
	mixed         bool
	duration      time.Duration
	queryMix      string
	checkMetrics  bool
	ndjson        bool
	syncAck       bool
	burst         bool
	chaosOutage   time.Duration
	chaosInterval time.Duration
	cpuProfile    string
	memProfile    string
	jsonPath      string
}

// EndpointLatency is the per-endpoint latency summary of a -mixed run.
type EndpointLatency struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// MonitorLatency is one fan-out slot's server-side apply summary, scraped
// from /metrics (-mixed only). Percentiles carry the telemetry histogram's
// bucket-upper-bound semantics: conservative upper bounds in milliseconds.
type MonitorLatency struct {
	Applies    int64   `json:"applies"`
	ApplyP50Ms float64 `json:"apply_p50_ms"`
	ApplyP99Ms float64 `json:"apply_p99_ms"`
	WaitP99Ms  float64 `json:"wait_p99_ms"`
}

// FlightSummary aggregates the batch flight recorder's traces scraped
// from /debug/flight at the end of a -mixed run: how many traces the ring
// held, how many crossed the slow threshold, and — per Dominant() — which
// pipeline stage each batch was bound on (queue wait, WAL append/fsync,
// monitor apply, or residual staging).
type FlightSummary struct {
	Traces       int            `json:"traces"`
	Slow         int            `json:"slow"`
	MeanSpans    float64        `json:"mean_spans_per_trace"`
	Dominant     map[string]int `json:"dominant"`
	WorstMs      float64        `json:"worst_ms"`
	WorstTraceID string         `json:"worst_trace_id"`
	WorstStage   string         `json:"worst_stage"`
}

// LoadResult is the machine-readable outcome of one load run.
type LoadResult struct {
	Mode          string  `json:"mode"` // "batched" (the HTTP driver) or "mixed"
	N             int     `json:"n"`
	Edges         int64   `json:"edges"`
	Producers     int     `json:"producers"`
	Chunk         int     `json:"chunk"`
	MaxBatch      int     `json:"max_batch"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	EdgesPerSec   float64 `json:"edges_per_sec"`
	ServerBatches int64   `json:"server_batches"`
	MeanBatchSize float64 `json:"mean_batch_size"`
	MeanApplyMs   float64 `json:"mean_apply_ms,omitempty"`
	// MSFWeightApplyMs is the msfweight monitor's mean write-lock hold per
	// applied op — the number the intra-monitor level fork-join moves.
	// ApplyParallelism is the effective level fork-join width the run used
	// (1 = sequential levels).
	MSFWeightApplyMs float64 `json:"msfweight_mean_apply_ms,omitempty"`
	ApplyParallelism int     `json:"apply_parallelism,omitempty"`
	Posts            int64   `json:"posts"`
	PostP50Ms        float64 `json:"post_p50_ms"`
	PostP99Ms        float64 `json:"post_p99_ms"`
	Queries          int64   `json:"queries"`
	QueryP50Ms       float64 `json:"query_p50_ms"`
	QueryP99Ms       float64 `json:"query_p99_ms"`
	// Mixed-workload fields (-mixed only): the effective parallelism the
	// run saw, the overall query max, and the per-endpoint breakdown.
	Gomaxprocs int                        `json:"gomaxprocs,omitempty"`
	Readers    int                        `json:"readers,omitempty"`
	QueryMaxMs float64                    `json:"query_max_ms,omitempty"`
	Endpoints  map[string]EndpointLatency `json:"endpoints,omitempty"`
	// Queue backlog at the moment the -mixed clock ran out (before the
	// drain), in both units — batches alone hides skew from variable
	// submission sizes.
	QueueBatches int64 `json:"queue_batches,omitempty"`
	QueueEdges   int64 `json:"queue_edges,omitempty"`
	QueueCap     int   `json:"queue_cap,omitempty"`
	// Monitors is the server-side per-slot apply table scraped from
	// /metrics (-mixed only).
	Monitors map[string]MonitorLatency `json:"monitors,omitempty"`
	// Flight is the batch flight-recorder attribution summary scraped
	// from /debug/flight (-mixed only).
	Flight *FlightSummary `json:"flight,omitempty"`
	// Ingest-envelope fields: the wire format the producers used ("json"
	// or "ndjson"), whether they requested durable acks (?sync=1), and the
	// admission-control outcome — how many POSTs the server rejected with
	// 429, how many edges those carried, and how long the producers spent
	// honoring Retry-After (zero under -burst, which retries immediately).
	Format        string  `json:"format,omitempty"`
	SyncAck       bool    `json:"sync_ack,omitempty"`
	RejectedPosts int64   `json:"rejected_posts,omitempty"`
	RejectedEdges int64   `json:"rejected_edges,omitempty"`
	RetryWaitSec  float64 `json:"retry_wait_sec,omitempty"`
}

// Report is the full swload output.
type Report struct {
	Results []LoadResult `json:"results"`
}

func main() {
	var o options
	flag.StringVar(&o.url, "url", "", "target swserver base URL (empty = start one in-process)")
	flag.IntVar(&o.n, "n", 50_000, "vertices (in-process server)")
	flag.IntVar(&o.edges, "edges", 200_000, "total edges to ingest")
	flag.IntVar(&o.producers, "producers", 8, "concurrent producer goroutines")
	flag.IntVar(&o.chunk, "chunk", 256, "edges per POST /edges request")
	flag.IntVar(&o.readers, "readers", 2, "concurrent query goroutines")
	flag.IntVar(&o.window, "window", 0, "count-based window for the in-process server (0 = unbounded)")
	flag.IntVar(&o.batch, "batch", 512, "ingester batch threshold (in-process server)")
	flag.DurationVar(&o.delay, "delay", 5*time.Millisecond, "ingester flush deadline (in-process server)")
	flag.StringVar(&o.monitors, "monitors", "conn", "monitors for the in-process server")
	flag.Int64Var(&o.seed, "seed", 0xC0FFEE, "workload seed")
	flag.StringVar(&o.fsync, "fsync", "interval", "WAL fsync policy of the -chaos-outage server: batch|interval|off")
	flag.BoolVar(&o.mixed, "mixed", false,
		"mixed-workload mode: -readers concurrent queriers (endpoint mix from -query-mix) against -duration of sustained ingest, reporting per-endpoint query p50/p99/max (in-process only)")
	flag.DurationVar(&o.duration, "duration", 5*time.Second, "sustained-ingest run length for -mixed")
	flag.StringVar(&o.queryMix, "query-mix", "connected:6,components:2,bipartite:1,msfweight:1,cycle:1,stats:1",
		"weighted endpoint mix the -mixed queriers draw from (name:weight, comma-separated); kcert is available but excluded by default — its min-cut dominates the mix with query compute rather than lock wait")
	flag.BoolVar(&o.checkMetrics, "check-metrics", false,
		"scrape GET /metrics (from -url, or an in-process server after a short ingest) and strictly validate the Prometheus exposition and sw_ naming rules")
	flag.BoolVar(&o.ndjson, "ndjson", false,
		"POST edges in the compact NDJSON wire format (?format=ndjson, one [u,v,w] array per line) instead of the JSON envelope")
	flag.BoolVar(&o.syncAck, "sync-ack", false,
		"request durable acks (?sync=1): each POST /edges returns 202 only after the batch's WAL append+fsync completed")
	flag.BoolVar(&o.burst, "burst", false,
		"burst offered load: on 429 retry immediately instead of honoring Retry-After, driving the admission budget as hard as possible")
	flag.DurationVar(&o.chaosOutage, "chaos-outage", 0,
		"with -mixed: every -chaos-interval, inject a WAL write+sync outage of this length through /admin/fault (the in-process server gets a temp WAL dir and a fault injector), exercising degrade -> re-arm -> healthy under live load; 0 = no chaos")
	flag.DurationVar(&o.chaosInterval, "chaos-interval", 5*time.Second,
		"period of the -chaos-outage schedule, measured start to start")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this path")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this path at exit")
	flag.StringVar(&o.jsonPath, "json", "", "write the report as JSON to this path (\"-\" = stdout)")
	flag.Parse()

	if o.producers < 1 || o.chunk < 1 || o.readers < 0 || o.n < 2 || o.edges < 0 || o.batch < 1 {
		fmt.Fprintln(os.Stderr, "swload: need -producers >= 1, -chunk >= 1, -readers >= 0, -n >= 2, -edges >= 0, -batch >= 1")
		os.Exit(2)
	}
	if o.mixed && o.url != "" {
		fmt.Fprintln(os.Stderr, "swload: -mixed needs the in-process server; drop -url")
		os.Exit(2)
	}
	if o.mixed && o.checkMetrics {
		fmt.Fprintln(os.Stderr, "swload: pick one of -mixed and -check-metrics")
		os.Exit(2)
	}
	if o.mixed && o.readers < 1 {
		fmt.Fprintln(os.Stderr, "swload -mixed: need -readers >= 1 (the queriers are the workload under test)")
		os.Exit(2)
	}
	if o.chaosOutage > 0 {
		if !o.mixed {
			fmt.Fprintln(os.Stderr, "swload: -chaos-outage needs -mixed (the outage schedule drives the in-process mixed-load server)")
			os.Exit(2)
		}
		if o.chaosOutage >= o.chaosInterval {
			fmt.Fprintln(os.Stderr, "swload: need -chaos-outage < -chaos-interval (the window must get time to heal between outages)")
			os.Exit(2)
		}
	}

	// With -json - the report owns stdout; the human-readable result
	// blocks move to stderr so the JSON stays machine-parseable.
	jsonStdout := os.Stdout
	if o.jsonPath == "-" {
		os.Stdout = os.Stderr
	}

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if o.memProfile != "" {
		defer func() {
			f, err := os.Create(o.memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	var rep Report
	switch {
	case o.checkMetrics:
		runCheckMetrics(o)
		return
	case o.mixed:
		res := runMixed(o)
		rep.Results = []LoadResult{res}
		printMixed(res)
	default:
		res := runLoad(o)
		rep.Results = []LoadResult{res}
		printResult(res)
	}

	if o.jsonPath != "" {
		os.Stdout = jsonStdout // restore: "-" writes the report to real stdout
		if err := cli.WriteJSONReport(o.jsonPath, rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// serveInProc opens a registry with cfg, creates the default window from
// its template and serves the registry on a loopback port. The flags set
// the template's vertex count, seed, count bound and batching, and the
// registry always gets a telemetry registry, as swserver's does by
// default; cfg supplies the rest. stop closes the server, then the
// registry.
func serveInProc(o options, cfg stream.RegistryConfig) (svc *stream.Service, base string, stop func()) {
	win, in := &cfg.Template.Window, &cfg.Template.Ingest
	win.N, win.Seed, win.MaxArrivals = o.n, uint64(o.seed), o.window
	in.MaxBatch, in.MaxDelay = o.batch, o.delay
	cfg.Telemetry = telemetry.NewRegistry()
	reg, _, err := stream.OpenRegistry(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	svc, err = reg.Create(stream.DefaultWindow, reg.Template())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: stream.NewRegistryServer(reg, stream.ServerConfig{}).Handler()}
	go srv.Serve(ln)
	return svc, "http://" + ln.Addr().String(), func() {
		srv.Close()
		reg.Close()
	}
}

// newClient returns an HTTP client for conns concurrent loops. The default
// transport keeps only 2 idle conns per host, which makes every concurrent
// loop beyond that pay a fresh TCP handshake per request; raising it
// measures the pipeline, not the client.
func newClient(conns int) *http.Client {
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = 4 * conns
	transport.MaxIdleConnsPerHost = 4 * conns
	return &http.Client{Timeout: 30 * time.Second, Transport: transport}
}

// randomEdges draws k edges with distinct endpoints in [0, n) and weights
// in [1, 2¹⁰].
func randomEdges(r *rand.Rand, n, k int) []wireEdge {
	edges := make([]wireEdge, k)
	for i := range edges {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		for v == u {
			v = int32(r.Intn(n))
		}
		edges[i] = wireEdge{U: u, V: v, W: 1 + r.Int63n(1<<10)}
	}
	return edges
}

// fillServerStats copies an in-process window's batch shape, mean apply
// time and level fork-join into res. Call it after the window's queue has
// drained.
func fillServerStats(res *LoadResult, svc *stream.Service) {
	st := svc.Window().Stats()
	res.ServerBatches = st.Batches
	if st.Batches > 0 {
		res.MeanBatchSize = float64(st.Arrivals) / float64(st.Batches)
		res.MeanApplyMs = float64(st.ApplyNS) / float64(st.Batches) / 1e6
	}
	res.ApplyParallelism = svc.Window().ApplyParallelism()
	for _, ms := range svc.Window().MonitorStats() {
		if ms.Name == stream.MonitorMSFWeight && ms.Ops > 0 {
			res.MSFWeightApplyMs = float64(ms.ApplyNS) / float64(ms.Ops) / 1e6
		}
	}
}

// mixEntry is one weighted endpoint of the -mixed querier mix.
type mixEntry struct {
	name   string
	weight int
	// path renders one request path for the endpoint (connected draws
	// random vertices per request; everything else is fixed).
	path func(r *rand.Rand) string
}

// parseQueryMix parses "-query-mix connected:6,components:2,..." into
// weighted entries. Unknown endpoint names are an error — a typo silently
// skewing the measured mix would poison a baseline comparison.
func parseQueryMix(spec string, n int) ([]mixEntry, error) {
	fixed := func(p string) func(*rand.Rand) string {
		return func(*rand.Rand) string { return p }
	}
	paths := map[string]func(*rand.Rand) string{
		"connected": func(r *rand.Rand) string {
			return fmt.Sprintf("/query/connected?u=%d&v=%d", r.Intn(n), r.Intn(n))
		},
		"components": fixed("/query/components"),
		"bipartite":  fixed("/query/bipartite"),
		"msfweight":  fixed("/query/msfweight"),
		"cycle":      fixed("/query/cycle"),
		"kcert":      fixed("/query/kcert"),
		"summary":    fixed("/query/summary"),
		"stats":      fixed("/stats"),
	}
	var mix []mixEntry
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, hasWeight := strings.Cut(part, ":")
		weight := 1
		if hasWeight {
			w, err := strconv.Atoi(weightStr)
			if err != nil || w < 1 {
				return nil, fmt.Errorf("swload: bad weight in -query-mix entry %q", part)
			}
			weight = w
		}
		path, ok := paths[name]
		if !ok {
			return nil, fmt.Errorf("swload: unknown -query-mix endpoint %q", name)
		}
		mix = append(mix, mixEntry{name: name, weight: weight, path: path})
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("swload: empty -query-mix")
	}
	return mix, nil
}

// runChaos drives the -chaos-outage schedule against the server's chaos
// control plane: every interval it installs WAL write+sync fault rules
// through POST /admin/fault (matching ".seg" segment files, so manifest
// and snapshot I/O stay healthy and the blast radius is exactly the WAL
// append path), holds the outage, then clears the rules and lets the
// self-heal loop re-arm the log. Returns the number of completed outages.
func runChaos(client *http.Client, base string, outage, interval time.Duration, stop <-chan struct{}) int {
	const rules = `[
		{"id":"chaos-write","op":"write","path":".seg","kind":"eio"},
		{"id":"chaos-sync","op":"sync","path":".seg","kind":"eio"}
	]`
	clear := func() {
		req, _ := http.NewRequest(http.MethodDelete, base+"/admin/fault", nil)
		if resp, err := client.Do(req); err == nil {
			drainBody(resp)
		}
	}
	outages := 0
	for {
		select {
		case <-stop:
			return outages
		case <-time.After(interval - outage):
		}
		resp, err := client.Post(base+"/admin/fault", "application/json", strings.NewReader(rules))
		if err != nil {
			return outages
		}
		drainBody(resp)
		if resp.StatusCode != http.StatusOK {
			fmt.Fprintf(os.Stderr, "swload chaos: POST /admin/fault: status %d\n", resp.StatusCode)
			return outages
		}
		select {
		case <-stop:
			clear()
			return outages
		case <-time.After(outage):
		}
		clear()
		outages++
	}
}

// runMixed is the mixed-workload latency harness: -readers concurrent
// queriers draw endpoints from the -query-mix distribution against one
// window with the full monitor set, while -producers sustain ingest for
// -duration. It reports ingest throughput plus per-endpoint query
// p50/p99/max — the numbers the per-monitor-locking refactor is judged on
// (a cheap conn probe must not wait out the slowest monitor's apply).
func runMixed(o options) LoadResult {
	mix, err := parseQueryMix(o.queryMix, o.n)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	totalWeight := 0
	for _, m := range mix {
		totalWeight += m.weight
	}

	setupStart := time.Now()
	// Chaos runs need a durability layer to break: a temp WAL dir plus a
	// fault injector the outage scheduler toggles through /admin/fault.
	var injector *fault.Injector
	var persist *stream.PersistenceConfig
	if o.chaosOutage > 0 {
		dir, err := os.MkdirTemp("", "swload-chaos-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		injector = fault.NewInjector(nil, o.seed)
		pol, err := stream.ParseFsyncPolicy(o.fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		persist = &stream.PersistenceConfig{
			Dir:                dir,
			Fsync:              pol,
			CheckpointInterval: time.Second,
		}
	}
	// Monitors deliberately left unset = ALL monitors: the harness exists
	// to show queries contending with the full fan-out, so -monitors is
	// ignored in this mode. The telemetry registry serveInProc wires lets
	// the report carry the server-side per-slot apply table alongside the
	// client percentiles.
	cfg := stream.RegistryConfig{Persistence: persist, FaultInjector: injector}
	// A shallow queue (QueueLen counts queued submissions, not edges)
	// keeps the producers in lockstep with the window's sustainable apply
	// rate: with the default 8×MaxBatch slots a 5s burst can park millions
	// of edges in the queue, the reported "ingest throughput" measures
	// only how fast the client can enqueue, and the post-run drain takes
	// minutes. Backpressure lands in POST latency instead, which is the
	// honest place for it.
	cfg.Template.Ingest.QueueLen = o.producers
	svc, base, stopServer := serveInProc(o, cfg)
	defer stopServer()
	fmt.Fprintf(os.Stderr, "swload -mixed: monitors built in %v; running %v of mixed load\n",
		time.Since(setupStart).Round(time.Millisecond), o.duration)

	client := newClient(o.producers + o.readers)

	var postRec stream.LatencyRecorder
	queryRecs := stream.NewEndpointStats()
	var posted atomic.Int64
	stop := make(chan struct{})
	po := &poster{client: client, base: base, ndjson: o.ndjson, syncAck: o.syncAck, burst: o.burst}

	// Outage scheduler: degrade → re-arm → healthy cycles under live load.
	var chaosWG sync.WaitGroup
	var outages int
	if o.chaosOutage > 0 {
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			outages = runChaos(client, base, o.chaosOutage, o.chaosInterval, stop)
		}()
	}

	// Producers: sustained ingest until the clock runs out.
	var prodWG, readWG sync.WaitGroup
	start := time.Now()
	for p := 0; p < o.producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			r := rand.New(rand.NewSource(o.seed + int64(p)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				edges := randomEdges(r, o.n, o.chunk)
				if !po.post(edges, &postRec, stop) {
					return
				}
				posted.Add(int64(len(edges)))
			}
		}(p)
	}

	// Queriers: each draws endpoints from the weighted mix.
	for q := 0; q < o.readers; q++ {
		readWG.Add(1)
		go func(q int) {
			defer readWG.Done()
			r := rand.New(rand.NewSource(o.seed + 1000 + int64(q)))
			badLogged := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				pick := r.Intn(totalWeight)
				var ep mixEntry
				for _, m := range mix {
					if pick -= m.weight; pick < 0 {
						ep = m
						break
					}
				}
				t0 := time.Now()
				resp, err := client.Get(base + ep.path(r))
				if err != nil {
					select {
					case <-stop:
						return
					default:
					}
					fmt.Fprintf(os.Stderr, "GET %s: %v\n", ep.name, err)
					return
				}
				drainBody(resp)
				if resp.StatusCode != http.StatusOK {
					if !badLogged {
						fmt.Fprintf(os.Stderr, "GET %s: status %d (not counted)\n", ep.name, resp.StatusCode)
						badLogged = true
					}
					continue
				}
				queryRecs.Recorder(ep.name).Observe(time.Since(t0))
			}
		}(q)
	}

	time.Sleep(o.duration)
	close(stop)
	prodWG.Wait()
	readWG.Wait()
	chaosWG.Wait()
	elapsed := time.Since(start)

	if o.chaosOutage > 0 {
		// The last outage may still be healing: wait for /readyz to report
		// ready again, then surface the degrade/heal ledger.
		healed := false
		for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Millisecond) {
			resp, err := client.Get(base + "/readyz")
			if err != nil {
				break
			}
			drainBody(resp)
			if resp.StatusCode == http.StatusOK {
				healed = true
				break
			}
		}
		var after struct {
			Persistence struct {
				WALHeals     int64 `json:"wal_heals"`
				GapEdges     int64 `json:"gap_edges"`
				AppendErrors int64 `json:"append_errors"`
			} `json:"persistence"`
		}
		if resp, err := client.Get(base + "/stats"); err == nil {
			_ = json.NewDecoder(resp.Body).Decode(&after)
			drainBody(resp)
		}
		fmt.Fprintf(os.Stderr,
			"swload -mixed chaos: %d outage(s) of %v injected, %d WAL append/fsync failures, %d heals, ready_again=%v\n",
			outages, o.chaosOutage, after.Persistence.AppendErrors, after.Persistence.WALHeals, healed)
		if !healed {
			fmt.Fprintln(os.Stderr, "swload -mixed chaos: server did not return to ready within 15s — degraded state is stuck")
			os.Exit(1)
		}
	}

	// Queue backlog before the drain: what the window still owed when the
	// clock ran out, in both units (the /stats read the gauges mirror).
	var backlog struct {
		Ingest struct {
			QueueBatches int64 `json:"queue_batches"`
			QueueEdges   int64 `json:"queue_edges"`
			QueueCap     int   `json:"queue_cap"`
		} `json:"ingest"`
	}
	if resp, err := client.Get(base + "/stats"); err == nil {
		_ = json.NewDecoder(resp.Body).Decode(&backlog)
		drainBody(resp)
	}
	svc.Flush()

	// Server-side per-slot apply percentiles, scraped from /metrics after
	// the drain so the histograms hold every applied batch.
	monitors := make(map[string]MonitorLatency)
	if exp, err := scrapeMetrics(client, base); err != nil {
		fmt.Fprintf(os.Stderr, "swload -mixed: /metrics scrape failed: %v\n", err)
	} else {
		for _, name := range stream.AllSlots() {
			lbl := map[string]string{"monitor": name}
			cnt, ok := exp.Value("sw_monitor_apply_seconds_count", lbl)
			if !ok || cnt == 0 {
				continue
			}
			monitors[name] = MonitorLatency{
				Applies:    int64(cnt),
				ApplyP50Ms: histQuantileMs(exp, "sw_monitor_apply_seconds", lbl, 0.50),
				ApplyP99Ms: histQuantileMs(exp, "sw_monitor_apply_seconds", lbl, 0.99),
				WaitP99Ms:  histQuantileMs(exp, "sw_monitor_wait_seconds", lbl, 0.99),
			}
		}
	}

	// Batch flight traces, scraped after the drain so every batch the run
	// produced is in the ring (up to ring capacity). Each trace's Dominant()
	// stage attributes where that batch spent its wall time: fsync-bound,
	// apply-bound, or queue-bound runs look completely different here even
	// when their throughput numbers agree.
	var flight *FlightSummary
	if fr, err := scrapeFlight(client, base, "?kind=batch&limit=1024"); err != nil {
		fmt.Fprintf(os.Stderr, "swload -mixed: /debug/flight scrape failed: %v\n", err)
	} else if len(fr.Traces) > 0 {
		flight = summarizeFlight(fr)
	}

	// Merge the per-endpoint histograms into the overall query summary and
	// the per-endpoint report.
	endpoints := make(map[string]EndpointLatency)
	var totalQueries int64
	var worstP50, worstP99, worstMax float64
	for name, snap := range queryRecs.Snapshot() {
		endpoints[name] = EndpointLatency{
			Count:  snap.Count,
			MeanMs: float64(snap.Mean) / 1e6,
			P50Ms:  float64(snap.P50) / 1e6,
			P99Ms:  float64(snap.P99) / 1e6,
			MaxMs:  float64(snap.Max) / 1e6,
		}
		totalQueries += snap.Count
		worstP50 = max(worstP50, float64(snap.P50)/1e6)
		worstP99 = max(worstP99, float64(snap.P99)/1e6)
		worstMax = max(worstMax, float64(snap.Max)/1e6)
	}

	ps := postRec.Snapshot()
	res := LoadResult{
		Mode:        "mixed",
		N:           o.n,
		Edges:       posted.Load(),
		Producers:   o.producers,
		Chunk:       o.chunk,
		MaxBatch:    o.batch,
		ElapsedSec:  elapsed.Seconds(),
		EdgesPerSec: float64(posted.Load()) / elapsed.Seconds(),
		Posts:       ps.Count,
		PostP50Ms:   float64(ps.P50) / 1e6,
		PostP99Ms:   float64(ps.P99) / 1e6,
		Queries:     totalQueries,
		// The headline query percentiles are the WORST endpoint's, not the
		// merged histogram's: the merged view would let a flood of cheap
		// conn probes mask a stalled endpoint, which is exactly the failure
		// mode the mixed harness exists to expose.
		QueryP50Ms:   worstP50,
		QueryP99Ms:   worstP99,
		QueryMaxMs:   worstMax,
		Gomaxprocs:   runtime.GOMAXPROCS(0),
		Readers:      o.readers,
		Endpoints:    endpoints,
		QueueBatches: backlog.Ingest.QueueBatches,
		QueueEdges:   backlog.Ingest.QueueEdges,
		QueueCap:     backlog.Ingest.QueueCap,
		Monitors:     monitors,
		Flight:       flight,
	}
	fillServerStats(&res, svc)
	po.fill(&res)
	return res
}

func printMixed(r LoadResult) {
	fmt.Printf("== mixed workload (GOMAXPROCS=%d, producers=%d, readers=%d, apply-parallelism=%d) ==\n",
		r.Gomaxprocs, r.Producers, r.Readers, r.ApplyParallelism)
	fmt.Printf("  ingest: %d edges in %.2fs  →  %.0f edges/sec (batches %d, mean size %.1f, mean apply %.3fms)\n",
		r.Edges, r.ElapsedSec, r.EdgesPerSec, r.ServerBatches, r.MeanBatchSize, r.MeanApplyMs)
	fmt.Printf("  POST   p50 %.3fms  p99 %.3fms  (%d requests)\n", r.PostP50Ms, r.PostP99Ms, r.Posts)
	names := make([]string, 0, len(r.Endpoints))
	for name := range r.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ep := r.Endpoints[name]
		fmt.Printf("  %-10s p50 %7.3fms  p99 %7.3fms  max %8.3fms  (%d requests)\n",
			name, ep.P50Ms, ep.P99Ms, ep.MaxMs, ep.Count)
	}
	fmt.Printf("  worst endpoint: p50 %.3fms  p99 %.3fms  max %.3fms  (%d queries total)\n",
		r.QueryP50Ms, r.QueryP99Ms, r.QueryMaxMs, r.Queries)
	fmt.Printf("  queue backlog at cutoff: %d batches / %d edges (cap %d submissions)\n",
		r.QueueBatches, r.QueueEdges, r.QueueCap)
	printAdmission(r)
	if len(r.Monitors) > 0 {
		fmt.Printf("  server-side slot applies (from /metrics):\n")
		mons := make([]string, 0, len(r.Monitors))
		for name := range r.Monitors {
			mons = append(mons, name)
		}
		sort.Strings(mons)
		for _, name := range mons {
			m := r.Monitors[name]
			fmt.Printf("    %-10s apply p50 %7.3fms  p99 %7.3fms  wait p99 %7.3fms  (%d applies)\n",
				name, m.ApplyP50Ms, m.ApplyP99Ms, m.WaitP99Ms, m.Applies)
		}
	}
	if f := r.Flight; f != nil && f.Traces > 0 {
		fmt.Printf("  slowest-stage attribution (from /debug/flight, %d batch traces, %d slow, %.1f spans/trace):\n",
			f.Traces, f.Slow, f.MeanSpans)
		stages := make([]string, 0, len(f.Dominant))
		for s := range f.Dominant {
			stages = append(stages, s)
		}
		sort.Strings(stages)
		for _, s := range stages {
			n := f.Dominant[s]
			fmt.Printf("    %-6s bound: %4d batches (%.0f%%)\n", s, n, 100*float64(n)/float64(f.Traces))
		}
		fmt.Printf("    worst batch: %.3fms, %s-bound, trace %s  →  curl /debug/flight?min_ms=%.0f\n",
			f.WorstMs, f.WorstStage, f.WorstTraceID, f.WorstMs)
	}
}

// scrapeFlight GETs base+"/debug/flight"+query and decodes the recorder's
// JSON response.
func scrapeFlight(client *http.Client, base, query string) (*trace.Response, error) {
	resp, err := client.Get(base + "/debug/flight" + query)
	if err != nil {
		return nil, err
	}
	defer drainBody(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/flight: status %d", resp.StatusCode)
	}
	var fr trace.Response
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		return nil, fmt.Errorf("GET /debug/flight: %w", err)
	}
	return &fr, nil
}

// summarizeFlight reduces a scraped batch-trace set to the attribution
// summary: per-stage dominant counts plus the single worst batch.
func summarizeFlight(fr *trace.Response) *FlightSummary {
	fs := &FlightSummary{
		Traces:   len(fr.Traces),
		Dominant: make(map[string]int),
	}
	spans := 0
	for i := range fr.Traces {
		v := &fr.Traces[i]
		spans += len(v.Spans)
		if v.Slow {
			fs.Slow++
		}
		fs.Dominant[v.Dominant()]++
		if v.TotalMS > fs.WorstMs {
			fs.WorstMs = v.TotalMS
			fs.WorstTraceID = v.TraceID
			fs.WorstStage = v.Dominant()
		}
	}
	fs.MeanSpans = float64(spans) / float64(len(fr.Traces))
	return fs
}

// scrapeMetrics GETs base+"/metrics" and returns the strictly parsed and
// validated exposition.
func scrapeMetrics(client *http.Client, base string) (*telemetry.Exposition, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer drainBody(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	exp, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		return nil, err
	}
	if err := exp.Validate(); err != nil {
		return nil, err
	}
	return exp, nil
}

// histQuantileMs reads the q-quantile of one histogram child out of a
// scraped exposition, in milliseconds. The answer carries the bucket
// upper-bound semantics of the server's histograms: a conservative upper
// bound on the true quantile.
func histQuantileMs(exp *telemetry.Exposition, family string, match map[string]string, q float64) float64 {
	type bkt struct{ le, cum float64 }
	var bs []bkt
	for _, s := range exp.Samples {
		if s.Name != family+"_bucket" {
			continue
		}
		ok := true
		for k, v := range match {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			continue
		}
		bs = append(bs, bkt{le: le, cum: s.Value})
	}
	if len(bs) < 2 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].cum // the +Inf bucket
	if total == 0 {
		return 0
	}
	target := q * total
	for _, b := range bs {
		if b.cum >= target && !math.IsInf(b.le, +1) {
			return b.le * 1e3
		}
	}
	// Only +Inf reaches the target: report the largest finite bound.
	return bs[len(bs)-2].le * 1e3
}

// runCheckMetrics is the exposition gate: scrape /metrics and fail loudly
// on anything malformed. Against -url it validates a live server (the CI
// smoke step); in-process it first pushes a short stream through the full
// pipeline so every sw_ family has samples to check.
func runCheckMetrics(o options) {
	client := &http.Client{Timeout: 30 * time.Second}
	base := o.url
	if base == "" {
		// All monitors, so every per-monitor family appears.
		svc, b, stop := serveInProc(o, stream.RegistryConfig{})
		defer stop()
		base = b

		// One POST, one query, one flush: ingest, HTTP, and lifecycle
		// families all gain mass through the real handlers.
		body, ctype := encodeEdges(randomEdges(rand.New(rand.NewSource(o.seed)), o.n, 256), false)
		resp, err := client.Post(base+"/edges", ctype, bytes.NewReader(body))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		drainBody(resp)
		if resp, err := client.Get(base + "/query/connected?u=0&v=1"); err == nil {
			drainBody(resp)
		}
		svc.Flush()
	}

	exp, err := scrapeMetrics(client, base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swload -check-metrics: %v\n", err)
		os.Exit(1)
	}
	bad := 0
	for name, typ := range exp.Types {
		if err := telemetry.CheckMetricName(name, typ); err != nil {
			fmt.Fprintf(os.Stderr, "swload -check-metrics: %v\n", err)
			bad++
		}
		if !strings.HasPrefix(name, "sw_") {
			fmt.Fprintf(os.Stderr, "swload -check-metrics: family %q missing the sw_ prefix\n", name)
			bad++
		}
		if exp.Help[name] == "" {
			fmt.Fprintf(os.Stderr, "swload -check-metrics: family %q has no HELP text\n", name)
			bad++
		}
	}
	// Families the admission layer must always export, budgets configured
	// or not — CI's smoke step asserts rejections out of these, so their
	// absence has to fail here, not silently scrape as zero.
	for _, fam := range []string{"sw_ingest_rejected_total", "sw_ingest_rejected_edges_total", "sw_ingest_queue_bytes"} {
		if _, ok := exp.Types[fam]; !ok {
			fmt.Fprintf(os.Stderr, "swload -check-metrics: family %q missing from the exposition\n", fam)
			bad++
		}
	}
	if bad > 0 {
		os.Exit(1)
	}

	// The flight recorder rides along on the same gate: /debug/flight must
	// serve valid JSON whose batch traces carry non-empty span trees, and
	// any exemplar the exposition advertises must name a trace the recorder
	// can actually produce — the whole point of exemplars is that the ID on
	// the histogram resolves to a span tree.
	fr, err := scrapeFlight(client, base, "?kind=batch&limit=1024")
	if err != nil {
		fmt.Fprintf(os.Stderr, "swload -check-metrics: %v\n", err)
		os.Exit(1)
	}
	traceIDs := make(map[string]bool, len(fr.Traces))
	for i := range fr.Traces {
		v := &fr.Traces[i]
		if len(v.Spans) == 0 {
			fmt.Fprintf(os.Stderr, "swload -check-metrics: flight trace %s has an empty span tree\n", v.TraceID)
			bad++
		}
		traceIDs[v.TraceID] = true
	}
	if o.url == "" && len(fr.Traces) == 0 {
		// In-process we just pushed a batch through; an empty ring means the
		// recorder never saw it.
		fmt.Fprintln(os.Stderr, "swload -check-metrics: /debug/flight returned no batch traces after ingest")
		bad++
	}
	resolved := 0
	for _, ex := range exp.Exemplars {
		if ex.Kind != "max" {
			continue
		}
		if traceIDs[ex.TraceID] {
			resolved++
		}
	}
	if len(fr.Traces) > 0 && countMaxExemplars(exp) > 0 && resolved == 0 {
		// Exemplars point at the all-time max observation, which can have
		// aged out of a small ring on a long-lived server; in-process the
		// max IS the batch we just applied, so it must resolve.
		if o.url == "" {
			fmt.Fprintln(os.Stderr, "swload -check-metrics: no histogram exemplar trace ID resolves in /debug/flight")
			bad++
		}
	}
	if bad > 0 {
		os.Exit(1)
	}
	fmt.Printf("metrics OK: %d families, %d samples, exposition valid\n", len(exp.Types), len(exp.Samples))
	fmt.Printf("flight OK: %d batch traces with span trees, %d/%d max exemplars resolve\n",
		len(fr.Traces), resolved, countMaxExemplars(exp))
}

// countMaxExemplars counts the max-kind exemplar lines in a scraped
// exposition.
func countMaxExemplars(exp *telemetry.Exposition) int {
	n := 0
	for _, ex := range exp.Exemplars {
		if ex.Kind == "max" {
			n++
		}
	}
	return n
}

// wireEdge is the JSON-envelope edge shape the producers POST.
type wireEdge struct {
	U int32 `json:"u"`
	V int32 `json:"v"`
	W int64 `json:"w,omitempty"`
}

// edgesPath renders the ingest path with the wire format and ack mode
// baked into the query string.
func edgesPath(ndjson, syncAck bool) string {
	p := "/edges"
	var q []string
	if ndjson {
		q = append(q, "format=ndjson")
	}
	if syncAck {
		q = append(q, "sync=1")
	}
	if len(q) > 0 {
		p += "?" + strings.Join(q, "&")
	}
	return p
}

// encodeEdges renders one chunk in the selected wire format and returns
// the body plus its content type.
func encodeEdges(edges []wireEdge, ndjson bool) ([]byte, string) {
	if !ndjson {
		body, _ := json.Marshal(map[string]any{"edges": edges})
		return body, "application/json"
	}
	var buf []byte
	for _, e := range edges {
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(e.U), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(e.V), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, e.W, 10)
		buf = append(buf, ']', '\n')
	}
	return buf, "application/x-ndjson"
}

// poster is the producers' shared POST /edges client: it speaks both wire
// formats, and it understands the admission-control contract — a 429 is
// not an error but backpressure, counted and retried (after the server's
// Retry-After hint, or immediately under -burst).
type poster struct {
	client  *http.Client
	base    string
	ndjson  bool
	syncAck bool
	burst   bool

	rejected  atomic.Int64 // POSTs answered 429
	rejEdges  atomic.Int64 // edges those POSTs carried
	retryWait atomic.Int64 // ns slept honoring Retry-After

	noRetryAfter atomic.Bool // a 429 arrived without a Retry-After header
	badLogged    atomic.Bool
}

// post delivers one chunk, retrying through 429s until it is accepted,
// the stop channel closes, or a hard error lands. Only the accepted
// attempt's latency is observed. Returns false when the producer loop
// should give up.
func (p *poster) post(edges []wireEdge, rec *stream.LatencyRecorder, stop <-chan struct{}) bool {
	body, ctype := encodeEdges(edges, p.ndjson)
	path := p.base + edgesPath(p.ndjson, p.syncAck)
	for {
		t0 := time.Now()
		resp, err := p.client.Post(path, ctype, bytes.NewReader(body))
		if err != nil {
			select {
			case <-stop: // shutdown race: the server is going away
				return false
			default:
			}
			fmt.Fprintf(os.Stderr, "POST %s: %v\n", path, err)
			return false
		}
		retryAfter := resp.Header.Get("Retry-After")
		drainBody(resp)
		switch resp.StatusCode {
		case http.StatusAccepted:
			rec.Observe(time.Since(t0))
			return true
		case http.StatusTooManyRequests:
			p.rejected.Add(1)
			p.rejEdges.Add(int64(len(edges)))
			if retryAfter == "" {
				p.noRetryAfter.Store(true)
			}
			if !p.burst {
				wait := time.Second
				if secs, err := strconv.Atoi(retryAfter); err == nil && secs > 0 {
					wait = time.Duration(secs) * time.Second
				}
				p.retryWait.Add(int64(wait))
				select {
				case <-time.After(wait):
				case <-stop:
					return false
				}
			}
			select {
			case <-stop:
				return false
			default:
			}
		default:
			if !p.badLogged.Swap(true) {
				fmt.Fprintf(os.Stderr, "POST %s: status %d\n", path, resp.StatusCode)
			}
			return false
		}
	}
}

// fill copies the poster's admission outcome into a result and complains
// once if the server broke the 429 contract.
func (p *poster) fill(res *LoadResult) {
	res.Format = "json"
	if p.ndjson {
		res.Format = "ndjson"
	}
	res.SyncAck = p.syncAck
	res.RejectedPosts = p.rejected.Load()
	res.RejectedEdges = p.rejEdges.Load()
	res.RetryWaitSec = time.Duration(p.retryWait.Load()).Seconds()
	if p.noRetryAfter.Load() {
		fmt.Fprintln(os.Stderr, "swload: a 429 response was missing its Retry-After header — the admission contract promises one")
	}
}

// runLoad is the HTTP driver: it fires o.producers concurrent POST loops
// plus o.readers query loops at o.url, or at an in-process server holding
// the -monitors, and collects the measurements.
func runLoad(o options) LoadResult {
	base := o.url
	var svc *stream.Service
	if base == "" {
		var cfg stream.RegistryConfig
		cfg.Template.Window.Monitors = stream.SplitMonitors(o.monitors)
		var stopServer func()
		svc, base, stopServer = serveInProc(o, cfg)
		defer stopServer()
	}
	client := newClient(o.producers + o.readers)
	var postRec, queryRec stream.LatencyRecorder
	var posted atomic.Int64
	stop := make(chan struct{})
	po := &poster{client: client, base: base, ndjson: o.ndjson, syncAck: o.syncAck, burst: o.burst}

	var prodWG, readWG sync.WaitGroup
	perProducer := o.edges / o.producers
	start := time.Now()
	for p := 0; p < o.producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			r := rand.New(rand.NewSource(o.seed + int64(p)))
			perProducer := perProducer
			if p == 0 { // first producer absorbs the division remainder
				perProducer += o.edges % o.producers
			}
			for sent := 0; sent < perProducer; sent += o.chunk {
				k := o.chunk
				if k > perProducer-sent {
					k = perProducer - sent
				}
				// Only accepted posts count toward the latency stats.
				if !po.post(randomEdges(r, o.n, k), &postRec, stop) {
					return
				}
				posted.Add(int64(k))
			}
		}(p)
	}

	// Query only the endpoints the configured monitors can answer.
	var queryPaths []string
	hasConn := false
	names := stream.SplitMonitors(o.monitors)
	if len(names) == 0 {
		names = stream.AllMonitors()
	}
	for _, m := range names {
		switch m {
		case stream.MonitorConn:
			hasConn = true
			queryPaths = append(queryPaths, "/query/components")
		case stream.MonitorBipartite:
			queryPaths = append(queryPaths, "/query/bipartite")
		case stream.MonitorMSFWeight:
			queryPaths = append(queryPaths, "/query/msfweight")
		case stream.MonitorCycleFree:
			queryPaths = append(queryPaths, "/query/cycle")
		case stream.MonitorKCert:
			// Note: /query/kcert runs a min-cut over the certificate, so
			// including it makes the query mix much heavier.
			queryPaths = append(queryPaths, "/query/kcert")
		}
	}
	if len(queryPaths) == 0 {
		queryPaths = []string{"/healthz"}
	}
	for q := 0; q < o.readers; q++ {
		readWG.Add(1)
		go func(q int) {
			defer readWG.Done()
			r := rand.New(rand.NewSource(o.seed + 1000 + int64(q)))
			badLogged := false
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := queryPaths[i%len(queryPaths)]
				if hasConn && i%2 == 0 {
					path = fmt.Sprintf("/query/connected?u=%d&v=%d", r.Intn(o.n), r.Intn(o.n))
				}
				t0 := time.Now()
				resp, err := client.Get(base + path)
				if err != nil {
					fmt.Fprintf(os.Stderr, "GET %s: %v\n", path, err)
					return
				}
				drainBody(resp)
				if resp.StatusCode != http.StatusOK {
					// Don't let error responses pollute the latency stats.
					if !badLogged {
						fmt.Fprintf(os.Stderr, "GET %s: status %d (not counted)\n", path, resp.StatusCode)
						badLogged = true
					}
					continue
				}
				queryRec.Observe(time.Since(t0))
			}
		}(q)
	}

	prodWG.Wait()
	ingestElapsed := time.Since(start)
	close(stop)
	readWG.Wait()

	ps := postRec.Snapshot()
	qs := queryRec.Snapshot()
	res := LoadResult{
		Mode:        "batched",
		N:           o.n,
		Edges:       posted.Load(),
		Producers:   o.producers,
		Chunk:       o.chunk,
		ElapsedSec:  ingestElapsed.Seconds(),
		EdgesPerSec: float64(posted.Load()) / ingestElapsed.Seconds(),
		Posts:       ps.Count,
		PostP50Ms:   float64(ps.P50) / 1e6,
		PostP99Ms:   float64(ps.P99) / 1e6,
		Queries:     qs.Count,
		QueryP50Ms:  float64(qs.P50) / 1e6,
		QueryP99Ms:  float64(qs.P99) / 1e6,
	}

	if svc != nil {
		// In-process: the exact server-side numbers, once the queue has
		// drained. A remote server's -batch flag is not observable, so
		// MaxBatch stays 0 against -url.
		svc.Flush()
		res.MaxBatch = o.batch
		fillServerStats(&res, svc)
	} else {
		// Remote: the batch shape from the window's /stats.
		var stats struct {
			Ingest struct {
				Batches       int64   `json:"batches"`
				MeanBatchSize float64 `json:"mean_batch_size"`
			} `json:"ingest"`
		}
		if resp, err := client.Get(base + "/stats"); err == nil {
			_ = json.NewDecoder(resp.Body).Decode(&stats)
			drainBody(resp)
			res.ServerBatches = stats.Ingest.Batches
			res.MeanBatchSize = stats.Ingest.MeanBatchSize
		}
	}
	po.fill(&res)
	return res
}

// drainBody reads the response to EOF before closing so the transport can
// return the connection to the keep-alive pool; without this every request
// pays a fresh TCP handshake and the tool measures connection setup
// instead of the pipeline.
func drainBody(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func printResult(r LoadResult) {
	if r.MaxBatch > 0 {
		fmt.Printf("== %s (maxBatch=%d) ==\n", r.Mode, r.MaxBatch)
	} else {
		fmt.Printf("== %s (remote server; batch threshold unknown) ==\n", r.Mode)
	}
	fmt.Printf("  ingested %d edges in %.2fs  →  %.0f edges/sec\n", r.Edges, r.ElapsedSec, r.EdgesPerSec)
	fmt.Printf("  server batches: %d (mean size %.1f)\n", r.ServerBatches, r.MeanBatchSize)
	if r.MeanApplyMs > 0 {
		fmt.Printf("  mean apply (write-lock hold): %.3fms/batch\n", r.MeanApplyMs)
	}
	if r.MSFWeightApplyMs > 0 {
		fmt.Printf("  msfweight mean apply: %.3fms/op (apply-parallelism=%d)\n",
			r.MSFWeightApplyMs, r.ApplyParallelism)
	}
	fmt.Printf("  POST  p50 %.3fms  p99 %.3fms  (%d requests)\n", r.PostP50Ms, r.PostP99Ms, r.Posts)
	fmt.Printf("  query p50 %.3fms  p99 %.3fms  (%d requests)\n", r.QueryP50Ms, r.QueryP99Ms, r.Queries)
	printAdmission(r)
}

// printAdmission prints the wire/ack mode and 429 outcome lines shared by
// the plain and -mixed reports.
func printAdmission(r LoadResult) {
	if r.Format == "ndjson" || r.SyncAck {
		fmt.Printf("  wire: format=%s sync_ack=%v\n", r.Format, r.SyncAck)
	}
	if r.RejectedPosts > 0 {
		fmt.Printf("  admission: %d POSTs rejected with 429 (%d edges), %.2fs spent honoring Retry-After\n",
			r.RejectedPosts, r.RejectedEdges, r.RetryWaitSec)
	}
}
