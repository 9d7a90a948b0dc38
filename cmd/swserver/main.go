// Command swserver serves the sliding-window structures of Theorem 1.2 as
// a multi-window HTTP JSON service: timestamped edges stream in over
// POST /edges (or POST /windows/{name}/edges), get re-batched by the
// internal/stream ingester (recovering the paper's O(ℓ·lg(1+n/ℓ)) batch
// economics), fan out to the window's monitors in parallel, and queries
// are answered concurrently from the shared windows.
//
// Windows are created at runtime against the template the flags describe;
// a "default" window is pre-created so the single-window routes work out
// of the box.
//
// With -data-dir the registry is durable: every applied batch is recorded
// in a per-window write-ahead log before it reaches the monitors, window
// configs and expiry watermarks live in an atomically-updated manifest,
// and on startup every manifest window is re-created by replaying its
// unexpired log suffix. -fsync picks the WAL fsync policy (batch,
// interval, off) and -checkpoint-interval how often watermarks are
// persisted and fully-expired log segments garbage-collected (also on
// demand via POST /admin/checkpoint). -snapshot-threshold bounds restart
// time: once a window's replayable suffix exceeds it, the checkpoint also
// writes a compact live-edge snapshot, recovery seeds the window from the
// snapshot with one mega-batch apply and replays only the records after
// it, and the log segments the snapshot covers become GC-eligible.
//
// Endpoints:
//
//	POST   /windows                        {"name":"w1","n":50000,...} create
//	GET    /windows                        list windows with stats
//	GET    /windows/{name}                 one window's info
//	DELETE /windows/{name}                 drop a window
//	POST   /windows/{name}/edges           {"edges":[{"u":0,"v":1,"w":5},...]}
//	GET    /windows/{name}/query/connected?u=&v=
//	GET    /windows/{name}/query/{components,bipartite,msfweight,cycle,kcert}
//	GET    /windows/{name}/query/summary   all monitors at one apply epoch
//	GET    /windows/{name}/stats           per-window counters (incl. per-monitor apply/wait)
//	POST   /edges, GET /query/..., /stats  default window (legacy routes)
//	POST   /admin/checkpoint               persist watermarks + GC segments
//	GET    /metrics                        Prometheus text exposition (unless -metrics=false)
//	GET    /healthz                        liveness
//	GET    /readyz                         readiness (recovery, WAL, checkpoint age, queue budget)
//	GET    /debug/flight                   batch flight recorder (?window=&kind=&min_ms=&slow=1&limit=)
//	GET    /debug/pprof/...                profiling (only with -pprof)
//
// Observability: the whole pipeline is instrumented into sw_* metric
// families (ingest, queue depth in batches AND edges, per-stage batch
// lifecycle, per-monitor apply/wait, WAL append/fsync, checkpoints) —
// see DESIGN.md §7. A zero-dependency flight recorder is always on:
// every batch gets a span tree (queue wait → staging → WAL append/fsync →
// per-monitor apply with msfweight level detail → publish) in a fixed
// ring served at GET /debug/flight, batches slower than
// -flight-slow-threshold are retained separately (?slow=1; on a durable
// registry also appended to <data-dir>/flight_slow.jsonl), and the
// latency histograms carry exemplar trace IDs linking a p99 back to the
// batch that caused it. -log-level picks the slog threshold for
// operational records (boot, recovery, checkpoints at debug).
// -ready-queue-budget and -ready-checkpoint-age tune when /readyz sheds.
//
// Admission control: -max-queue-edges / -max-queue-bytes bound how much
// un-applied work the ingest queue may hold (in the units that actually
// cost memory), and -rate-limit / -rate-burst cap the sustained edge
// rate. A submission over budget is rejected immediately — HTTP 429 with
// a Retry-After hint and a sw_ingest_rejected_total{reason=} counter —
// instead of parking the connection on a full channel. -sync-ack flips
// the ack contract to durable-by-default: POST /edges returns 202 only
// after the batch's WAL append (and, under -fsync batch, its fsync) has
// completed; clients override per request with ?sync=0/1.
//
// Example:
//
//	swserver -addr :8080 -n 100000 -window 1000000 -batch 512 -delay 2ms \
//	         -shards 32 -windows tenant-a,tenant-b -pprof \
//	         -data-dir /var/lib/swserver -fsync interval -checkpoint-interval 30s \
//	         -log-level debug -flight-slow-threshold 50ms
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	n := flag.Int("n", 100_000, "number of vertices (window template)")
	monitors := flag.String("monitors", strings.Join(stream.AllMonitors(), ","),
		"comma-separated monitors to maintain (window template)")
	window := flag.Int("window", 1_000_000, "count-based window: keep the most recent W edges (0 = unbounded)")
	maxAge := flag.Duration("maxage", 0, "time-based window: expire edges older than this (0 = disabled)")
	batch := flag.Int("batch", 512, "ingester batch threshold")
	delay := flag.Duration("delay", 5*time.Millisecond, "ingester flush deadline")
	eps := flag.Float64("eps", 0.25, "msfweight approximation parameter")
	maxW := flag.Int64("maxw", 1<<20, "msfweight maximum edge weight")
	k := flag.Int("k", 2, "kcert certificate order")
	seed := flag.Uint64("seed", 0xC0FFEE, "structure seed")
	shards := flag.Int("shards", 16, "registry lock shards (rounded up to a power of two)")
	maxWindows := flag.Int("maxwindows", 0, "cap on live windows (0 = unlimited)")
	windows := flag.String("windows", "", "comma-separated extra windows to pre-create from the template")
	applyPar := flag.Int("apply-parallelism", 0,
		"intra-monitor batch-apply worker budget shared by all windows (msfweight level fork-join): 0 = GOMAXPROCS, 1 = sequential levels")
	maxBody := flag.Int64("maxbody", stream.DefaultMaxBodyBytes, "request body size cap in bytes")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	dataDir := flag.String("data-dir", "", "durability directory (WAL + manifest); empty = in-memory only")
	fsync := flag.String("fsync", "interval", "WAL fsync policy with -data-dir: batch|interval|off")
	ckptEvery := flag.Duration("checkpoint-interval", 30*time.Second,
		"period of the background checkpoint (persist expiry watermarks, GC expired WAL segments) with -data-dir; 0 = manual only")
	snapThreshold := flag.Int("snapshot-threshold", 1<<20,
		"with -data-dir: checkpoint writes a live-edge snapshot when a window's replayable WAL suffix exceeds this many arrivals, bounding restart time; -1 disables snapshots")
	metricsOn := flag.Bool("metrics", true, "instrument the pipeline and expose Prometheus text at GET /metrics")
	logLevel := flag.String("log-level", "info", "slog threshold for operational records: debug|info|warn|error")
	maxQueueEdges := flag.Int64("max-queue-edges", 0,
		"admission budget: reject ingest (HTTP 429) once this many edges are queued un-applied (0 = unbounded)")
	maxQueueBytes := flag.Int64("max-queue-bytes", 0,
		"admission budget: reject ingest (HTTP 429) once queued edges occupy this many bytes (0 = unbounded)")
	rateLimit := flag.Int("rate-limit", 0,
		"admission rate limit in edges per second, enforced as a token bucket per window (0 = unlimited)")
	rateBurst := flag.Int("rate-burst", 0,
		"token-bucket burst for -rate-limit in edges (0 = one second's worth)")
	syncAck := flag.Bool("sync-ack", false,
		"durable acks by default: POST /edges returns 202 only after the batch's WAL append+fsync completed (per-request override: ?sync=0/1)")
	flightRing := flag.Int("flight-ring", 0,
		"per-window flight-recorder ring capacity in batch traces (0 = default 128)")
	flightQueryRing := flag.Int("flight-query-ring", 0,
		"per-window query-trace ring capacity (0 = default 64)")
	flightSlow := flag.Duration("flight-slow-threshold", 0,
		"retain batches at least this slow in the flight recorder's slow ring (0 = default 100ms, negative = disable the slow ring)")
	queueBudget := flag.Float64("ready-queue-budget", 0.9,
		"/readyz fails when any window's queued submissions exceed this fraction of its queue capacity (negative = disabled)")
	ckptAgeBound := flag.Duration("ready-checkpoint-age", 0,
		"with -data-dir: /readyz fails when no checkpoint has completed for this long (0 = disabled)")
	readTimeout := flag.Duration("read-timeout", time.Minute,
		"http.Server ReadTimeout: full request (headers+body) read deadline (0 = unlimited)")
	writeTimeout := flag.Duration("write-timeout", time.Minute,
		"http.Server WriteTimeout: response write deadline from end of headers (0 = unlimited)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute,
		"http.Server IdleTimeout: keep-alive connection idle deadline (0 = unlimited)")
	faultInject := flag.Bool("fault-inject", false,
		"mount the chaos control plane: wrap durability I/O in a runtime-togglable fault injector driven via /admin/fault (never enable in production)")
	faultSeed := flag.Int64("fault-seed", 1,
		"seed for probabilistic fault rules with -fault-inject")
	flag.Parse()

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "swserver: bad -log-level %q (want debug|info|warn|error)\n", *logLevel)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))

	template := stream.ServiceConfig{
		Window: stream.WindowConfig{
			N:                *n,
			Seed:             *seed,
			Monitors:         stream.SplitMonitors(*monitors),
			Monitor:          stream.MonitorConfig{Eps: *eps, MaxWeight: *maxW, K: *k},
			MaxArrivals:      *window,
			MaxAge:           *maxAge,
			ApplyParallelism: *applyPar,
			SyncAck:          *syncAck,
		},
		Ingest: stream.IngesterConfig{
			MaxBatch:       *batch,
			MaxDelay:       *delay,
			MaxQueueEdges:  *maxQueueEdges,
			MaxQueueBytes:  *maxQueueBytes,
			MaxEdgesPerSec: *rateLimit,
			BurstEdges:     *rateBurst,
		},
	}
	var persist *stream.PersistenceConfig
	if *dataDir != "" {
		pol, err := stream.ParseFsyncPolicy(*fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *snapThreshold == 0 {
			// The library maps 0 to its own default (1M), which would
			// silently contradict whatever a user passing 0 meant.
			fmt.Fprintln(os.Stderr, "swserver: -snapshot-threshold must be a positive arrival count, or -1 to disable")
			os.Exit(2)
		}
		persist = &stream.PersistenceConfig{
			Dir:                *dataDir,
			Fsync:              pol,
			CheckpointInterval: *ckptEvery,
			SnapshotThreshold:  *snapThreshold,
		}
	}
	var treg *telemetry.Registry
	if *metricsOn {
		treg = telemetry.NewRegistry()
	}
	var injector *fault.Injector
	if *faultInject {
		injector = fault.NewInjector(nil, *faultSeed)
		logger.Warn("fault injection armed: durability I/O runs through a chaos injector controlled at /admin/fault")
	}
	reg, recovered, err := stream.OpenRegistry(stream.RegistryConfig{
		Shards:        *shards,
		MaxWindows:    *maxWindows,
		Template:      template,
		Persistence:   persist,
		Telemetry:     treg,
		Logger:        logger,
		FaultInjector: injector,
		Flight: trace.Options{
			RingSlots:     *flightRing,
			QuerySlots:    *flightQueryRing,
			SlowThreshold: *flightSlow,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if recovered.Windows > 0 {
		logger.Info("windows recovered",
			"windows", recovered.Windows, "dir", *dataDir,
			"snapshots", recovered.Snapshots, "snapshot_edges", recovered.SnapshotEdges,
			"batches", recovered.Batches, "edges", recovered.Edges,
			"skipped_records", recovered.SkippedRecords, "elapsed", recovered.Elapsed)
	}
	names := append([]string{stream.DefaultWindow}, stream.SplitMonitors(*windows)...)
	for _, name := range names {
		// Pass the template itself so non-inherited fields (-sync-ack)
		// carry to the pre-created windows. A recovered window already
		// holding the name wins — its durable config and contents stand.
		if _, err := reg.Create(name, template); err != nil && !errors.Is(err, stream.ErrWindowExists) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	api := stream.NewRegistryServer(reg, stream.ServerConfig{
		MaxBodyBytes:       *maxBody,
		QueueBudget:        *queueBudget,
		CheckpointAgeBound: *ckptAgeBound,
	})
	root := http.NewServeMux()
	root.Handle("/", api.Handler())
	if *pprofOn {
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	// Slow-loris protection end to end: header deadline, full-request
	// deadline, response deadline, and keep-alive reaping — a stuck client
	// cannot pin a connection (and its handler goroutine) forever.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           root,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	durability := "in-memory"
	if persist != nil {
		durability = fmt.Sprintf("wal:%s fsync=%s ckpt=%v", *dataDir, *fsync, *ckptEvery)
	}
	logger.Info("swserver listening",
		"addr", *addr, "windows", strings.Join(reg.Names(), ","), "shards", reg.Shards(),
		"n", *n, "monitors", *monitors, "window", *window, "maxage", *maxAge,
		"batch", *batch, "delay", *delay,
		"apply_parallelism", *applyPar,
		"max_queue_edges", *maxQueueEdges, "max_queue_bytes", *maxQueueBytes,
		"rate_limit", *rateLimit, "sync_ack", *syncAck,
		"durability", durability, "metrics", *metricsOn, "pprof", *pprofOn)

	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		logger.Info("shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			logger.Warn("shutdown", "err", err)
		}
	}
	reg.Close()
	logger.Info("bye")
}
