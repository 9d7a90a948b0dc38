// Command swbench is the repository's benchmark. For each workload it
// builds cmd/swserver from the working tree, boots a fresh server
// process, fills its window, and drives it over HTTP for a fixed interval
// with one closed-loop ingest connection and one closed-loop query
// connection. It checks the final window against brute-force oracles and
// prints every end-to-end metric by name with its unit and sample count.
//
//	go run ./swbench -workload s7-narrow -seed 1 -seconds 25 -trace 0
//
// With -trace 1 it reports per-layer metrics instead: it repeats the
// end-to-end run with larger flight-recorder rings and scrapes them once,
// and it replays the same generated stream through each module's public
// functions in process. The last line on standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// -repeat N runs each workload with N consecutive seeds and prints each
// metric's median and quartiles; -json FILE keeps every run's result, and
// -compare A B checks two such files against the bounds in BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

// setups is how many servers an end-to-end run boots, fills and drives,
// each for its share of the measured interval.
const setups = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string         `json:"workload"`
	Seed      uint64         `json:"seed"`
	Trace     bool           `json:"trace"`
	Correct   bool           `json:"correct"`
	Attempted int64          `json:"attempted"`
	Failed    int64          `json:"failed"`
	Metrics   metrics        `json:"metrics"`
	Samples   map[string]int `json:"samples"`
	// Mismatches are oracle disagreements; Shortfalls are percentiles
	// refused for lack of samples. Either makes the run fail.
	Mismatches []string `json:"mismatches,omitempty"`
	Shortfalls []string `json:"shortfalls,omitempty"`
}

// pct records the p-quantile of sorted samples as a metric, or the
// shortfall that keeps it from being reported.
func (r *result) pct(name string, sorted []float64, p float64, unit string) {
	v, err := percentile(sorted, p)
	if err != nil {
		r.Shortfalls = append(r.Shortfalls, fmt.Sprintf("%s: %v", name, err))
		return
	}
	r.Metrics.add(name, v, unit)
}

func run(args []string) int {
	fs := flag.NewFlagSet("swbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all of them)")
	seed := fs.Uint64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 25, "measured interval of each end-to-end run")
	traced := fs.Int("trace", 0, "1 = report per-layer metrics from a traced run instead of end-to-end metrics")
	jsonOut := fs.String("json", "", "also write every run's full result to this file")
	repeat := fs.Int("repeat", 1, "runs per workload, with seeds seed, seed+1, ...")
	compare := fs.Bool("compare", false, "compare two -json files, given as arguments, against the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	repo, err := findRepo()
	if err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "swbench: -compare needs two result files")
			return 2
		}
		return compareSets(filepath.Join(repo, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1))
	}
	selected := workloads
	if *name != "" {
		wl, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "swbench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{wl}
	}
	if *repeat < 1 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "swbench: need -repeat ≥ 1, -seconds > 0 and -trace 0 or 1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	env, err := newEnv(repo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		return 1
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var all []*result
	code := 0
	for i := 0; i < *repeat; i++ {
		for _, wl := range selected {
			res, err := runWorkload(ctx, env, wl, *seed+uint64(i), dur, *traced == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "swbench: %s: %v\n", wl.name, err)
				return 1
			}
			all = append(all, res)
			printResult(res)
			if !res.Correct {
				code = 1
			}
			if len(res.Shortfalls) > 0 {
				code = 1
				continue // an incomplete metric set is no result
			}
			line, err := json.Marshal(struct {
				Correct   bool    `json:"correct"`
				Attempted int64   `json:"attempted"`
				Failed    int64   `json:"failed"`
				Metrics   metrics `json:"metrics"`
			}{res.Correct, res.Attempted, res.Failed, res.Metrics})
			if err != nil {
				fmt.Fprintln(os.Stderr, "swbench:", err)
				return 1
			}
			fmt.Println(string(line))
		}
	}
	if *repeat > 1 {
		printSpread(all)
	}
	if *jsonOut != "" {
		if err := writeResults(*jsonOut, all); err != nil {
			fmt.Fprintln(os.Stderr, "swbench:", err)
			return 1
		}
	}
	return code
}

// env is where the benchmark builds and keeps its files.
type env struct {
	work      string // build outputs and temporary data, inside the repository
	serverBin string
}

// findRepo locates the repository root from the working directory: the
// root itself, or bench/ or bench/swbench below it.
func findRepo() (string, error) {
	for _, dir := range []string{".", "..", filepath.Join("..", "..")} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "swserver", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cmd/swserver not found: run from the repository root")
}

// newEnv builds the server from the working tree; the build is not timed.
func newEnv(repo string) (*env, error) {
	e := &env{work: filepath.Join(repo, ".bench_build")}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	e.serverBin = filepath.Join(e.work, "swserver")
	cmd := exec.Command("go", "build", "-o", e.serverBin, "./cmd/swserver")
	cmd.Dir = repo
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("build swserver: %w", err)
	}
	return e, nil
}

// runWorkload runs one workload once. Untraced, it reports the end-to-end
// metrics of three driven servers; traced, it reports the per-layer
// metrics of an untraced server, a traced server and the in-process
// replays.
func runWorkload(ctx context.Context, env *env, wl workload, seed uint64, dur time.Duration, traced bool) (*result, error) {
	res := &result{Workload: wl.name, Seed: seed, Trace: traced, Metrics: metrics{}, Samples: map[string]int{}}
	if !traced {
		// Each set-up is measured for its share of the interval: the
		// medians and pooled percentiles over three server processes damp
		// the run-to-run noise of any one of them.
		var segs []*segment
		for i := 0; i < setups; i++ {
			s, err := runSegment(ctx, env, wl, seed, dur/setups, false)
			if err != nil {
				return nil, err
			}
			segs = append(segs, s)
		}
		var setup, eps, rss, acks, queries []float64
		for _, s := range segs {
			setup = append(setup, s.setupS)
			eps = append(eps, s.eps())
			rss = append(rss, s.rssMB)
			acks = append(acks, s.ackMS...)
			queries = append(queries, s.queryMS...)
			res.Attempted += s.attempted
			res.Failed += s.failed
			res.Mismatches = append(res.Mismatches, s.mismatches...)
		}
		sort.Float64s(acks)
		sort.Float64s(queries)
		res.Metrics.add("setup_s", median(setup), "s")
		res.Metrics.add("ingest_eps", median(eps), "edges/s")
		res.pct("ack_p50_ms", acks, 0.5, "ms")
		res.pct("ack_p90_ms", acks, 0.9, "ms")
		res.pct("query_p95_ms", queries, 0.95, "ms")
		res.pct("query_p99_ms", queries, 0.99, "ms")
		res.Metrics.add("server_rss_mb", median(rss), "MB")
		res.Samples["setups"] = len(segs)
		res.Samples["acks"] = len(acks)
		res.Samples["queries"] = len(queries)
	} else {
		// The untraced and traced servers split the interval, so a traced
		// run takes as long as an untraced one.
		plain, err := runSegment(ctx, env, wl, seed, dur/2, false)
		if err != nil {
			return nil, err
		}
		tr, err := runSegment(ctx, env, wl, seed, dur/2, true)
		if err != nil {
			return nil, err
		}
		res.Attempted = plain.attempted + tr.attempted
		res.Failed = plain.failed + tr.failed
		res.Mismatches = append(plain.mismatches, tr.mismatches...)
		pipeMetrics(res, tr)
		res.Metrics.add("trace.overhead_frac", 1-tr.eps()/plain.eps(), "ratio")
		if err := measureLayers(env, wl, seed, res.Metrics); err != nil {
			return nil, err
		}
	}
	res.Correct = len(res.Mismatches) == 0
	return res, nil
}

// pipeMetrics attributes the traced run's batches and queries to pipeline
// stages from their flight-recorder spans.
func pipeMetrics(res *result, tr *segment) {
	stages := []string{"queue", "stage", "wal", "apply", "wait", "publish", "batch"}
	byStage := map[string][]float64{}
	levels := 0
	for _, v := range tr.batches {
		sp := map[string]float64{}
		for _, s := range v.Spans {
			switch s.Name {
			case "wait":
				sp["wait"] = max(sp["wait"], s.MS) // the slowest monitor's lock wait
			case "level":
				levels++
			default:
				sp[s.Name] += s.MS
			}
		}
		pre := sp["admit"] + sp["queue"]
		byStage["queue"] = append(byStage["queue"], pre)
		byStage["stage"] = append(byStage["stage"], sp["stage"]-sp["wal_append"])
		byStage["wal"] = append(byStage["wal"], sp["wal_append"])
		// The fan-out is what the trace total leaves after the spans
		// around it; this holds even when a trace overflowed its span
		// capacity and lost some monitor or publish spans.
		byStage["apply"] = append(byStage["apply"], v.TotalMS-pre-sp["stage"]-sp["publish"])
		byStage["wait"] = append(byStage["wait"], sp["wait"])
		byStage["publish"] = append(byStage["publish"], sp["publish"])
		byStage["batch"] = append(byStage["batch"], v.TotalMS)
	}
	for _, st := range stages {
		s := byStage[st]
		sort.Float64s(s)
		res.pct("pipe."+st+"_ms.p50", s, 0.5, "ms")
		res.pct("pipe."+st+"_ms.p90", s, 0.9, "ms")
	}
	sort.Float64s(tr.ackMS)
	if ack, err := percentile(tr.ackMS, 0.5); err == nil {
		if batch, ok := res.Metrics["pipe.batch_ms.p50"]; ok {
			res.Metrics.add("pipe.http_gap_ms.p50", ack-batch.Value, "ms")
		}
	} else {
		res.Shortfalls = append(res.Shortfalls, "pipe.http_gap_ms.p50: "+err.Error())
	}
	var lockWait, execMS []float64
	for _, v := range tr.queries {
		var w, x float64
		for _, s := range v.Spans {
			switch s.Name {
			case "lock_wait":
				w = s.MS
			case "exec":
				x = s.MS
			}
		}
		lockWait = append(lockWait, w)
		execMS = append(execMS, x)
	}
	sort.Float64s(lockWait)
	sort.Float64s(execMS)
	res.pct("pipe.query_lock_wait_ms.p99", lockWait, 0.99, "ms")
	res.pct("pipe.query_exec_ms.p99", execMS, 0.99, "ms")
	if len(tr.batches) > 0 {
		res.Metrics.add("pipe.level_spans_per_batch", float64(levels)/float64(len(tr.batches)), "count")
	}
	res.Metrics.add("pipe.dropped_edges", tr.dropped, "count")
	res.Metrics.add("pipe.rejected_posts", tr.rejected, "count")
	res.Samples["pipe.batches"] = len(tr.batches)
	res.Samples["pipe.queries"] = len(tr.queries)
	res.Samples["acks"] = len(tr.ackMS)
}

// printResult writes a human-readable report of one run to stderr.
func printResult(r *result) {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer"
	}
	fmt.Fprintf(os.Stderr, "== %s seed=%d (%s) correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, mode, r.Correct, r.Attempted, r.Failed)
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(r.Samples) {
		fmt.Fprintf(os.Stderr, "  samples %-26s %14d\n", name, r.Samples[name])
	}
	for i, m := range r.Mismatches {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "  ... and %d more oracle mismatches\n", len(r.Mismatches)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "  ORACLE MISMATCH:", m)
	}
	for _, s := range r.Shortfalls {
		fmt.Fprintln(os.Stderr, "  TOO FEW SAMPLES:", s)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
