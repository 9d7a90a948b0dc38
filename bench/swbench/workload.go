package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/bench/oracle"
)

// workload is one traffic mix against one server configuration. Every
// workload draws endpoints uniformly without self-loops; they differ in
// graph shape, weight spread, monitor set, wire format and durability,
// which decide the layer that dominates the cost of an ack.
type workload struct {
	name     string
	n        int      // vertices
	window   int      // W: the window keeps the most recent W edges
	batch    int      // ℓ: the server's flush threshold and the POST size
	maxW     int64    // weights are uniform in [1, maxW]
	monitors []string // the server's -monitors list
	ndjson   bool
	durable  bool
	mix      []mixEntry
}

// mixEntry is one weighted endpoint of a workload's query mix.
type mixEntry struct {
	endpoint string
	weight   int
}

var allMonitors = []string{"conn", "bipartite", "msfweight", "kcert", "cyclefree"}

// workloads are sized so that three set-ups plus the measured interval
// fit the benchmark's time budget on two shared vCPUs: the all-monitor
// windows cost about 1.3 ms of apply per edge, so W = 2000 prefills in
// about 2 s and ℓ = 32 gives a few hundred acks in 10 s. kcert is left out
// of every mix: one KCertInfo on a full window runs a min-cut that can take
// longer than the whole measured interval.
var workloads = []workload{
	{
		// msfweight levels whose threshold exceeds 2¹⁰ all hold the same
		// forest: the narrow weights make duplicated levels most of apply.
		name: "s7-narrow", n: 500, window: 2000, batch: 32, maxW: 1 << 10,
		monitors: allMonitors,
		mix:      parseMix("connected:6,components:2,bipartite:1,msfweight:1,cycle:1,stats:1"),
	},
	{
		// Same pipeline with weights spread to the monitor's maxW: edges
		// enter few msfweight levels, so the other monitors weigh more.
		name: "s9-wide", n: 500, window: 2000, batch: 32, maxW: 1 << 20,
		monitors: allMonitors,
		mix:      parseMix("connected:6,components:2,bipartite:1,msfweight:1,cycle:1,stats:1"),
	},
	{
		// No msfweight: the three spanning forests of conn, kcert and
		// cyclefree dominate apply, and reads contend for their locks.
		name: "forest-queries", n: 500, window: 2000, batch: 32, maxW: 1 << 10,
		monitors: []string{"conn", "bipartite", "kcert", "cyclefree"},
		mix:      parseMix("connected:6,components:2,bipartite:2,cycle:2,stats:1"),
	},
	{
		// One cheap monitor on a sparser, larger graph: HTTP decode,
		// staging, WAL append+fsync and checkpoint snapshots dominate.
		name: "ingest-durable", n: 10000, window: 20000, batch: 512, maxW: 1 << 10,
		monitors: []string{"conn"},
		ndjson:   true, durable: true,
		mix: parseMix("connected:8,components:1,stats:1"),
	},
}

func parseMix(spec string) []mixEntry {
	var mix []mixEntry
	for _, part := range strings.Split(spec, ",") {
		name, w, _ := strings.Cut(part, ":")
		weight, err := strconv.Atoi(w)
		if err != nil || weight < 1 {
			panic(fmt.Sprintf("bad mix entry %q", part))
		}
		mix = append(mix, mixEntry{endpoint: name, weight: weight})
	}
	return mix
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func (wl workload) has(monitor string) bool { return slices.Contains(wl.monitors, monitor) }

// serverArgs are the swserver flags of the workload, minus address and
// data directory.
func (wl workload) serverArgs() []string {
	args := []string{
		"-n", strconv.Itoa(wl.n),
		"-window", strconv.Itoa(wl.window),
		"-batch", strconv.Itoa(wl.batch),
		"-monitors", strings.Join(wl.monitors, ","),
		"-log-level", "warn",
	}
	if wl.durable {
		args = append(args,
			"-fsync", "batch",
			"-checkpoint-interval", (2 * time.Second).String(),
			"-snapshot-threshold", strconv.Itoa(wl.window/2))
	}
	return args
}

// edgeStream is the workload's edge generator. Prefill, measured ingest
// and the per-layer replays all draw from a fresh stream of the same seed,
// so they see the same edges in the same order.
type edgeStream struct {
	r    *rand.Rand
	n    int
	maxW int64
}

func newEdgeStream(wl workload, seed uint64) *edgeStream {
	return &edgeStream{r: rand.New(rand.NewPCG(seed, 1)), n: wl.n, maxW: wl.maxW}
}

func (g *edgeStream) next(k int) []oracle.Edge {
	out := make([]oracle.Edge, k)
	for i := range out {
		u := g.r.IntN(g.n)
		v := g.r.IntN(g.n - 1)
		if v >= u {
			v++
		}
		out[i] = oracle.Edge{U: int32(u), V: int32(v), W: 1 + g.r.Int64N(g.maxW)}
	}
	return out
}

// queryStream draws query paths from the workload's weighted mix.
type queryStream struct {
	r     *rand.Rand
	n     int
	mix   []mixEntry
	total int
}

func newQueryStream(wl workload, seed uint64) *queryStream {
	q := &queryStream{r: rand.New(rand.NewPCG(seed, 2)), n: wl.n, mix: wl.mix}
	for _, m := range wl.mix {
		q.total += m.weight
	}
	return q
}

func (q *queryStream) next() string {
	pick := q.r.IntN(q.total)
	for _, m := range q.mix {
		if pick -= m.weight; pick < 0 {
			return queryPath(m.endpoint, q.r.IntN(q.n), q.r.IntN(q.n))
		}
	}
	panic("unreachable: pick < total")
}

const windowPath = "/windows/default"

func queryPath(endpoint string, u, v int) string {
	switch endpoint {
	case "connected":
		return fmt.Sprintf("%s/query/connected?u=%d&v=%d", windowPath, u, v)
	case "stats":
		return windowPath + "/stats"
	default:
		return windowPath + "/query/" + endpoint
	}
}
