package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"repro/bench/oracle"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/stream"
	"repro/internal/sw"
	"repro/internal/wal"
	"repro/internal/wgraph"
)

// steadyBatches is how many insert(ℓ)+expire(ℓ) steps each layer times
// after a one-batch prefill of W edges; its median has 10 samples beyond.
const steadyBatches = 20

// layerStream is the workload's edge stream cut the way the server sees
// it: W prefill edges, then ℓ-edge batches.
type layerStream struct {
	prefill []oracle.Edge
	batches [][]oracle.Edge
}

func newLayerStream(wl workload, seed uint64) layerStream {
	g := newEdgeStream(wl, seed)
	ls := layerStream{prefill: g.next(wl.window)}
	for i := 0; i < steadyBatches; i++ {
		ls.batches = append(ls.batches, g.next(wl.batch))
	}
	return ls
}

// metrics collects named values; add records one with its unit.
type metrics map[string]metric

func (m metrics) add(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// measureLayers times each module's public entry points on the
// workload's stream, in process, one layer at a time.
func measureLayers(env *env, wl workload, seed uint64, out metrics) error {
	ls := newLayerStream(wl, seed)
	measureCore(wl, ls, seed, out)
	measureShape(wl, seed, out)
	swMS := measureSW(wl, ls, seed, out)
	measureWeights(wl, ls, out)
	if err := measureWindow(wl, ls, seed, swMS, out); err != nil {
		return err
	}
	if err := measureServer(wl, ls, seed, out); err != nil {
		return err
	}
	return measureWAL(env, ls, out)
}

// recency converts arrivals to the engine's recency-weighted edges
// (id = τ, weight = −τ): the most-recent spanning forest every monitor
// keeps.
type recency struct{ tau int64 }

func (r *recency) edges(es []oracle.Edge) []wgraph.Edge {
	out := make([]wgraph.Edge, len(es))
	for i, e := range es {
		r.tau++
		out[i] = wgraph.Edge{ID: wgraph.EdgeID(r.tau), U: e.U, V: e.V, W: -r.tau}
	}
	return out
}

func endpoints(es []oracle.Edge) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, e := range es {
		for _, v := range [2]int32{e.U, e.V} {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// measureCore times core.BatchMSF.BatchInsert on the steady batches and
// counts the compressed-path-tree size and forest churn they cause.
func measureCore(wl workload, ls layerStream, seed uint64, out metrics) {
	m := core.New(wl.n, seed)
	var rc recency
	m.BatchInsert(rc.edges(ls.prefill))
	var nsPerEdge []float64
	cpt, churn, edges := 0, 0, 0
	for _, b := range ls.batches {
		cpt += len(m.CompressedPaths(endpoints(b)))
		in := rc.edges(b)
		t0 := time.Now()
		added, removed, _ := m.BatchInsert(in)
		nsPerEdge = append(nsPerEdge, float64(time.Since(t0).Nanoseconds())/float64(len(b)))
		churn += len(added) + len(removed)
		edges += len(b)
	}
	out.add("core.insert_ns_per_edge", median(nsPerEdge), "ns/edge")
	out.add("core.cpt_edges_per_edge", float64(cpt)/float64(edges), "ratio")
	out.add("core.churn_per_edge", float64(churn)/float64(edges), "ratio")
}

// measureShape re-batches the same stream at ℓ = 16, 256 and 4096 and
// divides ns/edge by lg(1+n/ℓ): Theorem 1.1 says the quotient stays
// within a constant factor across ℓ.
func measureShape(wl workload, seed uint64, out metrics) {
	for _, l := range []int{16, 256, 4096} {
		g := newEdgeStream(wl, seed)
		m := core.New(wl.n, seed)
		var rc recency
		m.BatchInsert(rc.edges(g.next(wl.window)))
		total := max(4096, 4*l)
		var busy time.Duration
		for done := 0; done < total; done += l {
			in := rc.edges(g.next(l))
			t0 := time.Now()
			m.BatchInsert(in)
			busy += time.Since(t0)
		}
		ns := float64(busy.Nanoseconds()) / float64(total)
		out.add(fmt.Sprintf("core.shape_l%d", l), ns/math.Log2(1+float64(wl.n)/float64(l)), "ns/edge")
	}
}

func streamEdges(es []oracle.Edge) []sw.StreamEdge {
	out := make([]sw.StreamEdge, len(es))
	for i, e := range es {
		out[i] = sw.StreamEdge{U: e.U, V: e.V}
	}
	return out
}

// timeSteps prefills a structure with one batch, then times each steady
// insert(ℓ)+expire(ℓ) step in milliseconds.
func timeSteps[E any](ls layerStream, conv func([]oracle.Edge) []E, insert func([]E), expire func(int)) []float64 {
	insert(conv(ls.prefill))
	var out []float64
	for _, b := range ls.batches {
		in := conv(b)
		t0 := time.Now()
		insert(in)
		expire(len(in))
		out = append(out, ms(time.Since(t0)))
	}
	return out
}

// measureSW times each sliding-window structure alone. ApproxMSF runs its
// levels sequentially so its cost is comparable to one ConnEager's.
// It returns the median step per structure, keyed by the monitor that
// wraps it.
func measureSW(wl workload, ls layerStream, seed uint64, out metrics) map[string]float64 {
	conn := sw.NewConnEager(wl.n, seed)
	bip := sw.NewBipartite(wl.n, seed)
	kc := sw.NewKCert(wl.n, 2, seed)
	am := sw.NewApproxMSF(wl.n, msfEps, msfMaxW, seed)
	am.SetWorkers(parallel.NewLimiter(0))
	weighted := func(es []oracle.Edge) []sw.WeightedStreamEdge {
		out := make([]sw.WeightedStreamEdge, len(es))
		for i, e := range es {
			out[i] = sw.WeightedStreamEdge{U: e.U, V: e.V, W: e.W}
		}
		return out
	}
	res := map[string]float64{
		"conn":      median(timeSteps(ls, streamEdges, conn.BatchInsert, conn.BatchExpire)),
		"bipartite": median(timeSteps(ls, streamEdges, bip.BatchInsert, bip.BatchExpire)),
		"kcert":     median(timeSteps(ls, streamEdges, kc.BatchInsert, kc.BatchExpire)),
		"msfweight": median(timeSteps(ls, weighted, am.BatchInsert, am.BatchExpire)),
	}
	// The cyclefree monitor is a 2-certificate, the same structure as kcert.
	res["cyclefree"] = res["kcert"]
	out.add("sw.conn_eager.apply_ms", res["conn"], "ms")
	out.add("sw.bipartite.apply_ms", res["bipartite"], "ms")
	out.add("sw.kcert2.apply_ms", res["kcert"], "ms")
	out.add("sw.approx_msf.apply_ms", res["msfweight"], "ms")
	out.add("sw.approx_msf.conn_equiv", res["msfweight"]/res["conn"], "ratio")
	return res
}

// msfMaxW is the server's default msfweight weight ceiling.
const msfMaxW = 1 << 20

// msfThresholds returns the msfweight level thresholds ⌊(1+ε)^i⌋, one per
// level, from the definition the monitor uses. An edge of weight w is
// inserted into every level from the first whose threshold admits w.
func msfThresholds() []int64 {
	var th []int64
	for x := 1.0; ; x *= 1 + msfEps {
		t := int64(math.Floor(x))
		th = append(th, t)
		if t >= msfMaxW {
			return th
		}
	}
}

// measureWeights describes the generated weights in msfweight terms: how
// many levels the live window occupies, and how many levels an average
// edge is inserted into (every level from its bucket up).
func measureWeights(wl workload, ls layerStream, out metrics) {
	th := msfThresholds()
	bucket := func(w int64) int { return sort.Search(len(th), func(i int) bool { return th[i] >= w }) }
	all := append([]oracle.Edge(nil), ls.prefill...)
	inserts, edges := 0, 0
	for _, b := range ls.batches {
		all = append(all, b...)
		for _, e := range b {
			inserts += len(th) - bucket(e.W)
			edges++
		}
	}
	live := map[int]bool{}
	for _, e := range all[len(all)-wl.window:] {
		live[bucket(e.W)] = true
	}
	out.add("workload.live_buckets", float64(len(live)), "count")
	out.add("workload.level_inserts_per_edge", float64(inserts)/float64(edges), "ratio")
}

func streamBatch(es []oracle.Edge) []stream.Edge {
	out := make([]stream.Edge, len(es))
	for i, e := range es {
		out[i] = stream.Edge{U: e.U, V: e.V, W: e.W}
	}
	return out
}

// measureWindow times WindowManager.Apply with the workload's monitors,
// and compares it with the sum of the isolated structures it fans out to.
func measureWindow(wl workload, ls layerStream, seed uint64, swMS map[string]float64, out metrics) error {
	w, err := stream.NewWindowManager(stream.WindowConfig{
		N: wl.n, Seed: seed, Monitors: wl.monitors, MaxArrivals: wl.window,
	})
	if err != nil {
		return err
	}
	var applyErr error
	steps := timeSteps(ls, streamBatch, func(b []stream.Edge) {
		if err := w.Apply(b); err != nil {
			applyErr = err
		}
	}, func(int) {}) // the window expires by count inside Apply
	if applyErr != nil {
		return applyErr
	}
	apply := median(steps)
	sum := 0.0
	for _, m := range wl.monitors {
		sum += swMS[m]
	}
	out.add("window.apply_ms", apply, "ms")
	out.add("window.fanout_gain", sum/apply, "ratio")
	return nil
}

// measureServer drives the HTTP handler in process: the workload's POST
// bodies with asynchronous acks into a roomy queue, then GETs against the
// quiescent window.
func measureServer(wl workload, ls layerStream, seed uint64, out metrics) error {
	reg := stream.NewRegistry(stream.RegistryConfig{Template: stream.ServiceConfig{
		Window: stream.WindowConfig{N: wl.n, Seed: seed, Monitors: wl.monitors, MaxArrivals: wl.window},
		// One flush of W edges absorbs the prefill; the timed POSTs then
		// flush on the deadline behind the handler's back.
		Ingest: stream.IngesterConfig{MaxBatch: wl.window},
	}})
	defer reg.Close()
	svc, err := reg.Create(stream.DefaultWindow, reg.Template())
	if err != nil {
		return err
	}
	if err := svc.Submit(streamBatch(ls.prefill)); err != nil {
		return err
	}
	svc.Flush()
	h := stream.NewRegistryServer(reg, stream.ServerConfig{}).Handler()
	serve := func(method, path string, body []byte, want int) (time.Duration, error) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		if rec.Code != want {
			return 0, fmt.Errorf("%s %s: status %d", method, path, rec.Code)
		}
		return d, nil
	}
	postPath := windowPath + "/edges"
	if wl.ndjson {
		postPath += "?format=ndjson"
	}
	var post []float64
	for _, b := range ls.batches {
		d, err := serve(http.MethodPost, postPath, encodeEdges(b, wl.ndjson), http.StatusAccepted)
		if err != nil {
			return err
		}
		post = append(post, float64(d.Nanoseconds())/float64(len(b)))
	}
	svc.Flush()
	r := rand.New(rand.NewPCG(seed, 4))
	timeGets := func(count int, path func() string) ([]float64, error) {
		var us []float64
		for i := 0; i < count; i++ {
			d, err := serve(http.MethodGet, path(), nil, http.StatusOK)
			if err != nil {
				return nil, err
			}
			us = append(us, float64(d.Nanoseconds())/1e3)
		}
		return us, nil
	}
	conn, err := timeGets(1000, func() string { return queryPath("connected", r.IntN(wl.n), r.IntN(wl.n)) })
	if err != nil {
		return err
	}
	stats, err := timeGets(200, func() string { return queryPath("stats", 0, 0) })
	if err != nil {
		return err
	}
	out.add("server.post_ns_per_edge", median(post), "ns/edge")
	out.add("server.get_connected_us", median(conn), "us")
	out.add("server.get_stats_us", median(stats), "us")
	return nil
}

// measureWAL appends the steady batches to a fresh log and fsyncs after
// each, timing the two separately.
func measureWAL(env *env, ls layerStream, out metrics) error {
	dir, err := os.MkdirTemp(env.work, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		return err
	}
	var appendUS, syncMS []float64
	for _, b := range ls.batches {
		edges := make([]wal.Edge, len(b))
		for i, e := range b {
			edges[i] = wal.Edge{U: e.U, V: e.V, W: e.W}
		}
		t0 := time.Now()
		if _, err := l.Append(edges); err != nil {
			_ = l.Close()
			return err
		}
		t1 := time.Now()
		if err := l.Sync(); err != nil {
			_ = l.Close()
			return err
		}
		appendUS = append(appendUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
		syncMS = append(syncMS, ms(time.Since(t1)))
	}
	out.add("wal.append_us", median(appendUS), "us")
	out.add("wal.sync_ms", median(syncMS), "ms")
	return l.Close()
}
