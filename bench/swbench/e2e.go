package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/bench/oracle"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// prefillChunk is the POST size used to fill the window during set-up;
// the server still applies it in flush-threshold batches.
const prefillChunk = 4096

// segment is what one driven server produced.
type segment struct {
	setupS     float64
	ackMS      []float64
	ackedEdges int
	ingestSec  float64
	queryMS    []float64
	rssMB      float64
	mismatches []string
	attempted  int64
	failed     int64

	measureStart time.Time
	// Traced runs only: the flight-recorder rings and /metrics counters,
	// scraped once after the measured interval.
	batches  []trace.View
	queries  []trace.View
	dropped  float64
	rejected float64
}

func (s *segment) eps() float64 { return float64(s.ackedEdges) / s.ingestSec }

// runSegment boots a server, prefills its window with W edges (the timed
// set-up), then drives closed-loop ingest and queries for dur and checks
// the final window against the oracles.
func runSegment(ctx context.Context, env *env, wl workload, seed uint64, dur time.Duration, traced bool) (*segment, error) {
	r := &segment{}
	var extra []string
	if traced {
		// The endpoint returns at most 1024 traces per kind; rings that
		// large hold the newest of them.
		extra = []string{"-flight-ring", "1024", "-flight-query-ring", "1024"}
	}
	t0 := time.Now()
	srv, err := startServer(ctx, env, wl, extra...)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	gen := newEdgeStream(wl, seed)
	window := gen.next(wl.window)
	for off := 0; off < len(window); off += prefillChunk {
		if err := srv.post(encodeEdges(window[off:min(off+prefillChunk, len(window))], wl.ndjson), wl.ndjson); err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	r.setupS = time.Since(t0).Seconds()

	r.measureStart = time.Now()
	deadline := r.measureStart.Add(dur)
	queryDone := make(chan struct{})
	go func() {
		defer close(queryDone)
		qs := newQueryStream(wl, seed)
		for time.Now().Before(deadline) && ctx.Err() == nil {
			path := qs.next()
			t0 := time.Now()
			if _, err := srv.get(path); err == nil {
				r.queryMS = append(r.queryMS, ms(time.Since(t0)))
			}
		}
	}()
	postFailed := 0
	for time.Now().Before(deadline) && ctx.Err() == nil {
		batch := gen.next(wl.batch)
		body := encodeEdges(batch, wl.ndjson)
		t0 := time.Now()
		if err := srv.post(body, wl.ndjson); err != nil {
			postFailed++
			continue
		}
		r.ackMS = append(r.ackMS, ms(time.Since(t0)))
		r.ackedEdges += len(batch)
		window = append(window, batch...)
	}
	r.ingestSec = time.Since(r.measureStart).Seconds()
	<-queryDone
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if postFailed > 0 {
		// A failed POST may or may not have been applied, so the final
		// window is unknown and cannot be checked.
		r.mismatches = append(r.mismatches, fmt.Sprintf("%d POSTs failed; final window unknown", postFailed))
	} else {
		r.mismatches = checkWindow(srv, wl, seed, window[len(window)-wl.window:])
	}
	if traced {
		if err := scrapeTraces(srv, r); err != nil {
			return nil, err
		}
	}
	if r.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	r.attempted = srv.reqs.Load()
	r.failed = srv.fails.Load()
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// checkWindow compares the server's answers over its final window with
// the oracles' answers over the same edges and lists every disagreement.
func checkWindow(srv *server, wl workload, seed uint64, live []oracle.Edge) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	n := wl.n
	if wl.has("conn") {
		var got struct{ Components int }
		if err := srv.getJSON(windowPath+"/query/components", &got); err != nil {
			fail("components: %v", err)
		} else if want := oracle.Components(n, live); got.Components != want {
			fail("components: server %d, oracle %d", got.Components, want)
		}
		labels := oracle.Labels(n, live)
		for _, p := range connectedPairs(labels, seed) {
			var got struct{ Connected bool }
			path := queryPath("connected", int(p[0]), int(p[1]))
			if err := srv.getJSON(path, &got); err != nil {
				fail("connected(%d,%d): %v", p[0], p[1], err)
			} else if want := labels[p[0]] == labels[p[1]]; got.Connected != want {
				fail("connected(%d,%d): server %v, oracle %v", p[0], p[1], got.Connected, want)
			}
		}
	}
	if wl.has("bipartite") {
		var got struct{ Bipartite bool }
		if err := srv.getJSON(windowPath+"/query/bipartite", &got); err != nil {
			fail("bipartite: %v", err)
		} else if want := oracle.Bipartite(n, live); got.Bipartite != want {
			fail("bipartite: server %v, oracle %v", got.Bipartite, want)
		}
	}
	if wl.has("cyclefree") {
		var got struct{ Cycle bool }
		if err := srv.getJSON(windowPath+"/query/cycle", &got); err != nil {
			fail("cycle: %v", err)
		} else if want := oracle.HasCycle(n, live); got.Cycle != want {
			fail("cycle: server %v, oracle %v", got.Cycle, want)
		}
	}
	if wl.has("msfweight") {
		var got struct{ Weight float64 }
		if err := srv.getJSON(windowPath+"/query/msfweight", &got); err != nil {
			fail("msfweight: %v", err)
		} else if exact := oracle.MSFWeight(n, live); !oracle.WithinApprox(exact, got.Weight, msfEps) {
			fail("msfweight: server %v outside [%d, (1+%v)·%d]", got.Weight, exact, msfEps, exact)
		}
	}
	return bad
}

// msfEps is the server's default msfweight approximation parameter.
const msfEps = 0.25

// connectedPairs samples vertex pairs to ask about: uniform pairs, plus
// pairs anchored outside the largest component so that disconnected
// answers are exercised even on a graph with one giant component.
func connectedPairs(labels []int32, seed uint64) [][2]int32 {
	r := rand.New(rand.NewPCG(seed, 3))
	n := len(labels)
	size := map[int32]int{}
	for _, l := range labels {
		size[l]++
	}
	var giant int32
	for l, c := range size {
		if c > size[giant] || (c == size[giant] && l < giant) {
			giant = l
		}
	}
	var outside []int32
	for v, l := range labels {
		if l != giant {
			outside = append(outside, int32(v))
		}
	}
	var pairs [][2]int32
	for i := 0; i < 256; i++ {
		pairs = append(pairs, [2]int32{int32(r.IntN(n)), int32(r.IntN(n))})
	}
	for i := 0; i < 64 && len(outside) > 0; i++ {
		pairs = append(pairs, [2]int32{outside[r.IntN(len(outside))], int32(r.IntN(n))})
	}
	return pairs
}

// scrapeTraces reads the batch and query flight rings and the /metrics
// drop and reject counters, once, after the measured interval.
func scrapeTraces(srv *server, r *segment) error {
	for _, k := range []struct {
		kind string
		dst  *[]trace.View
	}{{"batch", &r.batches}, {"query", &r.queries}} {
		var resp trace.Response
		if err := srv.getJSON("/debug/flight?window=default&limit=1024&kind="+k.kind, &resp); err != nil {
			return err
		}
		for _, v := range resp.Traces {
			if !v.Start.Before(r.measureStart) {
				*k.dst = append(*k.dst, v)
			}
		}
	}
	body, err := srv.get("/metrics")
	if err != nil {
		return err
	}
	exp, err := telemetry.ParseExposition(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("parse /metrics: %w", err)
	}
	for _, s := range exp.Samples {
		switch s.Name {
		case "sw_apply_edges_dropped_total":
			r.dropped += s.Value
		case "sw_ingest_rejected_total":
			r.rejected += s.Value
		}
	}
	return nil
}
