package stream

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// newFlightService boots a registry-created service (flight recorder always
// on), pushes one batch through the real ingest path, and returns the pieces
// the flight tests poke at.
func newFlightService(t *testing.T, cfg RegistryConfig) (*WindowRegistry, *Service) {
	t.Helper()
	if cfg.Template.Window.N == 0 {
		cfg.Template.Window.N = 256
	}
	reg := NewRegistry(cfg)
	t.Cleanup(reg.Close)
	svc, err := reg.Create("flight", ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit([]Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}}); err != nil {
		t.Fatal(err)
	}
	svc.Flush()
	return reg, svc
}

// TestFlightRecorderAllocs pins the always-on recorder's hot paths: batch
// trace assembly + ring commit must not allocate (the span tree lives in a
// writer-owned scratch and one preallocated ring slot), and a traced query
// must not allocate beyond the untraced baseline.
func TestFlightRecorderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	_, svc := newFlightService(t, RegistryConfig{})
	w := svc.Window()
	ft := w.flight
	if ft == nil || w.qflight == nil {
		t.Fatal("flight rings not attached by the registry")
	}

	// Batch path: the exact call Apply makes after fan-out, with the
	// last-timing table populated by the warm-up batch.
	stageStart := time.Now()
	applyStart := stageStart.Add(time.Millisecond)
	allocs := testing.AllocsPerRun(500, func() {
		w.commitBatchTrace(ft, 500, 1000, 2000, 3000, 9, false, 0, 0, 0,
			applyStart, stageStart, 3, 0)
	})
	if allocs != 0 {
		t.Errorf("commitBatchTrace = %.1f allocs/op, want 0", allocs)
	}

	// Query path: the whole traced read, lock-wait measurement included.
	qallocs := testing.AllocsPerRun(500, func() {
		if _, err := w.IsConnected(1, 2); err != nil {
			t.Fatal(err)
		}
	})
	if qallocs != 0 {
		t.Errorf("traced IsConnected = %.1f allocs/op, want 0", qallocs)
	}
	rallocs := testing.AllocsPerRun(500, func() {
		if _, err := w.IsBipartite(); err != nil {
			t.Fatal(err)
		}
	})
	if rallocs != 0 {
		t.Errorf("traced IsBipartite = %.1f allocs/op, want 0", rallocs)
	}
}

// TestRecordReadTraces pins the query traces of the two read paths: a
// scalar read from the published answers commits one exec span on the
// slot that answers it and no lock-wait span; a connected read still
// waits for the forest slot's read lock and times it.
func TestRecordReadTraces(t *testing.T) {
	reg, svc := newFlightService(t, RegistryConfig{})
	w := svc.Window()
	latest := func() trace.View {
		t.Helper()
		qs := reg.Flight().Traces(trace.Filter{Kind: "query"})
		if len(qs) == 0 {
			t.Fatal("no query trace committed")
		}
		return qs[0]
	}
	if _, err := w.IsBipartite(); err != nil {
		t.Fatal(err)
	}
	if v := latest(); len(v.Spans) != 1 || v.Spans[0].Name != "exec" || v.Spans[0].Monitor != MonitorBipartite {
		t.Fatalf("IsBipartite trace spans %+v, want one exec span on the bipartite slot", v.Spans)
	}
	if _, err := w.IsConnected(1, 2); err != nil {
		t.Fatal(err)
	}
	v := latest()
	if last := v.Spans[len(v.Spans)-1]; last.Name != "exec" || last.Monitor != SlotForest {
		t.Fatalf("IsConnected trace spans %+v, want the exec span on the forest slot", v.Spans)
	}
}

// TestFlightRecorderConcurrent hammers the recorder from every direction at
// once — producers applying batches, readers issuing traced queries, and
// scrapers snapshotting Traces and resolving Lookups — and is meaningful
// chiefly under -race: the per-slot locking must keep committed traces
// internally consistent while the ring wraps.
func TestFlightRecorderConcurrent(t *testing.T) {
	reg, svc := newFlightService(t, RegistryConfig{
		Flight: trace.Options{RingSlots: 8, QuerySlots: 8},
	})
	w := svc.Window()
	rec := reg.Flight()

	const goroutines, iters = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				base := int32((g*iters + i) % 250)
				if err := svc.Submit([]Edge{{U: base, V: base + 1}}); err != nil {
					t.Error(err)
					return
				}
				svc.Flush()
			}
		}(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := w.IsConnected(1, 2); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, v := range rec.Traces(trace.Filter{}) {
					if v.TotalMS < 0 {
						t.Errorf("trace %s has negative total_ms", v.TraceID)
						return
					}
					if id, ok := trace.ParseID(v.TraceID); ok {
						rec.Lookup(id)
					}
				}
			}
		}()
	}
	// Windows come and go meanwhile, so rings join and leave the recorder
	// under the readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			name := "churn" + strconv.Itoa(i%3)
			cs, err := reg.Create(name, ServiceConfig{})
			if err != nil {
				t.Error(err)
				return
			}
			if err := cs.Submit([]Edge{{U: 1, V: 2}}); err != nil {
				t.Error(err)
				return
			}
			cs.Flush()
			if err := reg.Drop(name); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	views := rec.Traces(trace.Filter{Kind: "batch"})
	if len(views) == 0 {
		t.Fatal("no batch traces survived the hammering")
	}
	for _, v := range views {
		if len(v.Spans) == 0 {
			t.Errorf("batch trace %s committed with an empty span tree", v.TraceID)
		}
	}
	if qs := rec.Traces(trace.Filter{Kind: "query"}); len(qs) == 0 {
		t.Fatal("no query traces survived the hammering")
	}
}

// TestExemplarLinksToTrace closes the exemplar loop: after a traced batch,
// the batch histogram's max exemplar must carry a trace ID the recorder can
// resolve to a full span tree — the property /metrics advertises.
func TestExemplarLinksToTrace(t *testing.T) {
	reg, _ := newFlightService(t, RegistryConfig{Telemetry: telemetry.NewRegistry()})

	ex := reg.Metrics().batchSeconds.MaxExemplar()
	if ex.TraceID == 0 {
		t.Fatal("sw_apply_batch_seconds max exemplar carries no trace ID")
	}
	v, ok := reg.Flight().Lookup(ex.TraceID)
	if !ok {
		t.Fatalf("exemplar trace %s not resolvable in the recorder", trace.FormatID(ex.TraceID))
	}
	if v.Kind != "batch" {
		t.Errorf("exemplar resolved to kind %q, want batch", v.Kind)
	}
	if len(v.Spans) == 0 {
		t.Error("exemplar's trace has an empty span tree")
	}
	if v.TraceID != trace.FormatID(ex.TraceID) {
		t.Errorf("lookup returned trace %s, want %s", v.TraceID, trace.FormatID(ex.TraceID))
	}
}

// TestFlightDropReleasesRings: dropping a window releases its flight
// rings, so /debug/flight serves none of a dropped incarnation's traces,
// and a window re-created under the same name serves only its own.
func TestFlightDropReleasesRings(t *testing.T) {
	reg := NewRegistry(RegistryConfig{Template: ServiceConfig{
		Window: WindowConfig{N: 64, Monitors: []string{MonitorConn}},
	}})
	defer reg.Close()
	ts := httptest.NewServer(NewRegistryServer(reg, ServerConfig{}).Handler())
	defer ts.Close()
	flight := func() []trace.View {
		t.Helper()
		var fr trace.Response
		if code := getJSON(t, ts.URL+"/debug/flight?window=w", &fr); code != http.StatusOK {
			t.Fatalf("flight status %d", code)
		}
		return fr.Traces
	}
	for inc := 1; inc <= 4; inc++ {
		svc, err := reg.Create("w", ServiceConfig{})
		if err != nil {
			t.Fatal(err)
		}
		// Incarnation inc applies one batch of inc edges, so a batch
		// trace's edge count names its incarnation.
		batch := make([]Edge, inc)
		for i := range batch {
			batch[i] = Edge{U: int32(i), V: int32(i + 1)}
		}
		if err := svc.Submit(batch); err != nil {
			t.Fatal(err)
		}
		svc.Flush()
		if _, err := svc.Window().IsConnected(0, 1); err != nil {
			t.Fatal(err)
		}
		batches, queries := 0, 0
		for _, v := range flight() {
			switch {
			case v.Kind == "query":
				queries++
			case v.Edges == int32(inc):
				batches++
			default:
				t.Fatalf("incarnation %d: /debug/flight serves a %d-edge batch of a dropped incarnation", inc, v.Edges)
			}
		}
		if batches != 1 || queries != 1 {
			t.Fatalf("incarnation %d: %d batch and %d query traces, want 1 and 1", inc, batches, queries)
		}
		if err := reg.Drop("w"); err != nil {
			t.Fatal(err)
		}
		if views := flight(); len(views) != 0 {
			t.Fatalf("after drop %d: /debug/flight still serves %d traces", inc, len(views))
		}
	}
}
