package stream

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/sw"
)

func randomEdges(r *rand.Rand, n, count int) []Edge {
	out := make([]Edge, count)
	for i := range out {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		for v == u {
			v = int32(r.Intn(n))
		}
		out[i] = Edge{U: u, V: v, W: 1 + r.Int63n(1<<10)}
	}
	return out
}

// TestWindowManagerMatchesOracle drives a count-based window through the
// WindowManager and checks every query against direct internal/sw
// structures fed the identical batch/expiry schedule. The compared answers
// (connectivity, components, bipartiteness, approximate weight, edge
// connectivity) are exact properties of the window graph plus deterministic
// approximation parameters, so they must agree regardless of internal
// seeds.
func TestWindowManagerMatchesOracle(t *testing.T) {
	const (
		n      = 200
		window = 600
		rounds = 40
		batch  = 100
		eps    = 0.25
		maxW   = 1 << 10
		k      = 3
	)
	wm, err := NewWindowManager(WindowConfig{
		N:           n,
		Seed:        42,
		MaxArrivals: window,
		Monitor:     MonitorConfig{Eps: eps, MaxWeight: maxW, K: k},
	})
	if err != nil {
		t.Fatal(err)
	}

	conn := sw.NewConnEager(n, 999)
	bip := sw.NewBipartite(n, 998)
	amsf := sw.NewApproxMSF(n, eps, maxW, 997)
	kc := sw.NewKCert(n, k, 996)
	cyc := sw.NewCycleFree(n, 995)

	r := rand.New(rand.NewSource(7))
	live := 0
	for round := 0; round < rounds; round++ {
		edges := randomEdges(r, n, batch)
		wm.Apply(edges)

		plain := make([]sw.StreamEdge, len(edges))
		weighted := make([]sw.WeightedStreamEdge, len(edges))
		for i, e := range edges {
			plain[i] = sw.StreamEdge{U: e.U, V: e.V}
			weighted[i] = sw.WeightedStreamEdge{U: e.U, V: e.V, W: e.W}
		}
		conn.BatchInsert(plain)
		bip.BatchInsert(plain)
		amsf.BatchInsert(weighted)
		kc.BatchInsert(plain)
		cyc.BatchInsert(plain)
		live += batch
		if live > window {
			delta := live - window
			conn.BatchExpire(delta)
			bip.BatchExpire(delta)
			amsf.BatchExpire(delta)
			kc.BatchExpire(delta)
			cyc.BatchExpire(delta)
			live = window
		}

		if got := wm.WindowLen(); got != int64(live) {
			t.Fatalf("round %d: WindowLen = %d, want %d", round, got, live)
		}
		gotCC, err := wm.NumComponents()
		if err != nil {
			t.Fatal(err)
		}
		if want := conn.NumComponents(); gotCC != want {
			t.Fatalf("round %d: components = %d, want %d", round, gotCC, want)
		}
		gotBip, err := wm.IsBipartite()
		if err != nil {
			t.Fatal(err)
		}
		if want := bip.IsBipartite(); gotBip != want {
			t.Fatalf("round %d: bipartite = %v, want %v", round, gotBip, want)
		}
		gotW, err := wm.MSFWeight()
		if err != nil {
			t.Fatal(err)
		}
		if want := amsf.Weight(); gotW != want {
			t.Fatalf("round %d: msf weight = %v, want %v", round, gotW, want)
		}
		if round%8 == 7 { // the min-cut oracle is the expensive check
			_, gotEC, err := wm.KCertInfo()
			if err != nil {
				t.Fatal(err)
			}
			if want := kc.EdgeConnectivityUpToK(); gotEC != want {
				t.Fatalf("round %d: edge connectivity = %d, want %d", round, gotEC, want)
			}
		}
		gotCycle, err := wm.HasCycle()
		if err != nil {
			t.Fatal(err)
		}
		if want := cyc.HasCycle(); gotCycle != want {
			t.Fatalf("round %d: cycle = %v, want %v", round, gotCycle, want)
		}
		for trial := 0; trial < 20; trial++ {
			u := int32(r.Intn(n))
			v := int32(r.Intn(n))
			got, err := wm.IsConnected(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if want := conn.IsConnected(u, v); got != want {
				t.Fatalf("round %d: connected(%d,%d) = %v, want %v", round, u, v, got, want)
			}
		}
	}
}

func TestWindowManagerDropsInvalidEdges(t *testing.T) {
	wm, err := NewWindowManager(WindowConfig{N: 10, Monitors: []string{MonitorConn}})
	if err != nil {
		t.Fatal(err)
	}
	wm.Apply([]Edge{
		{U: 0, V: 1},   // valid
		{U: 3, V: 3},   // self-loop
		{U: -1, V: 2},  // negative
		{U: 2, V: 100}, // out of range
	})
	st := wm.Stats()
	if st.Arrivals != 1 || st.Dropped != 3 {
		t.Fatalf("stats = %+v, want 1 arrival and 3 dropped", st)
	}
	conn, err := wm.IsConnected(0, 1)
	if err != nil || !conn {
		t.Fatalf("valid edge not applied: %v %v", conn, err)
	}
}

func TestWindowManagerTimeExpiry(t *testing.T) {
	fc := NewFakeClock(time.Unix(0, 0))
	wm, err := NewWindowManager(WindowConfig{
		N:        10,
		Monitors: []string{MonitorConn},
		MaxAge:   time.Minute,
		Clock:    fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := fc.Now()
	wm.Apply([]Edge{{U: 0, V: 1, T: t0}, {U: 1, V: 2, T: t0}})
	fc.Advance(30 * time.Second)
	wm.Apply([]Edge{{U: 2, V: 3, T: fc.Now()}})
	if got := wm.WindowLen(); got != 3 {
		t.Fatalf("window len = %d, want 3", got)
	}

	// 61s after t0: the first two arrivals age out, the third survives.
	fc.Advance(31 * time.Second)
	if expired := wm.ExpireByAge(fc.Now()); expired != 2 {
		t.Fatalf("expired %d arrivals, want 2", expired)
	}
	if got := wm.WindowLen(); got != 1 {
		t.Fatalf("window len after expiry = %d, want 1", got)
	}
	if conn, _ := wm.IsConnected(0, 1); conn {
		t.Fatal("expired edge still connects 0-1")
	}
	if conn, _ := wm.IsConnected(2, 3); !conn {
		t.Fatal("live edge lost: 2-3 disconnected")
	}
}

func TestWindowManagerClampsRogueEventTimes(t *testing.T) {
	fc := NewFakeClock(time.Unix(0, 0))
	wm, err := NewWindowManager(WindowConfig{
		N:        10,
		Monitors: []string{MonitorConn},
		MaxAge:   time.Minute,
		Clock:    fc,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A far-future event time must not stall expiry of later arrivals:
	// it is clamped to ingestion time (t=0) and ages out like everything
	// else.
	wm.Apply([]Edge{{U: 0, V: 1, T: fc.Now().Add(1000 * time.Hour)}})
	fc.Advance(30 * time.Second)
	// An out-of-order old timestamp is clamped up to the previous
	// recorded time (t=0, keeping the sequence monotone), so it expires
	// together with the first edge.
	wm.Apply([]Edge{{U: 1, V: 2, T: fc.Now().Add(-time.Hour)}})
	fc.Advance(45 * time.Second)
	// Both recorded times are 0; at now=75s the 60s cutoff passes them.
	if expired := wm.ExpireByAge(fc.Now()); expired != 2 {
		t.Fatalf("expired %d, want 2 (both clamped to t=0)", expired)
	}
	if got := wm.WindowLen(); got != 0 {
		t.Fatalf("window len = %d, want 0", got)
	}
	// A fresh edge stamped now survives: the clamp never pushes times
	// forward past the ingestion clock.
	wm.Apply([]Edge{{U: 2, V: 3, T: fc.Now()}})
	if expired := wm.ExpireByAge(fc.Now()); expired != 0 {
		t.Fatalf("expired %d fresh arrivals, want 0", expired)
	}
	if conn, _ := wm.IsConnected(2, 3); !conn {
		t.Fatal("fresh edge lost")
	}
}

func TestWindowManagerQueryErrors(t *testing.T) {
	wm, err := NewWindowManager(WindowConfig{N: 10, Monitors: []string{MonitorConn}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wm.IsBipartite(); err == nil {
		t.Fatal("IsBipartite without bipartite monitor should error")
	}
	if _, err := wm.IsConnected(-1, 3); err == nil {
		t.Fatal("IsConnected(-1, 3) should error")
	}
	if _, err := NewWindowManager(WindowConfig{N: 10, Monitors: []string{"nope"}}); err == nil {
		t.Fatal("unknown monitor name should error")
	}
}

// TestServiceConcurrentIngestAndQuery exercises the single-writer /
// many-reader discipline under the race detector: several producers submit
// while several readers hammer every query path.
func TestServiceConcurrentIngestAndQuery(t *testing.T) {
	const n = 300
	svc, err := NewService(ServiceConfig{
		Window: WindowConfig{N: n, Seed: 11, MaxArrivals: 2000},
		Ingest: IngesterConfig{MaxBatch: 128, MaxDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const producers, perProducer, readers = 4, 2000, 4
	var prodWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			r := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < perProducer; i++ {
				if err := svc.Submit(randomEdges(r, n, 1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	for q := 0; q < readers; q++ {
		readWG.Add(1)
		go func(q int) {
			defer readWG.Done()
			r := rand.New(rand.NewSource(int64(100 + q)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := svc.Window()
				if _, err := w.IsConnected(int32(r.Intn(n)), int32(r.Intn(n))); err != nil {
					t.Error(err)
					return
				}
				if _, err := w.NumComponents(); err != nil {
					t.Error(err)
					return
				}
				if _, err := w.IsBipartite(); err != nil {
					t.Error(err)
					return
				}
				if _, err := w.MSFWeight(); err != nil {
					t.Error(err)
					return
				}
				if _, err := w.HasCycle(); err != nil {
					t.Error(err)
					return
				}
				_ = w.Stats()
			}
		}(q)
	}

	prodWG.Wait()
	close(stop)
	readWG.Wait()

	svc.Flush()
	edges, _ := svc.IngestStats()
	if edges != producers*perProducer {
		t.Fatalf("accepted %d edges, want %d", edges, producers*perProducer)
	}
	st := svc.Window().Stats()
	if st.Arrivals != producers*perProducer {
		t.Fatalf("applied %d edges, want %d", st.Arrivals, producers*perProducer)
	}
	if st.WindowLen > 2000 {
		t.Fatalf("window len %d exceeds cap 2000", st.WindowLen)
	}
}

// TestWindowApplyAllocs pins a steady-state Apply on a conn-only window
// (n = 500, W = 2000, ℓ = 32) at one allocation: the answers record it
// publishes. The forest's engine steps allocate nothing once warm (see
// TestEngineStepAllocs at the repository root), and the fan-out reuses
// each slot's pprof label context and apply closure; rebuilding those per
// batch cost three allocations.
func TestWindowApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n, window, l, warm = 500, 2000, 32, 2000
	wm, err := NewWindowManager(WindowConfig{N: n, Seed: 1, Monitors: []string{MonitorConn}, MaxArrivals: window})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	batch := make([]Edge, l)
	step := func() {
		for i := range batch {
			u, v := int32(r.Intn(n)), int32(r.Intn(n-1))
			if v >= u {
				v++
			}
			batch[i] = Edge{U: u, V: v}
		}
		if err := wm.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	for range warm {
		step()
	}
	if got := testing.AllocsPerRun(100, step); got > 1 {
		t.Errorf("Apply on a conn-only window: %v allocs per batch, want at most 1", got)
	}
}
