package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/mincut"
	"repro/internal/unionfind"
	"repro/internal/wgraph"
)

// TestForestViewsMatchOracles checks the forest slot's views — conn,
// cyclefree and kcert read one k-certificate, and bipartite compares its
// double cover with the forest's count — against brute force over the
// live window after every op of a seeded schedule with parallel edges and
// count expiry, for monitor sets that give the forest orders 1, 2 and 3.
// The oracles never run the engine: union-find for connectivity and
// components, the edge count for cycles, BFS 2-colouring for
// bipartiteness, Stoer–Wagner on the raw live edges for min(K, λ), and a
// newest-first greedy decomposition for the certificate's size. It also
// pins the fan-out layout: slot names in order, the forest's order, and
// the core.BatchMSF instances outside msfweight's levels (one per forest
// level, one for the double cover).
func TestForestViewsMatchOracles(t *testing.T) {
	const (
		n      = 10
		window = 16
		ops    = 120
	)
	forestOnly := []string{SlotForest}
	cases := []struct {
		monitors []string
		k        int      // MonitorConfig.K
		slots    []string // fan-out order
		order    int      // the forest's certificate order
		engines  int      // core.BatchMSF instances outside msfweight
	}{
		{[]string{MonitorConn}, 2, forestOnly, 1, 1},
		{[]string{MonitorCycleFree}, 2, forestOnly, 2, 2},
		{[]string{MonitorConn, MonitorCycleFree}, 2, forestOnly, 2, 2},
		{[]string{MonitorKCert, MonitorCycleFree}, 1, forestOnly, 2, 2},
		{[]string{MonitorKCert, MonitorConn}, 3, forestOnly, 3, 3},
		{AllMonitors(), 2, []string{SlotForest, MonitorBipartite, MonitorMSFWeight}, 2, 3},
		{[]string{MonitorConn, MonitorKCert, MonitorCycleFree}, 2, forestOnly, 2, 2},
		{[]string{MonitorCycleFree, MonitorKCert}, 3, forestOnly, 3, 3},
		// The forest-queries benchmark workload.
		{[]string{MonitorConn, MonitorBipartite, MonitorKCert, MonitorCycleFree}, 2, []string{SlotForest, MonitorBipartite}, 2, 3},
		// Bipartite alone still gets the forest that holds c(G).
		{[]string{MonitorBipartite}, 2, []string{SlotForest, MonitorBipartite}, 1, 2},
		{[]string{MonitorMSFWeight, MonitorBipartite}, 2, []string{MonitorMSFWeight, SlotForest, MonitorBipartite}, 1, 2},
	}
	for ci, tc := range cases {
		t.Run(fmt.Sprintf("%v/K=%d", tc.monitors, tc.k), func(t *testing.T) {
			wm, err := NewWindowManager(WindowConfig{
				N: n, Seed: uint64(ci + 1), Monitors: tc.monitors, MaxArrivals: window,
				Monitor: MonitorConfig{K: tc.k},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := wm.mux.slotNames(); !slices.Equal(got, tc.slots) {
				t.Fatalf("slots %v, want %v", got, tc.slots)
			}
			if got := wm.Monitors(); !slices.Equal(got, tc.monitors) {
				t.Fatalf("Monitors() = %v, want the configured %v", got, tc.monitors)
			}
			if got := forestOrder(wm); got != tc.order {
				t.Fatalf("forest order %d, want %d", got, tc.order)
			}
			if got := engines(wm); got != tc.engines {
				t.Fatalf("%d core.BatchMSF instances outside msfweight, want %d", got, tc.engines)
			}
			has := func(name string) bool { return slices.Contains(tc.monitors, name) }
			r := rand.New(rand.NewSource(int64(100 + ci)))
			var live []Edge
			for op := 0; op < ops; op++ {
				batch := forestBatch(r, n, live)
				live = append(live, batch...)
				if len(live) > window {
					live = live[len(live)-window:]
				}
				if err := wm.Apply(batch); err != nil {
					t.Fatal(err)
				}
				checkForestViews(t, fmt.Sprintf("op %d", op), wm, has, tc.k, n, live)
			}
		})
	}
}

// forestBatch draws 1–5 edges, a third of them parallel to a live edge or
// to an earlier edge of the same batch.
func forestBatch(r *rand.Rand, n int, live []Edge) []Edge {
	batch := make([]Edge, 1+r.Intn(5))
	for i := range batch {
		if len(live)+i > 0 && r.Intn(3) == 0 {
			if j := r.Intn(len(live) + i); j < len(live) {
				batch[i] = live[j]
			} else {
				batch[i] = batch[j-len(live)]
			}
			continue
		}
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		for v == u {
			v = int32(r.Intn(n))
		}
		batch[i] = Edge{U: u, V: v}
	}
	return batch
}

func checkForestViews(t *testing.T, tag string, wm *WindowManager, has func(string) bool, k, n int, live []Edge) {
	t.Helper()
	uf := unionfind.New(n)
	for _, e := range live {
		uf.Union(e.U, e.V)
	}
	comps := uf.NumComponents()
	sum := wm.QuerySummary()
	noMonitor := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrNoMonitor) {
			t.Fatalf("%s: %s on a window without it: err=%v, want ErrNoMonitor", tag, what, err)
		}
	}

	if has(MonitorConn) {
		for u := int32(0); u < int32(n); u++ {
			for v := int32(0); v < int32(n); v++ {
				got, err := wm.IsConnected(u, v)
				if err != nil {
					t.Fatal(err)
				}
				if want := uf.Connected(u, v); got != want {
					t.Fatalf("%s: connected(%d,%d) = %v, want %v", tag, u, v, got, want)
				}
			}
		}
		got, err := wm.NumComponents()
		if err != nil {
			t.Fatal(err)
		}
		if got != comps || sum.Components == nil || *sum.Components != comps {
			t.Fatalf("%s: components %d (summary %v), want %d", tag, got, sum.Components, comps)
		}
	} else {
		_, err := wm.IsConnected(0, 1)
		noMonitor("connected", err)
		_, err = wm.NumComponents()
		noMonitor("components", err)
		if sum.Components != nil {
			t.Fatalf("%s: summary carries components without conn", tag)
		}
	}

	if has(MonitorCycleFree) {
		want := len(live) > n-comps
		got, err := wm.HasCycle()
		if err != nil {
			t.Fatal(err)
		}
		if got != want || sum.HasCycle == nil || *sum.HasCycle != want {
			t.Fatalf("%s: cycle %v (summary %v), want %v with %d live edges and %d components",
				tag, got, sum.HasCycle, want, len(live), comps)
		}
	} else {
		_, err := wm.HasCycle()
		noMonitor("cycle", err)
		if sum.HasCycle != nil {
			t.Fatalf("%s: summary carries cycle without cyclefree", tag)
		}
	}

	if has(MonitorBipartite) {
		want := twoColourable(n, live)
		got, err := wm.IsBipartite()
		if err != nil {
			t.Fatal(err)
		}
		if got != want || sum.Bipartite == nil || *sum.Bipartite != want {
			t.Fatalf("%s: bipartite %v (summary %v), want %v", tag, got, sum.Bipartite, want)
		}
	} else {
		_, err := wm.IsBipartite()
		noMonitor("bipartite", err)
		if sum.Bipartite != nil {
			t.Fatalf("%s: summary carries bipartite without bipartite", tag)
		}
	}

	if has(MonitorKCert) {
		size, conn, err := wm.KCertInfo()
		if err != nil {
			t.Fatal(err)
		}
		raw := make([]wgraph.Edge, len(live))
		for i, e := range live {
			raw[i] = wgraph.Edge{U: e.U, V: e.V}
		}
		if want := int(min(int64(k), mincut.EdgeConnectivity(n, raw))); conn != want {
			t.Fatalf("%s: min(K, λ) = %d, want %d", tag, conn, want)
		}
		if size > k*(n-1) {
			t.Fatalf("%s: certificate size %d exceeds K(n-1) = %d", tag, size, k*(n-1))
		}
		if want := greedyCertificateSize(n, k, live); size != want {
			t.Fatalf("%s: certificate size %d, want %d", tag, size, want)
		}
		if sum.CertificateSize == nil || *sum.CertificateSize != size {
			t.Fatalf("%s: summary kcert_size %v, want %d", tag, sum.CertificateSize, size)
		}
	} else {
		_, _, err := wm.KCertInfo()
		noMonitor("kcert", err)
		if sum.CertificateSize != nil {
			t.Fatalf("%s: summary carries kcert_size without kcert", tag)
		}
	}
}

// greedyCertificateSize returns |F_1| + ... + |F_k| of the maximal
// spanning forest decomposition of the live window: each F_i is taken
// greedily, newest edge first, from what F_1, ..., F_{i-1} leave — the
// most-recent spanning forests the sliding-window certificate keeps.
func greedyCertificateSize(n, k int, live []Edge) int {
	rest := slices.Clone(live)
	slices.Reverse(rest)
	size := 0
	for i := 0; i < k; i++ {
		uf := unionfind.New(n)
		next := rest[:0]
		for _, e := range rest {
			if uf.Union(e.U, e.V) {
				size++
			} else {
				next = append(next, e)
			}
		}
		rest = next
	}
	return size
}

// twoColourable reports whether the graph admits a proper 2-colouring,
// by BFS from every uncoloured vertex.
func twoColourable(n int, edges []Edge) bool {
	adj := make([][]int32, n)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	colour := make([]int8, n) // 0 uncoloured, else ±1
	for s := range colour {
		if colour[s] != 0 {
			continue
		}
		colour[s] = 1
		queue := []int32{int32(s)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				switch colour[v] {
				case 0:
					colour[v] = -colour[u]
					queue = append(queue, v)
				case colour[u]:
					return false
				}
			}
		}
	}
	return true
}

// engines counts the window's core.BatchMSF instances outside msfweight's
// levels: one per forest level and one for the double cover.
func engines(wm *WindowManager) int {
	total := 0
	for _, s := range wm.mux.slots {
		switch m := s.mon.(type) {
		case *forestMonitor:
			total += m.kc.K()
		case *coverMonitor:
			total++
		}
	}
	return total
}

// forestOrder returns the order of the forest slot's certificate, 0 when
// the window has no forest slot.
func forestOrder(wm *WindowManager) int {
	for _, s := range wm.mux.slots {
		if f, ok := s.mon.(*forestMonitor); ok {
			return f.kc.K()
		}
	}
	return 0
}

// TestKCertMinCutLeavesForestUnlocked holds a kcert query inside its
// min-cut and checks that the forest slot stays free meanwhile: an apply
// lands (the summary's kcert_size shows it), and connected, components
// and cycle answer. Once released, the held query returns the size and
// min(K, λ) of the window it copied, from before that apply.
func TestKCertMinCutLeavesForestUnlocked(t *testing.T) {
	inCut, release := make(chan struct{}), make(chan struct{})
	edgeConnectivity = func(n int, edges []wgraph.Edge) int64 {
		close(inCut)
		<-release
		return mincut.EdgeConnectivity(n, edges)
	}
	defer func() { edgeConnectivity = mincut.EdgeConnectivity }()
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock()

	const n, k = 4, 2
	wm, err := NewWindowManager(WindowConfig{
		N: n, Seed: 3, Monitors: []string{MonitorConn, MonitorKCert, MonitorCycleFree},
		Monitor: MonitorConfig{K: k},
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}} // λ = 2
	if err := wm.Apply(slices.Clone(ring)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var size, conn int
	var kerr error
	go func() {
		defer close(done)
		size, conn, kerr = wm.KCertInfo()
	}()
	<-inCut

	chords := []Edge{{U: 0, V: 2}, {U: 1, V: 3}}
	landed := make(chan error, 1)
	go func() { landed <- wm.Apply(slices.Clone(chords)) }()
	select {
	case err := <-landed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the forest apply waited for a kcert query's min-cut")
	}
	if ok, err := wm.IsConnected(0, 2); err != nil || !ok {
		t.Fatalf("IsConnected(0, 2) = %v, %v during the min-cut; want true", ok, err)
	}
	if cc, err := wm.NumComponents(); err != nil || cc != 1 {
		t.Fatalf("NumComponents = %d, %v during the min-cut; want 1", cc, err)
	}
	if hc, err := wm.HasCycle(); err != nil || !hc {
		t.Fatalf("HasCycle = %v, %v during the min-cut; want true", hc, err)
	}
	k4 := append(slices.Clone(ring), chords...)
	if sum := wm.QuerySummary(); sum.CertificateSize == nil || *sum.CertificateSize != greedyCertificateSize(n, k, k4) {
		t.Fatalf("summary kcert_size %v during the min-cut, want %d after the apply", sum.CertificateSize, greedyCertificateSize(n, k, k4))
	}

	unblock()
	<-done
	if want := greedyCertificateSize(n, k, ring); kerr != nil || size != want || conn != 2 {
		t.Fatalf("held KCertInfo = (%d, %d, %v), want the ring's (%d, 2)", size, conn, kerr, want)
	}
}
