package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
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
// newest-first greedy decomposition for the certificate's size. The
// K <= 2 kcert cases then replay bridge-heavy connected windows
// (bridgeWindows), where min(K, λ) comes from a bridge search over F_1 ∪
// F_2. It also pins the fan-out layout: slot names in order, the forest's
// order, and the core.BatchMSF instances outside msfweight's levels (one
// per forest level, one for the double cover).
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
			newWindow := func() *WindowManager {
				wm, err := NewWindowManager(WindowConfig{
					N: n, Seed: uint64(ci + 1), Monitors: tc.monitors, MaxArrivals: window,
					Monitor: MonitorConfig{K: tc.k},
				})
				if err != nil {
					t.Fatal(err)
				}
				return wm
			}
			wm := newWindow()
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
			if !has(MonitorKCert) || tc.k > 2 {
				return
			}
			for _, bw := range bridgeWindows(n) {
				wm := newWindow()
				if err := wm.Apply(slices.Clone(bw.edges)); err != nil {
					t.Fatal(err)
				}
				checkForestViews(t, bw.name, wm, has, tc.k, n, bw.edges)
			}
		})
	}
}

// bridgeWindows returns connected windows on n >= 6 vertices, at most 16
// edges each, whose edge connectivity turns on bridges: a path (every edge
// a bridge); two cycles joined by one edge (λ = 1); and two cycles joined
// by two parallel edges, the newer of which F_1 keeps while F_2 keeps its
// copy (λ = 2, though F_1 alone is a tree, all bridges, and a search keyed
// by endpoints would merge the pair into one bridge).
func bridgeWindows(n int) []struct {
	name  string
	edges []Edge
} {
	path := func(from, to int) (es []Edge) {
		for v := from; v < to; v++ {
			es = append(es, Edge{U: int32(v), V: int32(v + 1)})
		}
		return es
	}
	cycle := func(from, to int) []Edge {
		return append(path(from, to), Edge{U: int32(to), V: int32(from)})
	}
	mid := n / 2
	twoCycles := append(cycle(0, mid-1), cycle(mid, n-1)...)
	join := Edge{U: int32(mid - 1), V: int32(mid)}
	return []struct {
		name  string
		edges []Edge
	}{
		{"path", path(0, n-1)},
		{"two cycles joined by one edge", append(slices.Clone(twoCycles), join)},
		{"two cycles joined by parallel edges", append(slices.Clone(twoCycles), join, join)},
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
	edgeConnectivity = func(n int, edges []wgraph.Edge, k int) int {
		close(inCut)
		<-release
		return mincut.EdgeConnectivityUpTo(n, edges, k)
	}
	defer func() { edgeConnectivity = mincut.EdgeConnectivityUpTo }()
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

// TestKCertConnectedAtScale pins a kcert query on a connected window at
// swserver's default N = 10⁵ and K = 2: F_1 ∪ F_2 copied under the read
// lock and a bridge search outside it answer within a second and allocate
// O(N) bytes. The dense min-cut it replaces asked for an N × N matrix of
// 8·10¹⁰ bytes.
func TestKCertConnectedAtScale(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the query past its time bound")
	}
	const n, k, batch = 100_000, 2, 4096
	wm, err := NewWindowManager(WindowConfig{N: n, Seed: 7, Monitors: []string{MonitorKCert}, Monitor: MonitorConfig{K: k}})
	if err != nil {
		t.Fatal(err)
	}
	// A cycle through every vertex, in random order, plus as many random
	// chords: connected, with λ = 2 and no bridge.
	r := rand.New(rand.NewSource(7))
	perm := r.Perm(n)
	var edges []Edge
	for i, v := range perm {
		edges = append(edges, Edge{U: int32(v), V: int32(perm[(i+1)%n])})
	}
	edges = append(edges, randomEdges(r, n, n)...)
	for rest := edges; len(rest) > 0; {
		b := slices.Clone(rest[:min(batch, len(rest))])
		rest = rest[len(b):]
		if err := wm.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	size, conn, err := wm.KCertInfo()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("N = %d: kcert answered (%d, %d) in %v, allocating %.1f MB", n, size, conn, elapsed, float64(allocated)/(1<<20))
	if want := greedyCertificateSize(n, k, edges); err != nil || conn != k || size != want {
		t.Fatalf("KCertInfo = (%d, %d, %v), want (%d, %d)", size, conn, err, want, k)
	}
	if elapsed > time.Second {
		t.Errorf("kcert query took %v at N = %d", elapsed, n)
	}
	if allocated > 1000*n {
		t.Errorf("kcert query allocated %d bytes at N = %d", allocated, n)
	}
}
