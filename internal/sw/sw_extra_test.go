package sw

import (
	"testing"
	"testing/quick"

	"repro/internal/parallel"
	"repro/internal/wgraph"
)

// TestKCertEdgeConnectivityUpToK compares the Section 5.4 k-connectivity
// query against brute-force min-cut of the window graph.
func TestKCertEdgeConnectivityUpToK(t *testing.T) {
	const n = 10
	const k = 3
	r := parallel.NewRNG(3)
	c := NewKCert(n, k, 5)
	w := &window{n: n}
	for round := 0; round < 25; round++ {
		batch := randStream(r, n, 2+r.Intn(8))
		clean := batch[:0]
		for _, e := range batch {
			if e.U != e.V {
				clean = append(clean, e)
			}
		}
		c.BatchInsert(clean)
		w.insert(clean, nil)
		d := r.Intn(6)
		c.BatchExpire(d)
		w.expire(d)
		got := c.EdgeConnectivityUpToK()
		want := bruteMinCut(n, w.live())
		if want > k {
			want = k
		}
		if got != want {
			t.Fatalf("round %d: connectivity %d want %d", round, got, want)
		}
	}
}

// bruteMinCut enumerates bipartitions (n <= 16) counting crossing edges.
func bruteMinCut(n int, edges []StreamEdge) int {
	best := 1 << 30
	for mask := 1; mask < (1<<n)-1; mask++ {
		c := 0
		for _, e := range edges {
			if (mask>>e.U)&1 != (mask>>e.V)&1 {
				c++
			}
		}
		if c < best {
			best = c
		}
	}
	if best == 1<<30 {
		return 0
	}
	return best
}

// TestQuickWindowInterleavings drives arbitrary interleavings of inserts
// and expirations from quick-generated scripts, checking eager connectivity
// and component counts against the brute-force window at every step.
func TestQuickWindowInterleavings(t *testing.T) {
	f := func(script []uint16) bool {
		const n = 16
		c := NewConnEager(n, 9)
		w := &window{n: n}
		i := 0
		for i < len(script) {
			op := script[i] % 4
			i++
			switch op {
			case 0, 1, 2: // insert a small batch
				var batch []StreamEdge
				for j := 0; j < int(op)+1 && i+1 < len(script); j++ {
					u := int32(script[i] % n)
					v := int32(script[i+1] % n)
					i += 2
					if u != v {
						batch = append(batch, StreamEdge{U: u, V: v})
					}
				}
				c.BatchInsert(batch)
				w.insert(batch, nil)
			case 3: // expire
				if i < len(script) {
					d := int(script[i] % 8)
					i++
					c.BatchExpire(d)
					w.expire(d)
				}
			}
			uf := w.uf()
			if c.NumComponents() != uf.NumComponents() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowLenAccounting(t *testing.T) {
	c := NewConn(4, 1)
	if c.WindowLen() != 0 {
		t.Fatal("fresh window nonempty")
	}
	c.BatchInsert([]StreamEdge{{0, 1}, {1, 2}, {2, 3}})
	if c.WindowLen() != 3 {
		t.Fatalf("len=%d", c.WindowLen())
	}
	c.BatchExpire(2)
	if c.WindowLen() != 1 {
		t.Fatalf("len=%d", c.WindowLen())
	}
	c.BatchExpire(100)
	if c.WindowLen() != 0 {
		t.Fatalf("over-expire: len=%d", c.WindowLen())
	}
}

func TestConnEagerForestEdgesOrdered(t *testing.T) {
	c := NewConnEager(5, 3)
	c.BatchInsert([]StreamEdge{{0, 1}, {1, 2}, {3, 4}})
	var taus []int64
	c.ForestEdges(func(e wgraph.Edge) bool {
		taus = append(taus, int64(e.ID))
		return true
	})
	if len(taus) != 3 {
		t.Fatalf("forest=%v", taus)
	}
	for i := 1; i < len(taus); i++ {
		if taus[i-1] >= taus[i] {
			t.Fatalf("not in arrival order: %v", taus)
		}
	}
}

func TestKCertLevelSizes(t *testing.T) {
	c := NewKCert(4, 2, 7)
	// Two parallel edges: the second lands in F_2.
	c.BatchInsert([]StreamEdge{{0, 1}, {0, 1}})
	if c.LevelSize(0) != 1 || c.LevelSize(1) != 1 {
		t.Fatalf("levels: %d %d", c.LevelSize(0), c.LevelSize(1))
	}
	if !c.Contains(1) || !c.Contains(2) || c.Contains(3) {
		t.Fatal("Contains wrong")
	}
	// Expire the first arrival: F_1 loses its edge; F_2 keeps the newer one.
	c.BatchExpire(1)
	if c.Contains(1) {
		t.Fatal("expired arrival still contained")
	}
	if c.Size() != 1 {
		t.Fatalf("size=%d", c.Size())
	}
}

// TestKCertHasCycleNeedsOrderTwo pins that an order-1 certificate, which
// keeps no F_2, refuses to answer HasCycle instead of reporting "no cycle".
func TestKCertHasCycleNeedsOrderTwo(t *testing.T) {
	c := NewKCert(3, 1, 1)
	c.BatchInsert([]StreamEdge{{0, 1}, {1, 2}, {2, 0}})
	defer func() {
		if recover() == nil {
			t.Fatal("HasCycle on an order-1 certificate did not panic")
		}
	}()
	c.HasCycle()
}

func TestBipartiteSelfLoopStream(t *testing.T) {
	// A self-loop is an odd cycle: the double cover maps (v,v) to two
	// (v1,v2) edges, merging the covers — non-bipartite, as it must be.
	b := NewBipartite(3, 5)
	b.BatchInsert([]StreamEdge{{1, 1}})
	if b.IsBipartite() {
		t.Fatal("self-loop window should be non-bipartite")
	}
	b.BatchExpire(1)
	if !b.IsBipartite() {
		t.Fatal("empty window should be bipartite")
	}
}

func TestApproxMSFDrainAndRefill(t *testing.T) {
	a := NewApproxMSF(6, 0.5, 100, 3)
	a.BatchInsert([]WeightedStreamEdge{{0, 1, 10}, {1, 2, 20}, {2, 3, 30}})
	if a.Weight() <= 0 {
		t.Fatal("weight should be positive")
	}
	a.BatchExpire(3)
	if a.Weight() != 0 {
		t.Fatalf("drained weight=%v", a.Weight())
	}
	a.BatchInsert([]WeightedStreamEdge{{4, 5, 7}})
	if a.Weight() < 7 || a.Weight() > 7*1.5+1e-9 {
		t.Fatalf("refilled weight=%v", a.Weight())
	}
}

// TestSlidingConnectivityLongRun is an endurance run: 500 rounds of mixed
// insert/expire with spot checks, catching slow state corruption.
func TestSlidingConnectivityLongRun(t *testing.T) {
	const n = 30
	r := parallel.NewRNG(2024)
	c := NewConnEager(n, 55)
	w := &window{n: n}
	for round := 0; round < 500; round++ {
		batch := randStream(r, n, 1+r.Intn(5))
		c.BatchInsert(batch)
		w.insert(batch, nil)
		d := r.Intn(6)
		c.BatchExpire(d)
		w.expire(d)
		if round%25 == 0 {
			uf := w.uf()
			if c.NumComponents() != uf.NumComponents() {
				t.Fatalf("round %d: components %d want %d", round, c.NumComponents(), uf.NumComponents())
			}
			for q := 0; q < 10; q++ {
				u, v := int32(r.Intn(n)), int32(r.Intn(n))
				if c.IsConnected(u, v) != uf.Connected(u, v) {
					t.Fatalf("round %d: connectivity (%d,%d)", round, u, v)
				}
			}
		}
	}
}
