package sw

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/msf"
	"repro/internal/parallel"
	"repro/internal/unionfind"
	"repro/internal/wgraph"
)

// TestApproxMSFLazyLevelsMatchAllLevels pins lazily materialised levels
// against the all-levels reference at every step of insert/expire
// schedules whose weight distributions occupy the buckets differently:
// narrow and wide uniform weights, both point masses, and a shifting
// stream whose heavy burst materialises the high levels before light
// traffic retires them. requireIdentical checks Weight bit for bit,
// NumComponents, every resolved level's forest, and that LiveLevels is
// exactly the number of occupied buckets.
func TestApproxMSFLazyLevelsMatchAllLevels(t *testing.T) {
	const (
		n      = 40
		eps    = 0.25
		maxW   = int64(1 << 20)
		window = 100
		steps  = 60
	)
	uniform := func(hi int64) func(r *rand.Rand, step int) int64 {
		return func(r *rand.Rand, _ int) int64 { return 1 + r.Int63n(hi) }
	}
	dists := []struct {
		name   string
		weight func(r *rand.Rand, step int) int64
	}{
		{"narrow", uniform(1 << 10)},
		{"wide", uniform(maxW)},
		{"all-one", func(*rand.Rand, int) int64 { return 1 }},
		{"all-max", func(*rand.Rand, int) int64 { return maxW }},
		{"shifting", func(r *rand.Rand, step int) int64 {
			if step >= 20 && step < 30 {
				return maxW/2 + r.Int63n(maxW/2) // heavy burst
			}
			return 1 + r.Int63n(64) // light traffic
		}},
	}
	for _, d := range dists {
		t.Run(d.name, func(t *testing.T) {
			a := NewApproxMSF(n, eps, maxW, 5)
			a.SetWorkers(parallel.NewLimiter(2)) // real cross-goroutine levels under -race
			ref := newAllLevels(n, eps, maxW, 5)
			r := rand.New(rand.NewSource(int64(len(d.name))))
			maxLive := 0
			for step := 0; step < steps; step++ {
				batch := make([]WeightedStreamEdge, r.Intn(16))
				for j := range batch {
					batch[j] = WeightedStreamEdge{
						U: int32(r.Intn(n)), V: int32(r.Intn(n)), W: d.weight(r, step),
					}
				}
				a.BatchInsert(batch)
				ref.BatchInsert(batch)
				requireIdentical(t, step, a, ref)
				maxLive = max(maxLive, a.LiveLevels())

				// A count window plus occasional deeper expiries.
				delta := int(ref.tau-ref.tw) - window
				if r.Intn(5) == 0 {
					delta += r.Intn(2 * window)
				}
				a.BatchExpire(delta)
				ref.BatchExpire(delta)
				requireIdentical(t, step, a, ref)
			}
			if d.name == "shifting" && (maxLive < 5 || a.LiveLevels() >= maxLive) {
				t.Fatalf("burst did not materialise and then retire high levels: peak %d, final %d",
					maxLive, a.LiveLevels())
			}
		})
	}
}

// FuzzApproxMSFLevels decodes bytes into a small-n interleaving of weighted
// batch inserts and expiries and checks ApproxMSF after every operation
// against independent oracles: Weight bit for bit against the all-levels
// reference, NumComponents against a union-find over the live window, and
// Weight within a factor in [1, 1+ε] of the Kruskal MSF weight of the
// live window.
//
// Encoding: byte 0 picks n in [2, 17], byte 1 picks ε and maxW; then each
// op byte is an expiry of (op>>1)&15 arrivals when its low bit is set, and
// otherwise a batch of (op>>1)&7 edges of three bytes each — u, v and a
// log-scaled weight.
func FuzzApproxMSFLevels(f *testing.F) {
	f.Add([]byte{5, 0, 6, 1, 2, 3, 4, 5, 6, 7, 8, 9, 3, 14, 0, 1, 200, 9})
	f.Add([]byte{16, 7, 14, 0, 1, 20, 2, 3, 40, 4, 5, 60, 5, 7, 200, 8, 9, 1, 2, 3, 31})
	f.Add([]byte{3, 19, 4, 0, 1, 0, 1, 2, 0, 1, 4, 1, 2, 255, 0, 2, 255, 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0]%16)
		eps := []float64{0.25, 0.5, 1}[data[1]%3]
		maxW := int64(1) << (data[1] / 3 % 21)
		data = data[2:]

		a := NewApproxMSF(n, eps, maxW, 11)
		a.SetWorkers(parallel.NewLimiter(0))
		ref := newAllLevels(n, eps, maxW, 11)
		var live []wgraph.Edge // the window, oldest first; ID = arrival index
		next := wgraph.EdgeID(0)
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			if op&1 == 1 {
				d := int(op>>1) & 15
				a.BatchExpire(d)
				ref.BatchExpire(d)
				live = live[min(d, len(live)):]
			} else {
				k := min(int(op>>1)&7, len(data)/3)
				batch := make([]WeightedStreamEdge, k)
				for j := range batch {
					u, v, x := data[0], data[1], data[2]
					data = data[3:]
					w := min(max(1, (int64(x&15)+1)<<(x>>4)>>2), maxW)
					batch[j] = WeightedStreamEdge{U: int32(int(u) % n), V: int32(int(v) % n), W: w}
					next++
					live = append(live, wgraph.Edge{ID: next, U: batch[j].U, V: batch[j].V, W: w})
				}
				a.BatchInsert(batch)
				ref.BatchInsert(batch)
			}

			got := a.Weight()
			if want := ref.Weight(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Weight %v, all-levels reference %v", got, want)
			}
			uf := unionfind.New(n)
			cc := n
			for _, e := range live {
				if uf.Union(e.U, e.V) {
					cc--
				}
			}
			if a.NumComponents() != cc {
				t.Fatalf("NumComponents %d, union-find over the window %d", a.NumComponents(), cc)
			}
			exact := float64(wgraph.TotalWeight(msf.Kruskal(n, live)))
			if got < exact*(1-1e-12) || got > (1+eps)*exact*(1+1e-12) {
				t.Fatalf("Weight %v outside [%v, %v] (Kruskal %v, eps %v)", got, exact, (1+eps)*exact, exact, eps)
			}
		}
	})
}
