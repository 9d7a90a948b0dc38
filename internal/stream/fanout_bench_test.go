package stream

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkFanout measures WindowManager.Apply — the write-lock hold — with
// all five monitors under parallel vs sequential fan-out. The ratio of the
// two is the lock-hold reduction the parallel region buys (≈1 at
// GOMAXPROCS=1, approaching the slowest-monitor share as cores grow).
func BenchmarkFanout(b *testing.B) {
	const (
		n      = 5_000
		window = 20_000
		batch  = 512
	)
	for _, seq := range []bool{false, true} {
		name := "parallel"
		if seq {
			name = "sequential"
		}
		b.Run(name, func(b *testing.B) {
			wm, err := NewWindowManager(WindowConfig{N: n, Seed: 1, MaxArrivals: window})
			if err != nil {
				b.Fatal(err)
			}
			wm.mux.sequential = seq
			r := rand.New(rand.NewSource(2))
			batches := make([][]Edge, 64)
			for i := range batches {
				batches[i] = randomEdges(r, n, batch)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Apply compacts in place but never grows; reusing the
				// pre-generated batches keeps allocation out of the loop.
				wm.Apply(batches[i%len(batches)])
			}
		})
	}
}

// BenchmarkRegistryGet measures the name → window lookup over 32 windows
// under parallel readers — the per-request overhead multi-tenancy adds to
// every HTTP call.
func BenchmarkRegistryGet(b *testing.B) {
	reg := NewRegistry(RegistryConfig{
		Template: ServiceConfig{Window: WindowConfig{N: 16, Monitors: []string{MonitorConn}}},
	})
	defer reg.Close()
	names := make([]string, 32)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i)
		if _, err := reg.Create(names[i], ServiceConfig{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := reg.Get(names[i%len(names)]); !ok {
				b.Fail()
			}
			i++
		}
	})
}
