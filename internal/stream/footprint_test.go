package stream

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// heapInUse returns the heap in use after two collections.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestWindowHeapFootprint pins the heap an all-five window holds at
// n = 10⁴ after 6,144 arrivals in 512-edge batches, with no expiry. Its
// engines (the forest slot's two forests, the double cover and every kept
// msfweight level) pay for the vertices their forests touch, not for n.
// Engines sized to n held 122.9 MB here with weights U[1, 2¹⁰] and
// 131.7 MB with U[1, 2²⁰], though most of msfweight's ~30 kept levels
// touch a minority of the vertices; the window now holds about 44 MB. The
// bounds sit near half of the former figures.
func TestWindowHeapFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	const n, batch, arrivals = 10_000, 512, 6144
	for _, tc := range []struct {
		maxW  int64
		bound uint64 // bytes
	}{{1 << 10, 64 << 20}, {1 << 20, 76 << 20}} {
		before := heapInUse()
		wm, err := NewWindowManager(WindowConfig{N: n, Seed: 1, Monitor: MonitorConfig{MaxWeight: tc.maxW}})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(1))
		for range arrivals / batch {
			b := randomEdges(r, n, batch)
			for i := range b {
				b[i].W = 1 + r.Int63n(tc.maxW)
			}
			wm.Apply(b)
		}
		held := heapInUse() - before
		levels := wm.mux.byName[MonitorMSFWeight].mon.(*msfWeightMonitor).a.LiveLevels()
		runtime.KeepAlive(wm)
		t.Logf("weights U[1, %d]: %.1f MB of heap, %d kept levels", tc.maxW, float64(held)/(1<<20), levels)
		if held > tc.bound {
			t.Errorf("weights U[1, %d]: the window holds %.1f MB of heap, bound %d MB", tc.maxW, float64(held)/(1<<20), tc.bound>>20)
		}
	}
}

// TestLiveRingFootprint pins the live ring of a time-only window: it grows
// by doubling, so it stays below twice the peak number of unexpired
// arrivals. (A count-bounded ring holds exactly W slots;
// TestLiveRingKeptOnlyWhenRead pins that.)
func TestLiveRingFootprint(t *testing.T) {
	const n, batch, batches = 1000, 512, 60
	r := rand.New(rand.NewSource(5))
	clock := NewFakeClock(time.Unix(1_700_000_000, 0))
	wm, err := NewWindowManager(WindowConfig{N: n, Seed: 1, MaxAge: time.Minute, Clock: clock, Monitors: []string{MonitorConn}})
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for range batches {
		clock.Advance(time.Duration(r.Intn(6)) * time.Second)
		b := randomEdges(r, n, batch)
		for i := range b {
			b[i].T = clock.Now()
		}
		wm.Apply(b)
		peak = max(peak, wm.live.Len())
	}
	if got := wm.live.Cap(); got >= 2*peak {
		t.Fatalf("time-bounded ring holds %d slots for a peak of %d edges", got, peak)
	}
}
