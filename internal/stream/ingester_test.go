package stream

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestIngesterFlushAllocs pins the flush loop as allocation-free in
// steady state: pending and the flush batch buffer are both reused (the
// sink must not retain the slice), so the only per-submission allocation
// left is SubmitBatch's defensive copy. Measured process-wide via
// MemStats because the flush loop runs on the background goroutine,
// outside AllocsPerRun's reach.
func TestIngesterFlushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the plain build asserts allocs")
	}
	g := NewIngester(IngesterConfig{MaxBatch: 256, MaxDelay: time.Hour}, func([]Edge) error { return nil })
	defer g.Close()
	batch := make([]Edge, 256) // exact multiples: no remainder, no deadline timer
	for i := 0; i < 8; i++ {   // warmup: grow pending and the flush buffer
		if err := g.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	g.Flush()
	runtime.GC()
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	const rounds = 200
	for i := 0; i < rounds; i++ {
		if err := g.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	g.Flush()
	runtime.ReadMemStats(&m2)
	perRound := float64(m2.Mallocs-m1.Mallocs) / rounds
	// 1 alloc/round is SubmitBatch's documented copy; allow a little
	// scheduler noise on top. Before batch recycling this path allocated
	// a fresh slice header + backing array per flushed batch and re-grew
	// pending continuously.
	if perRound > 3 {
		t.Fatalf("flush loop allocates %.2f objects per 256-edge submission, want ~1 (batch buffers not recycled?)", perRound)
	}
}

// BenchmarkIngesterFlush measures the submit→coalesce→flush pipeline with
// a no-op sink: the re-batching overhead the service adds on top of the
// monitor applies. allocs/op is the number to watch (see
// TestIngesterFlushAllocs).
func BenchmarkIngesterFlush(b *testing.B) {
	g := NewIngester(IngesterConfig{MaxBatch: 512, MaxDelay: time.Hour}, func([]Edge) error { return nil })
	defer g.Close()
	batch := make([]Edge, 512)
	b.SetBytes(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.SubmitBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	g.Flush()
}

// batchSink records flushed batches thread-safely.
type batchSink struct {
	mu      sync.Mutex
	batches [][]Edge
	notify  chan int // batch sizes, for blocking waits
}

func newBatchSink() *batchSink {
	return &batchSink{notify: make(chan int, 1024)}
}

func (s *batchSink) sink(b []Edge) error {
	// The ingester recycles the batch buffer after the sink returns, so a
	// sink that wants to keep the edges must copy them — same rule the
	// real sink (WindowManager.Apply) follows.
	cp := append([]Edge(nil), b...)
	s.mu.Lock()
	s.batches = append(s.batches, cp)
	s.mu.Unlock()
	s.notify <- len(b)
	return nil
}

func (s *batchSink) sizes() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, len(s.batches))
	for i, b := range s.batches {
		out[i] = len(b)
	}
	return out
}

func (s *batchSink) waitBatch(t *testing.T) int {
	t.Helper()
	select {
	case n := <-s.notify:
		return n
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a flush")
		return 0
	}
}

func TestIngesterCountFlush(t *testing.T) {
	fc := NewFakeClock(time.Unix(0, 0))
	sink := newBatchSink()
	g := NewIngester(IngesterConfig{MaxBatch: 4, MaxDelay: time.Hour, Clock: fc}, sink.sink)
	defer g.Close()

	for i := 0; i < 10; i++ {
		if err := g.Submit(Edge{U: int32(i), V: int32(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := sink.waitBatch(t); n != 4 {
		t.Fatalf("first flush size = %d, want 4", n)
	}
	if n := sink.waitBatch(t); n != 4 {
		t.Fatalf("second flush size = %d, want 4", n)
	}
	// The remaining 2 sit under the count threshold until a manual flush.
	g.Flush()
	if n := sink.waitBatch(t); n != 2 {
		t.Fatalf("flush remainder size = %d, want 2", n)
	}
}

func TestIngesterSplitsOversizedSubmissions(t *testing.T) {
	fc := NewFakeClock(time.Unix(0, 0))
	sink := newBatchSink()
	g := NewIngester(IngesterConfig{MaxBatch: 4, MaxDelay: time.Hour, Clock: fc}, sink.sink)
	defer g.Close()

	edges := make([]Edge, 10)
	for i := range edges {
		edges[i] = Edge{U: int32(i), V: int32(i + 1)}
	}
	if err := g.SubmitBatch(edges); err != nil {
		t.Fatal(err)
	}
	if n := sink.waitBatch(t); n != 4 {
		t.Fatalf("first flush size = %d, want 4", n)
	}
	if n := sink.waitBatch(t); n != 4 {
		t.Fatalf("second flush size = %d, want 4", n)
	}
	g.Flush()
	if n := sink.waitBatch(t); n != 2 {
		t.Fatalf("remainder size = %d, want 2", n)
	}
}

func TestIngesterOneEdgePerBatch(t *testing.T) {
	// MaxBatch=1 must degrade to one-edge batches even for grouped
	// submissions.
	sink := newBatchSink()
	g := NewIngester(IngesterConfig{MaxBatch: 1, MaxDelay: time.Hour}, sink.sink)
	if err := g.SubmitBatch(make([]Edge, 5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if n := sink.waitBatch(t); n != 1 {
			t.Fatalf("batch %d size = %d, want 1", i, n)
		}
	}
	g.Close()
}

func TestIngesterDeadlineFlush(t *testing.T) {
	fc := NewFakeClock(time.Unix(1000, 0))
	sink := newBatchSink()
	g := NewIngester(IngesterConfig{MaxBatch: 100, MaxDelay: 50 * time.Millisecond, Clock: fc}, sink.sink)
	defer g.Close()

	for i := 0; i < 3; i++ {
		if err := g.Submit(Edge{U: int32(i), V: int32(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the loop to arm the deadline timer, then advance past it.
	fc.BlockUntilWaiters(1)
	fc.Advance(49 * time.Millisecond)
	select {
	case n := <-sink.notify:
		t.Fatalf("flushed %d edges before the deadline", n)
	case <-time.After(20 * time.Millisecond):
	}
	fc.Advance(1 * time.Millisecond)
	if n := sink.waitBatch(t); n != 3 {
		t.Fatalf("deadline flush size = %d, want 3", n)
	}

	// A fresh batch arms a fresh deadline.
	if err := g.Submit(Edge{U: 7, V: 8}); err != nil {
		t.Fatal(err)
	}
	fc.BlockUntilWaiters(1)
	fc.Advance(50 * time.Millisecond)
	if n := sink.waitBatch(t); n != 1 {
		t.Fatalf("second deadline flush size = %d, want 1", n)
	}
}

func TestIngesterStampsEventTimes(t *testing.T) {
	start := time.Unix(5000, 0)
	fc := NewFakeClock(start)
	sink := newBatchSink()
	g := NewIngester(IngesterConfig{MaxBatch: 2, MaxDelay: time.Hour, Clock: fc}, sink.sink)
	defer g.Close()

	explicit := start.Add(-time.Minute)
	if err := g.SubmitBatch([]Edge{{U: 0, V: 1, T: explicit}, {U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	sink.waitBatch(t)
	b := sink.batches[0]
	if !b[0].T.Equal(explicit) {
		t.Fatalf("explicit event time overwritten: %v", b[0].T)
	}
	if !b[1].T.Equal(start) {
		t.Fatalf("zero event time not stamped with clock: %v", b[1].T)
	}
}

func TestIngesterCloseFlushesAndRejects(t *testing.T) {
	sink := newBatchSink()
	g := NewIngester(IngesterConfig{MaxBatch: 100, MaxDelay: time.Hour}, sink.sink)
	if err := g.Submit(Edge{U: 1, V: 2}); err != nil {
		t.Fatal(err)
	}
	g.Close()
	if got := sink.sizes(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("close did not flush pending edges: %v", got)
	}
	if err := g.Submit(Edge{U: 3, V: 4}); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	g.Flush() // must not hang after Close
	g.Close() // idempotent
}

func TestIngesterCallerReusesBuffer(t *testing.T) {
	// SubmitBatch copies, so a producer may reuse its buffer immediately;
	// under -race this doubles as the aliasing regression test.
	sink := newBatchSink()
	g := NewIngester(IngesterConfig{MaxBatch: 4, MaxDelay: time.Millisecond}, sink.sink)
	buf := make([]Edge, 2)
	for i := 0; i < 100; i++ {
		buf[0] = Edge{U: int32(i), V: int32(i + 1)}
		buf[1] = Edge{U: int32(i + 1), V: int32(i + 2)}
		if err := g.SubmitBatch(buf); err != nil {
			t.Fatal(err)
		}
	}
	g.Close()
	seen := 0
	for _, b := range sink.sizes() {
		seen += b
	}
	if seen != 200 {
		t.Fatalf("flushed %d edges, want 200", seen)
	}
}

func TestIngesterConcurrentProducers(t *testing.T) {
	const producers, perProducer = 8, 500
	sink := newBatchSink()
	g := NewIngester(IngesterConfig{MaxBatch: 64, MaxDelay: time.Millisecond}, sink.sink)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := g.Submit(Edge{U: int32(p), V: int32(i + producers)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	g.Close()
	total := 0
	for _, n := range sink.sizes() {
		total += n
	}
	if total != producers*perProducer {
		t.Fatalf("flushed %d edges, want %d", total, producers*perProducer)
	}
	edges, batches := g.Stats()
	if edges != producers*perProducer {
		t.Fatalf("stats edges = %d, want %d", edges, producers*perProducer)
	}
	if int(batches) != len(sink.sizes()) {
		t.Fatalf("stats batches = %d, want %d", batches, len(sink.sizes()))
	}
}
