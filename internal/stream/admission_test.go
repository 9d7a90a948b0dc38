package stream

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// blockingSink returns a sink that parks on release after signalling
// entered (buffered, so only the first call signals without blocking).
func blockingSink(entered chan<- struct{}, release <-chan struct{}) func([]Edge) error {
	return func([]Edge) error {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return nil
	}
}

func wantAdmission(t *testing.T, err error, reason string) *AdmissionError {
	t.Helper()
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("err = %v, want AdmissionError", err)
	}
	if adm.Reason != reason {
		t.Fatalf("reject reason = %q, want %q", adm.Reason, reason)
	}
	if adm.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", adm.RetryAfter)
	}
	return adm
}

// TestIngesterEdgeBudgetReject fills the queue behind a wedged sink and
// checks the edge budget rejects instead of parking, without disturbing
// what is already queued.
func TestIngesterEdgeBudgetReject(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	g := NewIngester(IngesterConfig{MaxBatch: 1, MaxDelay: time.Hour, QueueLen: 64, MaxQueueEdges: 8},
		blockingSink(entered, release))
	defer func() { close(release); g.Close() }()

	// First submission is absorbed and wedges the sink; its edge no longer
	// counts against the queue budget (it is being applied, not queued).
	if err := g.Submit(Edge{U: 1, V: 2}); err != nil {
		t.Fatal(err)
	}
	<-entered
	// Two four-edge submissions fill the budget exactly.
	for i := 0; i < 2; i++ {
		if err := g.SubmitBatch(make([]Edge, 4)); err != nil {
			t.Fatalf("submission %d within budget rejected: %v", i, err)
		}
	}
	err := g.SubmitBatch(make([]Edge, 4))
	wantAdmission(t, err, "edges")
	if subs, edges := g.RejectStats(); subs != 1 || edges != 4 {
		t.Fatalf("RejectStats = (%d, %d), want (1, 4)", subs, edges)
	}
	// The rejected submission must not have perturbed the queue gauges.
	if _, qEdges := g.QueueDepth(); qEdges != 8 {
		t.Fatalf("queued edges after reject = %d, want 8", qEdges)
	}
}

// TestIngesterOversizedSubmissionRejects: a single submission larger than
// the edge budget is rejected deterministically, even on an idle queue —
// it could never be admitted, so failing fast beats parking forever.
func TestIngesterOversizedSubmissionRejects(t *testing.T) {
	g := NewIngester(IngesterConfig{MaxBatch: 4, MaxQueueEdges: 8}, func([]Edge) error { return nil })
	defer g.Close()
	wantAdmission(t, g.SubmitBatch(make([]Edge, 9)), "edges")
	if _, qEdges := g.QueueDepth(); qEdges != 0 {
		t.Fatalf("queued edges after reject = %d, want 0", qEdges)
	}
}

// TestIngesterRateLimit drives the token bucket with a FakeClock: a burst
// up to BurstEdges is admitted, the next edge is rejected with a computed
// Retry-After, and a second's refill admits again.
func TestIngesterRateLimit(t *testing.T) {
	fc := NewFakeClock(time.Unix(0, 0))
	g := NewIngester(IngesterConfig{MaxBatch: 64, MaxDelay: time.Hour, Clock: fc, MaxEdgesPerSec: 10},
		func([]Edge) error { return nil })
	defer g.Close()

	if err := g.SubmitBatch(make([]Edge, 10)); err != nil {
		t.Fatalf("burst within bucket rejected: %v", err)
	}
	adm := wantAdmission(t, g.Submit(Edge{U: 1, V: 2}), "rate")
	// One token refills in 100ms; the hint must say so, not the fixed
	// budget backoff.
	if adm.RetryAfter > 150*time.Millisecond {
		t.Fatalf("rate RetryAfter = %v, want ~100ms", adm.RetryAfter)
	}
	fc.Advance(time.Second)
	if err := g.SubmitBatch(make([]Edge, 10)); err != nil {
		t.Fatalf("refilled bucket rejected: %v", err)
	}
}

// TestIngesterBudgetRejectRefundsRate: a budget rejection must refund the
// rate tokens its submission took, so being over the queue budget does not
// also burn rate capacity.
func TestIngesterBudgetRejectRefundsRate(t *testing.T) {
	fc := NewFakeClock(time.Unix(0, 0))
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	g := NewIngester(IngesterConfig{
		MaxBatch: 1, MaxDelay: time.Hour, Clock: fc, QueueLen: 64,
		MaxEdgesPerSec: 10, MaxQueueEdges: 4,
	}, blockingSink(entered, release))
	defer func() { close(release); g.Close() }()

	if err := g.Submit(Edge{U: 1, V: 2}); err != nil { // wedge the sink
		t.Fatal(err)
	}
	<-entered
	if err := g.SubmitBatch(make([]Edge, 4)); err != nil { // budget now full
		t.Fatal(err)
	}
	// 5 tokens remain. This submission passes the rate check, then the
	// edge budget rejects it — and refunds the 5 tokens.
	wantAdmission(t, g.SubmitBatch(make([]Edge, 5)), "edges")
	// Without the refund only 5 tokens would remain and this would be
	// rejected by rate; with it, 10 are available and the edge budget
	// (4 queued of 4) rejects again — proving the refund happened.
	wantAdmission(t, g.SubmitBatch(make([]Edge, 4)), "edges")
}

// TestIngesterDurableAck: submitOwnedDurable returns only after the flush
// and the durability escalator ran, and propagates both sink and syncer
// failures.
func TestIngesterDurableAck(t *testing.T) {
	t.Run("success", func(t *testing.T) {
		var mu sync.Mutex
		var sunk, synced int
		g := NewIngester(IngesterConfig{MaxBatch: 4, MaxDelay: time.Hour}, func(b []Edge) error {
			mu.Lock()
			sunk += len(b)
			mu.Unlock()
			return nil
		})
		defer g.Close()
		g.setDurableSync(func() error {
			mu.Lock()
			synced++
			mu.Unlock()
			return nil
		})
		if !g.durable() {
			t.Fatal("durable() = false with a syncer attached")
		}
		// Exactly MaxBatch edges: the threshold flush fires immediately, so
		// the ack cannot be waiting on a deadline.
		if err := g.submitOwnedDurable(context.Background(), make([]Edge, 4)); err != nil {
			t.Fatalf("durable submit: %v", err)
		}
		mu.Lock()
		defer mu.Unlock()
		if sunk != 4 {
			t.Fatalf("ack delivered before the sink ran: sunk = %d", sunk)
		}
		if synced == 0 {
			t.Fatal("ack delivered without the durability escalator running")
		}
	})
	t.Run("sink error", func(t *testing.T) {
		sinkErr := errors.New("append failed")
		g := NewIngester(IngesterConfig{MaxBatch: 4, MaxDelay: time.Hour},
			func([]Edge) error { return sinkErr })
		defer g.Close()
		if err := g.submitOwnedDurable(context.Background(), make([]Edge, 4)); !errors.Is(err, sinkErr) {
			t.Fatalf("durable submit = %v, want %v", err, sinkErr)
		}
	})
	t.Run("syncer error", func(t *testing.T) {
		syncErr := errors.New("fsync failed")
		g := NewIngester(IngesterConfig{MaxBatch: 4, MaxDelay: time.Hour},
			func([]Edge) error { return nil })
		defer g.Close()
		g.setDurableSync(func() error { return syncErr })
		if err := g.submitOwnedDurable(context.Background(), make([]Edge, 4)); !errors.Is(err, syncErr) {
			t.Fatalf("durable submit = %v, want %v", err, syncErr)
		}
	})
	t.Run("split submission acks on last edge", func(t *testing.T) {
		// 10 edges over MaxBatch 4 flush as 4+4+2; the ack must arrive only
		// once the final remainder is applied (the manual Flush pushes it).
		var mu sync.Mutex
		var sunk int
		g := NewIngester(IngesterConfig{MaxBatch: 4, MaxDelay: time.Hour}, func(b []Edge) error {
			mu.Lock()
			sunk += len(b)
			mu.Unlock()
			return nil
		})
		defer g.Close()
		done := make(chan error, 1)
		go func() { done <- g.submitOwnedDurable(context.Background(), make([]Edge, 10)) }()
		// The two threshold flushes cover 8 edges; the ack waits on the
		// remainder.
		select {
		case err := <-done:
			t.Fatalf("ack before the remainder flushed: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
		g.Flush()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("durable submit: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("ack never delivered after the final flush")
		}
		mu.Lock()
		defer mu.Unlock()
		if sunk != 10 {
			t.Fatalf("sunk %d edges, want 10", sunk)
		}
	})
}

// TestIngesterCloseUnparksSubmitters is the shutdown-latency regression
// test: producers parked on a full queue must unpark with ErrClosed as
// soon as Close begins — even while the sink is still wedged mid-flush —
// instead of holding Close hostage to the backlog drain.
func TestIngesterCloseUnparksSubmitters(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	g := NewIngester(IngesterConfig{MaxBatch: 1, MaxDelay: time.Hour, QueueLen: 1},
		blockingSink(entered, release))

	if err := g.Submit(Edge{U: 1, V: 2}); err != nil { // absorbed; wedges the sink
		t.Fatal(err)
	}
	<-entered
	if err := g.Submit(Edge{U: 2, V: 3}); err != nil { // fills the 1-slot queue
		t.Fatal(err)
	}
	const parked = 4
	errs := make(chan error, parked)
	for i := 0; i < parked; i++ {
		go func() { errs <- g.Submit(Edge{U: 3, V: 4}) }()
	}
	// Let the submitters reach the channel send and park.
	time.Sleep(50 * time.Millisecond)

	closed := make(chan struct{})
	go func() { g.Close(); close(closed) }()
	// The parked submitters must resolve promptly — before the sink is
	// released, so the only thing that can have unparked them is abort.
	for i := 0; i < parked; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("parked submit = %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("submitter still parked after Close began")
		}
	}
	select {
	case <-closed:
		t.Fatal("Close returned with the sink still wedged mid-flush")
	default:
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not complete after the sink was released")
	}
	// The abandoned sends rolled their gauges back; only the absorbed and
	// drained submissions were real.
	if qBatches, qEdges := g.QueueDepth(); qBatches != 0 || qEdges != 0 {
		t.Fatalf("queue gauges after Close = (%d, %d), want (0, 0)", qBatches, qEdges)
	}
	if edges, _ := g.Stats(); edges != 2 {
		t.Fatalf("accepted edges = %d, want 2 (the parked submissions were rejected)", edges)
	}
}

// TestRegistryClosePromptWithParkedSubmitters: the same property one layer
// up — Registry.Close with producers parked on a full ingest queue
// completes promptly (the real sink applies and finishes, so this bounds
// end-to-end shutdown, not just the ingester's part).
func TestRegistryClosePromptWithParkedSubmitters(t *testing.T) {
	reg := NewRegistry(RegistryConfig{
		Template: ServiceConfig{
			Window: WindowConfig{N: 64},
			Ingest: IngesterConfig{MaxBatch: 1 << 16, MaxDelay: time.Hour, QueueLen: 1},
		},
	})
	svc, err := reg.Create("w", reg.Template())
	if err != nil {
		t.Fatal(err)
	}
	// With MaxDelay an hour and the threshold unreachable, nothing flushes:
	// submissions pile into the 1-slot queue and the rest park.
	const parked = 8
	var wg sync.WaitGroup
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := svc.Submit([]Edge{{U: int32(i), V: int32(i + 1)}})
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("parked submit = %v, want nil or ErrClosed", err)
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	closed := make(chan struct{})
	go func() { reg.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Registry.Close blocked behind parked submitters")
	}
	wg.Wait()
}

// TestIngesterSubmitContextCancel: a submission parked on a full queue
// unparks with the context's error and rolls its admission charges back.
func TestIngesterSubmitContextCancel(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	g := NewIngester(IngesterConfig{MaxBatch: 1, MaxDelay: time.Hour, QueueLen: 1},
		blockingSink(entered, release))
	defer func() { close(release); g.Close() }()

	if err := g.Submit(Edge{U: 1, V: 2}); err != nil { // wedge the sink
		t.Fatal(err)
	}
	<-entered
	if err := g.Submit(Edge{U: 2, V: 3}); err != nil { // fill the queue
		t.Fatal(err)
	}
	qBatches, qEdges := g.QueueDepth()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := g.SubmitBatchContext(ctx, make([]Edge, 3)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("parked submit = %v, want DeadlineExceeded", err)
	}
	if b, e := g.QueueDepth(); b != qBatches || e != qEdges {
		t.Fatalf("queue gauges after cancel = (%d, %d), want (%d, %d)", b, e, qBatches, qEdges)
	}
}
