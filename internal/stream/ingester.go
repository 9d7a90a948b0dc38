package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("stream: ingester closed")

// admitReason indexes the fixed admission-rejection label universe.
type admitReason uint8

const (
	admitEdges admitReason = iota // edge budget exceeded
	admitRate                     // per-window rate limit exceeded
	admitReasons
)

var admitReasonNames = [admitReasons]string{"edges", "rate"}

// defaultRetryAfter is the Retry-After hint for budget rejections, where
// (unlike rate rejections) there is no token-bucket arithmetic to predict
// when capacity frees: one second is long enough to shed a synchronized
// retry stampede and short enough that a drained queue is not left idle.
const defaultRetryAfter = time.Second

// AdmissionError is returned by Submit when admission control rejects the
// batch before it touches the queue: the edge budget or the rate limit
// said no. The HTTP layer maps it to 429 with a Retry-After header;
// nothing about the submission was accepted or retained.
type AdmissionError struct {
	// Reason is the rejection cause: "edges" or "rate" — the same
	// universe as the sw_ingest_rejected_total{reason=} label.
	Reason string
	// RetryAfter hints when a retry could succeed. For rate rejections it
	// is computed from the token bucket; for budget rejections it is a
	// fixed backoff.
	RetryAfter time.Duration
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("stream: admission rejected (%s budget), retry after %s", e.Reason, e.RetryAfter)
}

// IngesterConfig tunes the batching pipeline; zero values select defaults.
type IngesterConfig struct {
	// MaxBatch is the batch size target and upper bound (default 512):
	// the pending buffer flushes in MaxBatch-sized batches as soon as it
	// holds that many edges, regardless of how producers grouped their
	// submissions. MaxBatch=1 degenerates to one-edge-per-batch
	// ingestion, the ℓ = 1 end of BenchmarkBatchSizeSweep.
	MaxBatch int
	// MaxDelay flushes the pending buffer this long after its first edge
	// arrived (default 5ms), bounding the batching latency on sparse
	// streams.
	MaxDelay time.Duration
	// QueueLen is the capacity of the producer channel in submissions
	// (default 8×MaxBatch). Producers block when it is full — natural
	// backpressure — unless the edge budget rejects first.
	QueueLen int
	// MaxQueueEdges, when > 0, bounds the edges queued across all pending
	// submissions: a Submit that would push the total past the budget is
	// rejected with an AdmissionError instead of parking. This is the
	// admission bound a deployment should set — QueueLen counts
	// submissions, which says nothing about memory when batch sizes vary.
	MaxQueueEdges int64
	// MaxEdgesPerSec, when > 0, rate-limits admission with a token bucket
	// refilled at this rate; a submission that outruns it is rejected
	// with an AdmissionError whose RetryAfter says when the bucket will
	// cover it.
	MaxEdgesPerSec int
	// BurstEdges is the token-bucket capacity (default MaxEdgesPerSec):
	// the largest instantaneous burst admitted at the rate limit.
	BurstEdges int
	// Clock defaults to RealClock; tests inject FakeClock.
	Clock Clock
}

func (c *IngesterConfig) withDefaults() IngesterConfig {
	out := *c
	if out.MaxBatch <= 0 {
		out.MaxBatch = 512
	}
	if out.MaxDelay <= 0 {
		out.MaxDelay = 5 * time.Millisecond
	}
	if out.QueueLen <= 0 {
		out.QueueLen = 8 * out.MaxBatch
	}
	if out.BurstEdges <= 0 {
		out.BurstEdges = out.MaxEdgesPerSec
	}
	if out.Clock == nil {
		out.Clock = RealClock()
	}
	return out
}

// rateLimiter is a mutex-guarded token bucket over the injected Clock
// (FakeClock drives it deterministically in tests). take admits n edges or
// reports how long until the bucket could cover them — it never partially
// consumes on rejection.
type rateLimiter struct {
	mu     sync.Mutex
	clock  Clock
	rate   float64 // tokens (edges) per second
	burst  float64
	tokens float64
	last   time.Time
}

func newRateLimiter(clock Clock, perSec, burst int) *rateLimiter {
	return &rateLimiter{
		clock:  clock,
		rate:   float64(perSec),
		burst:  float64(burst),
		tokens: float64(burst),
		last:   clock.Now(),
	}
}

func (rl *rateLimiter) take(n int64) time.Duration {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	now := rl.clock.Now()
	if d := now.Sub(rl.last); d > 0 {
		rl.tokens += d.Seconds() * rl.rate
		if rl.tokens > rl.burst {
			rl.tokens = rl.burst
		}
	}
	rl.last = now
	need := float64(n)
	if rl.tokens >= need {
		rl.tokens -= need
		return 0
	}
	wait := time.Duration((need - rl.tokens) / rl.rate * float64(time.Second))
	if wait <= 0 {
		wait = time.Millisecond
	}
	return wait
}

// refund returns tokens taken by an admission that the edge budget then
// rejected, so a budget rejection does not also burn rate.
func (rl *rateLimiter) refund(n int64) {
	rl.mu.Lock()
	rl.tokens += float64(n)
	if rl.tokens > rl.burst {
		rl.tokens = rl.burst
	}
	rl.mu.Unlock()
}

// submission is one producer enqueue: the edges plus the submit-time
// stamp, which the flush goroutine turns into the queue-wait stage of the
// batch lifecycle trace. The stamp reuses the Clock.Now() Submit already
// pays for event-time defaulting, so carrying it costs nothing. enqNS is
// the real wall clock (never the injected Clock — FakeClock time cannot
// be subtracted from the flight recorder's monotonic stage stamps),
// captured only when a flush hook wants it. admitNS is the admission-check
// time the submission paid before its enqueue. done, when non-nil, is the
// durable-ack channel: the flush goroutine delivers exactly one error (nil
// = the submission's edges are applied AND the WAL append+fsync completed)
// after the flush covering the submission's last edge.
type submission struct {
	edges   []Edge
	enq     time.Time
	enqNS   int64
	admitNS int64
	done    chan error
}

// submark says "pending edges below index upto arrived no later than
// enqNS". The flush goroutine keeps one mark per absorbed submission in a
// ring parallel to pending, so each flush knows the enqueue time of its
// oldest edge — the start of the batch's queue-wait span — without
// per-edge stamps. The mark also carries the submission's durable-ack
// channel (delivered when the flush covering upto completes) and err, a
// sticky failure recorded when an earlier flush touching this submission's
// edges failed.
type submark struct {
	upto    int
	enqNS   int64
	admitNS int64
	done    chan error
	err     error
}

// pendingAck is a durable ack ready for delivery after the current flush:
// the channel plus any error already pinned to it by an earlier partial
// flush.
type pendingAck struct {
	ch  chan error
	err error
}

// Ingester coalesces edges submitted by many concurrent producers into
// batches, flushing to its sink when either MaxBatch edges are pending or
// MaxDelay has elapsed since the first pending edge. A single background
// goroutine performs all flushes, so the sink never runs concurrently with
// itself — this is the single-writer half of the window discipline.
type Ingester struct {
	cfg IngesterConfig
	// sink applies one batch and reports whether it was durably recorded:
	// a non-nil error means the WAL append failed (or the window rejected
	// the batch) and is what durable acks deliver.
	sink func([]Edge) error
	// onFlush, when set, is called on the flush goroutine immediately
	// before each sink call with the enqueue wall time (unix ns) of the
	// batch's oldest edge — the flight recorder's queue-wait input — and
	// the admission time that edge's submission paid. 0 means unknown.
	onFlush func(enqNS, admitNS int64)
	m       *Metrics
	limiter *rateLimiter
	in      chan submission
	flushCh chan chan struct{}
	done    chan struct{}
	// abort unparks producers blocked on a full queue when Close begins,
	// bounding shutdown latency: a send parked in submit's select returns
	// ErrClosed instead of waiting out the backlog.
	abort chan struct{}
	// inflight counts producers between their closed-check and the
	// resolution of their channel send; Close waits it out before closing
	// done, so the shutdown drain sees every Submit that returned nil.
	inflight sync.WaitGroup
	wg       sync.WaitGroup
	closing  sync.Once

	// syncer, when set, escalates a flush to durable (wal.Log.Sync) before
	// durable acks are delivered; under fsync=batch the appends already
	// synced and the call is a cheap no-op. Stored as a pointer so the
	// persistence layer can attach it after construction.
	syncer atomic.Pointer[func() error]

	// closeMu serializes submissions against Close: a submitter holding
	// the read lock either observes closed and backs out, or registers in
	// inflight before Close (write lock) can mark the ingester closed —
	// so every Submit that returned nil is visible to run()'s shutdown
	// drain and can never be lost.
	closeMu sync.RWMutex
	closed  bool

	edges    atomic.Int64 // edges accepted
	flushes  atomic.Int64 // batches flushed
	rejected atomic.Int64 // submissions rejected by admission control
	rejEdges atomic.Int64 // edges inside rejected submissions

	// Queue depth in two units: submissions (channel occupancy, the
	// backpressure signal — a submission blocked on a full channel still
	// counts) and the edges inside them (the magnitude signal the
	// admission budget bounds; a thousand one-edge submissions and one
	// thousand-edge submission are very different queues). Incremented in
	// Submit before the channel send, decremented when the flush goroutine
	// absorbs the submission (or the send is abandoned on close/context
	// cancel).
	qBatches atomic.Int64
	qEdges   atomic.Int64
}

// NewIngester starts an ingester flushing batches to sink. The sink is
// called from a single goroutine; the batch slice is only valid for the
// duration of the call and is recycled for the next flush once the sink
// returns — the sink must not retain it (WindowManager.Apply doesn't:
// the ring and every monitor copy what they keep). The sink's error is
// what durable acks report; sinks with nothing to report return nil.
func NewIngester(cfg IngesterConfig, sink func([]Edge) error) *Ingester {
	return newIngesterWith(cfg, sink, noMetrics, nil)
}

// newIngesterWith is NewIngester with a telemetry bundle and an optional
// pre-flush hook; the service wiring injects the registry's bundle and
// the window's queue-wait note through it. onFlush is a constructor
// parameter — not settable later — because run() starts reading it
// immediately.
func newIngesterWith(cfg IngesterConfig, sink func([]Edge) error, m *Metrics, onFlush func(enqNS, admitNS int64)) *Ingester {
	g := &Ingester{
		cfg:     cfg.withDefaults(),
		sink:    sink,
		onFlush: onFlush,
		m:       m.orNoop(),
		flushCh: make(chan chan struct{}),
		done:    make(chan struct{}),
		abort:   make(chan struct{}),
	}
	if g.cfg.MaxEdgesPerSec > 0 {
		g.limiter = newRateLimiter(g.cfg.Clock, g.cfg.MaxEdgesPerSec, g.cfg.BurstEdges)
	}
	g.in = make(chan submission, g.cfg.QueueLen)
	g.wg.Add(1)
	go g.run()
	return g
}

// setDurableSync attaches the durability escalator called before durable
// acks are delivered (the persistence layer wires wal.Log.Sync). Attach
// before accepting durable submissions.
func (g *Ingester) setDurableSync(fn func() error) {
	if fn != nil {
		g.syncer.Store(&fn)
	}
}

// durable reports whether a durability escalator is attached — whether a
// delivered ack means "fsynced" rather than just "applied".
func (g *Ingester) durable() bool { return g.syncer.Load() != nil }

// Submit enqueues one edge. It blocks when the queue is full and returns
// ErrClosed after Close.
func (g *Ingester) Submit(e Edge) error { return g.SubmitBatch([]Edge{e}) }

// SubmitBatch enqueues a group of edges (they still count individually
// toward MaxBatch). The slice is copied before it is enqueued, so the
// caller may reuse its buffer immediately.
func (g *Ingester) SubmitBatch(edges []Edge) error {
	return g.SubmitBatchContext(context.Background(), edges)
}

// SubmitBatchContext is SubmitBatch with a deadline: a submission parked
// on a full queue unparks with ctx.Err() when the context ends (nothing
// was accepted), instead of blocking indefinitely.
func (g *Ingester) SubmitBatchContext(ctx context.Context, edges []Edge) error {
	if len(edges) == 0 {
		return nil
	}
	cp := make([]Edge, len(edges))
	copy(cp, edges)
	return g.submitOwnedCtx(ctx, cp, nil)
}

// submitOwned enqueues a slice the caller hands over (no copy); used by the
// HTTP layer, which builds a fresh batch per request anyway.
func (g *Ingester) submitOwned(edges []Edge) error {
	return g.submitOwnedCtx(context.Background(), edges, nil)
}

// submitOwnedDurable enqueues an owned slice and blocks until its batch is
// durably applied: the flush goroutine delivers the sink's error (nil =
// edges applied and WAL append+fsync complete) after the flush covering
// the submission's last edge. A ctx cancellation after admission returns
// ctx.Err() but the edges stay accepted — they were admitted and will be
// applied; only the caller stopped waiting for the receipt.
func (g *Ingester) submitOwnedDurable(ctx context.Context, edges []Edge) error {
	if len(edges) == 0 {
		return nil
	}
	ack := make(chan error, 1)
	if err := g.submitOwnedCtx(ctx, edges, ack); err != nil {
		return err
	}
	select {
	case err := <-ack:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// admit charges the submission against the rate limit and the edge
// budget, in that order, refunding the rate charge when the budget
// rejects. On success the queue gauges are charged; absorb (or unqueue, if
// the send is abandoned) settles them.
func (g *Ingester) admit(n int64) error {
	if g.limiter != nil {
		if wait := g.limiter.take(n); wait > 0 {
			return g.reject(admitRate, n, wait)
		}
	}
	if max := g.cfg.MaxQueueEdges; max > 0 {
		if g.qEdges.Add(n) > max {
			g.qEdges.Add(-n)
			if g.limiter != nil {
				g.limiter.refund(n)
			}
			return g.reject(admitEdges, n, defaultRetryAfter)
		}
	} else {
		g.qEdges.Add(n)
	}
	g.qBatches.Add(1)
	g.m.queueBatches.Add(1)
	g.m.queueEdges.Add(n)
	return nil
}

func (g *Ingester) reject(r admitReason, n int64, retry time.Duration) error {
	g.rejected.Add(1)
	g.rejEdges.Add(n)
	g.m.rejectedBatches[r].Inc()
	g.m.rejectedEdges[r].Add(n)
	return &AdmissionError{Reason: admitReasonNames[r], RetryAfter: retry}
}

// unqueue rolls back admit's queue charges for a submission whose channel
// send was abandoned (close or context cancel) — the mirror of absorb's
// settlement.
func (g *Ingester) unqueue(n int64) {
	g.qBatches.Add(-1)
	g.qEdges.Add(-n)
	g.m.queueBatches.Add(-1)
	g.m.queueEdges.Add(-n)
}

// submitOwnedCtx is the single admission + enqueue path. Zero event times
// are stamped here, at submit time, per the Edge.T contract. The closed
// check, admission, and inflight registration happen under closeMu.RLock,
// but the channel send does NOT: it parks in a select against abort (Close
// started — return ErrClosed) and ctx (caller gave up — return ctx.Err()),
// so a full queue can no longer hold the read lock against Close and
// shutdown latency stays bounded regardless of backlog.
func (g *Ingester) submitOwnedCtx(ctx context.Context, edges []Edge, ack chan error) error {
	if len(edges) == 0 {
		return nil
	}
	n := int64(len(edges))

	g.closeMu.RLock()
	if g.closed {
		g.closeMu.RUnlock()
		return ErrClosed
	}
	var admitStart int64
	if g.onFlush != nil {
		admitStart = time.Now().UnixNano()
	}
	if err := g.admit(n); err != nil {
		g.closeMu.RUnlock()
		return err
	}
	now := g.cfg.Clock.Now()
	for i := range edges {
		if edges[i].T.IsZero() {
			edges[i].T = now
		}
	}
	var enqNS, admitNS int64
	if admitStart != 0 {
		enqNS = time.Now().UnixNano()
		admitNS = enqNS - admitStart
	}
	g.inflight.Add(1)
	g.closeMu.RUnlock()

	select {
	case g.in <- submission{edges: edges, enq: now, enqNS: enqNS, admitNS: admitNS, done: ack}:
		g.inflight.Done()
		g.edges.Add(n)
		g.m.ingestEdges.Add(n)
		return nil
	case <-g.abort:
		g.inflight.Done()
		g.unqueue(n)
		return ErrClosed
	case <-ctx.Done():
		g.inflight.Done()
		g.unqueue(n)
		return ctx.Err()
	}
}

// Flush synchronously drains the queue and flushes the pending buffer. All
// edges whose Submit returned before Flush was called are in the sink by
// the time Flush returns. No-op after Close.
func (g *Ingester) Flush() {
	ack := make(chan struct{})
	select {
	case g.flushCh <- ack:
		<-ack
	case <-g.done:
		g.wg.Wait() // Close flushes everything before run() exits
	}
}

// Close stops accepting edges, flushes what has been accepted, and stops
// the background goroutine. Safe to call more than once. The handshake:
// mark closed (new submitters back out), close abort (parked submitters
// unpark with ErrClosed), wait out inflight (every accepted send is in the
// buffer), then close done (run() drains and exits). No Submit that
// returned nil can be lost, and no parked Submit can delay Close past the
// time run() needs to absorb the buffered queue.
func (g *Ingester) Close() {
	g.closing.Do(func() {
		g.closeMu.Lock()
		g.closed = true
		g.closeMu.Unlock()
		close(g.abort)
		g.inflight.Wait()
		close(g.done)
	})
	g.wg.Wait()
}

// Stats returns edges accepted and batches flushed so far.
func (g *Ingester) Stats() (edges, batches int64) {
	return g.edges.Load(), g.flushes.Load()
}

// RejectStats returns submissions and edges turned away by admission
// control since start.
func (g *Ingester) RejectStats() (subs, edges int64) {
	return g.rejected.Load(), g.rejEdges.Load()
}

// QueueDepth returns the current ingest queue depth in submissions and in
// edges (see the qBatches/qEdges comment for the exact semantics).
func (g *Ingester) QueueDepth() (batches, edges int64) {
	return g.qBatches.Load(), g.qEdges.Load()
}

// QueueCap returns the submission-queue capacity. Budgeted deployments
// should read QueueBudget instead — submissions say nothing about memory.
func (g *Ingester) QueueCap() int { return g.cfg.QueueLen }

// QueueBudget returns the configured edge admission budget (0 =
// unlimited) — the denominator for the queue-utilization readiness check.
func (g *Ingester) QueueBudget() int64 { return g.cfg.MaxQueueEdges }

func (g *Ingester) run() {
	defer g.wg.Done()
	// pending accumulates submissions; head marks the already-flushed
	// prefix. flushBuf is the single reusable batch buffer handed to the
	// sink: the sink is synchronous and must not retain the slice, so one
	// buffer serves every flush. Copying out of pending (instead of the
	// old slice-and-cap handoff) is what lets BOTH buffers recycle —
	// steady state runs with zero allocations in the flush loop
	// (TestIngesterFlushAllocs pins this).
	var pending []Edge
	var head int
	var flushBuf []Edge
	var deadline <-chan time.Time
	// marks mirrors pending with one mark per absorbed submission that
	// needs tracking (mhead mirrors head); both reset together, so at
	// steady state the marks ring reuses its backing array — the flush
	// loop stays allocation-free with the hook installed.
	var marks []submark
	var mhead int
	// acks collects durable-ack channels completed by the current flush;
	// reused across flushes.
	var acks []pendingAck

	// Event times were stamped at submit; absorb accumulates and settles
	// the queue gauges. The queue-wait observation is gated on m.on()
	// because it costs an extra clock read per submission.
	absorb := func(sub submission) {
		pending = append(pending, sub.edges...)
		if g.onFlush != nil || sub.done != nil {
			marks = append(marks, submark{upto: len(pending), enqNS: sub.enqNS, admitNS: sub.admitNS, done: sub.done})
		}
		n := int64(len(sub.edges))
		g.qBatches.Add(-1)
		g.qEdges.Add(-n)
		g.m.queueBatches.Add(-1)
		g.m.queueEdges.Add(-n)
		if g.m.on() {
			g.m.queueWait.Observe(g.cfg.Clock.Now().Sub(sub.enq))
		}
	}
	// flushHead emits the oldest k pending edges as one batch via the
	// reusable buffer, then resets the accumulator once it fully drains so
	// its backing array is reused instead of re-grown. reason attributes
	// the flush trigger (threshold, deadline, manual, shutdown). Durable
	// acks whose last edge is covered by this flush are delivered after
	// the sink (and the durability escalator) return.
	flushHead := func(k int, reason *telemetry.Counter) {
		var enqNS, admitNS int64
		if mhead < len(marks) {
			// The first live mark covers pending[head] — the oldest edge
			// of this flush.
			enqNS = marks[mhead].enqNS
			admitNS = marks[mhead].admitNS
		}
		flushBuf = append(flushBuf[:0], pending[head:head+k]...)
		head += k
		for mhead < len(marks) && marks[mhead].upto <= head {
			if marks[mhead].done != nil {
				acks = append(acks, pendingAck{ch: marks[mhead].done, err: marks[mhead].err})
				marks[mhead].done = nil
			}
			mhead++
		}
		if head == len(pending) {
			pending = pending[:0]
			head = 0
			marks = marks[:0]
			mhead = 0
		}
		g.flushes.Add(1)
		reason.Inc()
		g.m.flushEdges.ObserveVal(int64(k))
		if g.onFlush != nil {
			g.onFlush(enqNS, admitNS)
		}
		flushErr := g.sink(flushBuf)
		if flushErr != nil && mhead < len(marks) {
			// The first live mark may straddle this failed flush: part of
			// its submission was in the batch that failed. Pin the error so
			// its eventual ack reports the failure — conservatively, since
			// a mark starting exactly at head had nothing in this flush,
			// but a false negative on durability is the safe direction.
			marks[mhead].err = flushErr
		}
		if len(acks) > 0 {
			if flushErr == nil {
				if fn := g.syncer.Load(); fn != nil {
					flushErr = (*fn)()
				}
			}
			for i := range acks {
				e := acks[i].err
				if e == nil {
					e = flushErr
				}
				acks[i].ch <- e // buffered(1); never blocks
				acks[i].ch = nil
			}
			acks = acks[:0]
		}
	}
	pendingLen := func() int { return len(pending) - head }
	// flushFull emits MaxBatch-sized batches while the buffer is over the
	// threshold, then re-arms (or clears) the deadline for any remainder.
	flushFull := func() {
		for pendingLen() >= g.cfg.MaxBatch {
			flushHead(g.cfg.MaxBatch, g.m.flushThreshold)
		}
		if pendingLen() == 0 {
			deadline = nil
		} else if deadline == nil {
			deadline = g.cfg.Clock.After(g.cfg.MaxDelay)
		}
	}
	// flushAll empties the buffer entirely (deadline fired, manual flush,
	// or shutdown), still respecting the MaxBatch upper bound.
	flushAll := func(reason *telemetry.Counter) {
		for pendingLen() > 0 {
			k := g.cfg.MaxBatch
			if k > pendingLen() {
				k = pendingLen()
			}
			flushHead(k, reason)
		}
		deadline = nil
	}
	// drain empties the queue without blocking, then flushes everything.
	drain := func(reason *telemetry.Counter) {
		for {
			select {
			case sub := <-g.in:
				absorb(sub)
			default:
				flushAll(reason)
				return
			}
		}
	}

	for {
		select {
		case sub := <-g.in:
			absorb(sub)
			flushFull()
		case <-deadline:
			flushAll(g.m.flushDeadline)
		case ack := <-g.flushCh:
			drain(g.m.flushManual)
			close(ack)
		case <-g.done:
			drain(g.m.flushShutdown)
			return
		}
	}
}
