// Package trace is a zero-dependency batch flight recorder for the
// ingest→WAL→apply pipeline. Every applied batch (and every monitor
// query) records a span tree into a preallocated per-window ring of
// fixed-size slots; recording is 0 allocs/op so the recorder can stay
// on in production. Traces whose total time crosses a threshold are
// additionally copied into a global slow-retention ring (and optionally
// appended as JSONL to a persistent sink) so a stall remains inspectable
// after the main ring has wrapped — or after the process has crashed.
//
// A trace ID packs the ring's identity into the high bits and the
// batch's WAL sequence (its first arrival index) into the low bits, so
// the same batch carries the same low bits across restarts and an
// exemplar captured by a telemetry histogram resolves back to a concrete
// trace in the recorder.
//
// Concurrency model: each ring slot is guarded by its own mutex and
// writers claim slots with an atomic counter, so slots are effectively
// single-writer and the lock is only ever contended by readers copying
// a slot out. A batch trace is assembled in caller-owned scratch and
// committed with one locked copy, so in-flight batches never publish
// torn data.
package trace

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Trace kinds.
const (
	// KindBatch traces one applied batch through the pipeline.
	KindBatch uint8 = iota
	// KindQuery traces one monitor query (lock wait + execution).
	KindQuery
)

// Span kinds. Arg carries the monitor index for wait/apply/lock_wait/exec
// spans and the msfweight level for level spans; it is unused otherwise.
const (
	// SpanQueue is the time the batch's oldest submission waited in the
	// ingester queue before its flush.
	SpanQueue uint8 = iota
	// SpanStage is staging under the window's coordination lock
	// (validation, live-buffer append, expiry staging; includes the WAL
	// append for durable windows).
	SpanStage
	// SpanWALAppend is the write-ahead log append (encode + write +
	// policy fsync), nested inside the stage span.
	SpanWALAppend
	// SpanWALFsync is the fsync observed during the WAL append, nested
	// inside the wal_append span.
	SpanWALFsync
	// SpanMonitorWait is the time one monitor's apply waited for that
	// monitor's write lock.
	SpanMonitorWait
	// SpanMonitorApply is one monitor's batch apply under its lock.
	SpanMonitorApply
	// SpanLevel is one msfweight level's fork-joined sub-apply.
	SpanLevel
	// SpanPublish is the epoch publish and telemetry observation tail.
	SpanPublish
	// SpanLockWait is a query's wait for the monitor read lock.
	SpanLockWait
	// SpanExec is a query's execution under the monitor read lock.
	SpanExec
	// SpanAdmit is the admission work the batch's oldest submission paid
	// in Submit before its enqueue: budget and rate-limit checks. Queue
	// backpressure (a blocked channel send) stays in the queue span.
	SpanAdmit
)

var spanNames = [...]string{
	SpanQueue:        "queue",
	SpanStage:        "stage",
	SpanWALAppend:    "wal_append",
	SpanWALFsync:     "wal_fsync",
	SpanMonitorWait:  "wait",
	SpanMonitorApply: "apply",
	SpanLevel:        "level",
	SpanPublish:      "publish",
	SpanLockWait:     "lock_wait",
	SpanExec:         "exec",
	SpanAdmit:        "admit",
}

// SpanName returns the wire name of a span kind ("queue", "apply", ...).
func SpanName(kind uint8) string {
	if int(kind) < len(spanNames) {
		return spanNames[kind]
	}
	return fmt.Sprintf("span%d", kind)
}

// MaxSpans is the per-trace span capacity. Five pipeline stages plus
// wait+apply for each of the three fan-out slots fit with room for ~21
// msfweight level spans; overflow increments Trace.Dropped instead of
// allocating.
const MaxSpans = 32

const (
	idShift = 48
	seqMask = 1<<idShift - 1
	// maxRings is how many rings can be live at once: ring IDs 1..maxRings
	// fit the 16 bits above idShift.
	maxRings = 1<<(64-idShift) - 1
)

// Span is one timed region of a trace. StartNS is the offset from the
// trace's start, not a wall-clock time.
type Span struct {
	Kind    uint8
	Arg     int32
	StartNS int64
	DurNS   int64
}

// Trace is the recording scratch for one batch or query. The pipeline
// owns a Trace value while recording (no lock needed: single goroutine),
// then commits it to a Ring with one locked copy.
type Trace struct {
	ID      uint64 // ringID<<48 | Seq&mask; stamped by Commit
	Kind    uint8
	Slow    bool // total time crossed the recorder's slow threshold
	Durable bool // Seq is a WAL sequence (first arrival index of the batch)
	Seq     uint64
	StartNS int64 // wall clock, unix nanoseconds
	TotalNS int64
	Edges   int32
	Expired int32
	Dropped int32 // spans that did not fit in Spans
	N       int32
	Spans   [MaxSpans]Span
}

// Reset clears the trace for reuse without touching the spans array
// beyond what N covered.
func (t *Trace) Reset(kind uint8) {
	*t = Trace{Kind: kind}
}

// Add appends a span; past MaxSpans it only counts the drop.
func (t *Trace) Add(kind uint8, arg int32, startNS, durNS int64) {
	if t.N >= MaxSpans {
		t.Dropped++
		return
	}
	t.Spans[t.N] = Span{Kind: kind, Arg: arg, StartNS: startNS, DurNS: durNS}
	t.N++
}

// slot is one ring entry. src names the ring the trace came from (for
// the slow ring this is the originating window's ring, which carries the
// window name and monitor-name table).
type slot struct {
	mu  sync.Mutex
	ok  bool
	src *Ring
	t   Trace
}

// Ring is a fixed-capacity trace buffer for one window (or the global
// slow ring). Writers claim slots round-robin with an atomic counter.
type Ring struct {
	name     string
	kind     uint8
	id       uint64
	monitors []string
	rec      *Recorder
	seq      atomic.Uint64
	next     atomic.Uint64
	slots    []slot
}

// Name returns the window name the ring records for ("" for the slow ring).
func (r *Ring) Name() string { return r.name }

// SeqNext allocates the next ring-local trace sequence (used by query
// traces and by batch traces on non-durable windows, which have no WAL
// sequence to borrow).
func (r *Ring) SeqNext() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Add(1)
}

// ID packs the ring identity and a trace sequence into the trace ID a
// Commit of that sequence will stamp — callers that tag histogram
// exemplars mid-pipeline use it to know the ID before the trace is done.
func (r *Ring) ID(seq uint64) uint64 {
	if r == nil {
		return 0
	}
	return r.id<<idShift | seq&seqMask
}

// Commit stamps the trace ID and publishes a copy of t into the ring;
// 0 allocs. Batch traces at or past the recorder's slow threshold are
// additionally retained in the slow ring and, when a sink is configured,
// appended to it as one JSONL line (the slow path may allocate).
func (r *Ring) Commit(t *Trace) {
	if r == nil {
		return
	}
	t.ID = r.ID(t.Seq)
	slow := r.kind == KindBatch && r.rec != nil &&
		r.rec.opt.SlowThreshold > 0 && t.TotalNS >= int64(r.rec.opt.SlowThreshold)
	t.Slow = slow
	r.publish(r, t)
	if slow {
		r.rec.commitSlow(r, t)
	}
}

// publish copies t into the next slot, crediting src as the origin ring.
func (r *Ring) publish(src *Ring, t *Trace) {
	idx := r.next.Add(1) - 1
	s := &r.slots[idx%uint64(len(r.slots))]
	s.mu.Lock()
	s.ok = true
	s.src = src
	s.t = *t
	s.mu.Unlock()
}

// snapshot appends a copy of every committed trace (with its origin
// ring) to dst and returns it.
func (r *Ring) snapshot(dst []viewRef) []viewRef {
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.ok {
			dst = append(dst, viewRef{src: s.src, t: s.t})
		}
		s.mu.Unlock()
	}
	return dst
}

type viewRef struct {
	src *Ring
	t   Trace
}

// Options configures a Recorder. Zero values pick the documented defaults.
type Options struct {
	// RingSlots is each window ring's capacity (default 128).
	RingSlots int
	// QuerySlots is each window's query-ring capacity (default 64).
	QuerySlots int
	// SlowSlots is the global slow-retention ring's capacity (default 64).
	SlowSlots int
	// SlowThreshold routes batch traces whose total time is at or past
	// this bound into the slow ring (default 100ms; negative disables).
	SlowThreshold time.Duration
}

// DefaultSlowThreshold is the slow-ring admission bound when Options
// leaves SlowThreshold zero.
const DefaultSlowThreshold = 100 * time.Millisecond

func (o Options) withDefaults() Options {
	if o.RingSlots <= 0 {
		o.RingSlots = 128
	}
	if o.QuerySlots <= 0 {
		o.QuerySlots = 64
	}
	if o.SlowSlots <= 0 {
		o.SlowSlots = 64
	}
	switch {
	case o.SlowThreshold < 0:
		o.SlowThreshold = 0
	case o.SlowThreshold == 0:
		o.SlowThreshold = DefaultSlowThreshold
	}
	return o
}

// Recorder owns the per-window rings, the slow ring, and the optional
// JSONL sink for slow traces.
type Recorder struct {
	opt Options
	// mu guards rings and free. rings[id-1] is the live ring with that
	// ID, nil once it is released; free holds the released IDs, which
	// later rings reuse before the table grows.
	mu        sync.RWMutex
	rings     []*Ring
	free      []uint64
	slow      *Ring
	sinkMu    sync.Mutex
	sink      io.Writer
	onSinkErr func(error)
	sinkErrs  atomic.Int64
}

// New builds a Recorder.
func New(opt Options) *Recorder {
	rec := &Recorder{opt: opt.withDefaults()}
	rec.slow = &Ring{kind: KindBatch, rec: rec, slots: make([]slot, rec.opt.SlowSlots)}
	return rec
}

// SlowThreshold reports the slow-ring admission bound (0 = disabled).
func (rec *Recorder) SlowThreshold() time.Duration {
	if rec == nil {
		return 0
	}
	return rec.opt.SlowThreshold
}

// SetSlowSink directs one JSONL line per slow trace at w (nil detaches).
// The recorder serializes writes but does not close w.
func (rec *Recorder) SetSlowSink(w io.Writer) {
	if rec == nil {
		return
	}
	rec.sinkMu.Lock()
	rec.sink = w
	rec.sinkMu.Unlock()
}

// SinkErrors reports how many slow-trace sink appends failed (marshal
// or write). Failed lines are dropped — this count is the only evidence
// a sink is sick, so servers export it as a metric.
func (rec *Recorder) SinkErrors() int64 {
	if rec == nil {
		return 0
	}
	return rec.sinkErrs.Load()
}

// SetSinkErrorHook installs fn to be invoked once, with the first sink
// append failure. Subsequent failures only bump the SinkErrors counter,
// keeping a persistently sick sink from flooding logs.
func (rec *Recorder) SetSinkErrorHook(fn func(error)) {
	if rec == nil {
		return
	}
	rec.sinkMu.Lock()
	rec.onSinkErr = fn
	rec.sinkMu.Unlock()
}

func (rec *Recorder) noteSinkErr(err error) {
	if rec.sinkErrs.Add(1) != 1 {
		return
	}
	rec.sinkMu.Lock()
	fn := rec.onSinkErr
	rec.sinkMu.Unlock()
	if fn != nil {
		fn(err)
	}
}

// Ring allocates a new ring for window name. monitors maps the Arg of
// monitor-scoped spans to a monitor name at render time; it is retained,
// not copied. kind selects the batch or query span vocabulary. The ring
// takes an ID no live ring holds; with every ID live it returns nil (a
// nil ring records nothing) rather than alias another ring's trace IDs.
func (rec *Recorder) Ring(name string, kind uint8, monitors []string) *Ring {
	if rec == nil {
		return nil
	}
	n := rec.opt.RingSlots
	if kind == KindQuery {
		n = rec.opt.QuerySlots
	}
	r := &Ring{name: name, kind: kind, monitors: monitors, rec: rec, slots: make([]slot, n)}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	switch {
	case len(rec.free) > 0:
		r.id = rec.free[len(rec.free)-1]
		rec.free = rec.free[:len(rec.free)-1]
		rec.rings[r.id-1] = r
	case len(rec.rings) < maxRings:
		rec.rings = append(rec.rings, r)
		r.id = uint64(len(rec.rings)) // 1-based; ID 0 means "never committed"
	default:
		return nil
	}
	return r
}

// Release takes the ring out of its recorder when its window closes:
// Traces and Lookup stop serving its traces, its ID goes to a later ring,
// and its slots are freed once nothing else references the ring. Copies
// of its traces in the slow ring stay there. A commit after Release is
// harmless and unseen. Idempotent; nil-safe.
func (r *Ring) Release() {
	if r == nil || r.rec == nil || r.id == 0 {
		return
	}
	rec := r.rec
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.rings[r.id-1] == r {
		rec.rings[r.id-1] = nil
		rec.free = append(rec.free, r.id)
	}
}

// commitSlow retains a copy of t in the slow ring and appends it to the
// JSONL sink when one is attached. Runs on the batch writer goroutine,
// but only for slow batches — allocations here are off the hot path.
func (rec *Recorder) commitSlow(src *Ring, t *Trace) {
	rec.slow.publish(src, t)
	rec.sinkMu.Lock()
	w := rec.sink
	rec.sinkMu.Unlock()
	if w == nil {
		return
	}
	line, err := buildView(src, t).appendJSON(nil)
	if err != nil {
		rec.noteSinkErr(err)
		return
	}
	line = append(line, '\n')
	rec.sinkMu.Lock()
	var werr error
	if rec.sink != nil {
		_, werr = rec.sink.Write(line)
	}
	rec.sinkMu.Unlock()
	if werr != nil {
		rec.noteSinkErr(werr)
	}
}

// Filter selects traces for Traces and the HTTP handler.
type Filter struct {
	Window string // "" = all windows
	Kind   string // "", "batch", or "query"
	MinNS  int64  // keep traces with TotalNS >= MinNS
	Slow   bool   // read the slow-retention ring instead of the live rings
	Limit  int    // max traces returned, newest first (0 = DefaultLimit)
}

// DefaultLimit bounds a Traces call that does not set Filter.Limit.
const DefaultLimit = 64

// Traces returns matching traces, newest first.
func (rec *Recorder) Traces(f Filter) []View {
	if rec == nil {
		return nil
	}
	if f.Limit <= 0 {
		f.Limit = DefaultLimit
	}
	var refs []viewRef
	if f.Slow {
		refs = rec.slow.snapshot(refs)
	} else {
		rec.mu.RLock()
		for _, r := range rec.rings {
			if r == nil || f.Window != "" && r.name != f.Window {
				continue
			}
			if f.Kind == "batch" && r.kind != KindBatch {
				continue
			}
			if f.Kind == "query" && r.kind != KindQuery {
				continue
			}
			refs = r.snapshot(refs)
		}
		rec.mu.RUnlock()
	}
	views := make([]View, 0, len(refs))
	for i := range refs {
		t := &refs[i].t
		if t.TotalNS < f.MinNS {
			continue
		}
		if f.Slow { // slow ring mixes windows; filters still apply
			if f.Window != "" && refs[i].src != nil && refs[i].src.name != f.Window {
				continue
			}
			if f.Kind == "query" {
				continue
			}
		}
		views = append(views, buildView(refs[i].src, t))
	}
	sortViews(views)
	if len(views) > f.Limit {
		views = views[:f.Limit]
	}
	return views
}

// Lookup resolves a packed trace ID (as carried by histogram exemplars)
// to its trace, searching the owning ring first, while it is live, and
// the slow ring as a fallback for traces the live ring has already
// overwritten.
func (rec *Recorder) Lookup(id uint64) (View, bool) {
	if rec == nil || id == 0 {
		return View{}, false
	}
	rid := id >> idShift
	rec.mu.RLock()
	var r *Ring
	if rid >= 1 && int(rid) <= len(rec.rings) {
		r = rec.rings[rid-1]
	}
	rec.mu.RUnlock()
	for _, ring := range []*Ring{r, rec.slow} {
		if ring == nil {
			continue
		}
		for i := range ring.slots {
			s := &ring.slots[i]
			s.mu.Lock()
			if s.ok && s.t.ID == id {
				v := buildView(s.src, &s.t)
				s.mu.Unlock()
				return v, true
			}
			s.mu.Unlock()
		}
	}
	return View{}, false
}

// FormatID renders a packed trace ID the way views and exemplars do.
func FormatID(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseID inverts FormatID.
func ParseID(s string) (uint64, bool) {
	var id uint64
	if _, err := fmt.Sscanf(s, "%016x", &id); err != nil || len(s) != 16 {
		return 0, false
	}
	return id, true
}
