package telemetry

import (
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64. The zero value is usable;
// a nil *Counter is a no-op, so unwired instrumentation costs one branch.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must be >= 0; negative deltas are a bug and are dropped).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 value. Nil-safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a log₂-bucketed histogram over non-negative int64 values.
// Bucket i holds values v with bits.Len64(v) == i, i.e. v in
// [2^(i-1), 2^i). An observation is three uncontended atomic adds and at
// most one CAS (new max) — no locks, no allocations. The zero value is a
// usable raw-unit histogram; registry-created duration histograms store
// nanoseconds and expose seconds.
//
// Quantiles are bucket-upper-bound estimates: p99 answers "99% of
// observations were at most this", rounded up to a power of two and
// clamped to the true max.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
	max     atomic.Int64
	seconds bool // exposition divides by 1e9 (set by Registry.Histogram)

	// Exemplar state, fed by ObserveTraced: the trace ID of the largest
	// traced observation plus a small ring of recent traced samples, so a
	// p99 regression on the scrape links to a concrete flight-recorder
	// trace. Value and ID are separate atomics — a CAS win on the value
	// followed by the ID store can interleave with a concurrent winner, so
	// pairing is best-effort by design (documented in DESIGN §7); the
	// alternative is a lock on the observe path.
	exMax    exPair
	exRecent [exRecentSlots]exPair
	exIdx    atomic.Uint64
}

const histBuckets = 64

// exRecentSlots sizes the recent-exemplar ring.
const exRecentSlots = 4

type exPair struct {
	v  atomic.Int64
	id atomic.Uint64
}

// Exemplar pairs an observed value (in the histogram's stored units) with
// the flight-recorder trace ID that produced it.
type Exemplar struct {
	Value   int64
	TraceID uint64
}

// Observe records a duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveVal(int64(d))
}

// ObserveVal records a raw value. Negative values clamp to zero.
func (h *Histogram) ObserveVal(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveTraced records a duration and tags it with a flight-recorder
// trace ID (0 = untraced, equivalent to Observe).
func (h *Histogram) ObserveTraced(d time.Duration, traceID uint64) {
	h.ObserveValTraced(int64(d), traceID)
}

// ObserveValTraced records a raw value and tags it with a trace ID. The
// tagged observation lands in the buckets like any other; additionally
// the trace ID is CAS-captured when the value is a new traced max, and
// always sampled into the recent-exemplar ring. Lock-free, 0 allocs.
func (h *Histogram) ObserveValTraced(v int64, traceID uint64) {
	if h == nil {
		return
	}
	h.ObserveVal(v)
	if traceID == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	for {
		cur := h.exMax.v.Load()
		if v < cur {
			break
		}
		if h.exMax.v.CompareAndSwap(cur, v) {
			h.exMax.id.Store(traceID)
			break
		}
	}
	i := h.exIdx.Add(1) % exRecentSlots
	h.exRecent[i].v.Store(v)
	h.exRecent[i].id.Store(traceID)
}

// MaxExemplar returns the largest traced observation and its trace ID
// (zero Exemplar when nothing traced has been observed).
func (h *Histogram) MaxExemplar() Exemplar {
	if h == nil {
		return Exemplar{}
	}
	return Exemplar{Value: h.exMax.v.Load(), TraceID: h.exMax.id.Load()}
}

// RecentExemplars appends the non-empty recent traced samples to dst,
// newest slot order unspecified.
func (h *Histogram) RecentExemplars(dst []Exemplar) []Exemplar {
	if h == nil {
		return dst
	}
	for i := range h.exRecent {
		id := h.exRecent[i].id.Load()
		if id == 0 {
			continue
		}
		dst = append(dst, Exemplar{Value: h.exRecent[i].v.Load(), TraceID: id})
	}
	return dst
}

// HistogramSnapshot is a point-in-time read of a histogram, in the
// histogram's stored units (nanoseconds for duration histograms).
type HistogramSnapshot struct {
	Count int64
	Sum   int64
	Mean  int64
	P50   int64
	P99   int64
	Max   int64
}

// Snapshot computes count/mean/quantiles/max. Buckets are read without a
// global lock, so a snapshot taken during concurrent observation is
// approximate — fine for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	var counts [histBuckets]int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		s.Count += counts[i]
	}
	if s.Count == 0 {
		return s
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	s.Mean = s.Sum / s.Count
	s.P50 = quantile(&counts, s.Count, s.Max, 0.50)
	s.P99 = quantile(&counts, s.Count, s.Max, 0.99)
	return s
}

// quantile returns the upper bound of the bucket containing the q-th
// ranked observation, clamped to the observed max.
func quantile(counts *[histBuckets]int64, total, max int64, q float64) int64 {
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += counts[i]
		if cum >= rank {
			upper := bucketUpper(i)
			if upper > max {
				upper = max
			}
			return upper
		}
	}
	return max
}

// bucketUpper is the largest value bucket i can hold: 2^i − 1 (bucket 0
// holds only zero).
func bucketUpper(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return 1<<uint(i) - 1
}

// Exposition bucket schedule: emitting all 64 internal buckets per family
// would bloat the scrape, so cumulative counts are aggregated onto every
// second power of two. Duration histograms cover ~1µs..~69s (internal
// buckets 10..36), raw-unit histograms cover 3..~4.3e9 (buckets 2..32);
// everything above the last bound lands in +Inf. Bounds are exact bucket
// upper bounds (2^i − 1), so cumulative counts are exact, not interpolated.
const (
	expoStride = 2
	expoSecLo  = 10
	expoSecHi  = 36
	expoRawLo  = 2
	expoRawHi  = 32
)

// write renders the _bucket/_sum/_count exposition lines for one child.
func (h *Histogram) write(b *strings.Builder, name string, labels []Label) {
	var counts [histBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	sum := h.sum.Load()

	lo, hi := expoRawLo, expoRawHi
	if h.seconds {
		lo, hi = expoSecLo, expoSecHi
	}
	var cum int64
	next := 0
	for i := lo; i <= hi; i += expoStride {
		for ; next <= i; next++ {
			cum += counts[next]
		}
		upper := float64(bucketUpper(i))
		if h.seconds {
			upper /= 1e9
		}
		b.WriteString(name)
		b.WriteString("_bucket")
		writeLabels(b, labels, "le", formatFloat(upper))
		b.WriteByte(' ')
		b.WriteString(formatFloat(float64(cum)))
		b.WriteByte('\n')
	}
	b.WriteString(name)
	b.WriteString("_bucket")
	writeLabels(b, labels, "le", "+Inf")
	b.WriteByte(' ')
	b.WriteString(formatFloat(float64(total)))
	b.WriteByte('\n')

	fsum := float64(sum)
	if h.seconds {
		fsum /= 1e9
	}
	b.WriteString(name)
	b.WriteString("_sum")
	writeLabels(b, labels, "", "")
	b.WriteByte(' ')
	b.WriteString(formatFloat(fsum))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	writeLabels(b, labels, "", "")
	b.WriteByte(' ')
	b.WriteString(formatFloat(float64(total)))
	b.WriteByte('\n')

	// Exemplar comment lines. `#` lines that are not HELP/TYPE are legal
	// 0.0.4 exposition (real Prometheus and older ParseExposition builds
	// skip them); the current parser reads them strictly.
	h.writeExemplar(b, name, labels, "max", h.MaxExemplar())
	for i := range h.exRecent {
		h.writeExemplar(b, name, labels, "recent",
			Exemplar{Value: h.exRecent[i].v.Load(), TraceID: h.exRecent[i].id.Load()})
	}
}

// writeExemplar renders `# EXEMPLAR name{labels} kind value trace_id`,
// with the value converted to exposed units. Empty exemplars are elided.
func (h *Histogram) writeExemplar(b *strings.Builder, name string, labels []Label, kind string, ex Exemplar) {
	if ex.TraceID == 0 {
		return
	}
	v := float64(ex.Value)
	if h.seconds {
		v /= 1e9
	}
	b.WriteString("# EXEMPLAR ")
	b.WriteString(name)
	writeLabels(b, labels, "", "")
	b.WriteByte(' ')
	b.WriteString(kind)
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte(' ')
	b.WriteString(formatTraceID(ex.TraceID))
	b.WriteByte('\n')
}

// formatTraceID renders a trace ID the way the flight recorder does:
// 16 lowercase hex digits, zero-padded.
func formatTraceID(id uint64) string {
	s := strconv.FormatUint(id, 16)
	if len(s) < 16 {
		s = strings.Repeat("0", 16-len(s)) + s
	}
	return s
}
