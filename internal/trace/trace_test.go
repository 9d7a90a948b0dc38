package trace

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func mkTrace(seq uint64, totalNS int64, durable bool) *Trace {
	t := &Trace{Kind: KindBatch, Seq: seq, Durable: durable, StartNS: int64(seq) * 1e6, TotalNS: totalNS, Edges: 8}
	t.Add(SpanQueue, 0, 0, totalNS/10)
	t.Add(SpanStage, 0, totalNS/10, totalNS/5)
	t.Add(SpanMonitorApply, 1, totalNS/2, totalNS/2)
	return t
}

func TestRingCommitAndTraces(t *testing.T) {
	rec := New(Options{RingSlots: 4, SlowThreshold: -1})
	r := rec.Ring("w1", KindBatch, []string{"conn", "msfweight"})
	for seq := uint64(1); seq <= 6; seq++ {
		r.Commit(mkTrace(seq, int64(seq)*1e6, true))
	}
	views := rec.Traces(Filter{})
	if len(views) != 4 {
		t.Fatalf("ring of 4 after 6 commits: got %d traces", len(views))
	}
	// Newest first; the ring kept seqs 3..6.
	if views[0].Seq != 6 || views[3].Seq != 3 {
		t.Fatalf("want seqs 6..3 newest-first, got %d..%d", views[0].Seq, views[3].Seq)
	}
	v := views[0]
	if v.Window != "w1" || v.Kind != "batch" || v.WALSeq == nil || *v.WALSeq != 6 {
		t.Fatalf("bad view: %+v", v)
	}
	if len(v.Spans) != 3 || v.Spans[2].Name != "apply" || v.Spans[2].Monitor != "msfweight" {
		t.Fatalf("bad spans: %+v", v.Spans)
	}
	if got := rec.Traces(Filter{MinNS: int64(5.5e6)}); len(got) != 1 || got[0].Seq != 6 {
		t.Fatalf("min_ns filter: got %+v", got)
	}
	if got := rec.Traces(Filter{Window: "nope"}); len(got) != 0 {
		t.Fatalf("window filter: got %d", len(got))
	}
	if got := rec.Traces(Filter{Limit: 2}); len(got) != 2 {
		t.Fatalf("limit: got %d", len(got))
	}
}

// TestReleasedRingLeavesTheRecorder: a released ring's traces leave
// Traces and Lookup, except the copies in the slow ring, and its ID goes
// to the next ring while the live IDs stay distinct.
func TestReleasedRingLeavesTheRecorder(t *testing.T) {
	rec := New(Options{RingSlots: 4, SlowThreshold: 10 * time.Millisecond})
	a := rec.Ring("a", KindBatch, nil)
	b := rec.Ring("b", KindBatch, nil)
	fast, slow := mkTrace(1, int64(time.Millisecond), false), mkTrace(2, int64(time.Second), false)
	a.Commit(fast)
	a.Commit(slow)
	b.Commit(mkTrace(1, int64(time.Millisecond), false))
	a.Release()
	a.Release() // idempotent
	if got := rec.Traces(Filter{Window: "a"}); len(got) != 0 {
		t.Fatalf("released ring still serves %d traces", len(got))
	}
	if _, ok := rec.Lookup(fast.ID); ok {
		t.Fatal("Lookup found a released ring's trace")
	}
	if v, ok := rec.Lookup(slow.ID); !ok || v.Window != "a" {
		t.Fatalf("slow copy of a released ring's trace: %+v, %v", v, ok)
	}
	if got := rec.Traces(Filter{Window: "a", Slow: true}); len(got) != 1 {
		t.Fatalf("slow ring kept %d traces of the released ring, want 1", len(got))
	}
	c := rec.Ring("c", KindBatch, nil)
	if c.id != a.id || c.id == b.id || len(rec.rings) != 2 {
		t.Fatalf("ring IDs a=%d b=%d c=%d over %d table entries; c must reuse a's", a.id, b.id, c.id, len(rec.rings))
	}
	a.Release() // a no longer owns its old ID
	if got := rec.Traces(Filter{}); len(got) != 1 || got[0].Window != "b" {
		t.Fatalf("traces after reuse: %+v", got)
	}
	c.Commit(mkTrace(3, int64(time.Millisecond), false))
	if got := rec.Traces(Filter{Window: "c"}); len(got) != 1 {
		t.Fatalf("reused ID: ring c serves %d traces, want 1", len(got))
	}

	// With every 16-bit ID live, a new ring would alias one: none is made.
	full := New(Options{})
	full.rings = make([]*Ring, maxRings)
	for i := range full.rings {
		full.rings[i] = b
	}
	if r := full.Ring("d", KindBatch, nil); r != nil {
		t.Fatalf("ring made with %d rings live, ID %d", maxRings, r.id)
	}
}

func TestTraceSpanOverflowCountsDropped(t *testing.T) {
	var tr Trace
	for i := 0; i < MaxSpans+5; i++ {
		tr.Add(SpanLevel, int32(i), 0, 1)
	}
	if tr.N != MaxSpans || tr.Dropped != 5 {
		t.Fatalf("N=%d dropped=%d", tr.N, tr.Dropped)
	}
}

func TestSlowRingAndJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	rec := New(Options{RingSlots: 4, SlowSlots: 8, SlowThreshold: 10 * time.Millisecond})
	rec.SetSlowSink(&buf)
	r := rec.Ring("w1", KindBatch, []string{"conn"})
	r.Commit(mkTrace(1, int64(time.Millisecond), true)) // fast
	r.Commit(mkTrace(2, int64(50*time.Millisecond), true))
	r.Commit(mkTrace(3, int64(20*time.Millisecond), true))

	slow := rec.Traces(Filter{Slow: true})
	if len(slow) != 2 {
		t.Fatalf("slow ring: got %d traces", len(slow))
	}
	for _, v := range slow {
		if !v.Slow || v.Window != "w1" {
			t.Fatalf("bad slow view: %+v", v)
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL sink: got %d lines: %q", len(lines), buf.String())
	}
	var v View
	if err := json.Unmarshal([]byte(lines[0]), &v); err != nil {
		t.Fatalf("JSONL line does not parse: %v", err)
	}
	if v.Seq != 2 || v.Window != "w1" || len(v.Spans) == 0 {
		t.Fatalf("bad JSONL view: %+v", v)
	}
	// The live ring keeps the slow flag too.
	live := rec.Traces(Filter{MinNS: int64(15 * time.Millisecond)})
	for _, v := range live {
		if !v.Slow {
			t.Fatalf("live copy lost slow flag: %+v", v)
		}
	}
}

func TestLookupResolvesExemplarID(t *testing.T) {
	rec := New(Options{RingSlots: 4})
	r := rec.Ring("w1", KindBatch, nil)
	tr := mkTrace(42, int64(time.Millisecond), true)
	r.Commit(tr)
	if tr.ID == 0 {
		t.Fatal("commit did not stamp an ID")
	}
	v, ok := rec.Lookup(tr.ID)
	if !ok || v.Seq != 42 {
		t.Fatalf("lookup: ok=%v v=%+v", ok, v)
	}
	id, ok := ParseID(v.TraceID)
	if !ok || id != tr.ID {
		t.Fatalf("ParseID(%q) = %d, %v; want %d", v.TraceID, id, ok, tr.ID)
	}
	if _, ok := rec.Lookup(tr.ID + 999); ok {
		t.Fatal("lookup of unknown ID succeeded")
	}
}

func TestQueryRingSeqAndKindFilter(t *testing.T) {
	rec := New(Options{})
	qr := rec.Ring("w1", KindQuery, []string{"conn"})
	for i := 0; i < 3; i++ {
		tr := &Trace{Kind: KindQuery, Seq: qr.SeqNext(), StartNS: int64(i+1) * 1e9, TotalNS: 1e6}
		tr.Add(SpanLockWait, 0, 0, 1e5)
		tr.Add(SpanExec, 0, 1e5, 9e5)
		qr.Commit(tr)
	}
	if got := rec.Traces(Filter{Kind: "query"}); len(got) != 3 {
		t.Fatalf("query traces: got %d", len(got))
	}
	if got := rec.Traces(Filter{Kind: "batch"}); len(got) != 0 {
		t.Fatalf("batch traces: got %d", len(got))
	}
	v := rec.Traces(Filter{Kind: "query"})[0]
	if v.Spans[0].Name != "lock_wait" || v.Spans[0].Monitor != "conn" {
		t.Fatalf("bad query spans: %+v", v.Spans)
	}
}

func TestCommitIsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unstable under -race")
	}
	rec := New(Options{RingSlots: 64, SlowThreshold: time.Hour})
	r := rec.Ring("w1", KindBatch, []string{"conn"})
	var scratch Trace
	seq := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		seq++
		scratch.Reset(KindBatch)
		scratch.Seq, scratch.Durable = seq, true
		scratch.StartNS, scratch.TotalNS = int64(seq), 1000
		scratch.Add(SpanQueue, 0, 0, 10)
		scratch.Add(SpanStage, 0, 10, 100)
		scratch.Add(SpanMonitorWait, 0, 110, 5)
		scratch.Add(SpanMonitorApply, 0, 115, 800)
		scratch.Add(SpanPublish, 0, 915, 85)
		r.Commit(&scratch)
	})
	if allocs != 0 {
		t.Fatalf("Commit allocates %.1f/op, want 0", allocs)
	}
}

func TestConcurrentCommitAndRead(t *testing.T) {
	rec := New(Options{RingSlots: 8, SlowThreshold: time.Nanosecond})
	var sink bytes.Buffer
	rec.SetSlowSink(&sink)
	r := rec.Ring("w1", KindBatch, []string{"conn"})
	qr := rec.Ring("w1", KindQuery, []string{"conn"})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(3)
	go func() { // batch writer
		defer wg.Done()
		var tr Trace
		for seq := uint64(1); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			tr.Reset(KindBatch)
			tr.Seq, tr.TotalNS, tr.StartNS = seq, 1e6, int64(seq)
			tr.Add(SpanStage, 0, 0, 1e6)
			r.Commit(&tr)
		}
	}()
	go func() { // concurrent query writers share the query ring
		defer wg.Done()
		var inner sync.WaitGroup
		for i := 0; i < 4; i++ {
			inner.Add(1)
			go func() {
				defer inner.Done()
				var tr Trace
				for {
					select {
					case <-stop:
						return
					default:
					}
					tr.Reset(KindQuery)
					tr.Seq = qr.SeqNext()
					tr.Add(SpanExec, 0, 0, 1e3)
					qr.Commit(&tr)
				}
			}()
		}
		inner.Wait()
	}()
	go func() { // reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, v := range rec.Traces(Filter{Limit: 16}) {
				if v.Window != "w1" {
					panic("trace from unknown window")
				}
			}
			rec.Traces(Filter{Slow: true})
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestHandler(t *testing.T) {
	rec := New(Options{RingSlots: 8, SlowThreshold: 10 * time.Millisecond})
	r := rec.Ring("w1", KindBatch, []string{"conn"})
	r.Commit(mkTrace(1, int64(time.Millisecond), true))
	r.Commit(mkTrace(2, int64(time.Second), true))

	get := func(url string) (*httptest.ResponseRecorder, Response) {
		t.Helper()
		w := httptest.NewRecorder()
		rec.Handler().ServeHTTP(w, httptest.NewRequest("GET", url, nil))
		var resp Response
		if w.Code == 200 {
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s: bad JSON: %v", url, err)
			}
		}
		return w, resp
	}
	if w, resp := get("/debug/flight"); w.Code != 200 || resp.Count != 2 || resp.SlowThresholdMS != 10 {
		t.Fatalf("base: code=%d resp=%+v", w.Code, resp)
	}
	if _, resp := get("/debug/flight?min_ms=500"); resp.Count != 1 || resp.Traces[0].Seq != 2 {
		t.Fatalf("min_ms: %+v", resp)
	}
	if _, resp := get("/debug/flight?slow=1"); resp.Count != 1 || !resp.Traces[0].Slow {
		t.Fatalf("slow: %+v", resp)
	}
	if _, resp := get("/debug/flight?window=w1&kind=batch&limit=1"); resp.Count != 1 {
		t.Fatalf("combined: %+v", resp)
	}
	if w, _ := get("/debug/flight?min_ms=nope"); w.Code != 400 {
		t.Fatalf("bad min_ms: code=%d", w.Code)
	}
	if w, _ := get("/debug/flight?kind=weird"); w.Code != 400 {
		t.Fatalf("bad kind: code=%d", w.Code)
	}
	w := httptest.NewRecorder()
	rec.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/debug/flight", nil))
	if w.Code != 405 {
		t.Fatalf("POST: code=%d", w.Code)
	}
}
