package stream

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// epochRefState is the full answer surface of the window after a prefix of
// staged ops — what any query is allowed to observe.
type epochRefState struct {
	connPairs  []bool
	components int
	bipartite  bool
	msfweight  float64
	cycle      bool
	kcertSize  int
	kcertConn  int
	stats      WindowStats // timing and epoch zeroed
	epoch      uint64      // the window's epoch after the prefix
}

func captureRefState(t *testing.T, wm *WindowManager, pairs [][2]int32) epochRefState {
	t.Helper()
	var st epochRefState
	var err error
	st.connPairs = make([]bool, len(pairs))
	for i, p := range pairs {
		if st.connPairs[i], err = wm.IsConnected(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	if st.components, err = wm.NumComponents(); err != nil {
		t.Fatal(err)
	}
	if st.bipartite, err = wm.IsBipartite(); err != nil {
		t.Fatal(err)
	}
	if st.msfweight, err = wm.MSFWeight(); err != nil {
		t.Fatal(err)
	}
	if st.cycle, err = wm.HasCycle(); err != nil {
		t.Fatal(err)
	}
	if st.kcertSize, st.kcertConn, err = wm.KCertInfo(); err != nil {
		t.Fatal(err)
	}
	st.stats = wm.Stats()
	st.stats.ApplyNS = 0
	st.stats.Epoch = 0
	st.epoch = wm.Stats().Epoch
	return st
}

// TestEpochConsistencyDifferential is the staged-apply consistency
// differential: a writer drives a deterministic schedule of batch applies
// and timed expiries through a parallel-fanout window while reader
// goroutines hammer per-monitor queries, Stats, KCertInfo and
// QuerySummary — and EVERY answer must equal the answer of a sequentially
// applied reference window after some whole number of ops within the
// reader's observation bounds. With per-monitor locking an individual
// query may observe a different prefix than a concurrent query on another
// monitor, but no query may ever observe a half-applied batch (an op's
// insert without its expiry, or a partial batch), and the multi-read
// surfaces (KCertInfo, QuerySummary) must be internally consistent — all
// their fields from ONE prefix. A QuerySummary must match the reference
// at exactly the op its epoch names. CI runs this under -race, which
// additionally checks the fan-out region and the sw writer guards.
func TestEpochConsistencyDifferential(t *testing.T) {
	const (
		n        = 100
		window   = 400
		numOps   = 70
		numPairs = 8
	)
	base := WindowConfig{
		N:           n,
		Seed:        21,
		MaxArrivals: window,
		MaxAge:      time.Minute,
		Monitor:     MonitorConfig{Eps: 0.25, MaxWeight: 1 << 10, K: 2},
	}

	// Deterministic op schedule: most ops carry a batch (Apply also runs
	// expiry inline), some are pure ticker-style ExpireByAge calls.
	type op struct {
		batch   []Edge // nil = ExpireByAge only
		advance time.Duration
	}
	r := rand.New(rand.NewSource(5))
	opsList := make([]op, numOps)
	for i := range opsList {
		o := op{advance: time.Duration(r.Intn(8)) * time.Second}
		if r.Intn(5) != 0 {
			o.batch = randomEdges(r, n, 1+r.Intn(60))
		}
		opsList[i] = o
	}
	pairs := make([][2]int32, numPairs)
	for i := range pairs {
		pairs[i] = [2]int32{int32(r.Intn(n)), int32(r.Intn(n))}
	}

	// runOp executes op k of the schedule against a window and its clock:
	// advance, stamp, apply (or expire). Identical for reference and live.
	runOp := func(wm *WindowManager, fc *FakeClock, o op) {
		fc.Advance(o.advance)
		now := fc.Now()
		if o.batch == nil {
			wm.ExpireByAge(now)
			return
		}
		batch := make([]Edge, len(o.batch))
		copy(batch, o.batch)
		for i := range batch {
			batch[i].T = now
		}
		wm.Apply(batch)
	}

	// Reference pass: sequential fan-out, same seed, answers recorded
	// after every op prefix (ref[k] = state after k ops).
	refCfg := base
	refClock := NewFakeClock(time.Unix(0, 0))
	refCfg.Clock = refClock
	refWM, err := NewWindowManager(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	refWM.mux.sequential = true
	ref := make([]epochRefState, numOps+1)
	ref[0] = captureRefState(t, refWM, pairs)
	for k, o := range opsList {
		runOp(refWM, refClock, o)
		ref[k+1] = captureRefState(t, refWM, pairs)
	}

	// Live pass: parallel fan-out, one writer goroutine, many readers.
	liveCfg := base
	liveClock := NewFakeClock(time.Unix(0, 0))
	liveCfg.Clock = liveClock
	live, err := NewWindowManager(liveCfg)
	if err != nil {
		t.Fatal(err)
	}

	var started, done atomic.Int64 // ops begun / fully applied
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for k, o := range opsList {
			started.Store(int64(k + 1))
			runOp(live, liveClock, o)
			done.Store(int64(k + 1))
		}
	}()

	var readWG sync.WaitGroup
	matchRange := func(k1, k2 int64, match func(st *epochRefState) bool) bool {
		for k := k1; k <= k2 && k <= int64(numOps); k++ {
			if match(&ref[k]) {
				return true
			}
		}
		return false
	}

	// spawn starts one reader hammering a query in a loop. The bracket is
	// the correctness core: k1 (ops fully applied, read BEFORE the query)
	// and k2 (ops begun, read AFTER it) bound the prefixes any monitor
	// could have reflected while the query ran, so the answer must match
	// ref[k] for some k in [k1, k2].
	spawn := func(what string, query func() func(st *epochRefState) bool) {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-writerDone:
					return
				default:
				}
				k1 := done.Load()
				match := query()
				k2 := started.Load()
				if !matchRange(k1, k2, match) {
					t.Errorf("%s: answer matches no op prefix in [%d, %d]", what, k1, k2)
					return
				}
			}
		}()
	}

	for j := 0; j < numPairs; j += 2 {
		j := j
		spawn("connected", func() func(*epochRefState) bool {
			ans, err := live.IsConnected(pairs[j][0], pairs[j][1])
			if err != nil {
				t.Error(err)
			}
			return func(st *epochRefState) bool { return st.connPairs[j] == ans }
		})
	}
	spawn("components", func() func(*epochRefState) bool {
		ans, err := live.NumComponents()
		if err != nil {
			t.Error(err)
		}
		return func(st *epochRefState) bool { return st.components == ans }
	})
	spawn("bipartite", func() func(*epochRefState) bool {
		ans, err := live.IsBipartite()
		if err != nil {
			t.Error(err)
		}
		return func(st *epochRefState) bool { return st.bipartite == ans }
	})
	spawn("msfweight", func() func(*epochRefState) bool {
		ans, err := live.MSFWeight()
		if err != nil {
			t.Error(err)
		}
		return func(st *epochRefState) bool { return st.msfweight == ans }
	})
	spawn("cycle", func() func(*epochRefState) bool {
		ans, err := live.HasCycle()
		if err != nil {
			t.Error(err)
		}
		return func(st *epochRefState) bool { return st.cycle == ans }
	})
	// KCertInfo: both values from ONE lock hold — they must match a single
	// prefix JOINTLY, which two separate queries could not guarantee.
	spawn("kcert-info", func() func(*epochRefState) bool {
		size, conn, err := live.KCertInfo()
		if err != nil {
			t.Error(err)
		}
		return func(st *epochRefState) bool { return st.kcertSize == size && st.kcertConn == conn }
	})
	// Stats: the counters are staged state and mutually consistent — they
	// must jointly describe one prefix (never, say, Arrivals from op k+1
	// with Expired from op k).
	spawn("stats", func() func(*epochRefState) bool {
		got := live.Stats()
		got.ApplyNS = 0
		got.Epoch = 0
		return func(st *epochRefState) bool { return st.stats == got }
	})
	// QuerySummary: EVERY monitor's answer from one published record.
	// All fields must match jointly the prefix whose epoch the summary
	// carries: the reference runs the same schedule, so it reaches the
	// same epochs after the same ops.
	spawn("summary", func() func(*epochRefState) bool {
		qs := live.QuerySummary()
		if qs.Epoch&1 == 1 {
			t.Error("QuerySummary returned an odd epoch")
		}
		return func(st *epochRefState) bool {
			return st.epoch == qs.Epoch &&
				st.components == *qs.Components &&
				st.bipartite == *qs.Bipartite &&
				st.msfweight == *qs.MSFWeight &&
				st.cycle == *qs.HasCycle &&
				st.kcertSize == *qs.CertificateSize
		}
	})

	<-writerDone
	readWG.Wait()

	// The fully-applied live window must equal the reference end state.
	final := captureRefState(t, live, pairs)
	finalRef := ref[numOps]
	if final.components != finalRef.components || final.bipartite != finalRef.bipartite ||
		final.msfweight != finalRef.msfweight || final.cycle != finalRef.cycle ||
		final.kcertSize != finalRef.kcertSize || final.kcertConn != finalRef.kcertConn ||
		final.stats != finalRef.stats {
		t.Fatalf("final state diverged from sequential reference:\n got %+v\nwant %+v", final, finalRef)
	}
}

// TestQuerySummaryConsistentUnderWriter: with a writer saturating the
// window (back-to-back applies), QuerySummary must keep returning whole
// summaries of the configured monitors and never an odd epoch.
func TestQuerySummaryConsistentUnderWriter(t *testing.T) {
	wm, err := NewWindowManager(WindowConfig{N: 60, Seed: 3, MaxArrivals: 200})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(11))
		for {
			select {
			case <-stop:
				return
			default:
			}
			wm.Apply(randomEdges(r, 60, 40))
		}
	}()
	for i := 0; i < 200; i++ {
		qs := wm.QuerySummary()
		if qs.Epoch&1 == 1 {
			t.Fatalf("odd epoch %d from QuerySummary", qs.Epoch)
		}
		if qs.Components == nil || qs.CertificateSize == nil {
			t.Fatal("summary missing configured monitors")
		}
	}
	close(stop)
	wg.Wait()
}

// TestScalarReadsDoNotWaitForApply holds an apply inside the fan-out — on
// the msfweight slot in one subtest, on the forest slot in the other,
// with the slot's write lock held — and checks that components, cycle,
// bipartite, msfweight and the summary answer meanwhile, all from the
// epoch before the held apply. Once it is released they all move to the
// next one.
func TestScalarReadsDoNotWaitForApply(t *testing.T) {
	for _, slot := range []string{MonitorMSFWeight, SlotForest} {
		t.Run(slot, func(t *testing.T) { testScalarReadsDoNotWaitForApply(t, slot) })
	}
}

func testScalarReadsDoNotWaitForApply(t *testing.T, slot string) {
	wm, err := NewWindowManager(WindowConfig{N: 8, Seed: 5, Monitor: MonitorConfig{MaxWeight: 1 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	// The path 0-1-2-3: a forest, so bipartite and cycle-free.
	if err := wm.Apply([]Edge{{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 5}, {U: 2, V: 3, W: 7}}); err != nil {
		t.Fatal(err)
	}
	before := wm.QuerySummary()

	held, release := make(chan struct{}), make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock()
	wm.setApplyCheck(func(s string) {
		if s == slot {
			close(held)
			<-release
		}
	})
	// The chord 0-2 closes a triangle and 4-5 joins two more vertices, so
	// every scalar answer changes.
	applied := make(chan error, 1)
	go func() { applied <- wm.Apply([]Edge{{U: 0, V: 2, W: 11}, {U: 4, V: 5, W: 13}}) }()
	<-held
	if s := wm.mux.slots[slices.Index(wm.mux.slotNames(), slot)]; s.mu.TryRLock() {
		s.mu.RUnlock()
		t.Fatalf("the %s slot's lock is free during its apply", slot)
	}

	type reads struct {
		sum        QuerySummary
		components int
		cycle      bool
		bipartite  bool
		weight     float64
		err        error
	}
	read := func() reads {
		r := reads{sum: wm.QuerySummary()}
		var errs [4]error
		r.components, errs[0] = wm.NumComponents()
		r.cycle, errs[1] = wm.HasCycle()
		r.bipartite, errs[2] = wm.IsBipartite()
		r.weight, errs[3] = wm.MSFWeight()
		r.err = errors.Join(errs[:]...)
		return r
	}
	got := make(chan reads, 1)
	go func() { got <- read() }()
	var r reads
	select {
	case r = <-got:
	case <-time.After(5 * time.Second):
		t.Fatalf("scalar reads waited for the apply held on the %s slot", slot)
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !reflect.DeepEqual(r.sum, before) || r.components != *before.Components || r.cycle != *before.HasCycle ||
		r.bipartite != *before.Bipartite || r.weight != *before.MSFWeight {
		got, _ := json.Marshal(r.sum)
		want, _ := json.Marshal(before)
		t.Fatalf("reads during the held apply: components %d, cycle %v, bipartite %v, msfweight %v, summary %s; want the answers before it: %s",
			r.components, r.cycle, r.bipartite, r.weight, got, want)
	}

	unblock()
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	r = read()
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.sum.Epoch != before.Epoch+2 || r.components != 4 || !r.cycle || r.bipartite || r.weight <= *before.MSFWeight {
		t.Fatalf("reads after the apply: epoch %d, components %d, cycle %v, bipartite %v, msfweight %v; want epoch %d, 4 components, a cycle, not bipartite, more weight than %v",
			r.sum.Epoch, r.components, r.cycle, r.bipartite, r.weight, before.Epoch+2, *before.MSFWeight)
	}
}
