package stream

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/wal"
)

// faultRig is the shared harness of the fault-schedule differentials: a
// durable registry whose disk I/O runs through a fault.Injector, next to
// an uninterrupted in-memory reference manager fed identical batches.
type faultRig struct {
	t     *testing.T
	clock *FakeClock
	rng   *rand.Rand
	dir   string
	inj   *fault.Injector
	cfg   RegistryConfig
	ref   *WindowManager
	reg   *WindowRegistry
	svc   *Service
}

func newFaultRig(t *testing.T, mutate func(*PersistenceConfig)) *faultRig {
	t.Helper()
	const n = 48
	r := &faultRig{
		t:     t,
		clock: NewFakeClock(time.Unix(1_700_000_000, 0)),
		rng:   rand.New(rand.NewSource(42)),
		dir:   t.TempDir(),
		inj:   fault.NewInjector(nil, 1),
	}
	winCfg := WindowConfig{
		N:           n,
		Seed:        0xFEED,
		Monitor:     MonitorConfig{Eps: 0.25, MaxWeight: 1 << 10, K: 3},
		MaxArrivals: 250,
		Clock:       r.clock,
	}
	pcfg := &PersistenceConfig{
		Dir: r.dir, Fsync: FsyncOff, SegmentBytes: 1 << 10,
		SnapshotThreshold: -1,
		// An aggressive heal cadence so the degrade→heal round trip fits a
		// unit test; production default is 250ms with backoff.
		HealRetry: time.Millisecond,
	}
	if mutate != nil {
		mutate(pcfg)
	}
	r.cfg = RegistryConfig{
		Template: ServiceConfig{
			Window: winCfg,
			Ingest: IngesterConfig{MaxBatch: 1 << 16, MaxDelay: time.Hour, Clock: r.clock},
		},
		Persistence:   pcfg,
		FaultInjector: r.inj,
	}
	var err error
	if r.ref, err = NewWindowManager(winCfg); err != nil {
		t.Fatal(err)
	}
	if r.reg, _, err = OpenRegistry(r.cfg); err != nil {
		t.Fatal(err)
	}
	if r.svc, err = r.reg.Create("w", r.reg.Template()); err != nil {
		t.Fatal(err)
	}
	return r
}

// step feeds one identical random batch to the reference manager and the
// durable pipeline (one Submit+Flush = one applied batch).
func (r *faultRig) step(svc *Service) {
	r.t.Helper()
	r.clock.Advance(time.Duration(r.rng.Intn(4000)) * time.Millisecond)
	n := r.cfg.Template.Window.N
	k := 1 + r.rng.Intn(24)
	batch := make([]Edge, k)
	for i := range batch {
		u := int32(r.rng.Intn(n))
		v := int32(r.rng.Intn(n))
		for v == u {
			v = int32(r.rng.Intn(n))
		}
		batch[i] = Edge{U: u, V: v, W: 1 + r.rng.Int63n(1<<10), T: r.clock.Now()}
	}
	r.ref.Apply(append([]Edge(nil), batch...))
	if err := svc.Submit(batch); err != nil {
		r.t.Fatal(err)
	}
	svc.Flush()
}

func (r *faultRig) compare(tag string, wm *WindowManager) {
	r.t.Helper()
	n := r.cfg.Template.Window.N
	pairs := make([][2]int32, 300)
	for i := range pairs {
		pairs[i] = [2]int32{int32(r.rng.Intn(n)), int32(r.rng.Intn(n))}
	}
	now := r.clock.Now()
	r.ref.ExpireByAge(now)
	wm.ExpireByAge(now)
	diffAnswers(r.t, tag, answersOf(r.t, r.ref, pairs), answersOf(r.t, wm, pairs))
}

// durableSubmit runs a sync-ack submission to completion. Durable acks are
// delivered by the flush that covers the submission, and this harness uses
// a frozen FakeClock with MaxDelay=1h — no flush ever fires on its own —
// so the waiter runs in a goroutine while we drive Flush until it acks.
func (r *faultRig) durableSubmit(edges []Edge) error {
	r.t.Helper()
	ch := make(chan error, 1)
	go func() { ch <- r.svc.submitOwnedDurable(context.Background(), edges) }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		r.svc.Flush()
		select {
		case err := <-ch:
			return err
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			r.t.Fatal("durable submit never acked")
		}
	}
}

// waitNotDegraded polls the live degraded set until the self-heal loop
// declares the window healthy again.
func (r *faultRig) waitNotDegraded() {
	r.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if len(r.reg.DegradedWindows()) == 0 {
			return
		}
		if time.Now().After(deadline) {
			ps, _ := r.reg.PersistenceStats()
			r.t.Fatalf("window still degraded after 10s: %+v", ps)
		}
	}
}

// degradeUnderRules streams batches with the given fault rules armed until
// the window enters the degraded state (or the step budget runs out).
func (r *faultRig) degradeUnderRules(rules ...fault.Rule) {
	r.t.Helper()
	for _, rule := range rules {
		if _, err := r.inj.Set(rule); err != nil {
			r.t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		r.step(r.svc)
		if len(r.reg.DegradedWindows()) > 0 {
			return
		}
	}
	r.t.Fatalf("window never degraded under rules %+v", rules)
}

// TestWALOutageDegradeHealDifferential is the tentpole's acceptance test:
// a WAL append outage mid-stream must flip the window into the degraded
// state (sync-ack submissions fail with ErrWindowDegraded instead of lying,
// async ingest keeps flowing), the self-heal loop must re-arm the log and
// close the un-logged gap with a forced snapshot once the fault clears, and
// a subsequent kill-and-recover must answer every monitor query identically
// to the uninterrupted reference — the outage left no durability hole.
func TestWALOutageDegradeHealDifferential(t *testing.T) {
	r := newFaultRig(t, nil)
	for i := 0; i < 40; i++ {
		r.step(r.svc)
	}

	// Outage: every WAL segment write AND snapshot-temp write fails with
	// EIO. Blocking only .seg would let the heal loop close the gap
	// immediately through a forced snapshot (by design — the heal path
	// avoids the broken log); a full write outage holds the window
	// degraded until the fault actually clears.
	r.degradeUnderRules(
		fault.Rule{ID: "outage-seg", Op: fault.OpWrite, Path: ".seg", Kind: fault.KindEIO},
		fault.Rule{ID: "outage-snap", Op: fault.OpWrite, Path: ".snap-tmp-", Kind: fault.KindEIO},
	)

	// Degraded is a served state: async ingest continues...
	for i := 0; i < 20; i++ {
		r.step(r.svc)
	}
	// ...but a durable ack would be a lie, so sync submissions fail loudly.
	// (The edges are still accepted and applied — only the receipt fails.)
	if err := r.durableSubmit([]Edge{{U: 1, V: 2, W: 3, T: r.clock.Now()}}); !errors.Is(err, ErrWindowDegraded) {
		t.Fatalf("sync-ack submit while degraded: err=%v, want ErrWindowDegraded", err)
	}
	ps, _ := r.reg.PersistenceStats()
	if ps.DegradedWindows != 1 || ps.GapEdges == 0 || ps.AppendErrors == 0 {
		t.Fatalf("degraded stats: %+v", ps)
	}
	// The window itself still answers queries (availability over durability).
	if _, err := r.svc.Window().NumComponents(); err != nil {
		t.Fatalf("query while degraded: %v", err)
	}

	// Fault clears; the heal loop re-arms the log and closes the gap.
	r.inj.Reset()
	r.waitNotDegraded()
	ps, _ = r.reg.PersistenceStats()
	if ps.WALHeals == 0 || ps.GapEdges != 0 {
		t.Fatalf("healed stats: %+v", ps)
	}
	if err := r.durableSubmit([]Edge{{U: 3, V: 4, W: 5, T: r.clock.Now()}}); err != nil {
		t.Fatalf("sync-ack submit after heal: %v", err)
	}
	r.ref.Apply([]Edge{{U: 1, V: 2, W: 3, T: r.clock.Now()}, {U: 3, V: 4, W: 5, T: r.clock.Now()}})

	// Post-heal streaming appends to the healed log.
	for i := 0; i < 20; i++ {
		r.step(r.svc)
	}

	// KILL: abandon the registry and recover from disk. The degraded
	// interval's arrivals must be present (covered by the heal's forced
	// snapshot), not silently missing.
	reg2, rep, err := OpenRegistry(r.cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer reg2.Close()
	if rep.Windows != 1 || rep.DegradedAtCrash != 0 || rep.LostEdges != 0 {
		t.Fatalf("recovery report %+v", rep)
	}
	if rep.Snapshots != 1 {
		t.Fatalf("recovery did not seed from the heal's forced snapshot: %+v", rep)
	}
	svc2, _ := reg2.Get("w")
	r.compare("post-outage recovery", svc2.Window())

	for i := 0; i < 20; i++ {
		r.step(svc2)
	}
	r.compare("post-outage recovery stream", svc2.Window())
}

// TestENOSPCDuringRotationDegradesAndHeals injects ENOSPC at segment
// rotation (opening the next *.seg file) — the disk-full shape — and pins
// the same degrade → heal → recover-clean contract.
func TestENOSPCDuringRotationDegradesAndHeals(t *testing.T) {
	r := newFaultRig(t, nil)
	for i := 0; i < 10; i++ {
		r.step(r.svc)
	}
	// The currently-open segment keeps working; the fault lands on the
	// next rotation's segment open. The degraded interval can be too
	// short to observe — the heal loop may re-arm the log without a new
	// open and flip the window back to healthy between polls — so the
	// cumulative counters are the witness that degrade→heal happened.
	if _, err := r.inj.Set(fault.Rule{ID: "full", Op: fault.OpOpen, Path: ".seg", Kind: fault.KindENOSPC}); err != nil {
		t.Fatal(err)
	}
	fired := false
	for i := 0; i < 64 && !fired; i++ {
		r.step(r.svc)
		ps, _ := r.reg.PersistenceStats()
		fired = ps.AppendErrors > 0
	}
	if !fired {
		t.Fatal("segment rotation never hit the ENOSPC rule")
	}
	r.inj.Reset()
	r.waitNotDegraded()
	if ps, _ := r.reg.PersistenceStats(); ps.WALHeals == 0 {
		t.Fatalf("rotation failure degraded the window but no heal was recorded: %+v", ps)
	}

	for i := 0; i < 10; i++ {
		r.step(r.svc)
	}
	reg2, rep, err := OpenRegistry(r.cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer reg2.Close()
	if rep.DegradedAtCrash != 0 || rep.LostEdges != 0 {
		t.Fatalf("recovery report %+v", rep)
	}
	svc2, _ := reg2.Get("w")
	r.compare("post-enospc recovery", svc2.Window())
}

// failDuringHeldHeal fails one append of w, holds the heal that follows in
// its last step, the manifest write, with a one-shot 1 s latency rule, and
// fails a second append while that write is held. The heal turns degraded
// off before the write and holds the persister lock across it. It returns
// w's persisted window, whose flags tell whether w is degraded and whether
// the held heal is still running (healing is not exported).
func (r *faultRig) failDuringHeldHeal() *persistedWindow {
	r.t.Helper()
	pw := r.reg.persist.wins.Load()["w"]
	for _, rule := range []fault.Rule{
		{ID: "hold", Op: fault.OpWrite, Path: wal.ManifestName + ".tmp", Kind: fault.KindLatency, LatencyMS: 1000, Count: 1},
		{ID: "eio1", Op: fault.OpWrite, Path: ".seg", Kind: fault.KindEIO, Count: 1},
	} {
		if _, err := r.inj.Set(rule); err != nil {
			r.t.Fatal(err)
		}
	}
	r.step(r.svc)
	held := func() bool {
		for _, st := range r.inj.Rules() {
			if st.ID == "hold" {
				return st.Fired == 1
			}
		}
		return false
	}
	for deadline := time.Now().Add(10 * time.Second); !held(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			r.t.Fatal("the first heal never reached its manifest write")
		}
	}
	if _, err := r.inj.Set(fault.Rule{ID: "eio2", Op: fault.OpWrite, Path: ".seg", Kind: fault.KindEIO, Count: 1}); err != nil {
		r.t.Fatal(err)
	}
	r.step(r.svc)
	return pw
}

// TestHealNotLostInHealTail pins that every append failure gets a heal,
// including one that lands after a heal has turned degraded off but
// before its loop has ended.
func TestHealNotLostInHealTail(t *testing.T) {
	r := newFaultRig(t, nil)
	defer r.reg.Close()
	for i := 0; i < 10; i++ {
		r.step(r.svc)
	}
	pw := r.failDuringHeldHeal()
	if !pw.degraded.Load() || !pw.healing.Load() {
		t.Fatalf("second append: degraded %v, first heal running %v; want both", pw.degraded.Load(), pw.healing.Load())
	}
	r.inj.Reset()
	r.waitNotDegraded()
	if ps, _ := r.reg.PersistenceStats(); ps.WALHeals != 2 || ps.GapEdges != 0 {
		t.Fatalf("after two failures and their heals: %+v", ps)
	}
}

// TestDegradedReadsSkipManifestWrite pins that reading a window's
// durability state never waits on the persister lock, which a heal holds
// across its manifest write and a checkpoint across its log syncs and
// manifest save. While a heal is held in that write and w is degraded
// again, DegradedWindows and GET /windows/w/stats must each answer within
// 100 ms and report w degraded.
func TestDegradedReadsSkipManifestWrite(t *testing.T) {
	r := newFaultRig(t, nil)
	defer r.reg.Close()
	ts := httptest.NewServer(NewRegistryServer(r.reg, ServerConfig{}).Handler())
	defer ts.Close()
	for i := 0; i < 10; i++ {
		r.step(r.svc)
	}
	r.failDuringHeldHeal()

	start := time.Now()
	deg := r.reg.DegradedWindows()
	if took := time.Since(start); took > 100*time.Millisecond || len(deg) != 1 || deg[0] != "w" {
		t.Errorf("DegradedWindows() = %v after %v; want [w] within 100ms", deg, took)
	}
	var st struct {
		Health struct {
			State string `json:"state"`
		} `json:"health"`
	}
	start = time.Now()
	code := getJSON(t, ts.URL+"/windows/w/stats", &st)
	if took := time.Since(start); took > 100*time.Millisecond || code != http.StatusOK || st.Health.State != "degraded" {
		t.Errorf("GET /windows/w/stats: status %d, state %q after %v; want 200, degraded within 100ms", code, st.Health.State, took)
	}
	r.inj.Reset()
	r.waitNotDegraded()
}

// TestSnapshotFsyncFailureFailsCheckpointLoudly injects an fsync failure
// into the snapshot commit path: the checkpoint must fail (and count a
// consecutive-failure streak for the loop's backoff), no *.snap file may
// appear, and once the fault clears a checkpoint must succeed and reset
// the streak — with recovery still answering identically.
func TestSnapshotFsyncFailureFailsCheckpointLoudly(t *testing.T) {
	r := newFaultRig(t, func(p *PersistenceConfig) {
		p.SnapshotThreshold = 1 // every checkpoint wants a snapshot
	})
	for i := 0; i < 30; i++ {
		r.step(r.svc)
	}
	if _, err := r.inj.Set(fault.Rule{
		ID: "snapsync", Op: fault.OpSync, Path: ".snap-tmp-", Kind: fault.KindEIO,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.reg.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded with snapshot fsync failing")
	}
	ps, _ := r.reg.PersistenceStats()
	if ps.CheckpointFailStreak == 0 || ps.CheckpointErrors == 0 {
		t.Fatalf("checkpoint failure not counted: %+v", ps)
	}
	if got := countSnapshots(t, r.dir+"/windows/w"); got != 0 {
		t.Fatalf("%d snapshot files committed despite fsync failure", got)
	}
	if len(r.reg.DegradedWindows()) != 0 {
		t.Fatal("snapshot failure must not degrade the window (the WAL is intact)")
	}

	r.inj.Reset()
	if _, err := r.reg.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after fault cleared: %v", err)
	}
	ps, _ = r.reg.PersistenceStats()
	if ps.CheckpointFailStreak != 0 {
		t.Fatalf("fail streak not reset: %+v", ps)
	}
	if got := countSnapshots(t, r.dir+"/windows/w"); got != 1 {
		t.Fatalf("%d snapshot files after recovered checkpoint, want 1", got)
	}

	reg2, _, err := OpenRegistry(r.cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer reg2.Close()
	svc2, _ := reg2.Get("w")
	r.compare("post-snapshot-failure recovery", svc2.Window())
}

// TestKillWhileDegradedIsLoud pins the correct-or-loud contract for the
// one unavoidable hole: a crash while still degraded loses the un-logged
// arrivals, and recovery must SAY so — DegradedAtCrash and LostEdges in
// the report — rather than silently serving a shorter window.
func TestKillWhileDegradedIsLoud(t *testing.T) {
	r := newFaultRig(t, nil)
	for i := 0; i < 20; i++ {
		r.step(r.svc)
	}
	r.degradeUnderRules(
		fault.Rule{ID: "outage-seg", Op: fault.OpWrite, Path: ".seg", Kind: fault.KindEIO},
		fault.Rule{ID: "outage-snap", Op: fault.OpWrite, Path: ".snap-tmp-", Kind: fault.KindEIO},
	)
	for i := 0; i < 10; i++ {
		r.step(r.svc)
	}
	// Persist the degraded marker the way a live server would (checkpoint
	// runs on a ticker). The checkpoint surfaces the sticky append error —
	// acknowledged data is missing from the log — but still writes the
	// manifest, Degraded marker included.
	if _, err := r.reg.Checkpoint(); err == nil {
		t.Fatal("checkpoint while degraded must surface the append failure")
	}

	// KILL while degraded: the gap is unrecoverable and must be loud.
	r.inj.Reset()
	reg2, rep, err := OpenRegistry(r.cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer reg2.Close()
	if rep.DegradedAtCrash != 1 || rep.LostEdges == 0 {
		t.Fatalf("recovery after degraded crash must be loud, got %+v", rep)
	}
	// The recovered window serves (shorter, but consistent) queries.
	svc2, _ := reg2.Get("w")
	if _, err := svc2.Window().NumComponents(); err != nil {
		t.Fatalf("query after loud recovery: %v", err)
	}
	if len(reg2.DegradedWindows()) != 0 {
		t.Fatal("recovered window must start healthy (the lost gap is already accounted)")
	}
}

// quarantineRig builds an in-memory registry of windows with no MaxAge and
// no durability layer, capped at maxArrivals (0: unbounded), and two
// windows on it, arms a panic on w1's forest-slot apply that fires count
// times, and submits one batch to both.
func quarantineRig(t *testing.T, count int64, maxArrivals int) (reg *WindowRegistry, w1, w2 *Service) {
	t.Helper()
	inj := fault.NewInjector(nil, 1)
	reg = NewRegistry(RegistryConfig{
		FaultInjector: inj,
		Template: ServiceConfig{
			Window: WindowConfig{N: 32, Seed: 7, MaxArrivals: maxArrivals, Monitor: MonitorConfig{Eps: 0.25, MaxWeight: 1 << 10, K: 3}},
			Ingest: IngesterConfig{MaxBatch: 1 << 16, MaxDelay: time.Hour},
		},
	})
	t.Cleanup(reg.Close)
	var err error
	if w1, err = reg.Create("w1", reg.Template()); err != nil {
		t.Fatal(err)
	}
	if w2, err = reg.Create("w2", reg.Template()); err != nil {
		t.Fatal(err)
	}
	if _, err := inj.Set(fault.Rule{
		ID: "boom", Op: fault.OpApply, Path: "w1/" + SlotForest, Kind: fault.KindPanic, Count: count,
	}); err != nil {
		t.Fatal(err)
	}
	batch := []Edge{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 7}, {U: 3, V: 4, W: 9}}
	for _, svc := range []*Service{w1, w2} {
		if err := svc.Submit(append([]Edge(nil), batch...)); err != nil {
			t.Fatal(err)
		}
		svc.Flush()
	}
	if inj.Trips() == 0 {
		t.Fatal("apply panic rule never fired")
	}
	return reg, w1, w2
}

// TestApplyPanicQuarantineIsolation pins the quarantine fault domain with
// no rebuild escape hatch: the panic rule fires on the apply and again on
// the rebuild's final round, so the slot is quarantined permanently — the
// queries of every monitor it answers fail with ErrMonitorQuarantined
// (conn and cyclefree read the one forest, and bipartite reads c(G) from
// it), the msfweight slot of the same window and every other window keep
// answering, and the quarantine is machine-readable in the query summary.
// The failed rebuild releases the writer: the window keeps applying.
func TestApplyPanicQuarantineIsolation(t *testing.T) {
	reg, w1, w2 := quarantineRig(t, 2, 64)

	// The victim monitor is quarantined; its failed rebuild marks it
	// permanent rather than retrying forever.
	var q []QuarantineInfo
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		q = w1.Window().Quarantined()
		if len(q) == 1 && q[0].Permanent {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("quarantine not permanent after 5s: %+v", q)
		}
	}
	if q[0].Monitor != SlotForest || q[0].Reason == "" || q[0].RebuildErr == "" {
		t.Fatalf("quarantine record: %+v", q[0])
	}
	// The window's stats serve the whole record, stack included.
	ts := httptest.NewServer(NewRegistryServer(reg, ServerConfig{}).Handler())
	defer ts.Close()
	var st struct {
		Health struct {
			State       string           `json:"state"`
			Quarantined []QuarantineInfo `json:"quarantined"`
		} `json:"health"`
	}
	if code := getJSON(t, ts.URL+"/windows/w1/stats", &st); code != http.StatusOK {
		t.Fatalf("w1 stats status %d", code)
	}
	if hq := st.Health.Quarantined; st.Health.State != "quarantined" || len(hq) != 1 ||
		hq[0].Monitor != SlotForest || hq[0].Reason == "" || hq[0].Stack == "" {
		t.Fatalf("w1 stats health: %+v", st.Health)
	}

	// Quarantined slot: 503-shaped errors, machine-readable, for every
	// monitor the forest answers.
	if _, err := w1.Window().IsConnected(0, 1); !errors.Is(err, ErrMonitorQuarantined) {
		t.Fatalf("IsConnected on quarantined monitor: err=%v, want ErrMonitorQuarantined", err)
	}
	if _, err := w1.Window().HasCycle(); !errors.Is(err, ErrMonitorQuarantined) {
		t.Fatalf("HasCycle on quarantined monitor: err=%v, want ErrMonitorQuarantined", err)
	}
	// Bipartite compares the cover's count with the forest's, so the
	// forest's quarantine takes it too, and the error names the forest.
	if _, err := w1.Window().IsBipartite(); !errors.Is(err, ErrMonitorQuarantined) ||
		!strings.Contains(err.Error(), "slot "+SlotForest) {
		t.Fatalf("IsBipartite with the forest quarantined: err=%v, want ErrMonitorQuarantined naming slot %s", err, SlotForest)
	}
	// The msfweight slot of the same window keeps answering.
	if wt, err := w1.Window().MSFWeight(); err != nil || wt <= 0 {
		t.Fatalf("msfweight on w1 = %v, %v; want the batch's positive weight", wt, err)
	}
	// The consistent summary serves what it can and names the hole.
	sum := w1.Window().QuerySummary()
	if len(sum.Quarantined) != 1 || sum.Quarantined[0] != SlotForest {
		t.Fatalf("summary quarantined list: %+v", sum.Quarantined)
	}
	if sum.Bipartite != nil || sum.Components != nil || sum.MSFWeight == nil {
		t.Fatalf("summary with the forest quarantined: bipartite %v, components %v, msfweight %v; want only msfweight",
			sum.Bipartite, sum.Components, sum.MSFWeight)
	}
	// The other window is a separate fault domain: fully healthy.
	if len(w2.Window().Quarantined()) != 0 {
		t.Fatal("w2 caught w1's quarantine")
	}
	if conn, err := w2.Window().IsConnected(0, 2); err != nil || !conn {
		t.Fatalf("w2 IsConnected(0,2) = %v, %v; want true", conn, err)
	}

	// The rebuild panicked with the writer held out; the window's next
	// batch must still apply.
	before, _ := w1.Window().MSFWeight()
	if err := w1.Submit([]Edge{{U: 5, V: 6, W: 11}}); err != nil {
		t.Fatal(err)
	}
	flushed := make(chan struct{})
	go func() { w1.Flush(); close(flushed) }()
	select {
	case <-flushed:
	case <-time.After(5 * time.Second):
		t.Fatal("w1 stopped applying after its rebuild panicked")
	}
	if after, err := w1.Window().MSFWeight(); err != nil || after <= before {
		t.Fatalf("msfweight on w1 after one more edge = %v, %v; want above %v", after, err, before)
	}
}

// TestApplyPanicUnboundedWindowStaysQuarantined: an in-memory window with
// no expiry keeps no live ring, so a slot whose apply panicked once has
// nothing to rebuild from and stays quarantined, marked permanent.
func TestApplyPanicUnboundedWindowStaysQuarantined(t *testing.T) {
	_, w1, _ := quarantineRig(t, 1, 0)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		q := w1.Window().Quarantined()
		if len(q) == 1 && q[0].Permanent {
			if q[0].RebuildErr != errNoRing.Error() {
				t.Fatalf("rebuild error %q, want %q", q[0].RebuildErr, errNoRing.Error())
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("quarantine not permanent after 5s: %+v", q)
		}
	}
}

// TestApplyPanicRebuildCountOnlyWindow: an in-memory window with
// count-based expiry only keeps its live ring too, so a slot whose apply
// panicked once is rebuilt from it while the stream flows on, and the
// window then answers like w2, the same stream without the fault.
func TestApplyPanicRebuildCountOnlyWindow(t *testing.T) {
	_, w1, w2 := quarantineRig(t, 1, 64)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		batch := randomEdges(r, 32, 8)
		for _, svc := range []*Service{w1, w2} {
			if err := svc.Submit(append([]Edge(nil), batch...)); err != nil {
				t.Fatal(err)
			}
			svc.Flush()
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		q := w1.Window().Quarantined()
		if len(q) == 0 {
			break
		}
		if q[0].Permanent {
			t.Fatalf("rebuild failed: %+v", q[0])
		}
		if time.Now().After(deadline) {
			t.Fatalf("forest slot still quarantined after 10s: %+v", q)
		}
	}
	pairs := make([][2]int32, 200)
	for i := range pairs {
		pairs[i] = [2]int32{int32(r.Intn(32)), int32(r.Intn(32))}
	}
	diffAnswers(t, "rebuilt", answersOf(t, w2.Window(), pairs), answersOf(t, w1.Window(), pairs))
}

// TestApplyPanicRebuildRestores pins the self-healing half of quarantine
// on a time-expired window: the background rebuild replays the window's
// unexpired suffix into a fresh monitor and swaps it in — queries return
// and answer exactly like an uninterrupted reference, no restart needed.
// It panics msfweight, and then the forest slot, whose rebuild must come
// back at the same order (K = 3 here) for cycle and kcert to match. The
// forest case streams a bipartite graph: bipartite reads c(G) from the
// forest, so it must come back true with the rebuilt forest's count. The
// rebuilt msfweight monitor must time its levels for the flight recorder
// as the original did.
func TestApplyPanicRebuildRestores(t *testing.T) {
	for _, slot := range []string{MonitorMSFWeight, SlotForest} {
		t.Run(slot, func(t *testing.T) { testApplyPanicRebuildRestores(t, slot) })
	}
}

func testApplyPanicRebuildRestores(t *testing.T, slot string) {
	const n = 48
	inj := fault.NewInjector(nil, 1)
	clock := NewFakeClock(time.Unix(1_700_000_000, 0))
	// A frozen clock with a wide MaxAge keeps every arrival in the window,
	// so the rebuild replays the whole stream.
	winCfg := WindowConfig{
		N: n, Seed: 0xFEED,
		Monitor: MonitorConfig{Eps: 0.25, MaxWeight: 1 << 10, K: 3},
		MaxAge:  time.Hour,
		Clock:   clock,
	}
	reg := NewRegistry(RegistryConfig{
		FaultInjector: inj,
		Template: ServiceConfig{
			Window: winCfg,
			Ingest: IngesterConfig{MaxBatch: 1 << 16, MaxDelay: time.Hour, Clock: clock},
		},
	})
	defer reg.Close()
	svc, err := reg.Create("w", reg.Template())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewWindowManager(winCfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	bipartite := slot == SlotForest
	topOnly := false // every weight MaxWeight: only msfweight's top level admits the batch
	step := func() {
		k := 1 + rng.Intn(24)
		batch := make([]Edge, k)
		for i := range batch {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			for v == u || bipartite && (u-v)%2 == 0 {
				v = int32(rng.Intn(n))
			}
			batch[i] = Edge{U: u, V: v, W: 1 + rng.Int63n(1<<10), T: clock.Now()}
			if topOnly {
				batch[i].W = 1 << 10
			}
		}
		ref.Apply(append([]Edge(nil), batch...))
		if err := svc.Submit(batch); err != nil {
			t.Fatal(err)
		}
		svc.Flush()
	}

	for i := 0; i < 15; i++ {
		step()
	}
	// panicNext makes the next batch panic the slot's apply; the fan-out
	// quarantines it and keeps applying to the other slots.
	panicNext := func(id string) {
		t.Helper()
		trips := inj.Trips()
		if _, err := inj.Set(fault.Rule{
			ID: id, Op: fault.OpApply, Path: "w/" + slot, Kind: fault.KindPanic, Count: 1,
		}); err != nil {
			t.Fatal(err)
		}
		step()
		if inj.Trips() == trips {
			t.Fatal("apply panic rule never fired")
		}
	}
	awaitRebuild := func() {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			if len(svc.Window().Quarantined()) == 0 {
				return
			}
			svc.Window().kickRebuilds()
			if time.Now().After(deadline) {
				t.Fatalf("monitor still quarantined after 10s: %+v", svc.Window().Quarantined())
			}
		}
	}
	panicNext("boom")
	// Stream on while the rebuild races the writer: the rebuild's catch-up
	// rounds must converge regardless.
	for i := 0; i < 15; i++ {
		step()
	}
	awaitRebuild()

	pairs := make([][2]int32, 200)
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	got := answersOf(t, svc.Window(), pairs)
	diffAnswers(t, "post-rebuild", answersOf(t, ref, pairs), got)
	if bipartite && !got.bipartite {
		t.Fatal("post-rebuild: a window of even-odd edges reads non-bipartite")
	}
	if slot == MonitorMSFWeight {
		topOnly = true
		step()
		topOnly = false
		top := int32(svc.Window().mux.byName[MonitorMSFWeight].mon.(*msfWeightMonitor).a.Levels() - 1)
		views := reg.Flight().Traces(trace.Filter{Window: "w", Kind: "batch", Limit: 1})
		if len(views) != 1 {
			t.Fatalf("%d batch traces after a flushed batch", len(views))
		}
		var levels []int32
		for _, sp := range views[0].Spans {
			if sp.Name == "level" {
				levels = append(levels, *sp.Level)
			}
		}
		if len(levels) != 1 || levels[0] != top {
			t.Fatalf("post-rebuild: a batch only level %d admits traced level spans %v, want [%d]", top, levels, top)
		}
	}

	// And the window stays live: more stream, still reference-equal.
	for i := 0; i < 10; i++ {
		step()
	}
	diffAnswers(t, "post-rebuild stream", answersOf(t, ref, pairs), answersOf(t, svc.Window(), pairs))

	// With no batch after it, the swap itself must republish the answers:
	// the scalar reads serve the rebuilt slot as soon as the quarantine
	// lifts.
	panicNext("boom-last")
	awaitRebuild()
	diffAnswers(t, "rebuilt after the last batch", answersOf(t, ref, pairs), answersOf(t, svc.Window(), pairs))
}
