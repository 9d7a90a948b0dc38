package stream

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
)

// monitorAnswers is everything the five monitors can be asked, snapshotted
// for differential comparison.
type monitorAnswers struct {
	windowLen  int64
	components int
	bipartite  bool
	weight     float64
	certSize   int
	edgeConn   int
	cycle      bool
	connected  []bool
}

func answersOf(t *testing.T, wm *WindowManager, pairs [][2]int32) monitorAnswers {
	t.Helper()
	var a monitorAnswers
	var err error
	a.windowLen = wm.WindowLen()
	if a.components, err = wm.NumComponents(); err != nil {
		t.Fatal(err)
	}
	if a.bipartite, err = wm.IsBipartite(); err != nil {
		t.Fatal(err)
	}
	if a.weight, err = wm.MSFWeight(); err != nil {
		t.Fatal(err)
	}
	if a.certSize, a.edgeConn, err = wm.KCertInfo(); err != nil {
		t.Fatal(err)
	}
	if a.cycle, err = wm.HasCycle(); err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		c, err := wm.IsConnected(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		a.connected = append(a.connected, c)
	}
	return a
}

func diffAnswers(t *testing.T, tag string, ref, got monitorAnswers) {
	t.Helper()
	if ref.windowLen != got.windowLen {
		t.Errorf("%s: window len %d, reference %d", tag, got.windowLen, ref.windowLen)
	}
	if ref.components != got.components {
		t.Errorf("%s: components %d, reference %d", tag, got.components, ref.components)
	}
	if ref.bipartite != got.bipartite {
		t.Errorf("%s: bipartite %v, reference %v", tag, got.bipartite, ref.bipartite)
	}
	if ref.weight != got.weight {
		t.Errorf("%s: msf weight %v, reference %v", tag, got.weight, ref.weight)
	}
	if ref.certSize != got.certSize {
		t.Errorf("%s: certificate size %d, reference %d", tag, got.certSize, ref.certSize)
	}
	if ref.edgeConn != got.edgeConn {
		t.Errorf("%s: edge connectivity %d, reference %d", tag, got.edgeConn, ref.edgeConn)
	}
	if ref.cycle != got.cycle {
		t.Errorf("%s: cycle %v, reference %v", tag, got.cycle, ref.cycle)
	}
	for i := range ref.connected {
		if ref.connected[i] != got.connected[i] {
			t.Errorf("%s: connected(pair %d) %v, reference %v", tag, i, got.connected[i], ref.connected[i])
		}
	}
}

// Snapshot scenarios for the kill-and-recover differential: where (if
// anywhere) a live-edge snapshot lands relative to the kill point and the
// expiry watermark.
const (
	snapNone   = "none"       // snapshots disabled: pure suffix replay (the PR3 path)
	snapFresh  = "at-kill"    // snapshot written right before the kill: no post-snapshot suffix
	snapSuffix = "mid-stream" // snapshot mid-stream: recovery seeds it, then replays the suffix
	snapStale  = "stale"      // snapshot early, later checkpoint advances the watermark past its end
)

// TestKillAndRecoverDifferential is the durability subsystem's acceptance
// test: a registry is abandoned mid-stream — never closed, files left
// open, goroutines left running, exactly a SIGKILL'd process image — and
// a recovered registry over the same data directory must answer every
// monitor query identically to an uninterrupted reference run, both right
// after recovery and after streaming the rest of the schedule into it.
// Mid-stream checkpoints exercise watermark persistence, segment GC and
// snapshot compaction on the way; the scenario axis covers recovery with
// no snapshot, a snapshot at the kill point, a snapshot followed by a
// logged suffix, and a stale snapshot the expiry watermark has overtaken.
func TestKillAndRecoverDifferential(t *testing.T) {
	// replayBatch spans the coalescing spectrum — 0 merges the whole
	// suffix into one mega-batch, 64 forces many chunk boundaries, 1
	// degenerates to one apply per logged record — because answer
	// equivalence must hold regardless of how replay re-batches.
	for _, tc := range []struct {
		name        string
		maxArrivals int
		maxAge      time.Duration
		replayBatch int
	}{
		{"count", 250, 0, 0},
		{"time", 0, 80 * time.Second, 64},
		{"count+time", 250, 80 * time.Second, 1},
	} {
		for _, scenario := range []string{snapNone, snapFresh, snapSuffix, snapStale} {
			t.Run(tc.name+"/"+scenario, func(t *testing.T) {
				runKillRecover(t, tc.maxArrivals, tc.maxAge, tc.replayBatch, scenario)
			})
		}
	}
}

// setSnapshotThreshold mutates a live registry's snapshot threshold (test
// control for the scenario axis).
func setSnapshotThreshold(reg *WindowRegistry, v int) {
	reg.persist.mu.Lock()
	reg.persist.cfg.SnapshotThreshold = v
	reg.persist.mu.Unlock()
}

func countSnapshots(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".snap") {
			n++
		}
	}
	return n
}

func runKillRecover(t *testing.T, maxArrivals int, maxAge time.Duration, replayBatch int, scenario string) {
	const (
		n       = 48
		batches = 120
		killAt  = 80 // abandon here
	)
	// Checkpoint schedule per scenario. With threshold 1, every checkpoint
	// whose replayable suffix is non-trivial writes a snapshot; the stale
	// scenario then raises the threshold so its second checkpoint advances
	// the watermark (and GC) WITHOUT refreshing the snapshot.
	threshold := 1
	ckptSteps := map[int]bool{40: true}
	switch scenario {
	case snapNone:
		threshold = -1
	case snapFresh:
		ckptSteps = map[int]bool{killAt - 1: true}
	case snapStale:
		ckptSteps = map[int]bool{15: true, 65: true}
	}
	clock := NewFakeClock(time.Unix(1_700_000_000, 0))
	rng := rand.New(rand.NewSource(42))
	dir := t.TempDir()

	winCfg := WindowConfig{
		N:           n,
		Seed:        0xFEED,
		Monitor:     MonitorConfig{Eps: 0.25, MaxWeight: 1 << 10, K: 3},
		MaxArrivals: maxArrivals,
		MaxAge:      maxAge,
		Clock:       clock,
	}
	regCfg := RegistryConfig{
		Template: ServiceConfig{
			Window: winCfg,
			// One Submit+Flush per schedule step = one applied batch with
			// the step's exact edges, so the logged batch boundaries match
			// the reference's Apply calls.
			Ingest: IngesterConfig{MaxBatch: 1 << 16, MaxDelay: time.Hour, Clock: clock},
		},
		// Tiny segments force rotation so the checkpoint actually prunes.
		Persistence: &PersistenceConfig{
			Dir: dir, Fsync: FsyncOff, SegmentBytes: 1 << 10,
			ReplayBatch: replayBatch, SnapshotThreshold: threshold,
		},
	}

	ref, err := NewWindowManager(winCfg)
	if err != nil {
		t.Fatal(err)
	}
	reg1, rep, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != 0 {
		t.Fatalf("fresh dir recovered %d windows", rep.Windows)
	}
	svc1, err := reg1.Create("w", reg1.Template())
	if err != nil {
		t.Fatal(err)
	}

	// step advances time, builds one random batch stamped with the current
	// fake time, and feeds identical copies to the reference manager and
	// the durable pipeline.
	step := func(svc *Service) {
		clock.Advance(time.Duration(rng.Intn(4000)) * time.Millisecond)
		k := 1 + rng.Intn(24)
		batch := make([]Edge, k)
		for i := range batch {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			for v == u {
				v = int32(rng.Intn(n))
			}
			batch[i] = Edge{U: u, V: v, W: 1 + rng.Int63n(1<<10), T: clock.Now()}
		}
		ref.Apply(append([]Edge(nil), batch...))
		if err := svc.Submit(batch); err != nil {
			t.Fatal(err)
		}
		svc.Flush()
	}

	for i := 0; i < killAt; i++ {
		step(svc1)
		if ckptSteps[i] {
			if scenario == snapStale && i > 15 {
				setSnapshotThreshold(reg1, 1<<30) // watermark moves on; the snapshot must not
			}
			if _, err := reg1.Checkpoint(); err != nil {
				t.Fatalf("mid-stream checkpoint at %d: %v", i, err)
			}
		}
	}

	// Scenario preconditions: the snapshot landscape on disk must be what
	// the scenario claims, or the subtest is not testing its label.
	winDir := filepath.Join(dir, "windows", "w")
	wantSnaps := 1
	if scenario == snapNone {
		wantSnaps = 0
	}
	if got := countSnapshots(t, winDir); got != wantSnaps {
		t.Fatalf("scenario %s: %d snapshot files on disk, want %d", scenario, got, wantSnaps)
	}
	man, err := wal.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	ws := man.Windows["w"]
	if scenario == snapStale && ws.Watermark <= ws.SnapshotEnd {
		t.Fatalf("scenario %s: watermark %d has not overtaken snapshot end %d", scenario, ws.Watermark, ws.SnapshotEnd)
	}

	// KILL: reg1 is abandoned, not closed — no final flush, no final
	// checkpoint, logs still open. Everything the recovered registry
	// knows comes from the manifest, the snapshot and the log files.
	reg2, rep, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if rep.Windows != 1 {
		t.Fatalf("recovery report %+v", rep)
	}
	switch scenario {
	case snapNone:
		if rep.Snapshots != 0 || rep.Edges == 0 {
			t.Fatalf("scenario %s: recovery report %+v", scenario, rep)
		}
	case snapFresh:
		// Snapshot written after the last pre-kill batch: nothing to replay.
		if rep.Snapshots != 1 || rep.SnapshotEdges == 0 || rep.Edges != 0 {
			t.Fatalf("scenario %s: recovery report %+v", scenario, rep)
		}
	case snapSuffix:
		// Snapshot seed plus a logged suffix after it.
		if rep.Snapshots != 1 || rep.SnapshotEdges == 0 || rep.Edges == 0 {
			t.Fatalf("scenario %s: recovery report %+v", scenario, rep)
		}
	case snapStale:
		// The watermark overtook the snapshot, so every edge in it is
		// expired; recovery must SKIP it (seeding would be pure waste) and
		// fall back to watermark-based replay.
		if rep.Snapshots != 0 || rep.SnapshotEdges != 0 || rep.Edges == 0 {
			t.Fatalf("scenario %s: recovery report %+v", scenario, rep)
		}
	}
	svc2, ok := reg2.Get("w")
	if !ok {
		t.Fatal("recovered registry lost the window")
	}

	pairs := make([][2]int32, 300)
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	// Expire both sides to the same "now" before comparing: the durable
	// side's ticker may have already aged it further than the reference's
	// last Apply did.
	compare := func(tag string, wm *WindowManager) {
		now := clock.Now()
		ref.ExpireByAge(now)
		wm.ExpireByAge(now)
		diffAnswers(t, tag, answersOf(t, ref, pairs), answersOf(t, wm, pairs))
	}
	compare("post-recovery", svc2.Window())

	// The recovered window must be live-equivalent, not just
	// query-equivalent: stream the rest of the schedule into it.
	for i := killAt; i < batches; i++ {
		step(svc2)
	}
	compare("post-recovery stream", svc2.Window())
	reg2.Close()

	// One more restart, this time from a clean shutdown (final checkpoint
	// written by Close): answers must still pin to the reference.
	reg3, rep3, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if rep3.Windows != 1 {
		t.Fatalf("second recovery report %+v", rep3)
	}
	svc3, _ := reg3.Get("w")
	compare("clean-restart", svc3.Window())
	reg3.Close()
}

// TestShutdownFlushesBufferedEdges pins the graceful-shutdown contract:
// edges accepted but still buffered under the ingester's MaxDelay deadline
// when the registry closes must be applied AND logged, not dropped.
func TestShutdownFlushesBufferedEdges(t *testing.T) {
	clock := NewFakeClock(time.Unix(1_700_000_000, 0))
	dir := t.TempDir()
	regCfg := RegistryConfig{
		Template: ServiceConfig{
			Window: WindowConfig{N: 16, Monitors: []string{MonitorConn}, Clock: clock},
			Ingest: IngesterConfig{MaxBatch: 512, MaxDelay: time.Hour, Clock: clock},
		},
		Persistence: &PersistenceConfig{Dir: dir, Fsync: FsyncOff},
	}
	reg, _, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := reg.Create("w", reg.Template())
	if err != nil {
		t.Fatal(err)
	}
	edges := []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 4, V: 5}, {U: 5, V: 6}}
	if err := svc.Submit(edges); err != nil {
		t.Fatal(err)
	}
	// Below MaxBatch and the fake clock never fires MaxDelay: the edges
	// sit in the pipeline, unapplied, until shutdown.
	if got := svc.Window().WindowLen(); got != 0 {
		t.Fatalf("edges applied before any flush trigger: window len %d", got)
	}
	reg.Close()
	if got := svc.Window().WindowLen(); got != int64(len(edges)) {
		t.Fatalf("shutdown dropped buffered edges: window len %d, want %d", got, len(edges))
	}
	// And they were logged: a recovered registry sees all of them.
	reg2, rep, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	if rep.Edges != int64(len(edges)) {
		t.Fatalf("recovery replayed %d edges, want %d", rep.Edges, len(edges))
	}
	svc2, _ := reg2.Get("w")
	if got := svc2.Window().WindowLen(); got != int64(len(edges)) {
		t.Fatalf("recovered window len %d, want %d", got, len(edges))
	}
	conn, err := svc2.Window().IsConnected(0, 3)
	if err != nil || !conn {
		t.Fatalf("recovered window lost connectivity: %v %v", conn, err)
	}
}

// TestRecoverManifestWithSequentialFanout: windows created with the
// removed sequential_fanout option keep the key in their manifest config.
// Recovery ignores it: the window comes back with the same answers and
// the default parallel fan-out.
func TestRecoverManifestWithSequentialFanout(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	regCfg := RegistryConfig{
		Template: ServiceConfig{
			Window: WindowConfig{N: n, Seed: 9, MaxArrivals: 300, Monitor: MonitorConfig{K: 3}},
			Ingest: IngesterConfig{MaxBatch: 64, MaxDelay: time.Hour},
		},
		Persistence: &PersistenceConfig{Dir: dir, Fsync: FsyncOff},
	}
	reg, _, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := reg.Create("w", reg.Template())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		if err := svc.Submit(randomEdges(r, n, 50)); err != nil {
			t.Fatal(err)
		}
	}
	svc.Flush()
	pairs := [][2]int32{{0, 1}, {2, 3}, {5, 39}, {17, 30}}
	ref := answersOf(t, svc.Window(), pairs)
	reg.Close()

	m, err := wal.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	ws := m.Windows["w"]
	var cfg map[string]any
	if err := json.Unmarshal(ws.Config, &cfg); err != nil {
		t.Fatal(err)
	}
	cfg["sequential_fanout"] = true
	if ws.Config, err = json.Marshal(cfg); err != nil {
		t.Fatal(err)
	}
	m.Windows["w"] = ws
	if err := wal.SaveManifest(dir, m); err != nil {
		t.Fatal(err)
	}

	reg2, rep, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	svc2, ok := reg2.Get("w")
	if !ok || rep.Windows != 1 {
		t.Fatalf("recovered %d windows, w present %v", rep.Windows, ok)
	}
	diffAnswers(t, "recovered", ref, answersOf(t, svc2.Window(), pairs))
	if svc2.Window().mux.sequential {
		t.Fatal("recovered window applies its slots sequentially")
	}
}

// TestDropDeletesDurableState: a dropped window's log directory and
// manifest entry are gone, and a restart does not resurrect it.
func TestDropDeletesDurableState(t *testing.T) {
	dir := t.TempDir()
	regCfg := RegistryConfig{
		Template: ServiceConfig{
			Window: WindowConfig{N: 16, Monitors: []string{MonitorConn}},
			Ingest: IngesterConfig{MaxBatch: 8},
		},
		Persistence: &PersistenceConfig{Dir: dir, Fsync: FsyncOff},
	}
	reg, _, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"keep", "drop"} {
		svc, err := reg.Create(name, reg.Template())
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Submit([]Edge{{U: 0, V: 1}, {U: 1, V: 2}}); err != nil {
			t.Fatal(err)
		}
		svc.Flush()
	}
	if err := reg.Drop("drop"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "windows", "drop")); !os.IsNotExist(err) {
		t.Fatalf("dropped window's log dir still present (err=%v)", err)
	}
	reg.Close()

	reg2, rep, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	if rep.Windows != 1 {
		t.Fatalf("recovered %d windows, want 1", rep.Windows)
	}
	if _, ok := reg2.Get("drop"); ok {
		t.Fatal("dropped window came back from the dead")
	}
	if svc, ok := reg2.Get("keep"); !ok || svc.Window().WindowLen() != 2 {
		t.Fatalf("kept window missing or empty")
	}
	// Re-creating the dropped name starts a fresh, empty log.
	svc, err := reg2.Create("drop", reg2.Template())
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Window().WindowLen(); got != 0 {
		t.Fatalf("re-created window inherited %d stale arrivals", got)
	}
}

// TestCheckpointPrunesSegments: count-based expiry advances the watermark,
// and a checkpoint garbage-collects the segments that hold only expired
// arrivals.
func TestCheckpointPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	regCfg := RegistryConfig{
		Template: ServiceConfig{
			Window: WindowConfig{N: 64, Monitors: []string{MonitorConn}, MaxArrivals: 32},
			Ingest: IngesterConfig{MaxBatch: 16},
		},
		Persistence: &PersistenceConfig{Dir: dir, Fsync: FsyncOff, SegmentBytes: 512},
	}
	reg, _, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	svc, err := reg.Create("w", reg.Template())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		batch := make([]Edge, 16)
		for j := range batch {
			u := int32(rng.Intn(64))
			v := (u + 1 + int32(rng.Intn(62))) % 64
			batch[j] = Edge{U: u, V: v}
		}
		if err := svc.Submit(batch); err != nil {
			t.Fatal(err)
		}
		svc.Flush()
	}
	segsBefore := countSegments(t, filepath.Join(dir, "windows", "w"))
	st, err := reg.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st.Windows != 1 || st.PrunedSegments == 0 {
		t.Fatalf("checkpoint stats %+v (segments before: %d)", st, segsBefore)
	}
	if after := countSegments(t, filepath.Join(dir, "windows", "w")); after >= segsBefore {
		t.Fatalf("prune left %d segments (was %d)", after, segsBefore)
	}
	// Recovery from the pruned log still rebuilds the full window.
	reg.Close()
	reg2, rep, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	svc2, _ := reg2.Get("w")
	if got := svc2.Window().WindowLen(); got != 32 {
		t.Fatalf("recovered window len %d, want 32", got)
	}
	// GC worked: recovery replayed only the unexpired tail of the 640
	// appended edges (skipping happens at segment granularity, so exact
	// counts depend on record/segment alignment).
	if rep.Edges >= 640 || rep.Edges < 32 {
		t.Fatalf("recovery replayed %d edges of 640 appended, want a small tail ≥ 32", rep.Edges)
	}
}

func countSegments(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			n++
		}
	}
	return n
}

// TestCheckpointEndpoint: POST /admin/checkpoint works on a durable
// registry, 409s on an in-memory one, and /stats gains a persistence block.
func TestCheckpointEndpoint(t *testing.T) {
	dir := t.TempDir()
	regCfg := RegistryConfig{
		Template: ServiceConfig{
			Window: WindowConfig{N: 16, Monitors: []string{MonitorConn}},
		},
		Persistence: &PersistenceConfig{Dir: dir, Fsync: FsyncOff},
	}
	reg, _, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if _, err := reg.Create("w", reg.Template()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewRegistryServer(reg, ServerConfig{DefaultWindow: "w"}).Handler())
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL+"/admin/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var ck struct {
		Windows int `json:"windows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ck); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || ck.Windows != 1 {
		t.Fatalf("checkpoint: status %d, %+v", resp.StatusCode, ck)
	}

	resp, err = srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Persistence *PersistenceStats `json:"persistence"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Persistence == nil || stats.Persistence.Checkpoints != 1 || stats.Persistence.Fsync != "off" {
		t.Fatalf("/stats persistence block = %+v", stats.Persistence)
	}

	// In-memory registry: 409.
	mem := NewRegistry(RegistryConfig{Template: regCfg.Template})
	defer mem.Close()
	if _, err := mem.Create("w", mem.Template()); err != nil {
		t.Fatal(err)
	}
	memSrv := httptest.NewServer(NewRegistryServer(mem, ServerConfig{DefaultWindow: "w"}).Handler())
	defer memSrv.Close()
	resp, err = memSrv.Client().Post(memSrv.URL+"/admin/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 409 {
		t.Fatalf("in-memory checkpoint: status %d, want 409", resp.StatusCode)
	}
}

// TestRecoveryFailureLeavesManifestIntact: if one window's log is corrupt
// mid-file (a hard replay error), OpenRegistry must fail WITHOUT
// rewriting the manifest — otherwise one bad window would erase the
// durable registration of every healthy one.
func TestRecoveryFailureLeavesManifestIntact(t *testing.T) {
	dir := t.TempDir()
	regCfg := RegistryConfig{
		Template: ServiceConfig{
			Window: WindowConfig{N: 32, Monitors: []string{MonitorConn}},
			Ingest: IngesterConfig{MaxBatch: 8},
		},
		// Tiny segments so window "bad" gets a non-final segment to corrupt.
		Persistence: &PersistenceConfig{Dir: dir, Fsync: FsyncOff, SegmentBytes: 128},
	}
	reg, _, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"aaa", "bad", "zzz"} {
		svc, err := reg.Create(name, reg.Template())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if err := svc.Submit([]Edge{{U: int32(i), V: int32(i + 1)}, {U: int32(i + 2), V: int32(i + 3)}}); err != nil {
				t.Fatal(err)
			}
			svc.Flush()
		}
	}
	reg.Close()

	// Corrupt the FIRST segment of "bad" (non-final → hard replay error).
	badDir := filepath.Join(dir, "windows", "bad")
	entries, err := os.ReadDir(badDir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) < 2 {
		t.Fatalf("need ≥2 segments to corrupt a non-final one, have %d", len(segs))
	}
	seg := filepath.Join(badDir, segs[0])
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := OpenRegistry(regCfg); err == nil {
		t.Fatal("recovery over a corrupt mid-log window must fail")
	}
	man, err := os.ReadFile(filepath.Join(dir, wal.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"aaa", "bad", "zzz"} {
		if !strings.Contains(string(man), "\""+name+"\"") {
			t.Fatalf("failed recovery rewrote the manifest: window %q gone\n%s", name, man)
		}
	}
	// Repairing the bad window (here: deleting its log) makes the healthy
	// ones recoverable again, contents intact.
	if err := os.RemoveAll(badDir); err != nil {
		t.Fatal(err)
	}
	reg2, rep, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	if rep.Windows != 3 { // "bad" recovers too — as an empty window
		t.Fatalf("recovered %d windows, want 3", rep.Windows)
	}
	for _, name := range []string{"aaa", "zzz"} {
		svc, ok := reg2.Get(name)
		if !ok || svc.Window().WindowLen() != 12 {
			t.Fatalf("window %q missing or lost arrivals after repair", name)
		}
	}
}

// TestCheckpointAfterCloseKeepsManifest: a Checkpoint that races or
// follows Close must not rewrite the manifest from the emptied window
// table — the final checkpoint's registrations have to survive.
func TestCheckpointAfterCloseKeepsManifest(t *testing.T) {
	dir := t.TempDir()
	regCfg := RegistryConfig{
		Template: ServiceConfig{
			Window: WindowConfig{N: 16, Monitors: []string{MonitorConn}},
		},
		Persistence: &PersistenceConfig{Dir: dir, Fsync: FsyncOff},
	}
	reg, _, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := reg.Create("w", reg.Template())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit([]Edge{{U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	if _, err := reg.Checkpoint(); !strings.Contains(err.Error(), "closed") {
		t.Fatalf("post-close Checkpoint = %v, want registry-closed", err)
	}
	reg2, rep, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	if rep.Windows != 1 || rep.Edges != 1 {
		t.Fatalf("post-close checkpoint damaged the manifest: recovery %+v", rep)
	}
}

// TestSnapshotWriteFailureKeepsRecoverySuffix is the regression test for
// the GC horizon rule: segment pruning must follow the manifest-committed
// snapshot state, so a checkpoint whose snapshot WRITE fails may still
// persist watermarks and prune by them — but must never prune on the
// strength of the snapshot it failed to write. An injected commit-time
// failure therefore leaves recovery fully functional (answers pinned to
// an uninterrupted reference), and a later healthy checkpoint snapshots
// normally.
func TestSnapshotWriteFailureKeepsRecoverySuffix(t *testing.T) {
	const n = 64
	dir := t.TempDir()
	winCfg := WindowConfig{
		N:           n,
		Seed:        0xFEED,
		Monitor:     MonitorConfig{Eps: 0.25, MaxWeight: 1 << 10, K: 3},
		MaxArrivals: 100,
	}
	regCfg := RegistryConfig{
		Template: ServiceConfig{
			Window: winCfg,
			Ingest: IngesterConfig{MaxBatch: 1 << 16, MaxDelay: time.Hour},
		},
		// Tiny segments + threshold 1: every checkpoint wants to snapshot
		// and has prunable segments.
		Persistence: &PersistenceConfig{Dir: dir, Fsync: FsyncOff, SegmentBytes: 512, SnapshotThreshold: 1},
	}
	ref, err := NewWindowManager(winCfg)
	if err != nil {
		t.Fatal(err)
	}
	reg, _, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := reg.Create("w", reg.Template())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	step := func(svc *Service) {
		k := 8 + rng.Intn(16)
		batch := make([]Edge, k)
		for i := range batch {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			for v == u {
				v = int32(rng.Intn(n))
			}
			batch[i] = Edge{U: u, V: v, W: 1 + rng.Int63n(1<<10)}
		}
		ref.Apply(append([]Edge(nil), batch...))
		if err := svc.Submit(batch); err != nil {
			t.Fatal(err)
		}
		svc.Flush()
	}
	for i := 0; i < 40; i++ {
		step(svc)
	}

	// Inject a snapshot commit failure and checkpoint: the error must
	// surface, no snapshot file may appear, and — the point of the test —
	// the GC horizon must stay at the expiry watermark, keeping every
	// segment a snapshot-less recovery needs.
	reg.persist.testSnapshotFail = func(string) error { return errors.New("injected snapshot failure") }
	st, err := reg.Checkpoint()
	if err == nil || !strings.Contains(err.Error(), "injected snapshot failure") {
		t.Fatalf("checkpoint error = %v, want the injected snapshot failure", err)
	}
	if st.Snapshots != 0 {
		t.Fatalf("failed checkpoint claims %d snapshots", st.Snapshots)
	}
	winDir := filepath.Join(dir, "windows", "w")
	if got := countSnapshots(t, winDir); got != 0 {
		t.Fatalf("%d snapshot files on disk after a failed snapshot write", got)
	}
	if st.PrunedSegments == 0 {
		t.Fatal("watermark-based pruning should still have reclaimed fully-expired segments")
	}
	man, err := wal.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ws := man.Windows["w"]; ws.Snapshot != "" || ws.SnapshotEnd != 0 {
		t.Fatalf("manifest recorded the failed snapshot: %+v", ws)
	}

	// KILL and recover: the log suffix past the watermark must be intact
	// and every monitor answer must pin to the reference.
	reg2, rep, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatalf("recovery after failed snapshot: %v", err)
	}
	if rep.Windows != 1 || rep.Snapshots != 0 || rep.Edges == 0 {
		t.Fatalf("recovery report %+v", rep)
	}
	svc2, _ := reg2.Get("w")
	pairs := make([][2]int32, 200)
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	diffAnswers(t, "post-failed-snapshot recovery", answersOf(t, ref, pairs), answersOf(t, svc2.Window(), pairs))

	// With the failure gone (the recovered persister has no hook), the
	// next checkpoint snapshots normally and records it in the manifest.
	st2, err := reg2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Snapshots != 1 || st2.SnapshotEdges == 0 {
		t.Fatalf("healthy checkpoint stats %+v, want one snapshot", st2)
	}
	if got := countSnapshots(t, winDir); got != 1 {
		t.Fatalf("%d snapshot files after healthy checkpoint, want 1", got)
	}
	man, err = wal.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ws := man.Windows["w"]; ws.Snapshot == "" || ws.SnapshotEnd <= ws.Watermark {
		t.Fatalf("manifest after healthy checkpoint: %+v", ws)
	}
	reg2.Close()
}

// TestLiveEdgesSnapshotEquivalence is the property test for the
// arrival-order live-edge iterator: for random workloads under every
// expiry mode, seeding a fresh window from LiveEdges' (watermark, edges)
// capture with one mega-batch apply and then streaming the remaining
// schedule must be answer-identical to the straight-through run — the
// exact soundness property checkpoint snapshots rely on.
func TestLiveEdgesSnapshotEquivalence(t *testing.T) {
	const n = 48
	for _, tc := range []struct {
		name        string
		maxArrivals int
		maxAge      time.Duration
	}{
		{"count", 200, 0},
		{"time", 0, 60 * time.Second},
		{"count+time", 200, 60 * time.Second},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				clock := NewFakeClock(time.Unix(1_700_000_000, 0))
				rng := rand.New(rand.NewSource(seed))
				winCfg := WindowConfig{
					N:           n,
					Seed:        0xFEED,
					Monitor:     MonitorConfig{Eps: 0.25, MaxWeight: 1 << 10, K: 3},
					MaxArrivals: tc.maxArrivals,
					MaxAge:      tc.maxAge,
					Clock:       clock,
				}
				ref, err := NewWindowManager(winCfg)
				if err != nil {
					t.Fatal(err)
				}
				// Count-only windows retain live edges only for the
				// durability layer; this test IS that consumer.
				ref.enableLiveRetention()
				mkBatch := func() []Edge {
					clock.Advance(time.Duration(rng.Intn(4000)) * time.Millisecond)
					k := 1 + rng.Intn(24)
					batch := make([]Edge, k)
					for i := range batch {
						u := int32(rng.Intn(n))
						v := int32(rng.Intn(n))
						for v == u {
							v = int32(rng.Intn(n))
						}
						batch[i] = Edge{U: u, V: v, W: 1 + rng.Int63n(1<<10), T: clock.Now()}
					}
					return batch
				}
				const batches = 60
				cut := 10 + rng.Intn(40)
				for i := 0; i < cut; i++ {
					ref.Apply(mkBatch())
				}
				// Capture the canonical window content and seed a fresh
				// manager with it in ONE batch — what snapshot recovery does.
				var seedEdges []Edge
				var capturedWM int64
				if err := ref.LiveEdges(func(expired int64, live []Edge) error {
					capturedWM = expired
					seedEdges = append([]Edge(nil), live...)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if want := ref.WindowLen(); int64(len(seedEdges)) != want {
					t.Fatalf("LiveEdges served %d edges, window len %d", len(seedEdges), want)
				}
				if capturedWM != ref.Watermark() {
					t.Fatalf("LiveEdges watermark %d, manager watermark %d", capturedWM, ref.Watermark())
				}
				restored, err := NewWindowManager(winCfg)
				if err != nil {
					t.Fatal(err)
				}
				restored.Apply(seedEdges)
				for i := cut; i < batches; i++ {
					batch := mkBatch()
					ref.Apply(append([]Edge(nil), batch...))
					restored.Apply(batch)
				}
				now := clock.Now()
				ref.ExpireByAge(now)
				restored.ExpireByAge(now)
				pairs := make([][2]int32, 200)
				for i := range pairs {
					pairs[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
				}
				diffAnswers(t, "snapshot-seeded", answersOf(t, ref, pairs), answersOf(t, restored, pairs))
			})
		}
	}
}

// TestRecoveryAdvancesPastWatermarkAfterLogLoss: when the log's bytes
// vanish below the manifest watermark (disk loss, manual deletion),
// recovery must renumber future appends PAST the watermark — otherwise
// the next restart would skip the re-appended records as already expired
// and silently lose acknowledged data.
func TestRecoveryAdvancesPastWatermarkAfterLogLoss(t *testing.T) {
	dir := t.TempDir()
	regCfg := RegistryConfig{
		Template: ServiceConfig{
			Window: WindowConfig{N: 16, Monitors: []string{MonitorConn}, MaxArrivals: 8},
			Ingest: IngesterConfig{MaxBatch: 4},
		},
		Persistence: &PersistenceConfig{Dir: dir, Fsync: FsyncOff, SnapshotThreshold: -1},
	}
	reg, _, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := reg.Create("w", reg.Template())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := svc.Submit([]Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}}); err != nil {
			t.Fatal(err)
		}
		svc.Flush()
	}
	if _, err := reg.Checkpoint(); err != nil { // manifest watermark = 24
		t.Fatal(err)
	}
	reg.Close()

	// The log loses every segment; only the manifest survives.
	winDir := filepath.Join(dir, "windows", "w")
	entries, err := os.ReadDir(winDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			if err := os.Remove(filepath.Join(winDir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}

	reg2, _, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatalf("recovery over an emptied log: %v", err)
	}
	svc2, _ := reg2.Get("w")
	if got := svc2.Window().WindowLen(); got != 0 {
		t.Fatalf("window len %d after total log loss, want 0", got)
	}
	if err := svc2.Submit([]Edge{{U: 5, V: 6}, {U: 6, V: 7}, {U: 7, V: 8}}); err != nil {
		t.Fatal(err)
	}
	svc2.Flush()
	reg2.Close()

	// The re-appended records must come back: they were numbered past the
	// old watermark, not under it.
	reg3, rep, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg3.Close()
	if rep.Edges != 3 {
		t.Fatalf("recovery replayed %d edges, want the 3 post-loss appends", rep.Edges)
	}
	svc3, _ := reg3.Get("w")
	if conn, err := svc3.Window().IsConnected(5, 8); err != nil || !conn {
		t.Fatalf("post-loss appends lost: connected(5,8)=%v err=%v", conn, err)
	}
}

// TestOpenRegistryInMemory: a nil Persistence config is the plain
// in-memory registry.
func TestOpenRegistryInMemory(t *testing.T) {
	reg, rep, err := OpenRegistry(RegistryConfig{
		Template: ServiceConfig{Window: WindowConfig{N: 8, Monitors: []string{MonitorConn}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if rep.Windows != 0 || reg.Persistent() {
		t.Fatalf("in-memory passthrough: %+v persistent=%v", rep, reg.Persistent())
	}
	if _, err := reg.Checkpoint(); err != ErrNotPersistent {
		t.Fatalf("Checkpoint = %v, want ErrNotPersistent", err)
	}
}

// TestSyncAckKillAndRecoverDifferential extends the kill-and-recover grid
// to the durable-ack path: every batch is submitted through the blocking
// sync-ack API under fsync=batch, the registry is killed (abandoned, not
// closed) right after an ack, and the recovered window must answer
// identically to an in-memory reference fed the same edges — no
// acknowledged edge may be lost. It also pins the manifest round-trip of
// the new ingress knobs: SyncAck and the admission budgets survive
// recovery.
func TestSyncAckKillAndRecoverDifferential(t *testing.T) {
	const (
		n       = 48
		batches = 60
		killAt  = 40
	)
	clock := NewFakeClock(time.Unix(1_700_000_000, 0))
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()

	winCfg := WindowConfig{
		N:           n,
		Seed:        0xFEED,
		Monitor:     MonitorConfig{Eps: 0.25, MaxWeight: 1 << 10, K: 3},
		MaxArrivals: 200,
		Clock:       clock,
		SyncAck:     true,
	}
	regCfg := RegistryConfig{
		Template: ServiceConfig{
			Window: winCfg,
			// MaxBatch 16 with fixed 16-edge steps: the threshold flush
			// fires inside Submit, so the durable ack never waits on the
			// hour-long delay timer.
			Ingest: IngesterConfig{
				MaxBatch: 16, MaxDelay: time.Hour, Clock: clock,
				MaxQueueEdges: 1 << 16, MaxQueueBytes: 1 << 24,
			},
		},
		Persistence: &PersistenceConfig{
			Dir: dir, Fsync: FsyncBatch, SegmentBytes: 1 << 10,
		},
	}

	ref, err := NewWindowManager(winCfg)
	if err != nil {
		t.Fatal(err)
	}
	reg1, _, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	svc1, err := reg1.Create("w", reg1.Template())
	if err != nil {
		t.Fatal(err)
	}
	if !svc1.SyncAckDefault() || !svc1.Durable() {
		t.Fatalf("sync-ack window not durable-sync: syncAck=%v durable=%v",
			svc1.SyncAckDefault(), svc1.Durable())
	}

	// step builds one fixed-size batch and blocks until it is durable. By
	// the time step returns, losing the edges is a contract violation.
	step := func(svc *Service) {
		clock.Advance(time.Duration(rng.Intn(4000)) * time.Millisecond)
		batch := make([]Edge, 16)
		for i := range batch {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			for v == u {
				v = int32(rng.Intn(n))
			}
			batch[i] = Edge{U: u, V: v, W: 1 + rng.Int63n(1<<10), T: clock.Now()}
		}
		ref.Apply(append([]Edge(nil), batch...))
		if err := svc.submitOwnedDurable(context.Background(), batch); err != nil {
			t.Fatalf("durable submit: %v", err)
		}
	}
	for i := 0; i < killAt; i++ {
		step(svc1)
	}

	// KILL: no Close, no checkpoint. Every step above returned only after
	// its WAL append was fsynced, so recovery owes us all of them.
	reg2, rep, err := OpenRegistry(regCfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if rep.Windows != 1 || rep.Edges != killAt*16 {
		t.Fatalf("recovery report %+v, want %d acknowledged edges replayed", rep, killAt*16)
	}
	svc2, ok := reg2.Get("w")
	if !ok {
		t.Fatal("recovered registry lost the window")
	}
	// The ingress knobs must survive the manifest round-trip.
	if !svc2.SyncAckDefault() || !svc2.Durable() {
		t.Fatalf("recovered window dropped sync-ack: syncAck=%v durable=%v",
			svc2.SyncAckDefault(), svc2.Durable())
	}
	if maxE, maxB := svc2.QueueBudget(); maxE != 1<<16 || maxB != 1<<24 {
		t.Fatalf("recovered queue budget = (%d, %d), want (%d, %d)", maxE, maxB, 1<<16, 1<<24)
	}

	pairs := make([][2]int32, 300)
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	compare := func(tag string, wm *WindowManager) {
		now := clock.Now()
		ref.ExpireByAge(now)
		wm.ExpireByAge(now)
		diffAnswers(t, tag, answersOf(t, ref, pairs), answersOf(t, wm, pairs))
	}
	compare("post-recovery", svc2.Window())

	// The recovered window keeps acking durably: stream the rest of the
	// schedule through the same blocking path, then pin answers again.
	for i := killAt; i < batches; i++ {
		step(svc2)
	}
	compare("post-recovery stream", svc2.Window())
	reg2.Close()
}
