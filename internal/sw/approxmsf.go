package sw

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/fifo"
	"repro/internal/parallel"
)

// ApproxMSF is the sliding-window (1+ε)-approximate MSF weight structure of
// Theorem 5.4, via the component-counting reduction [11, 4, 13]: with
// G_i the subgraph of window edges of weight at most (1+ε)^i,
//
//	weight ≈ (n - cc(G_0)) + Σ_{i>=1} (cc(G_{i-1}) - cc(G_i))·(1+ε)^i,
//
// which overestimates each true MSF edge weight by at most a (1+ε) factor.
// Each G_i is an eager sliding-window connectivity structure sharing global
// timestamps, so expiry is uniform across all R = O(log_{1+ε} maxW) levels.
//
// Only occupied levels are paid for. Level i's bucket is the weights it is
// the first to admit, (⌊(1+ε)^{i-1}⌋, ⌊(1+ε)^i⌋]. While no live arrival
// falls in that bucket, G_i = G_{i-1}, and with recency weights a level's
// live forest is its whole state (Lemma 5.1), so level i is simply not
// kept: reads resolve it to the nearest kept level below. A level is
// materialised on its bucket's first live arrival, seeded with the
// pre-batch live forest of the nearest kept level below (original τ
// preserved), and retired when expiry drains its bucket. A live count per
// bucket, decremented through a FIFO of bucket ids in τ order, makes that
// exact: expiry is always oldest-first, under count and time windows alike.
//
// The kept levels are fully independent forests that only share the global
// (τ, TW) counters, so batch application forks-and-joins across them: each
// level's insert (and expiry) runs under that level's own writer guard, on
// the calling goroutine plus however many workers the configured budget
// grants (SetWorkers; the process-wide parallel.Default budget otherwise).
// Levels are nested (G_0 ⊆ G_1 ⊆ …), so a batch is bucketed ONCE by the
// level that first admits each edge, scattered — stably, preserving arrival
// order within a bucket — into a reusable scratch buffer in bucket order,
// and level i simply receives the prefix holding buckets 0..i plus the
// matching timestamp prefix: zero per-level routing allocations, identical
// forests either way (recency weights make every level's MSF unique
// regardless of the order edges appear in a batch).
type ApproxMSF struct {
	n      int
	eps    float64
	maxW   int64
	seed   uint64
	thresh []int64          // thresh[i] = floor((1+eps)^i), last >= maxW
	inst   []*KCert         // inst[i] is nil while level i is not materialised
	kept   []int            // materialised levels, highest first (the fork order)
	live   []int32          // live arrivals per bucket; inst[i] != nil iff live[i] > 0
	fifo   fifo.Ring[int32] // bucket of every live arrival, oldest first
	tau    int64
	tw     int64
	guard  writerGuard

	// workers is the fork-join budget for the per-level apply; nil means
	// the process-wide default (parallel.Default).
	workers *parallel.Limiter

	// Routing scratch, reused across batches (safe under the single-writer
	// contract). sorted/sortedTaus hold the batch in bucket order — level
	// i's input is the prefix sorted[:cum[i]]; lvls holds each input edge's
	// bucket; cum[i] accumulates the count of edges admitted at level <= i.
	sorted     []StreamEdge
	sortedTaus []int64
	lvls       []int32
	cum        []int

	// Level-span timing for the flight recorder, opt-in via
	// SetLevelTiming. Each level writes only its own index (disjoint
	// writes are race-free across the fork-join) and the reader drains
	// after the join, so no synchronization beyond the join barrier is
	// needed. Preallocated: timing a batch costs two clock reads per
	// non-empty level and zero allocations.
	timeLevels   bool
	forkT0       time.Time
	levelStartNS []int64 // offset of each level's start from the fork point
	levelDurNS   []int64 // 0 = level did not run in the last timed insert

	// The fork-join bodies, built once so that forking them allocates
	// nothing: index k applies the batch (or the expiry) to level kept[k].
	insertK, expireK func(k int)
}

// NewApproxMSF returns an approximate-MSF-weight structure for edge weights
// in [1, maxWeight].
func NewApproxMSF(n int, eps float64, maxWeight int64, seed uint64) *ApproxMSF {
	if eps <= 0 {
		panic("sw: eps must be positive")
	}
	if maxWeight < 1 {
		panic("sw: maxWeight must be at least 1")
	}
	a := &ApproxMSF{n: n, eps: eps, maxW: maxWeight, seed: seed}
	for x := 1.0; ; x *= 1 + eps {
		t := int64(math.Floor(x))
		a.thresh = append(a.thresh, t)
		if t >= maxWeight {
			break
		}
	}
	r := len(a.thresh)
	a.inst = make([]*KCert, r)
	a.live = make([]int32, r)
	a.cum = make([]int, r)
	a.insertK = func(k int) { a.insertLevel(a.kept[k]) }
	a.expireK = func(k int) { a.expireLevel(a.kept[k]) }
	return a
}

// Levels returns R, the number of connectivity levels the reduction sums
// over, materialised or not.
func (a *ApproxMSF) Levels() int { return len(a.inst) }

// LiveLevels returns the number of materialised levels: those whose bucket
// holds at least one live arrival.
func (a *ApproxMSF) LiveLevels() int { return len(a.kept) }

// SetWorkers installs the fork-join worker budget batch application borrows
// from (nil restores the process-wide parallel.Default budget; an empty
// budget — parallel.NewLimiter(0) — forces sequential level application).
// Must not be called concurrently with mutations.
func (a *ApproxMSF) SetWorkers(l *parallel.Limiter) { a.workers = l }

// SetLevelTiming turns per-level span timing of BatchInsert on or off.
// Must not be called concurrently with mutations (wiring time only).
func (a *ApproxMSF) SetLevelTiming(on bool) {
	a.timeLevels = on
	if on && a.levelDurNS == nil {
		a.levelStartNS = make([]int64, len(a.inst))
		a.levelDurNS = make([]int64, len(a.inst))
	}
}

// LevelSpans calls fn for every level the last timed BatchInsert ran
// (highest level first, matching the fork order), with the level's start
// offset from the fork point and its duration. Only materialised levels
// run. Call after the mutation returns, from the same writer; the data is
// valid until the next insert.
func (a *ApproxMSF) LevelSpans(fn func(level int, startNS, durNS int64)) {
	if !a.timeLevels || a.levelDurNS == nil {
		return
	}
	for i := len(a.levelDurNS) - 1; i >= 0; i-- {
		if a.levelDurNS[i] > 0 {
			fn(i, a.levelStartNS[i], a.levelDurNS[i])
		}
	}
}

func (a *ApproxMSF) pool() *parallel.Limiter {
	if a.workers != nil {
		return a.workers
	}
	return parallel.Default()
}

// forEachLevel runs body(k) for every materialised level kept[k], highest
// level first (the top levels see the most edges, so they must start before
// the cheap ones for the fork-join's dynamic load balance to matter).
func (a *ApproxMSF) forEachLevel(body func(k int)) {
	parallel.ForEachLimited(len(a.kept), a.pool(), body)
}

// levelOf returns the first (smallest) level whose threshold admits w.
func (a *ApproxMSF) levelOf(w int64) int {
	return sort.Search(len(a.thresh), func(i int) bool { return a.thresh[i] >= w })
}

// materialise creates level i from the current (pre-batch) window. G_i
// equals G_j for the nearest materialised level j < i (or is empty), so
// level j's live forest, at its original timestamps, is all of level i's
// state.
func (a *ApproxMSF) materialise(i int) {
	c := NewConnEager(a.n, a.seed+uint64(i)*0x2545F491+3)
	c.tau, c.tw = a.tau, a.tw
	for j := i - 1; j >= 0; j-- {
		if a.inst[j] != nil {
			c.seedFrom(a.inst[j])
			break
		}
	}
	a.inst[i] = c
}

// relist rebuilds the fork order (O(R), once per mutation).
func (a *ApproxMSF) relist() {
	a.kept = a.kept[:0]
	for i := len(a.inst) - 1; i >= 0; i-- {
		if a.inst[i] != nil {
			a.kept = append(a.kept, i)
		}
	}
}

// BatchInsert appends weighted edge arrivals (weights in [1, maxWeight]).
// The whole batch is validated before any state moves, so a panic on a bad
// weight leaves the structure exactly as it was. Single-writer: mutations
// must be externally serialized.
func (a *ApproxMSF) BatchInsert(edges []WeightedStreamEdge) {
	if len(edges) == 0 {
		return
	}
	a.guard.enter()
	defer a.guard.exit()

	// Validate and classify up-front — no timestamp or forest mutation may
	// precede the last possible panic.
	lvls := a.lvls[:0]
	for i := range a.cum {
		a.cum[i] = 0
	}
	for _, e := range edges {
		if e.W < 1 || e.W > a.maxW {
			panic(fmt.Sprintf("sw: weight %d outside [1, %d]", e.W, a.maxW))
		}
		l := a.levelOf(e.W)
		lvls = append(lvls, int32(l))
		a.cum[l]++
	}
	a.lvls = lvls

	// Materialise the newly occupied levels lowest first, before any level
	// moves, so each is seeded from the pre-batch window; then count the
	// batch into the live buckets.
	for i, c := range a.cum {
		if c > 0 && a.inst[i] == nil {
			a.materialise(i)
		}
		a.live[i] += int32(c)
	}
	a.relist()
	a.fifo.Push(lvls...)

	// Bucket offsets: after the scatter below, cum[i] = #edges with bucket
	// <= i — exactly the length of level i's prefix.
	off := 0
	for i, c := range a.cum {
		a.cum[i] = off
		off += c
	}

	// Assign arrival timestamps and scatter the batch — stably — into
	// bucket order. All scratch is reused across batches: the routing for
	// all R levels costs zero allocations at steady state.
	if cap(a.sorted) < len(edges) {
		a.sorted = make([]StreamEdge, len(edges))
		a.sortedTaus = make([]int64, len(edges))
	}
	sorted := a.sorted[:len(edges)]
	sortedTaus := a.sortedTaus[:len(edges)]
	base := a.tau
	a.tau += int64(len(edges))
	for j, e := range edges {
		l := lvls[j]
		p := a.cum[l]
		a.cum[l] = p + 1
		sorted[p] = StreamEdge{U: e.U, V: e.V}
		sortedTaus[p] = base + int64(j) + 1
	}

	// Fork-join the levels: level i inserts the prefix of buckets 0..i,
	// under its own writer guard (the levels share no state, so parallelism
	// across them is safe by construction — and asserted by the guards).
	if a.timeLevels {
		for i := range a.levelDurNS {
			a.levelDurNS[i] = 0
		}
		a.forkT0 = time.Now()
	}
	a.forEachLevel(a.insertK)
}

// insertLevel applies the routed batch to level i: the prefix of sorted
// holding buckets 0..i.
func (a *ApproxMSF) insertLevel(i int) {
	cnt := a.cum[i]
	if cnt == 0 {
		return
	}
	var t0 time.Time
	if a.timeLevels {
		t0 = time.Now()
	}
	inst := a.inst[i]
	inst.guard.enter()
	inst.batchInsertAt(a.sorted[:cnt], a.sortedTaus[:cnt])
	inst.guard.exit()
	if a.timeLevels {
		a.levelStartNS[i] = t0.Sub(a.forkT0).Nanoseconds()
		a.levelDurNS[i] = time.Since(t0).Nanoseconds()
	}
}

// BatchExpire expires the oldest delta arrivals. Levels whose bucket this
// drains are retired outright; the rest expire fork-joined across levels
// like BatchInsert.
// Single-writer: mutations must be externally serialized.
func (a *ApproxMSF) BatchExpire(delta int) {
	if delta <= 0 {
		return
	}
	a.guard.enter()
	defer a.guard.exit()
	tw := a.tw + int64(delta)
	if tw > a.tau {
		tw = a.tau
	}
	for ; a.tw < tw; a.tw++ {
		l := a.fifo.Pop()
		if a.live[l]--; a.live[l] == 0 {
			a.inst[l] = nil
		}
	}
	a.relist()
	a.forEachLevel(a.expireK)
}

// expireLevel expires level i to the shared watermark.
func (a *ApproxMSF) expireLevel(i int) {
	inst := a.inst[i]
	inst.guard.enter()
	inst.expireTo(a.tw)
	inst.guard.exit()
}

// Weight returns the (1+ε)-approximate MSF weight of the window graph,
// treating each connected component separately (equation (1) of the paper).
// O(R) work. An absent level has cc(G_i) = cc(G_{i-1}), so its term is
// zero; scale still advances once per level.
func (a *ApproxMSF) Weight() float64 {
	cc := a.n
	if a.inst[0] != nil {
		cc = a.inst[0].NumComponents()
	}
	w := float64(a.n - cc)
	scale := 1.0
	for i := 1; i < len(a.inst); i++ {
		scale *= 1 + a.eps
		if a.inst[i] == nil {
			continue
		}
		next := a.inst[i].NumComponents()
		w += float64(cc-next) * scale
		cc = next
	}
	return w
}

// TreeVertices returns the rake-compress tree vertices in use over the
// materialised levels' engines.
func (a *ApproxMSF) TreeVertices() int {
	total := 0
	for _, i := range a.kept {
		total += a.inst[i].TreeVertices()
	}
	return total
}

// NumComponents returns the number of connected components of the window
// graph: the highest materialised level sees every live edge.
func (a *ApproxMSF) NumComponents() int {
	if len(a.kept) == 0 {
		return a.n
	}
	return a.inst[a.kept[0]].NumComponents()
}
