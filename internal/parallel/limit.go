package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Limiter is a non-blocking budget of auxiliary worker goroutines shared by
// any number of concurrent fork-joins. A fork-join borrows workers with
// TryAcquire — taking however many are available right now, possibly none —
// and always keeps the calling goroutine working, so a drained budget
// degrades to the sequential loop instead of queueing or deadlocking.
//
// This is the stampede guard for nested parallelism: the monitor fan-out of
// the stream layer forks per monitor, and the msfweight monitor forks again
// per connectivity level, so without a shared budget N windows × 5 monitors
// × R levels would spawn goroutines multiplicatively. With one, the total
// auxiliary parallelism stays at the configured budget no matter how many
// fork-joins run at once.
type Limiter struct {
	avail atomic.Int64
	aux   int
}

// NewLimiter returns a budget of aux auxiliary workers. aux <= 0 yields a
// limiter that never grants a worker — every fork-join through it runs
// sequentially on its caller.
func NewLimiter(aux int) *Limiter {
	l := &Limiter{}
	if aux > 0 {
		l.aux = aux
		l.avail.Store(int64(aux))
	}
	return l
}

// Aux returns the configured auxiliary-worker budget (not the currently
// available count). A nil limiter reports 0.
func (l *Limiter) Aux() int {
	if l == nil {
		return 0
	}
	return l.aux
}

// TryAcquire borrows one worker slot; it never blocks. A nil limiter always
// refuses.
func (l *Limiter) TryAcquire() bool {
	if l == nil {
		return false
	}
	for {
		cur := l.avail.Load()
		if cur <= 0 {
			return false
		}
		if l.avail.CompareAndSwap(cur, cur-1) {
			return true
		}
	}
}

// Release returns a slot borrowed with TryAcquire.
func (l *Limiter) Release() {
	if l != nil {
		l.avail.Add(1)
	}
}

var (
	defaultLimiter     *Limiter
	defaultLimiterOnce sync.Once
)

// Default returns the process-wide worker budget: GOMAXPROCS-1 auxiliary
// workers (so caller + borrowed = GOMAXPROCS), sized once at first use.
// Structures that are not handed an explicit budget share it, which keeps
// independently-constructed parallel structures from oversubscribing the
// machine in aggregate.
func Default() *Limiter {
	defaultLimiterOnce.Do(func() {
		defaultLimiter = NewLimiter(runtime.GOMAXPROCS(0) - 1)
	})
	return defaultLimiter
}

// ForEachLimited runs body(i) for every i in [0, n), on the calling
// goroutine plus up to the limiter's currently-available workers. Indices
// are claimed dynamically (an atomic cursor), so heterogeneous iteration
// costs load-balance across however many workers were granted; schedule the
// expensive iterations at low indices so they start first. Iterations must
// be independent. The call returns only after every iteration completed and
// all borrowed workers were released. When no worker is granted, the loop
// runs inline and allocates nothing.
func ForEachLimited(n int, l *Limiter, body func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 || !l.TryAcquire() {
		for i := range n {
			body(i)
		}
		return
	}
	forEachForked(n, l, body)
}

// forEachForked is ForEachLimited once the caller holds one of l's workers.
func forEachForked(n int, l *Limiter, body func(i int)) {
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			body(i)
		}
	}
	var box panicBox
	var wg sync.WaitGroup
	for spawned := 0; spawned < n-1 && (spawned == 0 || l.TryAcquire()); spawned++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer l.Release()
			box.protect(work)
		}()
	}
	// Protect the caller's share too: unwinding before the join would leave
	// borrowed workers iterating against a vanished caller frame.
	box.protect(work)
	wg.Wait()
	box.rethrow()
}
