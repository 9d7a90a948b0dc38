// Package parallel provides the fork-join primitives the repository runs:
// a grained parallel loop (ForGrained, for union-find's batch unions), a
// fork-join over thunks (Do, for the monitor fan-out), a budgeted
// fork-join over indices (ForEachLimited, for msfweight's levels), and the
// splitmix64 hashes and RNG behind every random choice. It stands in for
// the CRCW PRAM of the paper; see DESIGN.md §2 for the substitution
// argument.
//
// The loops run sequentially below their grain or at GOMAXPROCS 1, and a
// budgeted fork-join runs on its caller alone when its budget is drained,
// so the work matches the sequential algorithm's (work-efficiency).
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Procs returns the current parallelism level.
func Procs() int { return runtime.GOMAXPROCS(0) }

// Panic wraps a panic recovered on a fork-join worker goroutine. Without
// this, a panic on a spawned worker kills the whole process with no chance
// for the caller to contain it (the stream layer quarantines the panicking
// monitor instead). Every fork-join in this package captures the first
// worker panic, completes the join — so no goroutine is left running against
// a caller that has unwound — and then re-panics with a *Panic on the
// calling goroutine. Sequential fast paths propagate the original value
// unchanged; boundary recover()s must handle both.
type Panic struct {
	Value any    // the original panic value
	Stack []byte // the panicking goroutine's stack at recovery time
}

func (p *Panic) String() string {
	return fmt.Sprintf("panic on fork-join worker: %v\n%s", p.Value, p.Stack)
}

// Unwrap returns the original panic value, unwrapping nested *Panic layers
// (a fork-join inside a fork-join re-wraps once per boundary).
func (p *Panic) Unwrap() any {
	v := p.Value
	for {
		inner, ok := v.(*Panic)
		if !ok {
			return v
		}
		v = inner.Value
	}
}

// panicBox records the first panic of a fork-join (first-capture-wins; the
// others are necessarily concurrent and carry no extra ordering meaning).
type panicBox struct {
	p atomic.Pointer[Panic]
}

// protect runs f, capturing a panic into the box instead of unwinding the
// worker goroutine past the fork-join frame.
func (b *panicBox) protect(f func()) {
	defer func() {
		if r := recover(); r != nil {
			if pv, ok := r.(*Panic); ok {
				b.p.CompareAndSwap(nil, pv)
				return
			}
			b.p.CompareAndSwap(nil, &Panic{Value: r, Stack: debug.Stack()})
		}
	}()
	f()
}

// rethrow re-raises the captured panic, if any, after the join completed.
func (b *panicBox) rethrow() {
	if p := b.p.Load(); p != nil {
		panic(p)
	}
}

// ForGrained runs body(i) for every i in [0, n), chunking iterations into
// blocks of at least `grain`. Iterations must be independent.
func ForGrained(n, grain int, body func(i int)) {
	BlockedFor(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// BlockedFor partitions [0, n) into contiguous blocks of size >= grain and
// runs body(lo, hi) on each block, in parallel across blocks. It never spawns
// more than a small multiple of GOMAXPROCS goroutines.
func BlockedFor(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	p := Procs()
	if n <= grain || p == 1 {
		body(0, n)
		return
	}
	// Number of blocks: enough for load balance, bounded by work available.
	blocks := (n + grain - 1) / grain
	if max := 8 * p; blocks > max {
		blocks = max
	}
	chunk := (n + blocks - 1) / blocks
	var box panicBox
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			box.protect(func() { body(lo, hi) })
		}(lo, hi)
	}
	wg.Wait()
	box.rethrow()
}

// Do runs the given thunks in parallel (fork-join).
func Do(fns ...func()) {
	if len(fns) == 0 {
		return
	}
	if len(fns) == 1 || Procs() == 1 {
		for _, f := range fns {
			f()
		}
		return
	}
	var box panicBox
	var wg sync.WaitGroup
	wg.Add(len(fns) - 1)
	for _, f := range fns[1:] {
		go func(f func()) {
			defer wg.Done()
			box.protect(f)
		}(f)
	}
	// The caller's own thunk is protected too: were it to unwind before
	// wg.Wait, the spawned workers would race a stack that no longer exists.
	box.protect(fns[0])
	wg.Wait()
	box.rethrow()
}
