package parallel

import (
	"strings"
	"sync/atomic"
	"testing"
)

func recoverPanic(t *testing.T, f func()) (val any) {
	t.Helper()
	defer func() { val = recover() }()
	f()
	t.Fatal("no panic")
	return nil
}

func TestDoWorkerPanicReachesCaller(t *testing.T) {
	var ran atomic.Int32
	v := recoverPanic(t, func() {
		Do(
			func() { ran.Add(1) },
			func() { panic("boom") },
			func() { ran.Add(1) },
		)
	})
	p, ok := v.(*Panic)
	if !ok {
		// Procs()==1 runs sequentially and propagates the raw value.
		if Procs() == 1 && v == any("boom") {
			return
		}
		t.Fatalf("recovered %T %v, want *Panic", v, v)
	}
	if p.Unwrap() != any("boom") {
		t.Fatalf("Unwrap = %v", p.Unwrap())
	}
	if !strings.Contains(p.String(), "boom") || len(p.Stack) == 0 {
		t.Fatalf("Panic carries no stack: %q", p.String())
	}
	// The join completed: the surviving thunks all ran.
	if got := ran.Load(); got != 2 {
		t.Fatalf("ran = %d, want 2", got)
	}
}

func TestDoCallerPanicJoinsFirst(t *testing.T) {
	var ran atomic.Int32
	v := recoverPanic(t, func() {
		Do(
			func() { panic("caller") }, // fns[0] runs on the calling goroutine
			func() { ran.Add(1) },
		)
	})
	if p, ok := v.(*Panic); ok {
		if p.Unwrap() != any("caller") {
			t.Fatalf("Unwrap = %v", p.Unwrap())
		}
	} else if v != any("caller") {
		t.Fatalf("recovered %v", v)
	}
	if Procs() > 1 && ran.Load() != 1 {
		t.Fatalf("spawned thunk did not finish before the re-panic")
	}
}

func TestBlockedForPanic(t *testing.T) {
	v := recoverPanic(t, func() {
		BlockedFor(1<<16, 1, func(lo, hi int) {
			if lo <= 1000 && 1000 < hi {
				panic(1000)
			}
		})
	})
	if p, ok := v.(*Panic); ok {
		if p.Unwrap() != any(1000) {
			t.Fatalf("Unwrap = %v", p.Unwrap())
		}
	} else if v != any(1000) {
		t.Fatalf("recovered %v", v)
	}
}

func TestForEachLimitedPanic(t *testing.T) {
	var ran atomic.Int32
	v := recoverPanic(t, func() {
		ForEachLimited(64, NewLimiter(4), func(i int) {
			if i == 3 {
				panic("limited")
			}
			ran.Add(1)
		})
	})
	if p, ok := v.(*Panic); ok {
		v = p.Unwrap()
	}
	if v != any("limited") {
		t.Fatalf("recovered %v", v)
	}
	// The limiter budget must be whole again after the panic unwound.
	l := NewLimiter(2)
	if !l.TryAcquire() || !l.TryAcquire() || l.TryAcquire() {
		t.Fatal("fresh limiter budget wrong")
	}
}

func TestForEachLimitedReleasesOnPanic(t *testing.T) {
	l := NewLimiter(3)
	func() {
		defer func() { recover() }()
		ForEachLimited(32, l, func(i int) { panic("x") })
	}()
	// All borrowed slots must be back.
	got := 0
	for l.TryAcquire() {
		got++
	}
	if got != 3 {
		t.Fatalf("limiter has %d slots after panic, want 3", got)
	}
}

func TestNestedPanicUnwrap(t *testing.T) {
	v := recoverPanic(t, func() {
		Do(
			func() {},
			func() {
				BlockedFor(1<<16, 1, func(lo, hi int) {
					if lo == 0 {
						panic("inner")
					}
				})
			},
		)
	})
	if p, ok := v.(*Panic); ok {
		v = p.Unwrap()
	}
	if v != any("inner") {
		t.Fatalf("recovered %v", v)
	}
}
