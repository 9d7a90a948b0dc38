//go:build race

package repro

// raceEnabled flags the race detector: its instrumentation allocates, so
// the steady-state allocs/op assertions skip themselves under -race.
const raceEnabled = true
