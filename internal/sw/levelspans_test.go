package sw

import (
	"math/rand"
	"testing"
)

// TestApproxMSFLevelSpans pins the flight-recorder level timing: spans
// cover exactly the levels the insert ran, highest first, and timing a
// batch leaves the forests bit-identical to an untimed twin.
func TestApproxMSFLevelSpans(t *testing.T) {
	const n, maxW = 64, 1 << 10
	timed := NewApproxMSF(n, 0.25, maxW, 7)
	plain := NewApproxMSF(n, 0.25, maxW, 7)
	timed.SetLevelTiming(true)

	rng := rand.New(rand.NewSource(11))
	for b := 0; b < 5; b++ {
		batch := make([]WeightedStreamEdge, 32)
		for j := range batch {
			batch[j] = WeightedStreamEdge{
				U: int32(rng.Intn(n)), V: int32(rng.Intn(n)), W: 1 + rng.Int63n(maxW),
			}
		}
		timed.BatchInsert(batch)
		plain.BatchInsert(batch)

		var levels []int
		timed.LevelSpans(func(level int, startNS, durNS int64) {
			if durNS <= 0 || startNS < 0 {
				t.Fatalf("batch %d level %d: start=%d dur=%d", b, level, startNS, durNS)
			}
			levels = append(levels, level)
		})
		if len(levels) == 0 {
			t.Fatalf("batch %d: no level spans", b)
		}
		for i := 1; i < len(levels); i++ {
			if levels[i] >= levels[i-1] {
				t.Fatalf("batch %d: spans not highest-level-first: %v", b, levels)
			}
		}
		// Nested levels: the highest materialised level sees every batch,
		// so it must always appear, and no absent level may.
		if levels[0] != timed.kept[0] {
			t.Fatalf("batch %d: top materialised level %d missing from spans: %v", b, timed.kept[0], levels)
		}
		for _, l := range levels {
			if timed.inst[l] == nil {
				t.Fatalf("batch %d: span for level %d, which is not materialised", b, l)
			}
		}
		if timed.Weight() != plain.Weight() || timed.NumComponents() != plain.NumComponents() {
			t.Fatalf("batch %d: timing changed results: %v vs %v", b, timed.Weight(), plain.Weight())
		}
	}

	// Expiry must not disturb the recorded insert spans.
	var before []int
	timed.LevelSpans(func(level int, _, _ int64) { before = append(before, level) })
	timed.BatchExpire(10)
	plain.BatchExpire(10)
	var after []int
	timed.LevelSpans(func(level int, _, _ int64) { after = append(after, level) })
	if len(before) != len(after) {
		t.Fatalf("expire disturbed level spans: %v vs %v", before, after)
	}
	if timed.Weight() != plain.Weight() {
		t.Fatal("timing changed expiry results")
	}

	// Untimed structures never report spans.
	plain.LevelSpans(func(int, int64, int64) { t.Fatal("untimed structure reported spans") })
}
