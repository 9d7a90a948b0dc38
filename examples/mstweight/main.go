// mstweight tracks the (1+ε)-approximate minimum-spanning-forest weight of
// an evolving proximity graph over a sliding window (Theorem 5.4) — the
// streaming analogue of monitoring clustering cost: sensors report pairwise
// link qualities; the MSF weight of the recent readings is the cost of the
// cheapest backbone connecting everything.
package main

import (
	"fmt"

	"repro"
	"repro/internal/msf"
	"repro/internal/parallel"
	"repro/internal/wgraph"
)

const (
	sensors = 300
	maxDist = 1 << 12
	window  = 2_000
	batch   = 100
	rounds  = 50
	eps     = 0.25
)

func main() {
	approx := repro.NewSWApproxMSF(sensors, eps, maxDist, 9)
	rng := parallel.NewRNG(17)

	// Keep the exact window contents on the side to show the guarantee.
	type arrival struct {
		u, v int32
		w    int64
	}
	var windowBuf []arrival

	fmt.Printf("tracking (1+%.2f)-approx MSF weight over the last %d readings\n", eps, window)
	fmt.Printf("weight levels: R = %d; a level is kept only while its bucket holds a live reading\n\n", approx.Levels())
	fmt.Printf("%6s %14s %14s %8s %8s\n", "round", "approx", "exact", "ratio", "levels")
	for round := 1; round <= rounds; round++ {
		b := make([]repro.WeightedStreamEdge, batch)
		for i := range b {
			u, v := int32(rng.Intn(sensors)), int32(rng.Intn(sensors))
			if u == v {
				v = (v + 1) % sensors
			}
			// Drift: distances inflate over time (sensors spreading out).
			w := 1 + rng.Int63()%(256+int64(round)*64)
			if w > maxDist {
				w = maxDist
			}
			b[i] = repro.WeightedStreamEdge{U: u, V: v, W: w}
			windowBuf = append(windowBuf, arrival{u, v, w})
		}
		approx.BatchInsert(b)
		if len(windowBuf) > window {
			approx.BatchExpire(len(windowBuf) - window)
			windowBuf = windowBuf[len(windowBuf)-window:]
		}
		if round%5 == 0 {
			exactEdges := make([]wgraph.Edge, len(windowBuf))
			for i, a := range windowBuf {
				exactEdges[i] = wgraph.Edge{ID: wgraph.EdgeID(i + 1), U: a.u, V: a.v, W: a.w}
			}
			exact := wgraph.TotalWeight(msf.Kruskal(sensors, exactEdges))
			got := approx.Weight()
			ratio := 0.0
			if exact > 0 {
				ratio = got / float64(exact)
			}
			fmt.Printf("%6d %14.0f %14d %8.3f %4d/%d\n", round, got, exact, ratio, approx.LiveLevels(), approx.Levels())
		}
	}
	fmt.Printf("\nthe ratio stays within [1, %v] as Theorem 5.4 guarantees.\n", 1+eps)
}
