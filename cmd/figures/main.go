// Command figures regenerates the paper's two figures from the library:
//
//	figures -fig 1   the weighted tree and its compressed path tree (Fig. 1)
//	figures -fig 2   the example tree's rake-compress clustering (Fig. 2)
//	figures          both
package main

import (
	"flag"
	"fmt"

	"repro"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (1 or 2; 0 = both)")
	seed := flag.Uint64("seed", 42, "contraction seed")
	flag.Parse()

	if *fig == 0 || *fig == 1 {
		figure1(*seed)
	}
	if *fig == 0 || *fig == 2 {
		figure2(*seed)
	}
}

func figure1(seed uint64) {
	fig := repro.NewFigure1Example()
	fmt.Println("=== Figure 1: compressed path tree ===")
	fmt.Println("input tree (marked vertices A-E; a1, b1, c1 will be spliced out):")
	for _, e := range fig.Edges {
		fmt.Printf("  %s --%d-- %s\n", fig.Names[e.U], e.W, fig.Names[e.V])
	}
	cptEdges := fig.Compute(seed)
	fmt.Println()
	fmt.Print(fig.Render(cptEdges))
	fmt.Println("(paper Figure 1b: edges A-X:6, B-X:10, X-Y:9, C-Y:7, D-Y:12, E-Y:3)")
	fmt.Println()
}

func figure2(seed uint64) {
	fig := repro.NewFigure2Example()
	fmt.Println("=== Figure 2: rake-compress tree of the example tree ===")
	fmt.Println("input tree:")
	for _, e := range fig.Edges {
		fmt.Printf("  %s -- %s\n", fig.Names[e.U], fig.Names[e.V])
	}
	fmt.Println()
	fmt.Print(fig.RCTreeDump(seed))
	fmt.Println("(cluster letters correspond to the representative vertices of Figure 2c;")
	fmt.Println(" the exact rounds depend on the contraction priorities, Figure 2 shows one valid run)")
}
