package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// resultsFile is the -json output: every run of one invocation.
type resultsFile struct {
	Runs []*result `json:"runs"`
}

func writeResults(path string, runs []*result) error {
	b, err := json.MarshalIndent(resultsFile{Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) ([]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Runs, nil
}

// series groups metric values by workload and metric name, in run order.
func series(runs []*result) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// spread summarises values as their median and the distance between the
// first and third quartiles as a share of the median.
func spread(values []float64) (med, rel float64) {
	if len(values) == 1 {
		return values[0], 0
	}
	q1, med, q3 := quartiles(values)
	return med, (q3 - q1) / math.Abs(med)
}

// printSpread reports each metric's median and quartiles per workload.
func printSpread(runs []*result) {
	fmt.Fprintln(os.Stderr, "== spread across seeds (median, quartiles, (q3-q1)/median)")
	byWL := series(runs)
	for _, wl := range sortedKeys(byWL) {
		for _, name := range sortedKeys(byWL[wl]) {
			v := byWL[wl][name]
			if len(v) < 2 {
				continue
			}
			q1, med, q3 := quartiles(v)
			fmt.Fprintf(os.Stderr, "  %-15s %-34s n=%-3d median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.2f%%\n",
				wl, name, len(v), med, q1, q3, 100*(q3-q1)/math.Abs(med))
		}
	}
}

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareSets checks set b against set a, run on the same or a parent
// commit, for every workload and end-to-end metric: b's median may be
// worse than a's by at most the metric's bound, and each set's spread
// must stay within the bound (set-up time excepted). It prints one line
// per pair and returns the exit code.
func compareSets(specPath, pathA, pathB string) int {
	b, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "swbench: %s: %v\n", specPath, err)
		return 2
	}
	runsA, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		return 2
	}
	runsB, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		return 2
	}
	sa, sb := series(runsA), series(runsB)
	code := 0
	fmt.Printf("%-4s %-15s %-14s %12s %12s %8s %8s %8s %6s\n",
		"", "workload", "metric", "median A", "median B", "worse", "spreadA", "spreadB", "bound")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			va, vb := sa[wl.name][m.Name], sb[wl.name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("FAIL %-15s %-14s missing from a set (%d vs %d runs)\n", wl.name, m.Name, len(va), len(vb))
				code = 1
				continue
			}
			medA, relA := spread(va)
			medB, relB := spread(vb)
			worse := (medB - medA) / medA
			if m.Better == "higher" {
				worse = -worse
			}
			ok := worse <= m.Bound
			if m.Name != "setup_s" {
				ok = ok && relA <= m.Bound && relB <= m.Bound
			}
			verdict := "PASS"
			if !ok {
				verdict = "FAIL"
				code = 1
			}
			fmt.Printf("%-4s %-15s %-14s %12.4f %12.4f %7.2f%% %7.2f%% %7.2f%% %5.0f%%\n",
				verdict, wl.name, m.Name, medA, medB, 100*worse, 100*relA, 100*relB, 100*m.Bound)
		}
	}
	return code
}
