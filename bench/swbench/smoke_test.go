package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs swbench end to end at tiny sizes: every workload
// untraced and s7-narrow traced, each against a freshly built server, with
// the oracles on. At one second per run some percentiles lack samples;
// those must be reported as shortfalls, never silently.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers")
	}
	repo, err := findRepo()
	if err != nil {
		t.Fatal(err)
	}
	spec := readSpec(t, filepath.Join(repo, "BENCHMARK.json"))
	env, err := newEnv(repo)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	check := func(wl workload, traced bool, want []string) {
		t.Helper()
		res, err := runWorkload(ctx, env, wl, 7, time.Second, traced)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d mismatches=%v",
				wl.name, res.Correct, res.Failed, res.Attempted, res.Mismatches)
		}
		short := map[string]bool{}
		for _, s := range res.Shortfalls {
			name, _, _ := strings.Cut(s, ":")
			short[name] = true
		}
		for _, name := range want {
			if _, ok := res.Metrics[name]; !ok && !short[name] {
				t.Errorf("%s: metric %s neither reported nor refused", wl.name, name)
			}
		}
		if len(res.Metrics)+len(short) != len(want) {
			t.Errorf("%s: reported %d metrics and %d shortfalls, BENCHMARK.json names %d",
				wl.name, len(res.Metrics), len(short), len(want))
		}
	}
	for _, wl := range workloads {
		wl.n, wl.window = 200, 1000
		check(wl, false, spec.endToEnd)
		if wl.name == "s7-narrow" {
			check(wl, true, spec.perLayer)
		}
	}
}

type specNames struct{ endToEnd, perLayer []string }

func readSpec(t *testing.T, path string) specNames {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var out specNames
	for _, m := range spec.EndToEnd {
		out.endToEnd = append(out.endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		out.perLayer = append(out.perLayer, m.Name)
	}
	return out
}
