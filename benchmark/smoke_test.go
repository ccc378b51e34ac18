package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload, traced, at toy size: one sim pass per
// phase at scale 256, 20 requests per phase, a 10-child sweep. Every
// request must succeed, and every metric the workload exercises must be
// emitted — except peak_rss_mb, which only the parent of a workload's
// child process reads, and the zoo defense toy size skips.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			dir := t.TempDir()
			profile := filepath.Join(dir, "cpu.pprof")
			res, err := measureWorkload(ctx, w, params{
				seed: 1, budget: time.Millisecond, workdir: dir, size: toySize,
				trace: true, profile: profile,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || len(res.Errors) != 0 {
				t.Fatalf("failed %d of %d: %v", res.Failed, res.Attempted, res.Errors)
			}
			if res.Attempted == 0 {
				t.Fatal("attempted nothing")
			}
			shares, err := profileShares(ctx, profile)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range profileLayers {
				if _, ok := shares[l]; !ok {
					t.Errorf("profile share %s missing", l)
				}
			}
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				if d.groups&w.group == 0 || d.name == "peak_rss_mb" || filepath.Ext(d.name) == ".share" ||
					d.name == "zoo."+toySize.zooSkip+".accesses_per_s" {
					continue
				}
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("metric %s not emitted", d.name)
				}
			}
			for name := range res.Metrics {
				if !registered(name) {
					t.Errorf("metric %s emitted but not registered", name)
				}
			}
		})
	}
}

func registered(name string) bool {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return true
		}
	}
	return false
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json, which the
// benchmark's users read, in step with the metrics the code emits.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the registry %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, registry %s %s %s", kind, i, m, d.name, d.unit, d.better)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.bound) {
				t.Errorf("%s %s: bound %v, registry %v", kind, m.Name, m.Bound, d.bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}
