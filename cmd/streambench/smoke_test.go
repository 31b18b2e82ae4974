package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload, traced, with shrunken inputs and a
// one-second window: each must verify clean and report every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := &env{seed: 1, window: time.Second, smoke: true, work: t.TempDir(), workers: nproc(), tr: &tracer{}}
			out, err := runWorkload(context.Background(), w, e)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", out.attempted, out.failed, out.problems)
			}
			for _, d := range endToEnd {
				if v, ok := out.e2e[d.Name]; d.Name != "peak_rss_mb" && (!ok || v <= 0) {
					t.Errorf("%s = %v, %v", d.Name, v, ok)
				}
			}
			for _, name := range []string{"core.decode_ms", "schedule.schedule_ms", "buffers.sizes_ms", "desim.simulate_ms", "service.report_encode_ms", "runtime.alloc_mb_per_op"} {
				if out.layer[name] <= 0 {
					t.Errorf("%s = %v, want a measurement", name, out.layer[name])
				}
			}
			for _, d := range perLayer {
				if _, ok := out.layer[d.Name]; !ok {
					t.Errorf("no %s", d.Name)
				}
			}
			path := e.work + "/trace.json"
			if err := writeChromeTrace(path, e.tr.snapshot()); err != nil {
				t.Fatal(err)
			}
			var events []chromeEvent
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &events); err != nil || len(events) == 0 {
				t.Errorf("trace: %d events, %v", len(events), err)
			}
		})
	}
}

// TestBenchmarkFileMatches keeps the repository's BENCHMARK.json in step
// with the metrics and workloads this command reports.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this module:", err)
	}
	var f struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %+v, here %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		file, here []metricDef
	}{{f.EndToEnd, endToEnd}, {f.PerLayer, perLayer}} {
		if len(c.file) != len(c.here) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d here", len(c.file), len(c.here))
		}
		for i := range c.file {
			if c.file[i] != c.here[i] {
				t.Errorf("metric %d: %+v in BENCHMARK.json, %+v here", i, c.file[i], c.here[i])
			}
		}
	}
}
