package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "x", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name         string
		d            metricDef
		base, change []float64
		want         string
	}{
		{"faster in every pair", lower, base, scale(base, 0.8), "better"},
		{"slower beyond the bound", lower, base, scale(base, 1.2), "worse"},
		{"slower within the bound", lower, base, scale(base, 1.05), "same"},
		{"higher is better", higher, base, scale(base, 1.2), "better"},
		{"noisier parent than the bound", lower, []float64{50, 100, 150, 80, 120, 60, 140, 90, 110, 100}, base, "unresolved"},
		{"one pair", lower, []float64{100}, []float64{50}, "unresolved"},
		{"nine pairs", lower, base[:9], scale(base[:9], 0.8), "unresolved"},
	} {
		if _, got := verdict(c.d, c.base, c.change); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// Ties count for neither side.
	if wins, _ := verdict(lower, base, base); wins != 0 {
		t.Errorf("identical runs: change won %v of pairs", wins)
	}
}

// TestCompareFiles compares base runs written one file per run, as
// alternating runs of two commits leave them, with change runs written
// to one file in another seed order: the runs must pair by seed.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	run := func(seed int, p50 float64) record {
		return record{Workload: "batch-xl", Seed: int64(seed), Correct: true, Attempted: 1,
			Metrics: map[string]metric{"p50_ms": {p50 + float64(seed%3), "ms"}}}
	}
	for s := 0; s < 10; s++ {
		if err := writeOut(filepath.Join(dir, fmt.Sprintf("base-%d.json", s)), []record{run(s, 1000)}); err != nil {
			t.Fatal(err)
		}
	}
	var changed []record
	for s := 9; s >= 0; s-- {
		changed = append(changed, run(s, 700))
	}
	change := filepath.Join(dir, "change.json")
	if err := writeOut(change, changed); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "base-*.json")
	var out bytes.Buffer
	if err := compareFiles(&out, base, change); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "100% of 10") || !strings.Contains(out.String(), "better") {
		t.Errorf("compare output:\n%s", out.String())
	}

	// One base file alone is a single pair: no verdict.
	out.Reset()
	if err := compareFiles(&out, filepath.Join(dir, "base-3.json"), change); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "100% of 1") || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("compare output of one pair:\n%s", out.String())
	}

	if err := os.WriteFile(change, []byte(`{"schema":"other"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareFiles(&out, base, change); err == nil {
		t.Error("a file of another schema was compared")
	}
	if err := compareFiles(&out, filepath.Join(dir, "none-*.json"), change); err == nil {
		t.Error("a pattern that matches no file was compared")
	}
}
