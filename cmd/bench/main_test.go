package main

import (
	"os"
	"path/filepath"
	"testing"
)

// sampleOutput mimics go test -bench output across two packages on a
// 8-core machine, including a benchmark name that repeats in both packages
// (the v1 schema silently overwrote one with the other) and sub-benchmarks
// whose own names end in digits.
const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig13Simulation/FFT/Leap-8         	      50	    198374 ns/op	      42 B/op	       0 allocs/op
BenchmarkSweep-8                            	      50	     91000 ns/op
PASS
ok  	repro	1.2s
pkg: repro/internal/desim
BenchmarkDesimEngines/chain/Leap-8          	      50	     15314 ns/op	      61 B/op	       0 allocs/op
BenchmarkSweep-8                            	      50	     12000 ns/op	       8 B/op	       1 allocs/op
PASS
ok  	repro/internal/desim	0.8s
pkg: repro/internal/schedule
BenchmarkScaleLadder/gaussian-1000-8        	      50	   1100000 ns/op
BenchmarkScaleLadder/gaussian-10000-8       	      50	  12000000 ns/op
BenchmarkScaleLadder/gaussian-100000-8      	      50	 130000000 ns/op
PASS
ok  	repro/internal/schedule	9.1s
`

func TestParseBenchQualifiesAndStrips(t *testing.T) {
	benchmarks := parseBench(sampleOutput, 8)
	want := map[string]result{
		"repro/BenchmarkFig13Simulation/FFT/Leap":                      {Iters: 50, NsPerOp: 198374, BytesPerOp: 42},
		"repro/BenchmarkSweep":                                         {Iters: 50, NsPerOp: 91000},
		"repro/internal/desim/BenchmarkDesimEngines/chain/Leap":        {Iters: 50, NsPerOp: 15314, BytesPerOp: 61},
		"repro/internal/desim/BenchmarkSweep":                          {Iters: 50, NsPerOp: 12000, BytesPerOp: 8, AllocsPerOp: 1},
		"repro/internal/schedule/BenchmarkScaleLadder/gaussian-1000":   {Iters: 50, NsPerOp: 1100000},
		"repro/internal/schedule/BenchmarkScaleLadder/gaussian-10000":  {Iters: 50, NsPerOp: 12000000},
		"repro/internal/schedule/BenchmarkScaleLadder/gaussian-100000": {Iters: 50, NsPerOp: 130000000},
	}
	if len(benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(benchmarks), len(want), benchmarks)
	}
	for k, w := range want {
		if benchmarks[k] != w {
			t.Errorf("%s = %+v, want %+v", k, benchmarks[k], w)
		}
	}
}

func TestParseBenchNoSuffixSingleCore(t *testing.T) {
	// A single-core run prints no suffix: trailing digits belong to the
	// benchmark name and must not be stripped or fold distinct sizes.
	out := "pkg: repro\nBenchmarkX   \t 50\t  100 ns/op\n" +
		"pkg: repro/internal/schedule\n" +
		"BenchmarkScaleLadder/gaussian-1000   \t 50\t  1100000 ns/op\n" +
		"BenchmarkScaleLadder/gaussian-10000  \t 50\t 12000000 ns/op\n" +
		"BenchmarkScaleLadder/gaussian-100000 \t 50\t 130000000 ns/op\n"
	benchmarks := parseBench(out, 1)
	want := map[string]result{
		"repro/BenchmarkX": {Iters: 50, NsPerOp: 100},
		"repro/internal/schedule/BenchmarkScaleLadder/gaussian-1000":   {Iters: 50, NsPerOp: 1100000},
		"repro/internal/schedule/BenchmarkScaleLadder/gaussian-10000":  {Iters: 50, NsPerOp: 12000000},
		"repro/internal/schedule/BenchmarkScaleLadder/gaussian-100000": {Iters: 50, NsPerOp: 130000000},
	}
	if len(benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(benchmarks), len(want), benchmarks)
	}
	for k, w := range want {
		if benchmarks[k] != w {
			t.Errorf("%s = %+v, want %+v", k, benchmarks[k], w)
		}
	}
}

func TestParseBenchFoldsRepetitionsByMin(t *testing.T) {
	// go test -count=3 prints the same benchmark three times; the snapshot
	// keeps the columnwise minimum.
	reps := "pkg: repro\n" +
		"BenchmarkX-8 \t 50\t 120 ns/op\t 16 B/op\t 2 allocs/op\n" +
		"BenchmarkX-8 \t 50\t 100 ns/op\t 16 B/op\t 2 allocs/op\n" +
		"BenchmarkX-8 \t 50\t 111 ns/op\t 24 B/op\t 3 allocs/op\n"
	benchmarks := parseBench(reps, 8)
	got := benchmarks["repro/BenchmarkX"]
	want := result{Iters: 50, NsPerOp: 100, BytesPerOp: 16, AllocsPerOp: 2}
	if got != want {
		t.Fatalf("folded result = %+v, want %+v", got, want)
	}
}

func TestLatestBaseline(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_2.json", "BENCH_10.json", "BENCH_old.json", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	name, n, err := latestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if name != "BENCH_10.json" || n != 10 {
		t.Errorf("latestBaseline = %q, %d; want BENCH_10.json, 10 (numeric, not lexical, order)", name, n)
	}

	empty := t.TempDir()
	name, n, err = latestBaseline(empty)
	if err != nil || name != "" || n != 0 {
		t.Errorf("latestBaseline(empty) = %q, %d, %v; want \"\", 0, nil", name, n, err)
	}
}

func snap(benchmarks map[string]result) snapshot {
	return snapshot{Schema: schemaV2, Go: "go1.22.0", GOMAXPROCS: 1, Benchtime: "50x", Benchmarks: benchmarks}
}

func TestCompareIdenticalSnapshotsPass(t *testing.T) {
	s := snap(map[string]result{
		"repro/BenchmarkA": {Iters: 50, NsPerOp: 1000, AllocsPerOp: 2},
		"repro/BenchmarkB": {Iters: 50, NsPerOp: 2000},
	})
	rep, err := compareSnapshots(s, s, gateOpts{tolerance: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.regressions) != 0 {
		t.Fatalf("identical snapshots regressed: %v", rep.lines)
	}
}

func TestCompareCatchesNsRegression(t *testing.T) {
	base := snap(map[string]result{"repro/BenchmarkA": {NsPerOp: 1000}})
	cur := snap(map[string]result{"repro/BenchmarkA": {NsPerOp: 1150}}) // +15%
	rep, err := compareSnapshots(base, cur, gateOpts{tolerance: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.regressions) != 1 {
		t.Fatalf("+15%% ns/op at 10%% tolerance: regressions = %v, want 1", rep.lines)
	}

	// Within tolerance passes, improvements always pass.
	for _, ns := range []float64{1090, 500} {
		cur = snap(map[string]result{"repro/BenchmarkA": {NsPerOp: ns}})
		rep, err = compareSnapshots(base, cur, gateOpts{tolerance: 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.regressions) != 0 {
			t.Errorf("ns/op 1000 -> %.0f flagged at 10%% tolerance: %v", ns, rep.lines)
		}
	}
}

func TestCompareCatchesAllocRegression(t *testing.T) {
	base := snap(map[string]result{"repro/BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 0}})
	cur := snap(map[string]result{"repro/BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 1}})
	rep, err := compareSnapshots(base, cur, gateOpts{tolerance: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.regressions) != 1 {
		t.Fatalf("0 -> 1 allocs/op at exact tolerance: regressions = %v, want 1", rep.lines)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := snap(map[string]result{"repro/BenchmarkA": {NsPerOp: 1000}, "repro/BenchmarkGone": {NsPerOp: 500}})
	cur := snap(map[string]result{"repro/BenchmarkA": {NsPerOp: 1000}, "repro/BenchmarkNew": {NsPerOp: 100}})
	rep, err := compareSnapshots(base, cur, gateOpts{tolerance: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.regressions) != 1 || rep.regressions[0] != "repro/BenchmarkGone" {
		t.Fatalf("missing baseline benchmark: regressions = %v, want [repro/BenchmarkGone]", rep.regressions)
	}
}

func TestCompareNormalizesUniformDrift(t *testing.T) {
	// Ten benchmarks, all 30% slower: suite-wide machine drift, not a
	// regression. An eleventh that doubled has moved relative to the suite
	// and still fails.
	base := map[string]result{}
	cur := map[string]result{}
	for _, name := range []string{"A", "B", "C", "D", "E", "F", "G", "H", "I", "J"} {
		base["repro/Benchmark"+name] = result{NsPerOp: 1000}
		cur["repro/Benchmark"+name] = result{NsPerOp: 1300}
	}
	rep, err := compareSnapshots(snap(base), snap(cur), gateOpts{tolerance: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.regressions) != 0 {
		t.Fatalf("uniform +30%% drift flagged as regressions: %v", rep.lines)
	}

	base["repro/BenchmarkOutlier"] = result{NsPerOp: 1000}
	cur["repro/BenchmarkOutlier"] = result{NsPerOp: 2600} // 2x after drift
	rep, err = compareSnapshots(snap(base), snap(cur), gateOpts{tolerance: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.regressions) != 1 || rep.regressions[0] != "repro/BenchmarkOutlier" {
		t.Fatalf("regressions = %v, want only the outlier", rep.regressions)
	}

	// -raw flags everything.
	rep, err = compareSnapshots(snap(base), snap(cur), gateOpts{tolerance: 10, raw: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.regressions) != 11 {
		t.Fatalf("raw mode: %d regressions, want all 11", len(rep.regressions))
	}
}

func TestCompareClampsGlobalSlowdown(t *testing.T) {
	// Everything 2x slower is beyond the drift clamp: a real global
	// regression must not normalize itself away.
	base := map[string]result{}
	cur := map[string]result{}
	for _, name := range []string{"A", "B", "C", "D", "E", "F"} {
		base["repro/Benchmark"+name] = result{NsPerOp: 1000}
		cur["repro/Benchmark"+name] = result{NsPerOp: 2000}
	}
	rep, err := compareSnapshots(snap(base), snap(cur), gateOpts{tolerance: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.regressions) != 6 {
		t.Fatalf("global 2x slowdown: %d regressions, want all 6", len(rep.regressions))
	}
}

func TestCompareSkipsDriftOnTinySnapshots(t *testing.T) {
	// With fewer than minDriftSamples benchmarks a single regression could
	// dominate the median and normalize itself away; absolute comparison
	// applies instead.
	base := snap(map[string]result{"repro/BenchmarkA": {NsPerOp: 1000}})
	cur := snap(map[string]result{"repro/BenchmarkA": {NsPerOp: 1500}})
	rep, err := compareSnapshots(base, cur, gateOpts{tolerance: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.regressions) != 1 {
		t.Fatalf("single-benchmark +50%%: regressions = %v, want 1", rep.lines)
	}
}

func TestCompareRejectsBenchtimeMismatch(t *testing.T) {
	base := snap(map[string]result{"repro/BenchmarkA": {NsPerOp: 1000}})
	cur := base
	cur.Benchtime = "100x"
	if _, err := compareSnapshots(base, cur, gateOpts{tolerance: 10}); err == nil {
		t.Fatal("benchtime mismatch compared without error")
	}
}

func TestReadSnapshotRejectsV1(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_5.json")
	v1 := `{"schema": "streamsched-bench/v1", "benchmarks": {"BenchmarkA-8": {"ns_per_op": 1}}}`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readSnapshot(path); err == nil {
		t.Fatal("v1 snapshot read without error; v1 keys are ambiguous across packages")
	}
}
