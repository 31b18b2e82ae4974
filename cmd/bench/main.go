// Command bench records and gates the repository's benchmark baseline.
//
// Without -diff it runs the Go benchmarks with fixed iteration counts and
// writes a machine-readable snapshot (the next numbered BENCH_<N>.json by
// default) mapping every benchmark to its ns/op, B/op, and allocs/op.
// Committing the snapshot gives future changes a performance trajectory to
// diff against — `make bench` regenerates it.
//
// With -diff the snapshot becomes an enforceable gate: the tool runs the
// benchmarks again (or, with -against, reads a second snapshot file), then
// compares against the named baseline and exits nonzero if any benchmark
// regressed beyond tolerance. Because shared machines drift — the whole
// suite runs 10-30% slower between two identical runs — the gate divides
// every ns/op ratio by the suite's median ratio before applying tolerance,
// so only benchmarks that moved relative to the rest of the suite fail;
// the correction is clamped (a change that slows everything down cannot
// normalize itself away) and -raw disables it. `make bench-diff` wires the
// gate against the latest committed baseline; CI runs it with a loose
// ns/op tolerance (wall-clock times do not transfer across machines).
// allocs/op must match exactly: allocation counts do transfer.
//
// Usage:
//
//	go run ./cmd/bench [-out FILE] [-bench regex] [-benchtime 50x]
//	                   [-pkg ./,./internal/desim] [-timeout 30m]
//	go run ./cmd/bench -diff latest [-against FILE] [-tolerance 10] [-raw]
//
// The snapshot format (schema streamsched-bench/v2) keys every benchmark by
// its package import path so equally named benchmarks in different packages
// cannot collide, and strips the -GOMAXPROCS suffix go test appends on
// multi-core machines (recorded once in the header instead) so keys are
// portable across machines:
//
//	{
//	  "schema": "streamsched-bench/v2",
//	  "go": "go1.22.0",
//	  "gomaxprocs": 1,
//	  "benchtime": "50x",
//	  "count": 3,
//	  "benchmarks": {
//	    "repro/BenchmarkFig13Simulation/FFT/Leap": {
//	      "iters": 50, "ns_per_op": 198374, "bytes_per_op": 42, "allocs_per_op": 0
//	    },
//	    ...
//	  }
//	}
//
// ns_per_op is wall-clock time per operation, the minimum over -count
// repetitions (scheduling noise only adds time, so the minimum is the most
// repeatable estimate); a fixed -benchtime keeps the simulated workload
// identical across runs, so two snapshots are directly comparable (on
// comparable hardware — the snapshot deliberately records no timestamps or
// host details beyond the Go version and GOMAXPROCS). The
// gate never compares bytes_per_op: tiny amortized warm-up allocations make
// it drift with iteration count. The raw `go test` output streams to stderr
// for eyeballing.
//
// Exit status: 0 clean, 1 gate regression, 2 usage or infrastructure error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark's measurements.
type result struct {
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// snapshot is the BENCH_<N>.json document.
type snapshot struct {
	Schema     string            `json:"schema"`
	Go         string            `json:"go"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Benchtime  string            `json:"benchtime"`
	Count      int               `json:"count"`
	Benchmarks map[string]result `json:"benchmarks"`
}

// schemaV2 keys benchmarks by package import path and strips the
// -GOMAXPROCS suffix; v1 snapshots used raw benchmark names and cannot be
// compared (a v1 baseline silently merged all -pkg packages into one
// namespace).
const schemaV2 = "streamsched-bench/v2"

var (
	// benchLine matches `go test -bench` output rows, with or without
	// -benchmem columns, e.g.:
	//
	//	BenchmarkFig13Simulation/FFT/Leap-8  50  198374 ns/op  42 B/op  0 allocs/op
	benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op\s+(\d+) allocs/op)?`)
	// pkgLine matches the `pkg: repro/internal/desim` header go test prints
	// before each package's benchmarks.
	pkgLine = regexp.MustCompile(`^pkg:\s+(\S+)`)
	// benchFile matches committed baseline snapshots in the repo root.
	benchFile = regexp.MustCompile(`^BENCH_(\d+)\.json$`)
)

// parseBench parses `go test -bench` output of a run at the given
// GOMAXPROCS into results keyed by "importpath/BenchmarkName". go test
// appends "-<GOMAXPROCS>" to every name when GOMAXPROCS > 1; only that exact
// suffix is stripped, so a sub-benchmark whose own name ends in digits
// (BenchmarkScaleLadder/gaussian-1000) keeps them on every machine. Package
// qualification makes equally named benchmarks in different packages
// distinct keys instead of silently overwriting each other; repeats of the
// SAME key (go test -count > 1) are folded by taking the per-column minimum
// — scheduling noise only ever adds time, so the minimum is the most
// repeatable estimate of a benchmark's cost.
func parseBench(output string, procs int) map[string]result {
	benchmarks := map[string]result{}
	suffix := ""
	if procs > 1 {
		suffix = "-" + strconv.Itoa(procs)
	}
	pkg := ""
	for _, line := range strings.Split(output, "\n") {
		line = strings.TrimSpace(line)
		if m := pkgLine.FindStringSubmatch(line); m != nil {
			pkg = m[1]
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		if suffix != "" {
			name = strings.TrimSuffix(name, suffix)
		}
		key := name
		if pkg != "" {
			key = pkg + "/" + name
		}
		var r result
		r.Iters, _ = strconv.ParseInt(m[2], 10, 64)
		r.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			r.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
			r.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		if prev, ok := benchmarks[key]; ok {
			r.NsPerOp = min(r.NsPerOp, prev.NsPerOp)
			r.BytesPerOp = min(r.BytesPerOp, prev.BytesPerOp)
			r.AllocsPerOp = min(r.AllocsPerOp, prev.AllocsPerOp)
		}
		benchmarks[key] = r
	}
	return benchmarks
}

// latestBaseline scans dir for BENCH_<N>.json files and returns the highest
// N (0 and "" when none exist).
func latestBaseline(dir string) (string, int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, err
	}
	best := 0
	name := ""
	for _, e := range entries {
		m := benchFile.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if n, _ := strconv.Atoi(m[1]); n > best {
			best, name = n, e.Name()
		}
	}
	return name, best, nil
}

func main() {
	out := flag.String("out", "", "snapshot file to write (default: the next numbered BENCH_<N>.json; with -diff, only written if set explicitly)")
	bench := flag.String("bench", ".", "benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "50x", "fixed iteration count (or duration) per benchmark")
	count := flag.Int("count", 3, "go test -count repetitions; the snapshot records each benchmark's minimum, the most repeatable estimate under scheduling noise")
	pkgs := flag.String("pkg", "./,./internal/desim,./internal/schedule", "comma-separated packages whose benchmarks to run")
	timeout := flag.String("timeout", "30m", "go test timeout")
	diffBase := flag.String("diff", "", "baseline snapshot to gate against (\"latest\" resolves the highest BENCH_<N>.json); runs the benchmarks, compares, and exits 1 on any regression")
	against := flag.String("against", "", "with -diff: gate this existing snapshot file instead of running the benchmarks")
	tol := flag.Float64("tolerance", 10, "ns/op regression tolerance, percent over baseline")
	raw := flag.Bool("raw", false, "compare absolute ns/op without normalizing out suite-wide machine drift")
	flag.Parse()

	code, err := run(*out, *bench, *benchtime, *count, *pkgs, *timeout,
		*diffBase, *against, *tol, *raw)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

func run(out, bench, benchtime string, count int, pkgs, timeout,
	diffBase, against string, tol float64, raw bool) (int, error) {

	if diffBase == "" {
		if against != "" {
			return 2, fmt.Errorf("-against requires -diff")
		}
		if out == "" {
			_, n, err := latestBaseline(".")
			if err != nil {
				return 2, err
			}
			out = fmt.Sprintf("BENCH_%d.json", n+1)
		}
		snap, err := runBenchmarks(bench, benchtime, count, pkgs, timeout)
		if err != nil {
			return 2, err
		}
		if err := writeSnapshot(out, snap); err != nil {
			return 2, err
		}
		return 0, nil
	}

	opt := gateOpts{tolerance: tol, raw: raw}
	if diffBase == "latest" {
		name, _, err := latestBaseline(".")
		if err != nil {
			return 2, err
		}
		if name == "" {
			return 2, fmt.Errorf("-diff latest: no BENCH_<N>.json baseline in %s", mustAbs("."))
		}
		diffBase = name
	}
	base, err := readSnapshot(diffBase)
	if err != nil {
		return 2, err
	}
	var cur snapshot
	if against != "" {
		if cur, err = readSnapshot(against); err != nil {
			return 2, err
		}
	} else {
		if cur, err = runBenchmarks(bench, benchtime, count, pkgs, timeout); err != nil {
			return 2, err
		}
		if out != "" {
			if err := writeSnapshot(out, cur); err != nil {
				return 2, err
			}
		}
	}
	rep, err := compareSnapshots(base, cur, opt)
	if err != nil {
		return 2, err
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	if n := len(rep.regressions); n > 0 {
		fmt.Printf("bench-diff: FAIL — %d regression(s) vs %s (see above; to bless an intentional change, commit a new baseline via `make bench`)\n", n, diffBase)
		return 1, nil
	}
	fmt.Printf("bench-diff: ok — %d benchmarks within tolerance of %s\n", len(base.Benchmarks), diffBase)
	return 0, nil
}

func mustAbs(p string) string {
	if a, err := filepath.Abs(p); err == nil {
		return a
	}
	return p
}

// runBenchmarks executes go test -bench and parses the output into a v2
// snapshot, folding -count repetitions into per-benchmark minima.
func runBenchmarks(bench, benchtime string, count int, pkgs, timeout string) (snapshot, error) {
	if count < 1 {
		count = 1
	}
	// -cpu pins the GOMAXPROCS go test runs at, and so the name suffix
	// parseBench strips, to this process's.
	procs := runtime.GOMAXPROCS(0)
	args := []string{"test", "-run", "^$", "-bench", bench, "-cpu", strconv.Itoa(procs),
		"-benchtime", benchtime, "-benchmem", "-count", strconv.Itoa(count), "-timeout", timeout}
	args = append(args, strings.Split(pkgs, ",")...)

	var buf bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stdout = io.MultiWriter(&buf, os.Stderr)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return snapshot{}, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	benchmarks := parseBench(buf.String(), procs)
	if len(benchmarks) == 0 {
		return snapshot{}, fmt.Errorf("no benchmark results parsed; check -bench/-pkg")
	}
	return snapshot{
		Schema:     schemaV2,
		Go:         runtime.Version(),
		GOMAXPROCS: procs,
		Benchtime:  benchtime,
		Count:      count,
		Benchmarks: benchmarks,
	}, nil
}

func writeSnapshot(path string, snap snapshot) error {
	data, err := json.MarshalIndent(&snap, "", "  ") // map keys marshal sorted
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %d benchmarks to %s (benchtime %s)\n",
		len(snap.Benchmarks), path, snap.Benchtime)
	return nil
}

func readSnapshot(path string) (snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return snapshot{}, err
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	if snap.Schema != schemaV2 {
		return snapshot{}, fmt.Errorf("%s: schema %q is not %q; regenerate the baseline with `make bench` (v2 keys benchmarks by package and strips the GOMAXPROCS suffix)",
			path, snap.Schema, schemaV2)
	}
	return snap, nil
}

// gateOpts are the settings of one bench-diff comparison.
type gateOpts struct {
	tolerance float64 // ns/op regression tolerance, percent
	raw       bool    // skip machine-drift normalization
}

// Drift normalization bounds: the median new/baseline ns ratio is treated
// as machine-wide drift (shared hardware runs the whole suite 10-30%
// faster or slower between runs) and divided out of every comparison, so
// the gate flags benchmarks that moved relative to the suite. The
// correction is clamped — a change that slows the entire suite beyond
// maxDrift cannot normalize itself away — and skipped for tiny snapshots,
// where a real regression could dominate the median.
const (
	maxDrift        = 1.5
	minDriftSamples = 5
)

// driftFactor estimates machine-wide drift as the clamped median ratio of
// cur to base ns/op over the benchmarks present in both snapshots.
func driftFactor(base, cur snapshot) float64 {
	var ratios []float64
	for k, b := range base.Benchmarks {
		if c, ok := cur.Benchmarks[k]; ok && b.NsPerOp > 0 && c.NsPerOp > 0 {
			ratios = append(ratios, c.NsPerOp/b.NsPerOp)
		}
	}
	if len(ratios) < minDriftSamples {
		return 1
	}
	sort.Float64s(ratios)
	mid := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		mid = (mid + ratios[len(ratios)/2-1]) / 2
	}
	if mid > maxDrift {
		return maxDrift
	}
	if mid < 1/maxDrift {
		return 1 / maxDrift
	}
	return mid
}

// gateReport is the outcome of one comparison: human-readable lines plus
// the keys that regressed.
type gateReport struct {
	lines       []string
	regressions []string
}

// compareSnapshots gates cur against base. A regression is a baseline
// benchmark missing from cur, drift-adjusted ns/op above the tolerance,
// or any growth in allocs/op (allocation counts are machine-independent,
// so they must match exactly).
// Benchmarks only in cur are reported but never fail; bytes_per_op is
// never compared.
func compareSnapshots(base, cur snapshot, opt gateOpts) (gateReport, error) {
	var rep gateReport
	if base.Benchtime != cur.Benchtime {
		return rep, fmt.Errorf("benchtime mismatch: baseline %q vs new %q — the workloads are not comparable", base.Benchtime, cur.Benchtime)
	}
	if base.Count != cur.Count {
		rep.lines = append(rep.lines, fmt.Sprintf("note: repetition count differs (baseline min of %d, new min of %d); fewer repetitions bias ns/op upward",
			base.Count, cur.Count))
	}
	if base.GOMAXPROCS != cur.GOMAXPROCS {
		rep.lines = append(rep.lines, fmt.Sprintf("note: GOMAXPROCS differs (baseline %d, new %d); wall-clock comparisons are indicative only",
			base.GOMAXPROCS, cur.GOMAXPROCS))
	}

	drift := 1.0
	if !opt.raw {
		drift = driftFactor(base, cur)
		if pct := 100 * (drift - 1); pct > 2 || pct < -2 {
			rep.lines = append(rep.lines, fmt.Sprintf("note: normalizing ns/op for %+.0f%% suite-wide machine drift (clamped to ±%.0f%%); pass -raw to compare absolute times",
				pct, 100*(maxDrift-1)))
		}
	}

	keys := make([]string, 0, len(base.Benchmarks))
	for k := range base.Benchmarks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fail := func(key, format string, args ...any) {
		rep.regressions = append(rep.regressions, key)
		rep.lines = append(rep.lines, fmt.Sprintf("REGRESSION %s: %s", key, fmt.Sprintf(format, args...)))
	}
	for _, key := range keys {
		b := base.Benchmarks[key]
		c, ok := cur.Benchmarks[key]
		if !ok {
			fail(key, "missing from new snapshot")
			continue
		}
		if b.NsPerOp > 0 {
			if pct := 100 * (c.NsPerOp/drift - b.NsPerOp) / b.NsPerOp; pct > opt.tolerance {
				fail(key, "ns/op +%.1f%% drift-adjusted (%.0f -> %.0f), tolerance %.0f%%", pct, b.NsPerOp, c.NsPerOp, opt.tolerance)
			}
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			fail(key, "allocs/op %d -> %d, must not grow", b.AllocsPerOp, c.AllocsPerOp)
		}
	}
	extra := 0
	for k := range cur.Benchmarks {
		if _, ok := base.Benchmarks[k]; !ok {
			extra++
		}
	}
	if extra > 0 {
		rep.lines = append(rep.lines, fmt.Sprintf("note: %d benchmark(s) not in baseline (new benchmarks pass; bless them into the next baseline via `make bench`)", extra))
	}
	return rep, nil
}
