// Command streambench is the repository's end-to-end benchmark. It runs
// four workloads, each stressing different layers — svc-small and
// svc-mixed drive the scheduling service with open-loop traffic, batch-xl
// pushes large graph files through the batch path, and sweep runs the
// paper's experiment plan through a crash-safe coordinator and an agent —
// and checks every output it receives. README.md says why each workload
// exists and what every metric means on it.
//
// Usage (from the repository root; run.sh builds the command with every
// Go cache inside the checkout):
//
//	bash cmd/streambench/run.sh -seed 1                  # all workloads
//	bash cmd/streambench/run.sh -workload batch-xl -seed 7
//	bash cmd/streambench/run.sh -seed 1 -trace t.json    # + per-layer metrics
//	bash cmd/streambench/run.sh -seed 101 -out base-101.json
//	bash cmd/streambench/run.sh -compare 'base-*.json' 'change-*.json'
//	bash cmd/streambench/run.sh -calibrate
//
// Each run prints `workload metric value unit` lines and, last, one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics of
// an untraced run, or the per-layer metrics when -trace is set. Flags may
// be written with one dash or two. Every end-to-end timing is scaled to
// the time it would have taken had the hypervisor never withheld the
// CPUs (README.md, "Steal").
//
// Every workload run is a child process (a re-exec of this command), so
// peak RSS is the workload's own; GOMAXPROCS and every worker pool are
// the CPU count. A traced run is the untraced run followed by a traced
// one of the same seed: spans recorded around the calls the benchmark
// makes into each layer, a solo replay of the workload's distinct inputs
// through every layer function, and a Chrome trace-event file.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workDir holds everything a run writes: scratch inputs, caches, state
// directories and default trace files. It is relative to the working
// directory, the root of the checkout.
const workDir = ".bench_build/streambench"

// invocationBudget bounds an invocation that runs one or two children
// (one workload, untraced and perhaps traced), which must end within three
// minutes; longer invocations give each child the whole budget.
const invocationBudget = 170 * time.Second

// window is the measured window of every run, the run_seconds of
// BENCHMARK.json. It is fixed because the bounds and measured spreads hold
// for it only: another window changes how many slices a service run has
// and which of them hold enough samples to count.
const window = 20 * time.Second

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one workload run.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Layers    map[string]metric `json:"layers,omitempty"`
	Problems  []string          `json:"problems,omitempty"`
}

// outFile is what -out writes and -compare reads.
type outFile struct {
	Schema string   `json:"schema"`
	Runs   []record `json:"runs"`
}

const outSchema = "streambench/v1"

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("streambench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		wl        = fl.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
		seed      = fl.Int64("seed", 1, "seed of every generated input; -repeat K runs seeds seed..seed+K-1")
		seconds   = fl.Float64("seconds", window.Seconds(), "length of each run's measured window; accepted only at its default, which the bounds are set for")
		traceArg  = fl.String("trace", "", "traced run: 0 or empty for none, 1 for the default trace file, else the trace file path (the workload and seed are added to its name)")
		out       = fl.String("out", "", "write every run's record to this JSON file")
		repeat    = fl.Int("repeat", 1, "runs per workload, on consecutive seeds; prints each metric's median, quartiles and spread")
		compare   = fl.String("compare", "", "compare the base's -out files, matched by this glob pattern, with the change's, matched by the pattern given as the argument")
		calibrate = fl.Bool("calibrate", false, "measure the service workloads' closed-loop capacity")
		child     = fl.Bool("child", false, "run one workload in this process (the parent re-executes itself with it)")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "streambench:", err)
		return 1
	}
	if *seconds != window.Seconds() {
		return fail(fmt.Errorf("-seconds %g: every run measures %g s", *seconds, window.Seconds()))
	}
	if *repeat < 1 {
		return fail(errors.New("-repeat must be positive"))
	}
	switch {
	case *compare != "":
		if fl.NArg() != 1 {
			return fail(errors.New("-compare 'BASE*.json' 'CHANGE*.json'"))
		}
		if err := compareFiles(stdout, *compare, fl.Arg(0)); err != nil {
			return fail(err)
		}
		return 0
	case *calibrate:
		if err := runCalibrate(stdout); err != nil {
			return fail(err)
		}
		return 0
	case *child:
		if err := runChild(stdout, *wl, *seed, *traceArg); err != nil {
			return fail(err)
		}
		return 0
	}

	names := workloadNames()
	if *wl != "all" {
		w, err := lookupWorkload(*wl)
		if err != nil {
			return fail(err)
		}
		names = []string{w.name}
	}
	traceFile := ""
	switch *traceArg {
	case "", "0":
	case "1":
		traceFile = filepath.Join(workDir, "trace.json")
	default:
		traceFile = *traceArg
	}
	ctx := context.Background()
	if len(names)**repeat == 1 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, invocationBudget)
		defer cancel()
	}
	var runs []record
	for r := 0; r < *repeat; r++ {
		s := *seed + int64(r)
		for _, name := range names {
			rec, err := spawn(ctx, name, s, "")
			if err != nil {
				return fail(err)
			}
			printRecord(stdout, rec)
			runs = append(runs, rec)
			if traceFile == "" {
				continue
			}
			path := strings.TrimSuffix(traceFile, ".json") + fmt.Sprintf("-%s-s%d.json", name, s)
			trec, err := spawn(ctx, name, s, path)
			if err != nil {
				return fail(err)
			}
			// Tracing overhead: the traced run's headline median minus the
			// untraced run's, on the same seed.
			trec.Layers["trace.overhead_ms"] = metric{trec.Metrics["p50_ms"].Value - rec.Metrics["p50_ms"].Value, "ms"}
			printRecord(stdout, trec)
			fmt.Fprintf(stderr, "streambench: %s trace written to %s\n", name, path)
			runs = append(runs, trec)
		}
	}
	if *out != "" {
		if err := writeOut(*out, runs); err != nil {
			return fail(err)
		}
	}
	if *repeat > 1 {
		printSummary(stdout, runs)
	}
	line, err := json.Marshal(summarize(runs, len(names) > 1, traceFile != ""))
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// spawn runs one workload in a child process, killing it when ctx ends
// or, without a deadline there, after invocationBudget, and returns its
// record with the child's peak resident set size added.
func spawn(ctx context.Context, name string, seed int64, traceFile string) (record, error) {
	exe, err := os.Executable()
	if err != nil {
		return record{}, err
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, invocationBudget)
		defer cancel()
	}
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-trace", traceFile}
	cmd := exec.CommandContext(ctx, exe, args...)
	// The child dies with this process, however this process ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return record{}, fmt.Errorf("%s (seed %d): %w", name, seed, err)
	}
	var rec record
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &rec); err != nil {
		return record{}, fmt.Errorf("%s (seed %d): reading the child's record: %w", name, seed, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		// Linux reports Maxrss in KiB.
		rec.Metrics["peak_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MB"}
	}
	return rec, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// runChild runs one workload in this process and prints its record as
// the last line of standard output.
func runChild(stdout io.Writer, name string, seed int64, traceFile string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(workDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	e := &env{seed: seed, window: window, work: work, workers: nproc()}
	if traceFile != "" {
		e.tr = &tracer{}
	}
	out, err := runWorkload(context.Background(), w, e)
	if err != nil {
		return err
	}
	if e.tr != nil {
		if err := writeChromeTrace(traceFile, e.tr.snapshot()); err != nil {
			return fmt.Errorf("writing the trace: %w", err)
		}
	}
	rec := record{
		Workload: name, Seed: seed, Traced: e.tr != nil,
		Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metric), Problems: out.problems,
	}
	for _, d := range endToEnd {
		if v, ok := out.e2e[d.Name]; ok {
			rec.Metrics[d.Name] = metric{finite(v), d.Unit}
		}
	}
	if e.tr != nil {
		rec.Layers = make(map[string]metric)
		for _, d := range perLayer {
			rec.Layers[d.Name] = metric{finite(out.layer[d.Name]), d.Unit}
		}
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "streambench: %s: %s\n", name, p)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(data))
	return err
}

// shown is what a record reports: its end-to-end metrics, or its
// per-layer ones when traced.
func (r record) shown() ([]metricDef, map[string]metric) {
	if r.Traced {
		return perLayer, r.Layers
	}
	return endToEnd, r.Metrics
}

func printRecord(w io.Writer, rec record) {
	defs, ms := rec.shown()
	for _, d := range defs {
		if m, ok := ms[d.Name]; ok {
			fmt.Fprintf(w, "%s %s %s %s\n", rec.Workload, d.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		}
	}
	fmt.Fprintf(w, "%s correct=%t attempted=%d failed=%d seed=%d traced=%t\n",
		rec.Workload, rec.Correct, rec.Attempted, rec.Failed, rec.Seed, rec.Traced)
}

// summarize folds the runs into the last output line: per metric the
// median over repeats, keyed by bare name for one workload and by
// workload/name for several. Traced invocations report per-layer metrics.
func summarize(runs []record, multi, traced bool) result {
	res := result{Correct: true, Metrics: make(map[string]metric)}
	vals := make(map[string][]float64)
	units := make(map[string]string)
	for _, r := range runs {
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		if r.Traced != traced {
			continue
		}
		_, ms := r.shown()
		for name, m := range ms {
			key := name
			if multi {
				key = r.Workload + "/" + name
			}
			vals[key] = append(vals[key], m.Value)
			units[key] = m.Unit
		}
	}
	for key, v := range vals {
		res.Metrics[key] = metric{median(v), units[key]}
	}
	return res
}

// finite keeps a value JSON can carry: a latency percentile that fell on
// a failed request is +Inf, reported as the largest float64 instead.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

// printSummary prints each metric's median, quartiles and spread over the
// repeated runs of each workload.
func printSummary(w io.Writer, runs []record) {
	type key struct{ workload, name string }
	vals := make(map[key][]float64)
	var order []key
	for _, r := range runs {
		defs, ms := r.shown()
		for _, d := range defs {
			m, ok := ms[d.Name]
			if !ok {
				continue
			}
			k := key{r.Workload, d.Name}
			if _, seen := vals[k]; !seen {
				order = append(order, k)
			}
			vals[k] = append(vals[k], m.Value)
		}
	}
	fmt.Fprintln(w, "summary workload metric n median q1 q3 spread")
	for _, k := range order {
		v := vals[k]
		q1, q3 := quartiles(v)
		fmt.Fprintf(w, "summary %s %s %d %.6g %.6g %.6g %.4f\n", k.workload, k.name, len(v), median(v), q1, q3, spread(v))
	}
}

func writeOut(path string, runs []record) error {
	data, err := json.MarshalIndent(outFile{Schema: outSchema, Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readRuns reads the runs of every -out file the glob pattern matches, in
// name order.
func readRuns(pattern string) ([]record, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no such file", pattern)
	}
	var runs []record
	for _, path := range paths {
		var f outFile
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if f.Schema != outSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, outSchema)
		}
		runs = append(runs, f.Runs...)
	}
	return runs, nil
}
