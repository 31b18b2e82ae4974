package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/results"
	"repro/internal/schedule"
	"repro/internal/service"
)

// parse parses a command line the way main does, failing the test on a
// flag error.
func parse(t *testing.T, args ...string) config {
	t.Helper()
	fs := flag.NewFlagSet("streamsched", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c, err := parseFlags(fs, args)
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return c
}

// TestGoldenStdout: the stdout of the batch, sweep, Gantt and listing
// paths is byte-identical to the committed goldens, so a refactor of any
// of them cannot change what scripts parse.
func TestGoldenStdout(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"cholesky-sim-tasks-pipeline", []string{"-synth", "cholesky", "-size", "8", "-pes", "16", "-sim", "-tasks", "-pipeline"}},
		{"fft-sweep", []string{"-synth", "fft", "-size", "32", "-sweep", "32,64", "-workers", "2"}},
		{"vgg-gantt", []string{"-model", "vgg", "-pes", "64", "-gantt"}},
		{"list-variants", []string{"-list-variants"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), parse(t, tc.args...), &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%s: stdout differs from the golden:\n%s", tc.golden, stdout.String())
		}
	}
}

// TestModeFlags: every mode rejects a flag it would silently ignore, with
// the mode's message, and accepts every flag it reads.
func TestModeFlags(t *testing.T) {
	for _, tc := range []struct {
		mode     string
		args     []string // select the mode
		rejected []string
		want     string // message for the first rejected flag
	}{
		{"-list-variants", []string{"-list-variants"}, []string{"synth", "pes"},
			"-pes has no effect with -list-variants"},
		{"-serve", []string{"-serve", "127.0.0.1:0"}, []string{"gantt", "sim"},
			"-gantt has no effect with -serve (submissions carry the graph and its options)"},
		{"-loadtest", []string{"-loadtest"}, []string{"synth", "sweep"},
			"-sweep has no effect with -loadtest (it submits -workload)"},
		{"-loadgen", []string{"-loadgen", "http://127.0.0.1:1"}, []string{"cache", "loadtest"},
			"-cache has no effect with -loadgen (the remote service has its own options)"},
		{"-sweep", []string{"-synth", "fft", "-sweep", "32,64"}, []string{"sim", "pes"},
			"-pes has no effect with -sweep (it prints one summary row per PE count)"},
		{"a batch run", []string{"-synth", "fft"}, []string{"workers", "rate"},
			"-rate has no effect with a batch run (it schedules one graph at -pes)"},
	} {
		m, ok := modeFlags[tc.mode]
		if !ok {
			t.Fatalf("no flag table for mode %s", tc.mode)
		}
		c := parse(t, tc.args...)
		if got := c.mode(); got != tc.mode {
			t.Fatalf("%q selects mode %s, want %s", tc.args, got, tc.mode)
		}
		explicit := map[string]bool{}
		for _, name := range m.Allowed {
			explicit[name] = true
		}
		if err := experiments.CheckModeFlags(modeFlags, tc.mode, explicit); err != nil {
			t.Errorf("%s rejects its own flags: %v", tc.mode, err)
		}
		for _, name := range tc.rejected {
			if slices.Contains(m.Allowed, name) {
				t.Fatalf("%s reads -%s", tc.mode, name)
			}
			c.explicit[name] = true
		}
		var stdout bytes.Buffer
		err := run(context.Background(), c, &stdout, io.Discard)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s with %v: err %v, want %q", tc.mode, tc.rejected, err, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: rejected run printed %q", tc.mode, stdout.String())
		}
	}
	// Every flag is read by some mode.
	fs := flag.NewFlagSet("streamsched", flag.ContinueOnError)
	if _, err := parseFlags(fs, nil); err != nil {
		t.Fatal(err)
	}
	fs.VisitAll(func(f *flag.Flag) {
		for _, m := range modeFlags {
			if slices.Contains(m.Allowed, f.Name) {
				return
			}
		}
		t.Errorf("no mode reads -%s", f.Name)
	})
}

// TestModelHelpNamesWorkloads: the -model help lists exactly the onnx:*
// workloads -model accepts.
func TestModelHelpNamesWorkloads(t *testing.T) {
	var want []string
	for _, name := range experiments.WorkloadNames() {
		if model, ok := strings.CutPrefix(name, "onnx:"); ok {
			want = append(want, model)
		}
	}
	var got []string
	for _, f := range strings.FieldsFunc(strings.ReplaceAll(modelHelp, "or the published sizes", ","),
		func(r rune) bool { return r == ',' || r == ' ' }) {
		got = append(got, f)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("-model help names %v, workloads are %v", got, want)
	}
}

// TestLoadTestInProcess drives a short in-process -loadtest through run:
// every request completes and the artifact is written.
func TestLoadTestInProcess(t *testing.T) {
	out := filepath.Join(t.TempDir(), "load.json")
	c := parse(t, "-loadtest", "-rate", "200", "-requests", "20", "-seed", "7",
		"-workload", "synth:chain", "-pes", "4", "-load-out", out)
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), c, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "requests 20  accepted 20  rejected 0 (0.0%)  completed 20 ") {
		t.Errorf("summary: %q", stdout.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema    string `json:"schema"`
		Completed int    `json:"completed"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != service.LoadSchema || rep.Completed != 20 {
		t.Errorf("artifact: schema %q, %d completed", rep.Schema, rep.Completed)
	}
}

// TestServeDrainsOnCancel: cancelling run's context — what a signal does
// in main — drains the service and returns cleanly.
func TestServeDrainsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var stderr lockedBuffer
	c := parse(t, "-serve", "127.0.0.1:0", "-pes", "8")
	go func() { done <- run(ctx, c, io.Discard, &stderr) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not return after cancellation")
	}
	if !strings.Contains(stderr.String(), "streamsched: drained (accepted 0, completed 0, rejected 0)") {
		t.Errorf("stderr: %q", stderr.String())
	}
}

// lockedBuffer is a bytes.Buffer safe for the serve goroutine and its
// drain callback to write concurrently.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestWriteFile: an output file is reported only once written and
// closed; a failed write reports nothing.
func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.dot")
	var stdout bytes.Buffer
	if err := writeFile(&stdout, path, func(w io.Writer) error {
		_, err := io.WriteString(w, "digraph {}\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != "wrote "+path+"\n" {
		t.Errorf("stdout %q", stdout.String())
	}
	stdout.Reset()
	failed := errors.New("disk full")
	if err := writeFile(&stdout, path, func(io.Writer) error { return failed }); err != failed {
		t.Errorf("err %v, want %v", err, failed)
	}
	if err := writeFile(&stdout, filepath.Join(path, "under-a-file"), func(io.Writer) error { return nil }); err == nil {
		t.Error("creating a file under a file succeeded")
	}
	if stdout.Len() != 0 {
		t.Errorf("failed writes printed %q", stdout.String())
	}
}

func TestLoadGraphSynth(t *testing.T) {
	for _, name := range []string{"chain", "fft", "gaussian", "cholesky"} {
		tg, err := loadGraph("", name, "", 8, 1)
		if err != nil {
			t.Fatalf("synth %s: %v", name, err)
		}
		if tg.Len() == 0 || tg.NumComputeNodes() == 0 {
			t.Fatalf("synth %s: empty graph", name)
		}
	}
}

// Synthetic construction is a pure function of (name, size, seed): equal
// arguments fingerprint identically, different seeds differently.
func TestLoadGraphSynthDeterministic(t *testing.T) {
	a, err := loadGraph("", "fft", "", 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadGraph("", "fft", "", 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := loadGraph("", "fft", "", 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if results.Fingerprint(a) != results.Fingerprint(b) {
		t.Fatal("same (size, seed) built different graphs")
	}
	if results.Fingerprint(a) == results.Fingerprint(c) {
		t.Fatal("different seeds built identical graphs")
	}
}

func TestLoadGraphModel(t *testing.T) {
	tg, err := loadGraph("", "", "mlp", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tg.NumComputeNodes() == 0 {
		t.Fatal("model graph has no compute nodes")
	}
}

func TestLoadGraphJSONFile(t *testing.T) {
	tg, err := loadGraph("", "chain", "", 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.EncodeJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := loadGraph(path, "", "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if results.Fingerprint(got) != results.Fingerprint(tg) {
		t.Fatal("JSON round trip changed the graph")
	}
}

func TestLoadGraphBadInputs(t *testing.T) {
	cases := []struct {
		name               string
		path, synth, model string
	}{
		{"none selected", "", "", ""},
		{"two selected", "x.json", "fft", ""},
		{"all selected", "x.json", "fft", "mlp"},
		{"unknown synth", "", "nope", ""},
		{"unknown model", "", "", "nope"},
		{"missing file", filepath.Join(t.TempDir(), "absent.json"), "", ""},
	}
	for _, c := range cases {
		if _, err := loadGraph(c.path, c.synth, c.model, 8, 1); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestRunSweep(t *testing.T) {
	tg, err := loadGraph("", "fft", "", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runSweep(&buf, tg, schedule.SBLTS, "2, 4,8", 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "3 PE configurations") {
		t.Fatalf("missing header: %q", out)
	}
	for _, pe := range []string{"     2 ", "     4 ", "     8 "} {
		if !strings.Contains(out, pe) {
			t.Errorf("missing row for PEs %q in %q", strings.TrimSpace(pe), out)
		}
	}

	// The sweep is deterministic at any worker count.
	var again bytes.Buffer
	if err := runSweep(&again, tg, schedule.SBLTS, "2, 4,8", 1); err != nil {
		t.Fatal(err)
	}
	if again.String() != out {
		t.Fatal("sweep output depends on worker count")
	}
}

// TestBatchSummaryMatchesServiceReport: the batch-mode summary prints the
// same blocks, makespan, buffer counts and simulated makespan as
// service.BuildReport reports for the same input, with and without -sim,
// so the CLI and the service cannot drift apart.
func TestBatchSummaryMatchesServiceReport(t *testing.T) {
	const pes = 16
	tg, err := buildSynth("cholesky", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	round := func(x float64) string { return strconv.FormatFloat(x, 'f', 0, 64) }
	for _, simulate := range []bool{false, true} {
		var buf bytes.Buffer
		c := config{pes: pes, variant: "lts", sim: simulate}
		if err := runBatch(&buf, c, tg, schedule.SBLTS); err != nil {
			t.Fatal(err)
		}
		rep, err := service.BuildReport(tg, pes, schedule.SBLTS, "lts", simulate)
		if err != nil {
			t.Fatal(err)
		}

		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		wantLines := 4
		if simulate {
			wantLines = 5
		}
		if len(lines) != wantLines {
			t.Fatalf("simulate=%v: %d lines, want %d:\n%s", simulate, len(lines), wantLines, buf.String())
		}
		var blocks, streaming, cycle int
		var slots int64
		var makespan string
		if _, err := fmt.Sscanf(lines[1], "schedule (SB-LTS, 16 PEs): %d spatial blocks, makespan %s",
			&blocks, &makespan); err != nil {
			t.Fatalf("schedule line %q: %v", lines[1], err)
		}
		if blocks != rep.Blocks || makespan != round(rep.Makespan) {
			t.Errorf("simulate=%v: printed %d blocks, makespan %s; report %d, %s",
				simulate, blocks, makespan, rep.Blocks, round(rep.Makespan))
		}
		if _, err := fmt.Sscanf(lines[3], "buffers: %d streaming edges, %d on undirected cycles, %d total FIFO slots on cycle edges",
			&streaming, &cycle, &slots); err != nil {
			t.Fatalf("buffers line %q: %v", lines[3], err)
		}
		if streaming != rep.StreamingEdges || cycle != rep.CycleEdges || slots != rep.BufferSlots {
			t.Errorf("simulate=%v: printed buffers %d/%d/%d; report %d/%d/%d", simulate,
				streaming, cycle, slots, rep.StreamingEdges, rep.CycleEdges, rep.BufferSlots)
		}
		if !simulate {
			continue
		}
		var simMakespan string
		if _, err := fmt.Sscanf(lines[4], "simulation: makespan %s", &simMakespan); err != nil {
			t.Fatalf("simulation line %q: %v", lines[4], err)
		}
		if rep.Sim == nil || rep.Sim.Deadlocked || simMakespan != round(rep.Sim.Makespan) {
			t.Errorf("printed simulated makespan %s; report %+v", simMakespan, rep.Sim)
		}
	}
}

func TestRunSweepBadInputs(t *testing.T) {
	tg, err := loadGraph("", "chain", "", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runSweep(&buf, tg, schedule.SBLTS, "4,zero", 0); err == nil {
		t.Error("bad sweep entry accepted")
	}
	if err := runSweep(&buf, tg, schedule.SBLTS, "0", 0); err == nil {
		t.Error("non-positive PE count accepted")
	}
}

func TestPrintTasks(t *testing.T) {
	tg, err := loadGraph("", "chain", "", 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := schedule.Algorithm1(tg, 4, schedule.Options{Variant: schedule.SBLTS})
	if err != nil {
		t.Fatal(err)
	}
	res, err := schedule.Schedule(tg, part, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	printTasks(&buf, tg, res)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != tg.Len()+1 {
		t.Fatalf("want header + %d rows, got %d lines", tg.Len(), len(lines))
	}
	if !strings.HasPrefix(lines[0], "task") {
		t.Fatalf("missing header: %q", lines[0])
	}
}
