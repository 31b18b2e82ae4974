package streamcli

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/results"
	"repro/internal/schedule"
	"repro/internal/service"
)

func TestParseTenantsArg(t *testing.T) {
	// Empty means the single-tenant default contract.
	cfg, err := ParseTenantsArg("")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Default.Weight != 1 || len(cfg.Tenants) != 0 {
		t.Fatalf("empty arg: %+v", cfg)
	}

	// Inline JSON (leading '{') parses without touching the filesystem.
	cfg, err = ParseTenantsArg(` {"default":{"weight":2},"tenants":{"gold":{"weight":3,"max_open":8}}}`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Default.Weight != 2 || cfg.Tenants["gold"].MaxOpen != 8 {
		t.Fatalf("inline arg: %+v", cfg)
	}

	// Anything else is a file path, validated the same way.
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(`{"tenants":{"bronze":{"weight":1,"slo_ms":50}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err = ParseTenantsArg(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tenants["bronze"].SLOMs != 50 {
		t.Fatalf("file arg: %+v", cfg)
	}

	// Errors surface from both paths: invalid inline config, missing file.
	if _, err := ParseTenantsArg(`{"tenants":{"bad":{"weight":-1}}}`); err == nil {
		t.Error("invalid inline config accepted")
	}
	if _, err := ParseTenantsArg(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestParseTenantMix(t *testing.T) {
	mix, err := ParseTenantMix(" interactive=3@50, batch=1/synth:cholesky ,bg=0.5@10/onnx:mlp")
	if err != nil {
		t.Fatal(err)
	}
	want := []service.TenantShare{
		{Name: "interactive", Share: 3, SLOMs: 50},
		{Name: "batch", Share: 1, Workload: "synth:cholesky"},
		{Name: "bg", Share: 0.5, SLOMs: 10, Workload: "onnx:mlp"},
	}
	if len(mix) != len(want) {
		t.Fatalf("parsed %d entries, want %d: %+v", len(mix), len(want), mix)
	}
	for i := range want {
		if mix[i] != want[i] {
			t.Errorf("entry %d: %+v, want %+v", i, mix[i], want[i])
		}
	}

	if mix, err := ParseTenantMix(""); err != nil || mix != nil {
		t.Errorf("empty mix: %+v, %v", mix, err)
	}

	for _, bad := range []string{
		"noshare",  // not name=share
		"=3",       // empty name
		"a=3,a=1",  // duplicate tenant
		"a=0",      // zero share
		"a=-1",     // negative share
		"a=x",      // non-numeric share
		"a=1@0",    // non-positive slo
		"a=1@x",    // non-numeric slo
		"a=1/",     // empty workload override
		"a=1,,b=2", // empty entry
	} {
		if _, err := ParseTenantMix(bad); err == nil {
			t.Errorf("mix %q accepted", bad)
		}
	}
}

func TestLoadGraphSynth(t *testing.T) {
	for _, name := range []string{"chain", "fft", "gaussian", "cholesky"} {
		tg, err := LoadGraph("", name, "", 8, 1)
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
	a, err := LoadGraph("", "fft", "", 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadGraph("", "fft", "", 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := LoadGraph("", "fft", "", 16, 8)
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
	tg, err := LoadGraph("", "", "mlp", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tg.NumComputeNodes() == 0 {
		t.Fatal("model graph has no compute nodes")
	}
}

func TestLoadGraphJSONFile(t *testing.T) {
	tg, err := LoadGraph("", "chain", "", 6, 3)
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
	got, err := LoadGraph(path, "", "", 0, 0)
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
		if _, err := LoadGraph(c.path, c.synth, c.model, 8, 1); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestRunSweep(t *testing.T) {
	tg, err := LoadGraph("", "fft", "", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RunSweep(&buf, tg, schedule.SBLTS, "2, 4,8", 2, ""); err != nil {
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
	if err := RunSweep(&again, tg, schedule.SBLTS, "2, 4,8", 1, ""); err != nil {
		t.Fatal(err)
	}
	if again.String() != out {
		t.Fatal("sweep output depends on worker count")
	}
}

// TestBatchSummaryMatchesServiceReport: the batch-mode summary of
// cmd/streamsched prints the same blocks, makespan, buffer counts and
// simulated makespan as service.BuildReport reports for the same input,
// with and without -sim, so the CLI and the service cannot drift apart.
func TestBatchSummaryMatchesServiceReport(t *testing.T) {
	const pes = 16
	tg, err := BuildSynth("cholesky", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	round := func(x float64) string { return strconv.FormatFloat(x, 'f', 0, 64) }
	for _, simulate := range []bool{false, true} {
		ev, err := experiments.NewEvalContext().Evaluate(tg, pes, schedule.SBLTS, simulate)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		PrintSummary(&buf, tg, pes, schedule.SBLTS, ev)
		PrintSim(&buf, ev)
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

func TestRunSweepShard(t *testing.T) {
	tg, err := LoadGraph("", "chain", "", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RunSweep(&buf, tg, schedule.SBLTS, "2,4,8,16", 0, "1/2"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2 PE configurations") {
		t.Fatalf("shard 1/2 should keep 2 of 4 entries: %q", buf.String())
	}
}

func TestRunSweepBadInputs(t *testing.T) {
	tg, err := LoadGraph("", "chain", "", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RunSweep(&buf, tg, schedule.SBLTS, "4,zero", 0, ""); err == nil {
		t.Error("bad sweep entry accepted")
	}
	if err := RunSweep(&buf, tg, schedule.SBLTS, "0", 0, ""); err == nil {
		t.Error("non-positive PE count accepted")
	}
	if err := RunSweep(&buf, tg, schedule.SBLTS, "4,8", 0, "2-of-3"); err == nil {
		t.Error("bad shard spec accepted")
	}
}

func TestListVariants(t *testing.T) {
	var buf bytes.Buffer
	if err := ListVariants(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"experiments (render order):", "fig13      variants: ",
		"variants (cell metrics):", "workloads:", "synth:fft", "onnx:mlp"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q in listing", want)
		}
	}
	// Every workload row carries its PE sweep.
	_, rows, _ := strings.Cut(buf.String(), "workloads:\n")
	for _, row := range strings.Split(strings.TrimRight(rows, "\n"), "\n") {
		if _, pes, ok := strings.Cut(row, " PEs "); !ok || pes == "" {
			t.Errorf("workload row without a PE column: %q", row)
		}
	}
}

func TestPrintTasks(t *testing.T) {
	tg, err := LoadGraph("", "chain", "", 5, 1)
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
	PrintTasks(&buf, tg, res)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != tg.Len()+1 {
		t.Fatalf("want header + %d rows, got %d lines", tg.Len(), len(lines))
	}
	if !strings.HasPrefix(lines[0], "task") {
		t.Fatalf("missing header: %q", lines[0])
	}
}
