package main

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/onnx"
	"repro/internal/results"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/synth"
)

// served schedules a small MLP — a graph with sources, buffers and sinks
// as well as compute nodes — the way the service does.
func served(t *testing.T) (*core.TaskGraph, int, *service.ScheduleReport) {
	t.Helper()
	tg, err := onnx.MLP(onnx.DeepMLP(4, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	const p = 8
	rep, err := service.BuildReport(tg, p, schedule.SBLTS, "lts", false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blocks < 2 {
		t.Fatalf("want a schedule of several blocks, got %d", rep.Blocks)
	}
	return tg, p, rep
}

// clone deep-copies a report through its JSON form.
func clone(t *testing.T, rep *service.ScheduleReport) *service.ScheduleReport {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var c service.ScheduleReport
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return &c
}

func TestValidatorAcceptsRealSchedules(t *testing.T) {
	tg, p, rep := served(t)
	if err := checkServed(tg, p, schedule.SBLTS, rep); err != nil {
		t.Fatal(err)
	}
	for _, topo := range experiments.Topologies() {
		g := topo.Build(rand.New(rand.NewSource(1)), synth.DefaultConfig())
		for _, pes := range topo.PEs {
			for _, v := range variants {
				res, err := directSchedule(g, pes, v)
				if err != nil {
					t.Fatal(err)
				}
				if err := validate(g, pes, resultView(res)); err != nil {
					t.Errorf("%s P=%d %v: %v", topo.Name, pes, v, err)
				}
			}
		}
	}
}

func TestValidatorCatchesCorruptReports(t *testing.T) {
	tg, p, rep := served(t)
	compute, passive := -1, -1
	for v, n := range tg.Nodes {
		if n.Kind == core.Compute && compute < 0 {
			compute = v
		}
		if n.Kind != core.Compute && passive < 0 {
			passive = v
		}
	}
	// A cross-block edge and two compute nodes sharing a block.
	var crossU, crossV = -1, -1
	for _, e := range tg.G.Edges() {
		if rep.BlockOf[e.From] < rep.BlockOf[e.To] {
			crossU, crossV = int(e.From), int(e.To)
			break
		}
	}
	var twinA, twinB = -1, -1
	for a := range tg.Nodes {
		for b := a + 1; b < len(tg.Nodes) && twinA < 0; b++ {
			if rep.PE[a] >= 0 && rep.PE[b] >= 0 && rep.BlockOf[a] == rep.BlockOf[b] {
				twinA, twinB = a, b
			}
		}
	}
	if compute < 0 || passive < 0 || crossU < 0 || twinA < 0 {
		t.Fatal("test graph lacks a case to corrupt")
	}
	for _, c := range []struct {
		name    string
		corrupt func(r *service.ScheduleReport)
		want    string
	}{
		{"short array", func(r *service.ScheduleReport) { r.LO = r.LO[1:] }, "entries"},
		{"first-out before start", func(r *service.ScheduleReport) { r.FO[compute] = r.ST[compute] - 1 }, "out of order"},
		{"last-out before first-out", func(r *service.ScheduleReport) { r.LO[compute] = r.FO[compute] - 1 }, "out of order"},
		{"makespan off", func(r *service.ScheduleReport) { r.Makespan++ }, "makespan"},
		{"shared PE", func(r *service.ScheduleReport) { r.PE[twinB] = r.PE[twinA] }, "share PE"},
		{"passive node on a PE", func(r *service.ScheduleReport) { r.PE[passive] = 0 }, "passive"},
		{"compute node off the device", func(r *service.ScheduleReport) { r.PE[compute] = p }, "compute node"},
		{"backward edge", func(r *service.ScheduleReport) {
			r.BlockOf[crossU], r.BlockOf[crossV] = r.BlockOf[crossV], r.BlockOf[crossU]
		}, "back to block"},
		{"consumer starts before its producer ends", func(r *service.ScheduleReport) { r.ST[crossV] = r.LO[crossU] - 1; r.FO[crossV] = r.ST[crossV] }, "precedes"},
		{"block out of range", func(r *service.ScheduleReport) { r.BlockOf[compute] = r.Blocks }, "block"},
		{"empty block", func(r *service.ScheduleReport) { r.Blocks++ }, "empty"},
	} {
		bad := clone(t, rep)
		c.corrupt(bad)
		err := validate(tg, p, reportView(bad))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: validate = %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}

// TestCorruptedReportIsCaught plays a service run in which one repeated
// identity is served a report differing in a single LO value: the
// benchmark must mark that request wrong and only that one.
func TestCorruptedReportIsCaught(t *testing.T) {
	tg, p, rep := served(t)
	g, err := newPoolGraph(tg, []int{p})
	if err != nil {
		t.Fatal(err)
	}
	id := ident{graph: 0, pes: p}
	b := &svcBench{graphs: []poolGraph{g}, arr: []arrival{{id: id}, {id: id}, {id: id}}}
	corrupt := clone(t, rep)
	corrupt.LO[len(corrupt.LO)-1]++
	now := time.Now()
	res := []reqResult{{report: rep}, {report: clone(t, rep)}, {report: corrupt}}
	samples := []sample{{Done: now}, {Done: now.Add(time.Millisecond)}, {Done: now.Add(2 * time.Millisecond)}}
	o := newOutcome()
	wrong := b.verify(o, res, samples)
	if len(wrong) != 1 || !wrong[2] {
		t.Errorf("wrong = %v, want only request 2", wrong)
	}

	// The first report itself corrupt: every request of the identity is
	// wrong, and the reason names the validator's finding.
	res[0].report = corrupt
	res[2].report = rep
	samples[0].Done = now.Add(-time.Millisecond)
	o = newOutcome()
	if wrong := b.verify(o, res, samples); len(wrong) != 3 || len(o.problems) == 0 {
		t.Errorf("corrupt first report: wrong = %v, problems %v", wrong, o.problems)
	}
}

func TestDiffScheduleFindsTheFirstDifference(t *testing.T) {
	_, _, rep := served(t)
	a, b := reportView(rep), reportView(clone(t, rep))
	if err := diffSchedule(a, b); err != nil {
		t.Fatalf("identical schedules differ: %v", err)
	}
	b.ST[3]++
	if err := diffSchedule(a, b); err == nil || !strings.Contains(err.Error(), "st[3]") {
		t.Errorf("diffSchedule = %v, want st[3]", err)
	}
}

func TestComparableArtifactIgnoresOnlyFig12Seconds(t *testing.T) {
	art := func(seconds, makespan float64) *results.Artifact {
		return &results.Artifact{Schema: results.SchemaVersion, Cells: []results.Cell{
			{Key: results.CellKey{Graph: "g", Variant: experiments.VariantFig12Str}, Values: map[string]float64{"seconds": seconds, "makespan": makespan}},
			{Key: results.CellKey{Graph: "g", Variant: experiments.VariantLTS}, Values: map[string]float64{"speedup": 2}},
		}}
	}
	a, err := comparableArtifact(art(0.5, 10))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := comparableArtifact(art(0.7, 10))
	c, _ := comparableArtifact(art(0.5, 11))
	if string(a) != string(b) {
		t.Error("a different Figure 12 timing made artifacts differ")
	}
	if string(a) == string(c) {
		t.Error("a different makespan went unnoticed")
	}
}
