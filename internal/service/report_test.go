package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/buffers"
	"repro/internal/core"
	"repro/internal/desim"
	"repro/internal/experiments"
	"repro/internal/schedule"
)

func mustGraph(t *testing.T, req SubmitRequest) *core.TaskGraph {
	t.Helper()
	tg, err := buildGraph(req)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBuildReportMatchesScheduleCall anchors BuildReport to the raw
// schedule API: the report's fields are exactly the direct Algorithm1,
// Schedule, buffers.Sizes and desim.Simulate outputs, so "byte-identical
// to BuildReport" means "byte-identical to a direct schedule.Schedule
// call", with and without the simulation.
func TestBuildReportMatchesScheduleCall(t *testing.T) {
	tg := mustGraph(t, SubmitRequest{Workload: "synth:fft", Seed: 9})
	part, err := schedule.Algorithm1(tg, 8, schedule.Options{Variant: schedule.SBLTS})
	if err != nil {
		t.Fatal(err)
	}
	res, err := schedule.Schedule(tg, part, 8)
	if err != nil {
		t.Fatal(err)
	}
	sizes := buffers.Sizes(tg, res)
	var cycleEdges int
	var slots int64
	for _, e := range sizes {
		if e.OnCycle {
			cycleEdges++
			slots += e.Space
		}
	}
	st, err := desim.Simulate(tg, res, desim.Config{FIFOCap: buffers.Sizes(tg, res)})
	if err != nil {
		t.Fatal(err)
	}
	for _, simulate := range []bool{false, true} {
		rep, err := BuildReport(tg, 8, schedule.SBLTS, "lts", simulate)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Makespan != res.Makespan {
			t.Errorf("simulate=%v: makespan %v vs %v", simulate, rep.Makespan, res.Makespan)
		}
		if rep.Blocks != part.NumBlocks() {
			t.Errorf("simulate=%v: blocks %d vs %d", simulate, rep.Blocks, part.NumBlocks())
		}
		for i := range rep.ST {
			if rep.ST[i] != res.ST[i] || rep.FO[i] != res.FO[i] || rep.LO[i] != res.LO[i] ||
				rep.PE[i] != res.PE[i] || rep.BlockOf[i] != res.Partition.BlockOf[i] {
				t.Fatalf("simulate=%v: per-task row %d differs from direct schedule.Schedule", simulate, i)
			}
		}
		if rep.StreamingEdges != len(sizes) || rep.CycleEdges != cycleEdges || rep.BufferSlots != slots {
			t.Errorf("simulate=%v: buffers %d/%d/%d, direct buffers.Sizes %d/%d/%d", simulate,
				rep.StreamingEdges, rep.CycleEdges, rep.BufferSlots, len(sizes), cycleEdges, slots)
		}
		if !simulate {
			if rep.Sim != nil {
				t.Error("simulate=false: report carries a simulation")
			}
			continue
		}
		want := SimReport{
			Makespan:      st.Makespan,
			RelativeError: st.RelativeError(res.Makespan),
			Cycles:        st.Cycles,
			Deadlocked:    st.Deadlocked,
			DeadlockCycle: st.DeadlockCycle,
		}
		if rep.Sim == nil || *rep.Sim != want {
			t.Errorf("simulate=true: sim %+v, direct desim.Simulate %+v", rep.Sim, want)
		}
	}
}

// TestEvalReportReusesScratch: one pooled context evaluating a large
// graph, then a small one, then the large one again must give reports
// byte-identical to fresh-context BuildReport calls, with and without
// the simulation. Every earlier report is re-checked after each
// evaluation, so a report aliasing the context's scratch (the partition's
// BlockOf) shows as soon as the next evaluation overwrites it.
func TestEvalReportReusesScratch(t *testing.T) {
	large := mustGraph(t, SubmitRequest{Workload: "synth:fft", Seed: 3})
	small := mustGraph(t, SubmitRequest{Workload: "synth:cholesky", Seed: 4})
	for _, simulate := range []bool{false, true} {
		ec := experiments.NewEvalContext()
		var got []*ScheduleReport
		var want [][]byte
		for i, tg := range []*core.TaskGraph{large, small, large} {
			ev, err := ec.Evaluate(tg, 8, schedule.SBLTS, simulate)
			if err != nil {
				t.Fatal(err)
			}
			rep := NewReport(ec, tg, 8, "lts", ev)
			ref, err := BuildReport(tg, 8, schedule.SBLTS, "lts", simulate)
			if err != nil {
				t.Fatal(err)
			}
			got, want = append(got, rep), append(want, mustJSON(t, ref))
			for j := 0; j <= i; j++ {
				if !bytes.Equal(mustJSON(t, got[j]), want[j]) {
					t.Errorf("simulate=%v: report %d differs from a fresh BuildReport after evaluation %d", simulate, j, i)
				}
			}
		}
	}
}
