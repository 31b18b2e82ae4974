package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/csdf"
	"repro/internal/schedule"
)

// Variant names identify the evaluation procedure of a cell; together with
// the graph and PE count they address one unit of experiment output in
// shard artifacts and the results cache (see docs/ARTIFACTS.md for the
// values each variant produces). Every name here is a row of the
// variant table below.
const (
	// VariantLTS, VariantRLX, and VariantNSTR are the sweep procedures
	// behind Figures 10, 11, and 13: the two streaming heuristics and the
	// non-streaming baseline.
	VariantLTS  = "SB-LTS"
	VariantRLX  = "SB-RLX"
	VariantNSTR = "NSTR"
	// VariantFig12Str and VariantFig12CSDF are the Section 7.2 comparison:
	// the canonical-graph scheduler and the CSDF self-timed engine, each
	// with as many PEs as compute nodes (the PEs field of their keys is the
	// 0 sentinel).
	VariantFig12Str  = "fig12-str"
	VariantFig12CSDF = "fig12-csdf"
	// VariantTable2Str and VariantTable2NSTR are the Table 2 model rows:
	// SB-LTS streaming vs the buffered baseline.
	VariantTable2Str  = "table2-str"
	VariantTable2NSTR = "table2-nstr"
	// VariantAblationUnit is the buffer-sizing ablation: one schedule
	// simulated with Equation 5 FIFO sizes and again with unit FIFOs.
	VariantAblationUnit = "ablation-unit"
	// VariantHEFT is HEFT (reference [33]) on a homogeneous device, the
	// classical buffered baseline the heft experiment compares SB-LTS
	// against. With unit-speed PEs its upward rank is the bottom level and
	// the earliest-finish PE is the earliest-start PE, so it evaluates as
	// the buffered baseline (evalBuffered), as VariantTable2NSTR does.
	VariantHEFT = "HEFT"
	// VariantPipeline analyzes the steady-state macro-pipeline of repeated
	// iterations over the SB-LTS schedule (schedule.AnalyzePipeline).
	VariantPipeline = "pipeline"
	// VariantPlacement places the SB-LTS spatial blocks on a 2D-mesh NoC
	// (noc.PlaceAll) and reports how far the placement is from the paper's
	// contention-free communication assumption.
	VariantPlacement = "placement"
)

// variantTable lists every evaluation procedure. Names are unique
// (TestTableNamesUnique); LookupVariant and VariantNames read it.
var variantTable = []Variant{
	{VariantLTS, sweepMetrics, evalStream(schedule.SBLTS)},
	{VariantRLX, sweepMetrics, evalStream(schedule.SBRLX)},
	{VariantNSTR, []string{"speedup", "util"}, evalNSTR},
	{VariantFig12Str, []string{"seconds", "makespan"}, evalFig12Str},
	{VariantFig12CSDF, []string{"seconds", "makespan"}, evalFig12CSDF},
	{VariantTable2Str, []string{"speedup", "makespan", "nodes", "buffers"}, evalTable2Str},
	{VariantTable2NSTR, []string{"speedup", "makespan"}, evalBuffered},
	{VariantAblationUnit, []string{"sized", "unit", "deadlock"}, evalAblation},
	{VariantHEFT, []string{"speedup", "makespan"}, evalBuffered},
	{VariantPipeline, []string{"latency", "ii", "blocks"}, evalPipeline},
	{VariantPlacement, []string{"congestion", "slowdown", "hopvol", "maxload"}, evalPlacement},
	{VariantScale, []string{"tasks", "partition_seconds", "schedule_seconds", "blocks", "sslr"}, evalScale},
}

// sweepMetrics are the values of the two streaming sweep variants.
var sweepMetrics = []string{"speedup", "sslr", "util", "simerr", "deadlock"}

// evalStream is the shared evaluation of the two streaming heuristics:
// Algorithm 1 partitioning, the ST/FO/LO recurrences, and (when Simulate)
// the Appendix B discrete-event validation with Equation 5 FIFOs.
func evalStream(heuristic schedule.Variant) func(*EvalContext, *core.TaskGraph, EvalParams) (map[string]float64, error) {
	return func(ctx *EvalContext, tg *core.TaskGraph, p EvalParams) (map[string]float64, error) {
		ev, err := ctx.Evaluate(tg, p.PEs, heuristic, p.Simulate)
		if err != nil {
			return nil, err
		}
		res := ev.Res
		vals := map[string]float64{
			"speedup": res.Speedup(tg),
			"sslr":    res.Makespan / p.Depth,
			"util":    res.Utilization(tg, p.PEs),
		}
		if st := ev.Sim; st != nil {
			vals["simerr"], vals["deadlock"] = 0, 0
			if st.Deadlocked {
				vals["deadlock"] = 1
			} else {
				vals["simerr"] = st.RelativeError(res.Makespan)
			}
		}
		return vals, nil
	}
}

// evalNSTR is the non-streaming baseline of the sweeps. It never
// simulates, so its cells always carry Simulate=false (cellKey).
func evalNSTR(_ *EvalContext, tg *core.TaskGraph, p EvalParams) (map[string]float64, error) {
	nstr, err := baseline.Schedule(tg, p.PEs, baseline.Options{Insertion: true})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"speedup": nstr.Speedup(tg), "util": nstr.Utilization(tg)}, nil
}

// evalFig12Str times the canonical-graph scheduler with as many PEs as
// compute nodes (SB-RLX, as in Section 7.2); the PEs param is the 0
// sentinel.
func evalFig12Str(ctx *EvalContext, tg *core.TaskGraph, _ EvalParams) (map[string]float64, error) {
	var ev Evaluation
	var err error
	dur := ctx.Measure(func() {
		ev, err = ctx.Evaluate(tg, tg.NumComputeNodes(), schedule.SBRLX, false)
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"seconds": dur.Seconds(), "makespan": ev.Res.Makespan}, nil
}

// evalFig12CSDF times the CSDF self-timed engine on the same graph.
func evalFig12CSDF(ctx *EvalContext, tg *core.TaskGraph, _ EvalParams) (map[string]float64, error) {
	var optimal float64
	var err error
	dur := ctx.Measure(func() {
		var cg *csdf.Graph
		cg, err = csdf.FromCanonical(tg)
		if err != nil {
			return
		}
		optimal, err = cg.SelfTimedMakespan()
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"seconds": dur.Seconds(), "makespan": optimal}, nil
}

// evalTable2Str is the Table 2 streaming row: SB-LTS at the model's PE
// count. The graph shape rides along so a -merge can print the model
// header without rebuilding the (possibly huge) graph.
func evalTable2Str(ctx *EvalContext, tg *core.TaskGraph, p EvalParams) (map[string]float64, error) {
	ev, err := ctx.Evaluate(tg, p.PEs, schedule.SBLTS, false)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"speedup": ev.Res.Speedup(tg), "makespan": ev.Res.Makespan,
		"nodes": float64(tg.Len()), "buffers": float64(bufferNodes(tg)),
	}, nil
}

// bufferNodes counts the graph's buffer nodes.
func bufferNodes(tg *core.TaskGraph) int {
	var bufs int
	for _, n := range tg.Nodes {
		if n.Kind == core.Buffer {
			bufs++
		}
	}
	return bufs
}

// evalBuffered is the buffered baseline's speedup and makespan: the Table 2
// NSTR row and the heft experiment's HEFT row.
func evalBuffered(_ *EvalContext, tg *core.TaskGraph, p EvalParams) (map[string]float64, error) {
	nstr, err := baseline.Schedule(tg, p.PEs, baseline.Options{Insertion: true})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"speedup": nstr.Speedup(tg), "makespan": nstr.Makespan}, nil
}

// evalAblation schedules with SB-LTS, simulates once with Equation 5 FIFO
// sizes and again with unit FIFOs, and reports both makespans plus whether
// unit FIFOs deadlocked.
func evalAblation(ctx *EvalContext, tg *core.TaskGraph, p EvalParams) (map[string]float64, error) {
	ev, err := ctx.Evaluate(tg, p.PEs, schedule.SBLTS, true)
	if err != nil {
		return nil, err
	}
	sized := ev.Sim
	if sized.Deadlocked {
		// Figure 13 guarantees the Equation 5 sizes cannot deadlock.
		return nil, fmt.Errorf("sized simulation deadlocked")
	}
	sizedMakespan := sized.Makespan // copy before the scratch is reused
	unitCfg := ctx.SimConfig(nil)
	unitCfg.DefaultCap = 1
	unit, err := ctx.Sim.Simulate(tg, ev.Res, unitCfg)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{"sized": sizedMakespan, "unit": unit.Makespan, "deadlock": 0}
	if unit.Deadlocked {
		vals["deadlock"] = 1
	}
	return vals, nil
}

// evalPipeline derives the steady-state macro-pipeline of the SB-LTS
// schedule: single-iteration latency, initiation interval (the slowest
// spatial block), and the block count.
func evalPipeline(ctx *EvalContext, tg *core.TaskGraph, p EvalParams) (map[string]float64, error) {
	ev, err := ctx.Evaluate(tg, p.PEs, schedule.SBLTS, false)
	if err != nil {
		return nil, err
	}
	pl := schedule.AnalyzePipeline(tg, ev.Res)
	return map[string]float64{
		"latency": pl.Latency,
		"ii":      pl.InitiationInterval,
		"blocks":  float64(len(pl.BlockDurations)),
	}, nil
}
