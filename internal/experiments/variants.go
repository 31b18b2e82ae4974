package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/csdf"
	"repro/internal/heft"
	"repro/internal/schedule"
)

// Variant names identify the evaluation procedure of a cell; together with
// the graph and PE count they address one unit of experiment output in
// shard artifacts and the results cache (see docs/ARTIFACTS.md for the
// values each variant produces). Every name here is registered in the
// Variant registry (register.go) and dispatched through it.
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
	// VariantHEFT is the Heterogeneous Earliest Finish Time list scheduler
	// (reference [33]) on a homogeneous device, the classical buffered
	// baseline the heft experiment compares SB-LTS against.
	VariantHEFT = "HEFT"
	// VariantPipeline analyzes the steady-state macro-pipeline of repeated
	// iterations over the SB-LTS schedule (schedule.AnalyzePipeline).
	VariantPipeline = "pipeline"
	// VariantPlacement places the SB-LTS spatial blocks on a 2D-mesh NoC
	// (noc.PlaceAll) and reports how far the placement is from the paper's
	// contention-free communication assumption.
	VariantPlacement = "placement"
)

// streamSweepVariant is the shared evaluation of the two streaming
// heuristics: Algorithm 1 partitioning, the ST/FO/LO recurrences, and (when
// Simulate) the Appendix B discrete-event validation with Equation 5 FIFOs.
type streamSweepVariant struct {
	name      string
	heuristic schedule.Variant
}

func (v streamSweepVariant) Name() string { return v.name }

func (v streamSweepVariant) Metrics() []string {
	return []string{"speedup", "sslr", "util", "simerr", "deadlock"}
}

func (v streamSweepVariant) Eval(ctx *EvalContext, tg *core.TaskGraph, p EvalParams) (map[string]float64, error) {
	ev, err := ctx.Evaluate(tg, p.PEs, v.heuristic, p.Simulate)
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

// nstrVariant is the non-streaming baseline of the sweeps. It never
// simulates, so its cells always carry Simulate=false.
type nstrVariant struct{}

func (nstrVariant) Name() string      { return VariantNSTR }
func (nstrVariant) Metrics() []string { return []string{"speedup", "util"} }

func (nstrVariant) Eval(_ *EvalContext, tg *core.TaskGraph, p EvalParams) (map[string]float64, error) {
	nstr, err := baseline.Schedule(tg, p.PEs, baseline.Options{Insertion: true})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"speedup": nstr.Speedup(tg), "util": nstr.Utilization(tg)}, nil
}

// fig12StrVariant times the canonical-graph scheduler with as many PEs as
// compute nodes (SB-RLX, as in Section 7.2); the PEs param is the 0 sentinel.
type fig12StrVariant struct{}

func (fig12StrVariant) Name() string      { return VariantFig12Str }
func (fig12StrVariant) Metrics() []string { return []string{"seconds", "makespan"} }

func (fig12StrVariant) Eval(ctx *EvalContext, tg *core.TaskGraph, _ EvalParams) (map[string]float64, error) {
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

// fig12CSDFVariant times the CSDF self-timed engine on the same graph.
type fig12CSDFVariant struct{}

func (fig12CSDFVariant) Name() string      { return VariantFig12CSDF }
func (fig12CSDFVariant) Metrics() []string { return []string{"seconds", "makespan"} }

func (fig12CSDFVariant) Eval(ctx *EvalContext, tg *core.TaskGraph, _ EvalParams) (map[string]float64, error) {
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

// table2StrVariant is the Table 2 streaming row: SB-LTS at the model's PE
// count. The graph shape rides along so a -merge can print the model header
// without rebuilding the (possibly huge) graph.
type table2StrVariant struct{}

func (table2StrVariant) Name() string { return VariantTable2Str }

func (table2StrVariant) Metrics() []string {
	return []string{"speedup", "makespan", "nodes", "buffers"}
}

func (table2StrVariant) Eval(ctx *EvalContext, tg *core.TaskGraph, p EvalParams) (map[string]float64, error) {
	ev, err := ctx.Evaluate(tg, p.PEs, schedule.SBLTS, false)
	if err != nil {
		return nil, err
	}
	var bufs int
	for _, n := range tg.Nodes {
		if n.Kind == core.Buffer {
			bufs++
		}
	}
	return map[string]float64{
		"speedup": ev.Res.Speedup(tg), "makespan": ev.Res.Makespan,
		"nodes": float64(tg.Len()), "buffers": float64(bufs),
	}, nil
}

// table2NSTRVariant is the Table 2 buffered-baseline row.
type table2NSTRVariant struct{}

func (table2NSTRVariant) Name() string      { return VariantTable2NSTR }
func (table2NSTRVariant) Metrics() []string { return []string{"speedup", "makespan"} }

func (table2NSTRVariant) Eval(_ *EvalContext, tg *core.TaskGraph, p EvalParams) (map[string]float64, error) {
	nstr, err := baseline.Schedule(tg, p.PEs, baseline.Options{Insertion: true})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"speedup": nstr.Speedup(tg), "makespan": nstr.Makespan}, nil
}

// ablationVariant schedules with SB-LTS, simulates once with Equation 5 FIFO
// sizes and again with unit FIFOs, and reports both makespans plus whether
// unit FIFOs deadlocked.
type ablationVariant struct{}

func (ablationVariant) Name() string      { return VariantAblationUnit }
func (ablationVariant) Metrics() []string { return []string{"sized", "unit", "deadlock"} }

func (ablationVariant) Eval(ctx *EvalContext, tg *core.TaskGraph, p EvalParams) (map[string]float64, error) {
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

// heftVariant runs the HEFT list scheduler on a homogeneous device of the
// requested PE count, the buffered baseline of the heft experiment.
type heftVariant struct{}

func (heftVariant) Name() string      { return VariantHEFT }
func (heftVariant) Metrics() []string { return []string{"speedup", "makespan"} }

func (heftVariant) Eval(_ *EvalContext, tg *core.TaskGraph, p EvalParams) (map[string]float64, error) {
	res, err := heft.Schedule(tg, heft.Homogeneous(p.PEs))
	if err != nil {
		return nil, err
	}
	return map[string]float64{"speedup": res.Speedup(tg), "makespan": res.Makespan}, nil
}

// pipelineVariant derives the steady-state macro-pipeline of the SB-LTS
// schedule: single-iteration latency, initiation interval (the slowest
// spatial block), and the block count.
type pipelineVariant struct{}

func (pipelineVariant) Name() string      { return VariantPipeline }
func (pipelineVariant) Metrics() []string { return []string{"latency", "ii", "blocks"} }

func (pipelineVariant) Eval(ctx *EvalContext, tg *core.TaskGraph, p EvalParams) (map[string]float64, error) {
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
