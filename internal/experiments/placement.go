package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/results"
	"repro/internal/schedule"
	"repro/internal/stats"
)

// The placement experiment extends the paper's contention-free device model
// with the Section 9 future-work axis: place every SB-LTS spatial block on a
// 2D-mesh NoC (XY routing, greedy BFS seeded by the schedule, simulated-
// annealing refinement) and report how much the placement violates the
// contention-free assumption. Placement never changes the schedule's logical
// times; the congestion factor bounds the slowdown a real mesh would add.

// placementAnnealIters is the fixed annealing budget per block. It is part
// of the variant's evaluation arithmetic: changing it changes placement
// cells, so it must only change together with a results.SchemaVersion bump.
const placementAnnealIters = 300

// placementSeed seeds the annealer. It is a fixed constant — not the run
// seed — so placement cells are a pure function of (graph content, PEs) and
// the content-addressed results cache stays sound across differently-seeded
// runs.
const placementSeed = 1

// evalPlacement schedules with SB-LTS, places every spatial block on the
// smallest near-square mesh with at least PEs processing elements, and
// reports the worst-block congestion factor plus the estimated slowdown of
// the placed schedule: each block's duration is scaled by its own congestion
// factor, and blocks execute back to back (they are temporally multiplexed).
func evalPlacement(ctx *EvalContext, tg *core.TaskGraph, p EvalParams) (map[string]float64, error) {
	ev, err := ctx.Evaluate(tg, p.PEs, schedule.SBLTS, false)
	if err != nil {
		return nil, err
	}
	res := ev.Res
	mesh := noc.NewMesh(p.PEs)
	_, costs, err := noc.PlaceAll(tg, res, mesh, placementAnnealIters, placementSeed)
	if err != nil {
		return nil, err
	}
	pl := schedule.AnalyzePipeline(tg, res)
	if len(costs) != len(pl.BlockDurations) {
		return nil, fmt.Errorf("placement: %d placed blocks, %d scheduled blocks", len(costs), len(pl.BlockDurations))
	}
	worst := 1.0
	placed := res.Makespan
	var hopvol, maxload float64
	for b, c := range costs {
		f := c.CongestionFactor()
		if f > worst {
			worst = f
		}
		// A block whose links are oversubscribed by factor f drains its
		// streaming traffic f times slower; the blocks beyond it start late
		// by the same amount.
		placed += pl.BlockDurations[b] * (f - 1)
		hopvol += c.TotalHopVolume
		if c.MaxLinkLoad > maxload {
			maxload = c.MaxLinkLoad
		}
	}
	slowdown := 1.0
	if res.Makespan > 0 {
		slowdown = placed / res.Makespan
	}
	return map[string]float64{
		"congestion": worst,
		"slowdown":   slowdown,
		"hopvol":     hopvol,
		"maxload":    maxload,
	}, nil
}

// renderPlacement prints one table per topology: per PE count, the mesh
// dimensions and the distribution of the congestion factor and the
// estimated placed-vs-contention-free slowdown across graphs.
func renderPlacement(w io.Writer, _ *Plan, set *results.Set, spec Spec) {
	opt := spec.Opt
	fmt.Fprintf(w, "== Placement: SB-LTS blocks on a 2D-mesh NoC (%d graphs/topology) ==\n\n", opt.Graphs)
	for _, f := range sweepFamilies {
		fmt.Fprintf(w, "%s (#Tasks = %d)\n", f.topo.Name, f.topo.Tasks)
		fmt.Fprintf(w, "%6s %6s  %22s  %20s %10s\n",
			"PEs", "mesh", "congestion (med/max)", "slowdown (med/max)", "avg hopvol")
		for _, p := range f.topo.PEs {
			var congestion, slowdown, hopvol []float64
			for g := 0; g < opt.Graphs; g++ {
				cell, ok := set.Get(cellKey(f.GraphID(opt, g), p, VariantPlacement, false))
				if !ok {
					continue
				}
				congestion = append(congestion, cell.Values["congestion"])
				slowdown = append(slowdown, cell.Values["slowdown"])
				hopvol = append(hopvol, cell.Values["hopvol"])
			}
			mesh := noc.NewMesh(p)
			c, s, h := stats.Summarize(congestion), stats.Summarize(slowdown), stats.Summarize(hopvol)
			fmt.Fprintf(w, "%6d %6s  %10.2f %10.2f  %9.3f %9.3f %11.0f\n",
				p, fmt.Sprintf("%dx%d", mesh.W, mesh.H), c.Median, c.Max, s.Median, s.Max, h.Mean)
		}
		fmt.Fprintln(w)
	}
}
