package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/results"
	"repro/internal/schedule"
	"repro/internal/synth"
)

// The scale experiment measures how Algorithm 1 and the ST/FO/LO scheduler
// grow with graph size: per synthetic family, one instance per rung of a
// task-count ladder, reporting partition and schedule wall time alongside
// blocks and SSLR so a slowdown is attributable to either stage. The XL
// workload families it introduces (synth:*-xl) size their instances through
// the closed-form inverses in internal/synth, so rung targets are exact
// lower bounds, not graph rebuild-and-count loops.

// VariantScale names the scale evaluation procedure.
const VariantScale = "scale"

// scaleLadder is the task-count target of each XL workload instance:
// instance g of a scale workload is the family sized to at least
// scaleLadder[g] tasks. Fixed (not an Options knob) so graph IDs, plan
// hashes, and committed artifacts agree across processes.
var scaleLadder = []int{1_000, 10_000, 100_000}

// scalePEs is the single PE count the ladder is evaluated at: large enough
// that partitioning produces many blocks per graph, small against every
// rung so the PE sweep dimension stays out of the scaling signal.
var scalePEs = []int{256}

// scaleWorkload is one synthetic family sized by the ladder instead of by
// the paper's figure sizes.
type scaleWorkload struct {
	key    string // table name, e.g. "synth:gaussian-xl"
	family string // display family, e.g. "Gaussian Elimination XL"
	build  func(target int, rng *rand.Rand, cfg synth.Config) *core.TaskGraph
}

func (w *scaleWorkload) Name() string          { return w.key }
func (w *scaleWorkload) Family() string        { return w.family }
func (w *scaleWorkload) Instances(Options) int { return len(scaleLadder) }
func (w *scaleWorkload) PEs() []int            { return scalePEs }

func (w *scaleWorkload) GraphID(opt Options, g int) string {
	return fmt.Sprintf("scale:%s/n%d/s%d/c%s", w.family, scaleLadder[g], opt.Seed, configTag(opt.Config))
}

func (w *scaleWorkload) Build(opt Options, g int) (*core.TaskGraph, error) {
	return w.build(scaleLadder[g], newRng(opt.Seed+int64(g)), opt.Config), nil
}

// scaleFamilies are the XL families, in render order.
var scaleFamilies = []*scaleWorkload{
	{key: "synth:chain-xl", family: "Chain XL",
		build: func(target int, rng *rand.Rand, cfg synth.Config) *core.TaskGraph {
			return synth.Chain(target, rng, cfg)
		}},
	{key: "synth:fft-xl", family: "FFT XL",
		build: func(target int, rng *rand.Rand, cfg synth.Config) *core.TaskGraph {
			return synth.FFT(synth.FFTPointsFor(target), rng, cfg)
		}},
	{key: "synth:gaussian-xl", family: "Gaussian Elimination XL",
		build: func(target int, rng *rand.Rand, cfg synth.Config) *core.TaskGraph {
			return synth.Gaussian(synth.GaussianFor(target), rng, cfg)
		}},
	{key: "synth:cholesky-xl", family: "Cholesky Factorization XL",
		build: func(target int, rng *rand.Rand, cfg synth.Config) *core.TaskGraph {
			return synth.Cholesky(synth.CholeskyFor(target), rng, cfg)
		}},
}

// evalScale partitions (SB-LTS, on the worker's reusable Partitioner so
// the measured region has no warm-up allocations) and schedules one graph,
// timing both stages on the context clock.
func evalScale(ctx *EvalContext, tg *core.TaskGraph, p EvalParams) (map[string]float64, error) {
	var part schedule.Partition
	var err error
	pdur := ctx.Measure(func() {
		part, err = ctx.Part.Partition(tg, p.PEs, schedule.Options{Variant: schedule.SBLTS})
	})
	if err != nil {
		return nil, err
	}
	var res *schedule.Result
	sdur := ctx.Measure(func() {
		res, err = ctx.Sched.Schedule(tg, part, p.PEs)
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"tasks":             float64(tg.Len()),
		"partition_seconds": pdur.Seconds(),
		"schedule_seconds":  sdur.Seconds(),
		"blocks":            float64(len(part.Blocks)),
		"sslr":              res.Makespan / p.Depth,
	}, nil
}

// renderScale prints one wall-time-vs-size table per XL family.
func renderScale(w io.Writer, _ *Plan, set *results.Set, spec Spec) {
	fmt.Fprintf(w, "== Scale: Algorithm 1 and scheduler wall time vs graph size (P = %d) ==\n\n", scalePEs[0])
	for _, wl := range scaleFamilies {
		fmt.Fprintf(w, "%s\n", wl.Family())
		fmt.Fprintf(w, "%10s  %10s %14s %14s %8s %8s\n",
			"target", "tasks", "partition (s)", "schedule (s)", "blocks", "SSLR")
		for g, target := range scaleLadder {
			gid := wl.GraphID(spec.Opt, g)
			for _, p := range wl.PEs() {
				cell, ok := set.Get(cellKey(gid, p, VariantScale, false))
				if !ok {
					continue
				}
				v := cell.Values
				fmt.Fprintf(w, "%10d  %10.0f %14.6f %14.6f %8.0f %8.2f\n",
					target, v["tasks"], v["partition_seconds"], v["schedule_seconds"], v["blocks"], v["sslr"])
			}
		}
		fmt.Fprintln(w)
	}
}
