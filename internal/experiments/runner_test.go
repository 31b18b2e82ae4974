package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/desim"
)

// sweepOpt is a reduced but non-trivial sweep configuration shared by the
// engine tests.
func sweepOpt(graphs int) Options {
	opt := Quick()
	opt.Graphs = graphs
	return opt
}

// sweepPlan is one family's Figure 10/11 (or, simulating, Figure 13) sweep
// as a plan of its own; graphs, when non-nil, is a cache shared across
// plans.
func sweepPlan(f *synthWorkload, opt Options, simulate bool, graphs *GraphCache) *Plan {
	if graphs == nil {
		graphs = NewGraphCache()
	}
	return &Plan{Jobs: grid([]Workload{f}, opt, Workload.PEs, sweepVariants, simulate), graphs: graphs}
}

// runSweep runs a sweepPlan on r and folds its cells into SweepPoints.
func runSweep(r Runner, f *synthWorkload, opt Options, simulate bool, graphs *GraphCache) ([]SweepPoint, Report) {
	set, rep := r.RunPlan(sweepPlan(f, opt, simulate, graphs))
	return sweepPointsFromSet(set, f, opt, simulate), rep
}

// TestParallelSweepMatchesSequential: the engine must reproduce the
// sequential aggregation bit for bit at every worker count, with and without
// the discrete-event validation. Run under -race this also proves the worker
// pool, the shared graph cache, and the per-worker scratch are race-free.
func TestParallelSweepMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		f        *synthWorkload
		simulate bool
	}{
		{sweepFamilies[0], true},  // Chain, with desim validation
		{sweepFamilies[2], false}, // Gaussian elimination, schedule only
	} {
		opt := sweepOpt(6)
		topo := tc.f.topo
		want := RunSweepSequential(topo, opt, tc.simulate)
		for _, workers := range []int{1, 2, 4, 8} {
			got, rep := runSweep(Runner{Workers: workers}, tc.f, opt, tc.simulate, nil)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: parallel sweep diverges from sequential",
					topo.Name, workers)
			}
			wantJobs := opt.Graphs * len(topo.PEs) * len(sweepVariants)
			if rep.Jobs != wantJobs || rep.Completed != wantJobs || len(rep.Failures) != 0 {
				t.Errorf("%s workers=%d: report %d/%d jobs, %d failures; want %d/%d, 0",
					topo.Name, workers, rep.Completed, rep.Jobs, len(rep.Failures), wantJobs, wantJobs)
			}
			if len(rep.Timings) != wantJobs {
				t.Errorf("%s workers=%d: %d timings, want %d", topo.Name, workers, len(rep.Timings), wantJobs)
			}
			if rep.Work <= 0 {
				t.Errorf("%s workers=%d: non-positive total work %v", topo.Name, workers, rep.Work)
			}
		}
	}
}

// TestFigureWritersIdenticalAcrossWorkerCounts: the rendered figure text —
// the artifact the paper comparison is made on — is byte-identical whether
// the sweep runs on one worker or many.
func TestFigureWritersIdenticalAcrossWorkerCounts(t *testing.T) {
	render := func(workers int) string {
		opt := sweepOpt(3)
		out, _ := renderSpecs(t, []Spec{{Name: "fig10", Opt: opt}, {Name: "fig11", Opt: opt}, {Name: "fig13", Opt: opt}},
			Runner{Workers: workers})
		return out
	}
	want := render(1)
	for _, workers := range []int{4, 8} {
		if got := render(workers); got != want {
			t.Errorf("figure output differs between 1 and %d workers", workers)
		}
	}
}

// TestSweepTimingsOrdered: per-job timings come back in job enumeration
// order (graphs outermost, then PEs, then scheduler kind) regardless of
// completion interleaving.
func TestSweepTimingsOrdered(t *testing.T) {
	p := sweepPlan(sweepFamilies[0], sweepOpt(4), false, nil)
	_, rep := Runner{Workers: 4}.RunPlan(p)
	want := p.Jobs
	if len(rep.Timings) != len(want) {
		t.Fatalf("%d timings, want %d", len(rep.Timings), len(want))
	}
	for i, tm := range rep.Timings {
		if tm.Job != want[i].Job {
			t.Fatalf("timing %d is %v, want %v", i, tm.Job, want[i].Job)
		}
	}
}

// TestSeededFailureCollection: a failing job is reported with its identity
// and error, the rest of the sweep completes, and only the failing cells are
// missing from the aggregate — the sweep is not aborted.
func TestSeededFailureCollection(t *testing.T) {
	f := sweepFamilies[0]
	opt := sweepOpt(5)
	injected := errors.New("injected scheduler fault")
	r := Runner{
		Workers: 4,
		failHook: func(j Job) error {
			if j.Graph == 2 && j.Variant == VariantRLX {
				return injected
			}
			return nil
		},
	}
	points, rep := runSweep(r, f, opt, false, nil)

	wantFailures := len(f.topo.PEs) // one RLX job per PE count for graph 2
	if len(rep.Failures) != wantFailures {
		t.Fatalf("%d failures, want %d", len(rep.Failures), wantFailures)
	}
	for _, f := range rep.Failures {
		if !errors.Is(f.Err, injected) || f.Job.Graph != 2 || f.Job.Variant != VariantRLX {
			t.Errorf("unexpected failure record %v", f)
		}
	}
	if rep.Completed+len(rep.Failures) != rep.Jobs {
		t.Errorf("completed %d + failed %d != jobs %d", rep.Completed, len(rep.Failures), rep.Jobs)
	}
	for _, pt := range points {
		if len(pt.SpeedupRLX) != opt.Graphs-1 {
			t.Errorf("PE %d: %d RLX samples, want %d", pt.PEs, len(pt.SpeedupRLX), opt.Graphs-1)
		}
		if len(pt.SpeedupLTS) != opt.Graphs || len(pt.SpeedupNSTR) != opt.Graphs {
			t.Errorf("PE %d: LTS/NSTR samples disturbed by unrelated failure", pt.PEs)
		}
	}
}

// TestGraphCacheMemoizes: one build per graph index regardless of how many
// (PE, variant) jobs touch it, and shared caches survive across sweeps.
func TestGraphCacheMemoizes(t *testing.T) {
	f := sweepFamilies[0]
	opt := sweepOpt(4)
	cache := NewGraphCache()
	runSweep(Runner{Workers: 4}, f, opt, false, cache)
	if cache.Builds() != opt.Graphs {
		t.Errorf("cache built %d graphs, want %d", cache.Builds(), opt.Graphs)
	}
	// A second sweep over the same graphs rebuilds nothing.
	runSweep(Runner{Workers: 4}, f, opt, false, cache)
	if cache.Builds() != opt.Graphs {
		t.Errorf("shared cache rebuilt graphs: %d builds, want %d", cache.Builds(), opt.Graphs)
	}
}

// TestRunIndexed: results come back in index order with per-index errors,
// at any worker count (including workers > n and workers <= 0), and every
// call runs on a context its worker built, at most one per worker.
func TestRunIndexed(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 32} {
		var built atomic.Int32
		newContext := func() *EvalContext {
			built.Add(1)
			return NewEvalContext()
		}
		results, errs := RunIndexed(workers, 10, newContext, func(ctx *EvalContext, i int) (int, error) {
			if ctx == nil {
				return 0, fmt.Errorf("no context at %d", i)
			}
			if i == 7 {
				return 0, fmt.Errorf("boom %d", i)
			}
			return i * i, nil
		})
		for i := 0; i < 10; i++ {
			if i == 7 {
				if errs[i] == nil {
					t.Errorf("workers=%d: missing error at index 7", workers)
				}
				continue
			}
			if errs[i] != nil || results[i] != i*i {
				t.Errorf("workers=%d: results[%d] = %d, %v; want %d, nil",
					workers, i, results[i], errs[i], i*i)
			}
		}
		if limit := min(10, Runner{Workers: workers}.workers()); int(built.Load()) > limit {
			t.Errorf("workers=%d: built %d contexts, want at most %d", workers, built.Load(), limit)
		}
	}
}

// TestRunPlanOnlyNormalized: each of Only's in-range indices runs once, and
// the report lists them in job order, whatever their order or repetition.
func TestRunPlanOnlyNormalized(t *testing.T) {
	p := sweepPlan(sweepFamilies[0], sweepOpt(1), false, nil)
	n := len(p.Jobs)
	set, rep := Runner{Workers: 3, Only: []int{n - 1, 2, -1, n, 2, 0}}.RunPlan(p)
	want := []Job{p.Jobs[0].Job, p.Jobs[2].Job, p.Jobs[n-1].Job}
	var got []Job
	for _, tm := range rep.Timings {
		got = append(got, tm.Job)
	}
	if !reflect.DeepEqual(got, want) || rep.Jobs != 3 || rep.Completed != 3 || len(set.Cells()) != 3 {
		t.Errorf("ran %v (%d jobs, %d completed, %d cells), want %v", got, rep.Jobs, rep.Completed, len(set.Cells()), want)
	}
}

// TestGraphCacheKeyedByConfig: a cache shared across sweeps with different
// synth configs must not serve one config's graphs to the other.
func TestGraphCacheKeyedByConfig(t *testing.T) {
	f := sweepFamilies[0]
	topo := f.topo
	small := sweepOpt(3)
	big := small
	big.Config = Defaults().Config
	cache := NewGraphCache()
	gotSmall, _ := runSweep(Runner{Workers: 2}, f, small, false, cache)
	gotBig, _ := runSweep(Runner{Workers: 2}, f, big, false, cache)
	if cache.Builds() != small.Graphs+big.Graphs {
		t.Errorf("cache built %d graphs, want %d (configs must not share entries)",
			cache.Builds(), small.Graphs+big.Graphs)
	}
	if wantBig := RunSweepSequential(topo, big, false); !reflect.DeepEqual(gotBig, wantBig) {
		t.Errorf("second sweep served graphs from the first sweep's config")
	}
	if wantSmall := RunSweepSequential(topo, small, false); !reflect.DeepEqual(gotSmall, wantSmall) {
		t.Errorf("first sweep diverges from sequential")
	}
}

// TestSimEnginesRenderIdentically: the fig13 and ablation tables — the
// quick two-graph plans of the experiments that simulate — render byte
// for byte the same on the default engine and on the reference loop, so
// the engine never reaches cells, caches or artifacts.
func TestSimEnginesRenderIdentically(t *testing.T) {
	opt := sweepOpt(2)
	render := func(r Runner) string {
		p, err := Compile([]Spec{{Name: "fig13", Opt: opt}, {Name: "ablation", Opt: opt}})
		if err != nil {
			t.Fatal(err)
		}
		set, rep := r.RunPlan(p)
		if len(rep.Failures) != 0 {
			t.Fatalf("%s: %d failed jobs: %v", r.SimEngine, len(rep.Failures), rep.Failures[0])
		}
		var buf bytes.Buffer
		Render(&buf, p, set)
		return buf.String()
	}
	if got, want := render(Runner{SimEngine: desim.EngineReference}), render(Runner{}); got != want {
		t.Errorf("reference engine tables differ from the default:\n%s\nvs\n%s", got, want)
	}
}
