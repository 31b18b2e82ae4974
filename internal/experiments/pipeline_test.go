package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/buffers"
	"repro/internal/core"
	"repro/internal/csdf"
	"repro/internal/desim"
	"repro/internal/results"
	"repro/internal/schedule"
	"repro/internal/stats"
	"repro/internal/synth"
)

// fixedMeasure stands in for the wall clock of the timed experiment
// sections: every measured region reports exactly 1ms, making the Figure
// 12 timing columns deterministic so outputs can be compared byte for
// byte.
func fixedMeasure(f func()) time.Duration {
	f()
	return time.Millisecond
}

// allSpecs is the -exp all plan at a reduced size, every experiment of the
// table — including the placement, HEFT, and pipelining extensions —
// on one shared option set.
func allSpecs(graphs int) []Spec {
	opt := Quick()
	opt.Graphs = graphs
	var specs []Spec
	for _, name := range ExperimentNames() {
		e, err := LookupExperiment(name)
		if err != nil {
			panic(err)
		}
		if e.ModelFlag {
			specs = append(specs, Spec{Name: name})
			continue
		}
		specs = append(specs, Spec{Name: name, Opt: opt})
	}
	return specs
}

// renderSpecs compiles and runs specs on one engine configuration and
// renders the tables.
func renderSpecs(t *testing.T, specs []Spec, r Runner) (string, Report) {
	t.Helper()
	p, err := Compile(specs)
	if err != nil {
		t.Fatal(err)
	}
	set, rep := r.RunPlan(p)
	var buf bytes.Buffer
	Render(&buf, p, set)
	return buf.String(), rep
}

// fig12SequentialRef is the pre-engine sequential implementation of
// Figure 12, kept verbatim (modulo the injectable clock) as the oracle for
// the job-compilation refactor.
func fig12SequentialRef(w io.Writer, opt Options, measure func(func()) time.Duration) {
	fmt.Fprintf(w, "== Figure 12: canonical task graphs vs CSDF (%d graphs/topology) ==\n\n", opt.Graphs)
	for _, topo := range Topologies() {
		var schedTimes, csdfTimes, ratios []float64
		for g := 0; g < opt.Graphs; g++ {
			rng := rand.New(rand.NewSource(opt.Seed + int64(g)))
			tg := topo.Build(rng, opt.Config)
			p := tg.NumComputeNodes()

			var res *schedule.Result
			var err error
			d := measure(func() {
				var part schedule.Partition
				part, err = schedule.PartitionRLX(tg, p)
				if err != nil {
					return
				}
				res, err = schedule.Schedule(tg, part, p)
			})
			if err != nil {
				panic(err)
			}
			schedTimes = append(schedTimes, d.Seconds())

			var optimal float64
			d = measure(func() {
				var cg *csdf.Graph
				cg, err = csdf.FromCanonical(tg)
				if err != nil {
					return
				}
				optimal, err = cg.SelfTimedMakespan()
			})
			if err != nil {
				panic(err)
			}
			csdfTimes = append(csdfTimes, d.Seconds())
			ratios = append(ratios, res.Makespan/optimal)
		}
		st, ct, rt := stats.Summarize(schedTimes), stats.Summarize(csdfTimes), stats.Summarize(ratios)
		fmt.Fprintf(w, "%s (#Tasks = %d)\n", topo.Name, topo.Tasks)
		fmt.Fprintf(w, "  scheduling time  STR-SCHD median %.3gs   CSDF median %.3gs   (x%.0f)\n",
			st.Median, ct.Median, ct.Median/st.Median)
		fmt.Fprintf(w, "  makespan ratio   median %.4f  q1 %.4f  q3 %.4f  max %.4f\n\n",
			rt.Median, rt.Q1, rt.Q3, rt.Max)
	}
}

// table2SequentialRef is the pre-engine sequential Table 2, driven by the
// exported Table2Model reference rows.
func table2SequentialRef(w io.Writer, full bool) {
	fmt.Fprintf(w, "== Table 2: ML inference workloads (full=%v) ==\n\n", full)
	for _, m := range table2Workloads(Spec{Full: full}) {
		tg, err := m.Build(Options{}, 0)
		if err != nil {
			panic(err)
		}
		var bufs int
		for _, n := range tg.Nodes {
			if n.Kind == core.Buffer {
				bufs++
			}
		}
		fmt.Fprintf(w, "%s: %d nodes (%d buffer nodes)\n", m.Family(), tg.Len(), bufs)
		fmt.Fprintf(w, "%6s  %12s %13s %6s\n", "#PEs", "STR speedup", "NSTR speedup", "G")
		for _, r := range Table2Model(tg, m.PEs()) {
			fmt.Fprintf(w, "%6d  %12.1f %13.1f %6.1f\n", r.PEs, r.StrSpeedup, r.NstrSpeedup, r.Gain)
		}
		fmt.Fprintln(w)
	}
}

// ablationSequentialRef is the pre-engine sequential buffer ablation.
func ablationSequentialRef(w io.Writer, opt Options) {
	fmt.Fprintf(w, "== Ablation: Equation 5 buffer sizing vs unit FIFOs (%d graphs/topology) ==\n\n", opt.Graphs)
	for _, topo := range append(Topologies(), diamondTopology()) {
		p := topo.PEs[len(topo.PEs)/2]
		var slowdowns []float64
		deadlocks, runs := 0, 0
		for g := 0; g < opt.Graphs; g++ {
			rng := rand.New(rand.NewSource(opt.Seed + int64(g)))
			tg := topo.Build(rng, opt.Config)
			part, err := schedule.PartitionLTS(tg, p)
			if err != nil {
				panic(err)
			}
			res, err := schedule.Schedule(tg, part, p)
			if err != nil {
				panic(err)
			}
			sized, err := desim.Simulate(tg, res, desim.Config{FIFOCap: buffers.Sizes(tg, res)})
			if err != nil {
				panic(err)
			}
			if sized.Deadlocked {
				panic("sized simulation deadlocked")
			}
			unit, err := desim.Simulate(tg, res, desim.Config{DefaultCap: 1})
			if err != nil {
				panic(err)
			}
			runs++
			if unit.Deadlocked {
				deadlocks++
				continue
			}
			slowdowns = append(slowdowns, unit.Makespan/sized.Makespan)
		}
		fmt.Fprintf(w, "%s (#Tasks = %d, P = %d)\n", topo.Name, topo.Tasks, p)
		fmt.Fprintf(w, "  unit FIFOs deadlock %d/%d graphs\n", deadlocks, runs)
		if len(slowdowns) > 0 {
			s := stats.Summarize(slowdowns)
			fmt.Fprintf(w, "  survivors run %.2fx slower (median; max %.2fx)\n", s.Median, s.Max)
		}
		fmt.Fprintln(w)
	}
}

// TestEngineMatchesSequentialReferences: the fig12/table2/ablation tables
// produced by the cell-job pipeline are byte-identical to the bespoke
// sequential loops they replaced, at several worker counts.
func TestEngineMatchesSequentialReferences(t *testing.T) {
	opt := Quick()
	opt.Graphs = 4

	var want bytes.Buffer
	fig12SequentialRef(&want, opt, fixedMeasure)
	table2SequentialRef(&want, false)
	ablationSequentialRef(&want, opt)

	specs := []Spec{{Name: "fig12", Opt: opt}, {Name: "table2"}, {Name: "ablation", Opt: opt}}
	for _, workers := range []int{1, 4} {
		got, rep := renderSpecs(t, specs, Runner{Workers: workers, measureFn: fixedMeasure})
		if got != want.String() {
			t.Errorf("workers=%d: engine output diverges from the sequential references\nref:\n%s\ngot:\n%s",
				workers, want.String(), got)
		}
		if len(rep.Failures) != 0 {
			t.Errorf("workers=%d: %d unexpected failures", workers, len(rep.Failures))
		}
	}
}

// TestOnlyBatchesRenderByteIdentical is the cell-level half of the
// distributed sweep's contract: every experiment run as two disjoint Only
// batches in separate "processes" (a fresh plan each, as two agents
// compile), serialized through JSON, collected in job order, and rendered
// must be byte-identical to a plain single-process run.
func TestOnlyBatchesRenderByteIdentical(t *testing.T) {
	specs := allSpecs(3)
	want, _ := renderSpecs(t, specs, Runner{Workers: 4, measureFn: fixedMeasure})

	plan, err := Compile(specs)
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[results.CellKey]results.Cell, len(plan.Jobs))
	for agent := 0; agent < 2; agent++ {
		var only []int
		for i := agent; i < len(plan.Jobs); i += 2 {
			only = append(only, i)
		}
		p, err := Compile(specs)
		if err != nil {
			t.Fatal(err)
		}
		set, rep := Runner{Workers: 2, Only: only, measureFn: fixedMeasure}.RunPlan(p)
		if len(rep.Failures) != 0 || rep.Jobs != len(only) {
			t.Fatalf("agent %d: ran %d of %d jobs, %d failures", agent, rep.Jobs, len(only), len(rep.Failures))
		}
		data, err := json.Marshal(set.Cells())
		if err != nil {
			t.Fatal(err)
		}
		var cells []results.Cell
		if err := json.Unmarshal(data, &cells); err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			byKey[c.Key] = c
		}
	}
	collected := results.NewSet()
	for _, j := range plan.Jobs {
		if err := collected.Add(byKey[j.Key]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	Render(&buf, plan, collected)
	if buf.String() != want {
		t.Error("tables rendered from the two batches differ from the single-process run")
	}
}

// TestSpecsMetaRoundTrip: artifact metadata carries enough to recompile
// the identical plan in a reader process.
func TestSpecsMetaRoundTrip(t *testing.T) {
	specs := allSpecs(2)
	meta := MetaFromSpecs(specs, 1, 3)
	if meta.ShardIndex != 1 || meta.ShardCount != 3 {
		t.Errorf("shard position lost: %d/%d", meta.ShardIndex, meta.ShardCount)
	}
	back, err := SpecsFromMeta(meta)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Compile(specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Compile(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("recompiled plan has %d jobs, want %d", len(got.Jobs), len(want.Jobs))
	}
	for i := range got.Jobs {
		if got.Jobs[i].Key != want.Jobs[i].Key {
			t.Fatalf("job %d key %v, want %v", i, got.Jobs[i].Key, want.Jobs[i].Key)
		}
	}
}

// TestCompileDedupsSharedSweeps: fig10 and fig11 render from the same
// sweep cells, so compiling both must not duplicate jobs; fig13 simulates
// and so keeps its own.
func TestCompileDedupsSharedSweeps(t *testing.T) {
	opt := Quick()
	opt.Graphs = 2
	one, err := Compile([]Spec{{Name: "fig10", Opt: opt}})
	if err != nil {
		t.Fatal(err)
	}
	both, err := Compile([]Spec{{Name: "fig10", Opt: opt}, {Name: "fig11", Opt: opt}})
	if err != nil {
		t.Fatal(err)
	}
	if len(both.Jobs) != len(one.Jobs) {
		t.Errorf("fig10+fig11 compiled to %d jobs, want %d (shared cells)", len(both.Jobs), len(one.Jobs))
	}
	withSim, err := Compile([]Spec{{Name: "fig10", Opt: opt}, {Name: "fig13", Opt: opt}})
	if err != nil {
		t.Fatal(err)
	}
	// fig13 adds simulating LTS/RLX jobs but shares the never-simulating
	// NSTR baseline cells with fig10.
	want := len(one.Jobs) + 2*len(one.Jobs)/3
	if len(withSim.Jobs) != want {
		t.Errorf("fig10+fig13 compiled to %d jobs, want %d (LTS/RLX sim keys differ, NSTR shared)",
			len(withSim.Jobs), want)
	}
}

// TestResultsCacheWarmRunSkipsRecomputation: a second run against the same
// cache serves every cell from disk — observable via the Cached job
// timings — and renders byte-identical tables, including the measured
// Figure 12 times, which replay instead of being re-measured.
func TestResultsCacheWarmRunSkipsRecomputation(t *testing.T) {
	cache, err := results.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := Quick()
	opt.Graphs = 2
	specs := []Spec{{Name: "fig10", Opt: opt}, {Name: "fig12", Opt: opt}}

	// Cold run: real wall clock, nothing cached yet.
	cold, coldRep := renderSpecs(t, specs, Runner{Workers: 2, Results: cache})
	if coldRep.CacheHits != 0 {
		t.Fatalf("cold run reported %d cache hits", coldRep.CacheHits)
	}

	warm, warmRep := renderSpecs(t, specs, Runner{Workers: 2, Results: cache})
	if warmRep.CacheHits != warmRep.Completed || warmRep.Completed != warmRep.Jobs {
		t.Errorf("warm run: %d hits of %d completed (%d jobs); want all cached",
			warmRep.CacheHits, warmRep.Completed, warmRep.Jobs)
	}
	for _, tm := range warmRep.Timings {
		if !tm.Cached {
			t.Errorf("warm run recomputed %v", tm.Job)
		}
	}
	if warm != cold {
		t.Error("warm-cache run renders different bytes (measured times must replay)")
	}
}

// TestCacheSharesCellsAcrossSeeds: the cache is content-addressed, so two
// runs whose seeds generate the same graphs share entries; a different
// config that changes volumes must not.
func TestCacheSharesCellsAcrossSeeds(t *testing.T) {
	cache, err := results.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := Quick()
	opt.Graphs = 2
	specs := []Spec{{Name: "fig10", Opt: opt}}
	if _, rep := renderSpecs(t, specs, Runner{Workers: 2, Results: cache}); rep.CacheHits != 0 {
		t.Fatalf("cold run hit the cache %d times", rep.CacheHits)
	}

	// Same graphs under a different semantic name (a changed seed shifts
	// every instance index, but graph g of seed 2 equals graph g+1 of seed
	// 1) still hit by content.
	shifted := opt
	shifted.Seed = 2
	shifted.Graphs = 1
	_, rep := renderSpecs(t, []Spec{{Name: "fig10", Opt: shifted}}, Runner{Workers: 2, Results: cache})
	if rep.CacheHits != rep.Completed {
		t.Errorf("content-equal graphs missed the cache: %d hits of %d", rep.CacheHits, rep.Completed)
	}

	// A config that changes the generated volumes may still coincide on
	// some instances (seed 1 draws identically under both bounds) — hits
	// are then genuinely the same graph. What matters is that the cache
	// never substitutes a different computation: the rendered tables must
	// equal a cache-less run's bit for bit.
	big := opt
	big.Config = Defaults().Config
	cachedOut, rep := renderSpecs(t, []Spec{{Name: "fig10", Opt: big}}, Runner{Workers: 2, Results: cache})
	if rep.CacheHits == rep.Completed {
		t.Errorf("every differently-configured cell hit the cache (%d of %d); volumes cannot all coincide",
			rep.CacheHits, rep.Completed)
	}
	plainOut, _ := renderSpecs(t, []Spec{{Name: "fig10", Opt: big}}, Runner{Workers: 2})
	if cachedOut != plainOut {
		t.Error("cache substituted a foreign cell: cached render differs from a plain run")
	}
}

// TestEvaluateAllocFree pins the allocations of a reused context's
// Evaluate on Gaussian graphs at 10^3 and 10^4 nodes: the same count at
// both sizes, so no stage allocates per node, per edge or per block. The
// ten left without simulation are the returned schedule (the Result and its
// slices); simulating adds one, the returned Equation 5 sizes, which desim
// reads as they are.
func TestEvaluateAllocFree(t *testing.T) {
	const p = 256
	for _, target := range []int{1_000, 10_000} {
		tg := synth.Gaussian(synth.GaussianFor(target), rand.New(rand.NewSource(1)), synth.DefaultConfig())
		ctx := NewEvalContext()
		for _, simulate := range []bool{false, true} {
			if _, err := ctx.Evaluate(tg, p, schedule.SBLTS, simulate); err != nil { // grow the scratch
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(2, func() {
				if _, err := ctx.Evaluate(tg, p, schedule.SBLTS, simulate); err != nil {
					t.Fatal(err)
				}
			})
			want := 10.0
			if simulate {
				want = 11
			}
			if allocs != want {
				t.Errorf("%d nodes, simulate=%v: Evaluate allocates %.0f times per call, want %.0f",
					tg.Len(), simulate, allocs, want)
			}
		}
	}
}
