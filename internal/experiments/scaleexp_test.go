package experiments

import (
	"testing"

	"repro/internal/schedule"
	"repro/internal/synth"
)

// TestScaleJobsCompile: the scale plan is one job per (XL family, ladder
// rung, PE count), with unique graph IDs so rungs never collide in the
// cache or shard artifacts.
func TestScaleJobsCompile(t *testing.T) {
	p, err := Compile([]Spec{{Name: "scale", Opt: Quick()}})
	if err != nil {
		t.Fatal(err)
	}
	want := len(scaleFamilies) * len(scaleLadder) * len(scalePEs)
	if len(p.Jobs) != want {
		t.Fatalf("scale compiled to %d jobs, want %d", len(p.Jobs), want)
	}
	seen := map[string]bool{}
	for _, j := range p.Jobs {
		if seen[j.Key.Graph] {
			t.Errorf("duplicate scale graph ID %q", j.Key.Graph)
		}
		seen[j.Key.Graph] = true
	}
}

// TestScaleVariantMetrics: one evaluation reports every declared metric
// with sane values, and the task count matches the closed-form ladder
// sizing.
func TestScaleVariantMetrics(t *testing.T) {
	w, err := LookupWorkload("synth:gaussian-xl")
	if err != nil {
		t.Fatal(err)
	}
	opt := Quick()
	tg, err := w.Build(opt, 0) // smallest rung
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tg.G.Len(), synth.GaussianTasks(synth.GaussianFor(scaleLadder[0])); got != want {
		t.Fatalf("rung 0 built %d tasks, closed form says %d", got, want)
	}
	ctx := NewEvalContext()
	ctx.measure = fixedMeasure
	v, err := LookupVariant(VariantScale)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := v.Eval(ctx, tg, EvalParams{PEs: scalePEs[0], Depth: schedule.StreamingDepth(tg)})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range v.Metrics {
		if _, ok := vals[m]; !ok {
			t.Errorf("metric %q missing from evaluation", m)
		}
	}
	if vals["tasks"] != float64(tg.G.Len()) {
		t.Errorf("tasks = %.0f, want %d", vals["tasks"], tg.G.Len())
	}
	if vals["blocks"] < 1 {
		t.Errorf("blocks = %.0f, want >= 1", vals["blocks"])
	}
	if vals["sslr"] < 1 {
		t.Errorf("sslr = %.3f, want >= 1", vals["sslr"])
	}
	if vals["partition_seconds"] <= 0 || vals["schedule_seconds"] <= 0 {
		t.Errorf("timings not positive: %v", vals)
	}
}

// TestScaleWorkloadsMeetLadderTargets: every XL family's rung g has at
// least scaleLadder[g] tasks (the inverse sizing is a lower bound).
func TestScaleWorkloadsMeetLadderTargets(t *testing.T) {
	opt := Quick()
	checks := map[string]func(g int) int{
		"synth:chain-xl":    func(g int) int { return synth.ChainTasks(scaleLadder[g]) },
		"synth:fft-xl":      func(g int) int { return synth.FFTTasks(synth.FFTPointsFor(scaleLadder[g])) },
		"synth:gaussian-xl": func(g int) int { return synth.GaussianTasks(synth.GaussianFor(scaleLadder[g])) },
		"synth:cholesky-xl": func(g int) int { return synth.CholeskyTasks(synth.CholeskyFor(scaleLadder[g])) },
	}
	for name, tasksAt := range checks {
		for g, target := range scaleLadder {
			if got := tasksAt(g); got < target {
				t.Errorf("%s rung %d: %d tasks < target %d", name, g, got, target)
			}
		}
		// Rung 0 is cheap enough to build and verify against the formula.
		w, err := LookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		tg, err := w.Build(opt, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tg.G.Len(), tasksAt(0); got != want {
			t.Errorf("%s rung 0 built %d tasks, formula says %d", name, got, want)
		}
	}
	// Deterministic rebuilds: instance g is a pure function of (opt, g).
	w, err := LookupWorkload("synth:cholesky-xl")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := w.Build(opt, 1)
	b, _ := w.Build(opt, 1)
	if a.G.Len() != b.G.Len() {
		t.Error("rebuild changed the graph size")
	}
}
