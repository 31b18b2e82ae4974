package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestTableNamesUnique: names are unique within each table — variants
// and workloads address persistent artifacts, so two procedures or graph
// sources under one name would silently corrupt caches.
func TestTableNamesUnique(t *testing.T) {
	for table, names := range map[string][]string{
		"variant":    VariantNames(),
		"workload":   WorkloadNames(),
		"experiment": ExperimentNames(),
	} {
		seen := map[string]bool{}
		for _, name := range names {
			if name == "" || seen[name] {
				t.Errorf("%s table: empty or duplicate name %q", table, name)
			}
			seen[name] = true
		}
	}
}

// TestRegisterVariantRejectsDuplicates: every variant row is reachable by
// its own name — a second row under a used name would be shadowed by the
// first, its cells evaluated by the wrong procedure — and declares metrics
// and an Eval. (The name predates the static variant table.)
func TestRegisterVariantRejectsDuplicates(t *testing.T) {
	for i := range variantTable {
		v := &variantTable[i]
		if v.Name == "" {
			t.Errorf("variant row %d has an empty name", i)
		}
		if got, err := LookupVariant(v.Name); err != nil || got != v {
			t.Errorf("variant %q: lookup returns another row (%v)", v.Name, err)
		}
		if len(v.Metrics) == 0 || v.Eval == nil {
			t.Errorf("variant %q declares no metrics or no Eval", v.Name)
		}
	}
}

// TestRegisterWorkloadRejectsDuplicates: workload names address artifacts,
// so every workload row must be the one its name looks up. (The name
// predates the static workload table.)
func TestRegisterWorkloadRejectsDuplicates(t *testing.T) {
	for i, w := range workloadTable {
		if w.Name() == "" {
			t.Errorf("workload row %d has an empty name", i)
		}
		if got, err := LookupWorkload(w.Name()); err != nil || got != w {
			t.Errorf("workload %q: lookup returns another row (%v)", w.Name(), err)
		}
	}
}

// TestRegisterExperimentRejectsBadWiring: every experiment row is the one
// its name looks up, has its workloads and renderer, and names only
// variants that resolve in the variant table. (The name predates the
// static experiment table.)
func TestRegisterExperimentRejectsBadWiring(t *testing.T) {
	for i, e := range experimentTable {
		if _, err := LookupExperiment(e.Name); err != nil || slices.Index(ExperimentNames(), e.Name) != i {
			t.Errorf("experiment %q: lookup returns another row (%v)", e.Name, err)
		}
		if e.workloads == nil || e.render == nil {
			t.Errorf("experiment %q lacks its workloads or renderer", e.Name)
		}
		for _, vn := range e.Variants {
			if _, err := LookupVariant(vn); err != nil {
				t.Errorf("experiment %q: %v", e.Name, err)
			}
		}
	}
}

// TestLookupUnknownNames: every table lookup reports unknown names as errors,
// and Compile surfaces them instead of silently dropping specs.
func TestLookupUnknownNames(t *testing.T) {
	if _, err := LookupVariant("no-such-variant"); err == nil || !strings.Contains(err.Error(), "unknown variant") {
		t.Errorf("LookupVariant: %v", err)
	}
	if _, err := LookupWorkload("no-such-workload"); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("LookupWorkload: %v", err)
	}
	if _, err := LookupExperiment("no-such-experiment"); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("LookupExperiment: %v", err)
	}
	if _, err := Compile([]Spec{{Name: "no-such-experiment"}}); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("Compile: %v", err)
	}
}

// TestRegistriesAreConsistent: every experiment's declared variants are
// table rows and cover exactly the variants its compiled jobs dispatch to,
// and every compiled job's graph can be addressed through the plan.
func TestRegistriesAreConsistent(t *testing.T) {
	for _, s := range allSpecs(2) {
		e, err := LookupExperiment(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		declared := map[string]bool{}
		for _, vn := range e.Variants {
			if _, err := LookupVariant(vn); err != nil {
				t.Errorf("%s declares unknown variant %q", s.Name, vn)
			}
			declared[vn] = true
		}
		used := map[string]bool{}
		for _, j := range e.jobs(s) {
			used[j.Key.Variant] = true
			if j.Key.Variant != j.Job.Variant {
				t.Errorf("%s job %v: key variant %q != job variant %q", s.Name, j.Job, j.Key.Variant, j.Job.Variant)
			}
		}
		for vn := range used {
			if !declared[vn] {
				t.Errorf("%s compiles jobs for undeclared variant %q", s.Name, vn)
			}
		}
		for vn := range declared {
			if !used[vn] {
				t.Errorf("%s declares variant %q but compiles no jobs for it", s.Name, vn)
			}
		}
	}
}

// TestSweepWorkloadsMatchTopologies: the sweep workloads are the figure
// families, in figure order, with identical graph IDs to the
// topology-based addressing the renderers use.
func TestSweepWorkloadsMatchTopologies(t *testing.T) {
	topos := Topologies()
	ws := sweepFamilies
	if len(ws) != len(topos) {
		t.Fatalf("%d sweep workloads, %d topologies", len(ws), len(topos))
	}
	opt := Quick()
	for i, w := range ws {
		if w.Family() != topos[i].Name {
			t.Errorf("workload %d family %q, topology %q", i, w.Family(), topos[i].Name)
		}
		if got, want := w.GraphID(opt, 3), graphID(topos[i].Name, opt, 3); got != want {
			t.Errorf("workload %s graph ID %q, want %q", w.Name(), got, want)
		}
		if w.Instances(opt) != opt.Graphs {
			t.Errorf("workload %s instances %d, want %d", w.Name(), w.Instances(opt), opt.Graphs)
		}
	}
}

// TestModelWorkloadsBackTable2: the table2 workloads carry the historical
// graph IDs, so existing artifacts and caches keep
// addressing the same cells.
func TestModelWorkloadsBackTable2(t *testing.T) {
	for _, tc := range []struct {
		full bool
		gids []string
	}{
		{false, []string{"model:Resnet-50/tiny", "model:Transformer-encoder/tiny"}},
		{true, []string{"model:Resnet-50/full", "model:Transformer-encoder/full"}},
	} {
		models := table2Workloads(Spec{Full: tc.full})
		if len(models) != len(tc.gids) {
			t.Fatalf("full=%v: %d models", tc.full, len(models))
		}
		for i, m := range models {
			if gid := m.GraphID(Options{}, 0); gid != tc.gids[i] {
				t.Errorf("full=%v model %d gid %q, want %q", tc.full, i, gid, tc.gids[i])
			}
		}
	}
	// A model workload of the table builds a real graph.
	w, err := LookupWorkload("onnx:mlp")
	if err != nil {
		t.Fatal(err)
	}
	tg, err := w.Build(Options{}, 0)
	if err != nil || tg.Len() == 0 {
		t.Fatalf("onnx:mlp build: %v (%d nodes)", err, tg.Len())
	}
}

// TestVariantMetricsCoverProducedValues: run the full reduced plan and
// check every produced cell's value names stay inside its variant's
// declared metric keys — the invariant merges validate against.
func TestVariantMetricsCoverProducedValues(t *testing.T) {
	p, err := Compile(allSpecs(2))
	if err != nil {
		t.Fatal(err)
	}
	set, rep := Runner{Workers: 4, measureFn: fixedMeasure}.RunPlan(p)
	if len(rep.Failures) != 0 {
		t.Fatalf("%d failures", len(rep.Failures))
	}
	for _, c := range set.Cells() {
		v, err := LookupVariant(c.Key.Variant)
		if err != nil {
			t.Fatalf("cell %s: %v", c.Key, err)
		}
		declared := map[string]bool{}
		for _, m := range v.Metrics {
			declared[m] = true
		}
		for name := range c.Values {
			if !declared[name] {
				t.Errorf("cell %s carries undeclared value %q (variant %q declares %v)",
					c.Key, name, c.Key.Variant, v.Metrics)
			}
		}
	}
}

func TestListVariants(t *testing.T) {
	var buf bytes.Buffer
	ListVariants(&buf)
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
