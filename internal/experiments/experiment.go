package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/results"
)

// Experiment is one table or figure of the evaluation, a row of the
// experiment table: the grid its cells come from and the renderer that
// turns the produced cells back into the experiment's tables. A row is all
// it takes to ride the whole pipeline — worker-pool execution, the
// distributed sweep, artifacts, and the persistent results cache come from
// the engine, not from the experiment.
type Experiment struct {
	// Name is the table key, the -exp selector, and the artifact metadata
	// name.
	Name string
	// Variants is the per-(instance, PE count) fan-out of the experiment's
	// grid, in job order; every name is a row of the variant table.
	// Artifact metadata records their declared metric keys so a
	// coordinator can validate uploaded cells (docs/ARTIFACTS.md).
	Variants []string
	// Simulates marks experiments that run element-level simulation; a
	// full-size run scales their volumes down to the quick config
	// (cmd/experiments).
	Simulates bool
	// ModelFlag marks experiments configured by -full-models instead of the
	// synthetic-family options (table2).
	ModelFlag bool

	// workloads are the graph sources of the grid.
	workloads func(s Spec) []Workload
	// pes picks each workload's PE counts; nil means its own sweep.
	pes func(Workload) []int
	// simulate asks the sweep variants for the Appendix B validation.
	simulate bool
	// render prints the experiment's tables from a cell set.
	render func(w io.Writer, p *Plan, set *results.Set, s Spec)
}

// jobs expands one spec into the experiment's cell jobs, in the
// deterministic order every process of a distributed run agrees on.
func (e *Experiment) jobs(s Spec) []CellJob {
	pes := e.pes
	if pes == nil {
		pes = Workload.PEs
	}
	return grid(e.workloads(s), s.Opt, pes, e.Variants, e.simulate)
}

// sweepVariants is the LTS/RLX/NSTR fan-out of the Figure 10/11/13 sweeps.
var sweepVariants = []string{VariantLTS, VariantRLX, VariantNSTR}

// sweepWorkloads is the grid input of every experiment over the sweep
// families.
func sweepWorkloads(Spec) []Workload { return asWorkloads(sweepFamilies) }

// experimentTable lists the experiments in their canonical rendering order,
// the order `-exp all` runs them in. Names are unique and every variant
// resolves (TestTableNamesUnique, TestRegisterExperimentRejectsBadWiring).
var experimentTable = []Experiment{
	{Name: "fig10", Variants: sweepVariants, workloads: sweepWorkloads, render: renderFig10},
	{Name: "fig11", Variants: sweepVariants, workloads: sweepWorkloads, render: renderFig11},
	{
		// As many PEs as compute nodes: the count is a function of the
		// graph, so cells carry the 0 sentinel.
		Name: "fig12", Variants: []string{VariantFig12Str, VariantFig12CSDF},
		workloads: sweepWorkloads, pes: func(Workload) []int { return []int{0} },
		render: renderFig12,
	},
	{
		Name: "fig13", Variants: sweepVariants, Simulates: true,
		workloads: sweepWorkloads, simulate: true, render: renderFig13,
	},
	{
		Name: "table2", Variants: []string{VariantTable2Str, VariantTable2NSTR}, ModelFlag: true,
		workloads: table2Workloads, render: renderTable2,
	},
	{
		Name: "ablation", Variants: []string{VariantAblationUnit}, Simulates: true,
		workloads: func(Spec) []Workload { return asWorkloads(ablationFamilies) },
		pes:       func(w Workload) []int { return []int{ablationPE(w)} },
		render:    renderAblation,
	},
	{Name: "placement", Variants: []string{VariantPlacement}, workloads: sweepWorkloads, render: renderPlacement},
	// The SB-LTS cells carry the exact keys of the Figure 10 sweep cells,
	// so compiling heft together with fig10/fig11 deduplicates them.
	{Name: "heft", Variants: []string{VariantLTS, VariantHEFT}, workloads: sweepWorkloads, render: renderHEFT},
	{Name: "pipeline", Variants: []string{VariantPipeline}, workloads: sweepWorkloads, render: renderPipeline},
	{
		Name: "scale", Variants: []string{VariantScale},
		workloads: func(Spec) []Workload { return asWorkloads(scaleFamilies) },
		render:    renderScale,
	},
}

// table2Workloads are the Table 2 models with the paper's PE sweeps, or
// proportionally scaled ones that keep a non-full run under a second.
func table2Workloads(s Spec) []Workload {
	if s.Full {
		return table2Full
	}
	return table2Tiny
}

// ablationPE picks the PE count the ablation schedules each family at: the
// middle of its sweep.
func ablationPE(w Workload) int { pes := w.PEs(); return pes[len(pes)/2] }

// LookupExperiment returns the experiment with the given name.
func LookupExperiment(name string) (Experiment, error) {
	for _, e := range experimentTable {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (want one of %v)",
		name, ExperimentNames())
}

// ExperimentNames lists the experiments in their canonical rendering order.
func ExperimentNames() []string {
	names := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		names[i] = e.Name
	}
	return names
}

// ListVariants writes the three tables of the experiment pipeline — the
// -list-variants output of both commands: experiments in render order with
// their variants, then every variant with its declared metric keys, then
// every workload with its family and PE sweep.
func ListVariants(w io.Writer) {
	fmt.Fprintln(w, "experiments (render order):")
	for _, e := range experimentTable {
		fmt.Fprintf(w, "  %-10s variants: %s\n", e.Name, strings.Join(e.Variants, ", "))
	}
	fmt.Fprintln(w, "\nvariants (cell metrics):")
	for _, name := range VariantNames() {
		v, _ := LookupVariant(name)
		fmt.Fprintf(w, "  %-14s %s\n", name, strings.Join(v.Metrics, ", "))
	}
	fmt.Fprintln(w, "\nworkloads:")
	for _, name := range WorkloadNames() {
		wl, _ := LookupWorkload(name)
		pes := make([]string, 0, len(wl.PEs()))
		for _, p := range wl.PEs() {
			pes = append(pes, fmt.Sprint(p))
		}
		fmt.Fprintf(w, "  %-18s %-26s PEs %s\n", name, wl.Family(), strings.Join(pes, ","))
	}
}

// ModeFlags is one row of a command's mode table: the flags a mode reads,
// and a note its rejection message ends with.
type ModeFlags struct {
	Allowed []string
	Why     string
}

// CheckModeFlags rejects the first explicitly set flag, in name order,
// that mode's row of table does not read: set beside that mode it would be
// silently ignored. Both commands check their flags with it.
func CheckModeFlags(table map[string]ModeFlags, mode string, explicit map[string]bool) error {
	names := make([]string, 0, len(explicit))
	for name := range explicit {
		names = append(names, name)
	}
	sort.Strings(names)
	m := table[mode]
	for _, name := range names {
		if !slices.Contains(m.Allowed, name) {
			return fmt.Errorf("-%s has no effect with %s%s", name, mode, m.Why)
		}
	}
	return nil
}
