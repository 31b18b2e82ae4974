// Package streamcli holds the testable core of cmd/streamsched's batch
// mode: graph loading from every input source the CLI accepts (-graph,
// -synth, -model), the parallel PE sweep, and the plain-text summary and
// report tables, all over experiments.EvalContext.Evaluate.
// cmd/streamsched is a thin flag layer over these functions; internal/service reuses the same graph sources for
// streaming submissions. Every function writes to an io.Writer so tests
// capture output byte for byte, and every graph construction is
// deterministic in its (source, size, seed) arguments.
package streamcli

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/buffers"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/synth"
)

// ParseTenantsArg resolves the -tenants flag: inline JSON (starts with
// '{') or a path to a tenants-config file. Both are validated the same
// way; "" is the single-tenant default contract.
func ParseTenantsArg(s string) (service.TenantsConfig, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return service.DefaultTenantsConfig(), nil
	case strings.HasPrefix(s, "{"):
		return service.ParseTenantsConfig([]byte(s))
	}
	return service.LoadTenantsFile(s)
}

// ParseTenantMix parses the -tenant-mix flag: comma-separated
// name=share[@slo_ms][/workload] entries, e.g.
//
//	interactive=3@50,batch=1/synth:cholesky
//
// Shares are relative weights (normalized over the mix); @slo_ms scores
// the tenant's completed requests against a latency bound in the load
// report; /workload overrides the base workload for that tenant's
// submissions. "" means no mix.
func ParseTenantMix(s string) ([]service.TenantShare, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var mix []service.TenantShare
	seen := make(map[string]bool)
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("tenant mix: empty entry")
		}
		name, val, ok := strings.Cut(entry, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("tenant mix: entry %q is not name=share[@slo_ms][/workload]", entry)
		}
		if seen[name] {
			return nil, fmt.Errorf("tenant mix: tenant %q listed twice", name)
		}
		seen[name] = true
		ts := service.TenantShare{Name: name}
		if val, ts.Workload, ok = strings.Cut(val, "/"); ok && ts.Workload == "" {
			return nil, fmt.Errorf("tenant mix: tenant %q has an empty workload override", name)
		}
		shareStr, sloStr, hasSLO := strings.Cut(val, "@")
		share, err := strconv.ParseFloat(strings.TrimSpace(shareStr), 64)
		if err != nil || share <= 0 {
			return nil, fmt.Errorf("tenant mix: tenant %q: share %q must be a positive number", name, shareStr)
		}
		ts.Share = share
		if hasSLO {
			slo, err := strconv.ParseFloat(strings.TrimSpace(sloStr), 64)
			if err != nil || slo <= 0 {
				return nil, fmt.Errorf("tenant mix: tenant %q: slo_ms %q must be a positive number", name, sloStr)
			}
			ts.SLOMs = slo
		}
		mix = append(mix, ts)
	}
	return mix, nil
}

// LoadGraph builds the task graph selected by exactly one of path (a JSON
// graph file), synthName (a generated topology), or model (an onnx:*
// workload of the experiment tables). size and seed parameterize the synthetic generators;
// model graphs are static and ignore both.
func LoadGraph(path, synthName, model string, size int, seed int64) (*core.TaskGraph, error) {
	selected := 0
	for _, s := range []string{path, synthName, model} {
		if s != "" {
			selected++
		}
	}
	if selected != 1 {
		return nil, fmt.Errorf("choose exactly one of -graph, -synth, or -model")
	}
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return core.DecodeJSON(f)
	}
	if model != "" {
		// Model graphs come from the experiment pipeline's workload
		// table ("onnx:<name>"), the same sources Table 2 evaluates.
		w, err := experiments.LookupWorkload("onnx:" + model)
		if err != nil {
			return nil, fmt.Errorf("unknown model %q (see -list-variants)", model)
		}
		return w.Build(experiments.Options{}, 0)
	}
	return BuildSynth(synthName, size, seed)
}

// BuildSynth generates one synthetic topology instance. The graph is a
// pure function of (name, size, seed).
func BuildSynth(name string, size int, seed int64) (*core.TaskGraph, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := synth.DefaultConfig()
	switch name {
	case "chain":
		return synth.Chain(size, rng, cfg), nil
	case "fft":
		return synth.FFT(size, rng, cfg), nil
	case "gaussian":
		return synth.Gaussian(size, rng, cfg), nil
	case "cholesky":
		return synth.Cholesky(size, rng, cfg), nil
	}
	return nil, fmt.Errorf("unknown synthetic topology %q", name)
}

// sweepRow is one PE configuration of the RunSweep table.
type sweepRow struct {
	pes      int
	blocks   int
	makespan float64
	speedup  float64
	util     float64
}

// RunSweep schedules tg at every PE count of the comma-separated list on
// the experiments worker pool and writes one table row per PE count, in
// list order. shard ("i/n", optional) keeps only every n-th entry.
func RunSweep(w io.Writer, tg *core.TaskGraph, v schedule.Variant, list string, workers int, shard string) error {
	var pes []int
	for _, s := range strings.Split(list, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || p < 1 {
			return fmt.Errorf("bad -sweep entry %q", s)
		}
		pes = append(pes, p)
	}
	if shard != "" {
		idx, count, err := experiments.ParseShard(shard)
		if err != nil {
			return err
		}
		var kept []int
		for i, p := range pes {
			if i%count == idx {
				kept = append(kept, p)
			}
		}
		pes = kept
	}

	rows, errs := experiments.RunIndexed(workers, len(pes), func(i int) (sweepRow, error) {
		p := pes[i]
		ev, err := experiments.NewEvalContext().Evaluate(tg, p, v, false)
		if err != nil {
			return sweepRow{}, err
		}
		res := ev.Res
		return sweepRow{
			pes:      p,
			blocks:   res.Partition.NumBlocks(),
			makespan: res.Makespan,
			speedup:  res.Speedup(tg),
			util:     res.Utilization(tg, p),
		}, nil
	})

	fmt.Fprintf(w, "sweep (%s): %d nodes, %d PE configurations\n", v, tg.Len(), len(pes))
	fmt.Fprintf(w, "%6s %8s %10s %8s %8s\n", "PEs", "blocks", "makespan", "speedup", "util")
	failed := 0
	for i, r := range rows {
		if errs[i] != nil {
			fmt.Fprintf(w, "%6d  FAILED: %v\n", pes[i], errs[i])
			failed++
			continue
		}
		fmt.Fprintf(w, "%6d %8d %10.0f %8.2f %7.1f%%\n", r.pes, r.blocks, r.makespan, r.speedup, 100*r.util)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d sweep entries failed", failed, len(pes))
	}
	return nil
}

// PrintSummary writes the batch-mode summary of one evaluation of tg on
// pes processing elements with heuristic v: the graph's shape, the
// schedule's blocks and makespan, T1/speedup/SSLR/utilization, and the
// Equation 5 buffer budget (sized here when ev did not simulate).
func PrintSummary(w io.Writer, tg *core.TaskGraph, pes int, v schedule.Variant, ev experiments.Evaluation) {
	res := ev.Res
	sizes := ev.Sizes
	if ev.Sim == nil {
		sizes = buffers.Sizes(tg, res)
	}
	fmt.Fprintf(w, "graph: %d nodes (%d compute), %d edges\n",
		tg.Len(), tg.NumComputeNodes(), tg.G.NumEdges())
	fmt.Fprintf(w, "schedule (%s, %d PEs): %d spatial blocks, makespan %.0f\n",
		v, pes, res.Partition.NumBlocks(), res.Makespan)
	fmt.Fprintf(w, "T1 %.0f   speedup %.2f   SSLR %.3f   utilization %.1f%%\n",
		schedule.SequentialTime(tg), res.Speedup(tg), res.SSLR(tg), 100*res.Utilization(tg, pes))
	cycleEdges, slots := buffers.CycleSpace(sizes)
	fmt.Fprintf(w, "buffers: %d streaming edges, %d on undirected cycles, %d total FIFO slots on cycle edges\n",
		len(sizes), cycleEdges, slots)
}

// PrintSim writes the discrete-event validation line of an evaluation
// that simulated, and nothing otherwise.
func PrintSim(w io.Writer, ev experiments.Evaluation) {
	st := ev.Sim
	if st == nil {
		return
	}
	if st.Deadlocked {
		fmt.Fprintf(w, "simulation: DEADLOCK at cycle %d\n", st.DeadlockCycle)
	} else {
		fmt.Fprintf(w, "simulation: makespan %.0f (relative error %+.2f%%), no deadlock\n",
			st.Makespan, 100*st.RelativeError(ev.Res.Makespan))
	}
}

// ListVariants writes the three tables of the shared experiment
// pipeline — the -list-variants output of both commands: experiments in
// render order with their variants, then every variant with its declared
// metric keys, then every workload with its family and PE sweep.
func ListVariants(w io.Writer) error {
	fmt.Fprintln(w, "experiments (render order):")
	for _, name := range experiments.ExperimentNames() {
		e, err := experiments.LookupExperiment(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-10s variants: %s\n", name, strings.Join(e.Variants, ", "))
	}
	fmt.Fprintln(w, "\nvariants (cell metrics):")
	for _, name := range experiments.VariantNames() {
		v, err := experiments.LookupVariant(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-14s %s\n", name, strings.Join(v.Metrics, ", "))
	}
	fmt.Fprintln(w, "\nworkloads:")
	for _, name := range experiments.WorkloadNames() {
		wl, err := experiments.LookupWorkload(name)
		if err != nil {
			return err
		}
		pes := make([]string, 0, len(wl.PEs()))
		for _, p := range wl.PEs() {
			pes = append(pes, fmt.Sprint(p))
		}
		fmt.Fprintf(w, "  %-18s %-26s PEs %s\n", name, wl.Family(), strings.Join(pes, ","))
	}
	return nil
}

// PrintTasks writes the per-task schedule table, ordered by block then
// start time.
func PrintTasks(w io.Writer, tg *core.TaskGraph, res *schedule.Result) {
	type row struct {
		id    graph.NodeID
		block int
	}
	rows := make([]row, 0, tg.Len())
	for v := 0; v < tg.Len(); v++ {
		rows = append(rows, row{graph.NodeID(v), res.Partition.BlockOf[v]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].block != rows[j].block {
			return rows[i].block < rows[j].block
		}
		return res.ST[rows[i].id] < res.ST[rows[j].id]
	})
	fmt.Fprintf(w, "%-20s %5s %5s %3s %8s %8s %8s %6s\n",
		"task", "block", "PE", "knd", "ST", "FO", "LO", "So")
	for _, r := range rows {
		n := tg.Nodes[r.id]
		name := n.Name
		if name == "" {
			name = fmt.Sprintf("n%d", r.id)
		}
		fmt.Fprintf(w, "%-20.20s %5d %5d %3.3s %8.0f %8.0f %8.0f %6.2f\n",
			name, r.block, res.PE[r.id], n.Kind.String(), res.ST[r.id], res.FO[r.id], res.LO[r.id], res.So[r.id])
	}
}
