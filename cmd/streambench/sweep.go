package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/distrib"
	"repro/internal/experiments"
	"repro/internal/results"
)

// sweepExperiments is the plan of the sweep workload. placement is left
// out because its annealer would take most of the time, scale because
// batch-xl covers graphs at scale, and table2 because its 16 model-graph
// cells take half of a pass, which then hinges on a few long jobs.
var sweepExperiments = []string{"fig10", "fig11", "fig12", "fig13", "ablation", "heft", "pipeline"}

// sweepGraphs is the number of random graphs per family. The paper's 100
// make a pass that takes seconds; 20 make 2,820 cells, so a run repeats
// enough passes to take a median.
const sweepGraphs = 20

type sweepBench struct {
	e     *env
	specs []experiments.Spec
	cells int
}

// sweepSpecs builds the plan's specs the way cmd/experiments does for
// `-exp <sweepExperiments> -graphs n -seed seed`: the experiments that
// simulate at element level use the quick volume configuration.
func sweepSpecs(graphs int, seed int64) ([]experiments.Spec, error) {
	opt := experiments.Defaults()
	opt.Graphs, opt.Seed = graphs, seed
	simOpt := opt
	simOpt.Config = experiments.Quick().Config
	var specs []experiments.Spec
	for _, name := range sweepExperiments {
		e, err := experiments.LookupExperiment(name)
		if err != nil {
			return nil, err
		}
		switch {
		case e.ModelFlag:
			specs = append(specs, experiments.Spec{Name: name})
		case e.Simulates:
			specs = append(specs, experiments.Spec{Name: name, Opt: simOpt})
		default:
			specs = append(specs, experiments.Spec{Name: name, Opt: opt})
		}
	}
	return specs, nil
}

// setupSweep compiles the plan and warms the coordinator and agent path
// with a two-graph pass of the same experiments.
func setupSweep(ctx context.Context, e *env) (instance, error) {
	graphs := sweepGraphs
	if e.smoke {
		graphs = 2
	}
	specs, err := sweepSpecs(graphs, e.seed)
	if err != nil {
		return nil, err
	}
	plan, err := experiments.Compile(specs)
	if err != nil {
		return nil, err
	}
	b := &sweepBench{e: e, specs: specs, cells: len(plan.Jobs)}
	warm, err := sweepSpecs(2, e.seed+1)
	if err != nil {
		return nil, err
	}
	if _, err := b.distributed(ctx, warm, nil); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	return b, nil
}

func (b *sweepBench) close() {}

// passStats is what one distributed pass reported.
type passStats struct {
	art          []byte
	took         interval
	leases       int
	requeues     int
	duplicates   int
	journalBytes int64
}

// distributed runs one pass: a coordinator journaling to a fresh state
// directory (fsync'd write-ahead log) and one agent reaching it through
// the in-memory transport, from coordinator start to the merged artifact.
func (b *sweepBench) distributed(ctx context.Context, specs []experiments.Spec, tr *tracer) (passStats, error) {
	var ps passStats
	dir, err := b.e.mkWork("state-")
	if err != nil {
		return ps, err
	}
	defer os.RemoveAll(dir)
	root := tr.newID()
	start := now()
	coord, err := distrib.NewCoordinator(specs, distrib.CoordinatorOptions{Run: "streambench", StateDir: dir})
	if err != nil {
		return ps, err
	}
	defer coord.Close()
	agent := &distrib.Agent{
		URL: "http://coordinator", Worker: "agent", Workers: b.e.workers,
		Log: io.Discard, RetrySeed: b.e.seed,
		Client: &http.Client{Transport: inmem{h: coord.Handler()}},
	}
	if _, err := agent.Run(withSpan(ctx, tr, root, root)); err != nil {
		return ps, err
	}
	select {
	case <-coord.Done():
	default:
		return ps, fmt.Errorf("the agent stopped before the run was done")
	}
	var art *results.Artifact
	tr.timed("distrib.artifact", "sweep", root, root, func() {
		art = coord.Artifact()
		ps.art, err = json.MarshalIndent(art, "", "  ")
	})
	if err != nil {
		return ps, err
	}
	if len(art.Failures) > 0 {
		return ps, fmt.Errorf("%d cells failed, first: %s: %s", len(art.Failures), art.Failures[0].Label, art.Failures[0].Err)
	}
	ps.took = start.to(now())
	tr.add(span{ID: root, Name: "distributed pass", Cat: "sweep", Start: start.at, End: start.at.Add(ps.took.wall)})
	st := coord.Status()
	ps.requeues = st.Requeues
	for _, w := range st.Workers {
		ps.leases += w.Leases
		ps.duplicates += w.Duplicates
	}
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		ps.journalBytes += info.Size()
		return err
	})
	return ps, err
}

// local runs the same plan through experiments.Runner.RunPlan in process:
// the cmd/experiments path without a coordinator.
func (b *sweepBench) local() (*results.Artifact, interval, error) {
	tr := b.e.tr
	root := tr.newID()
	start := now()
	var plan *experiments.Plan
	var err error
	tr.timed("experiments.compile", "sweep", root, root, func() { plan, err = experiments.Compile(b.specs) })
	if err != nil {
		return nil, interval{}, err
	}
	set, rep := experiments.Runner{Workers: b.e.workers}.RunPlan(plan)
	if len(rep.Failures) > 0 {
		return nil, interval{}, fmt.Errorf("%d cells failed, first: %v", len(rep.Failures), rep.Failures[0])
	}
	art := &results.Artifact{Schema: results.SchemaVersion, Meta: experiments.MetaFromSpecs(b.specs, 0, 1), Cells: set.Cells()}
	took := start.to(now())
	tr.add(span{ID: root, Name: "local pass", Cat: "sweep", Start: start.at, End: start.at.Add(took.wall)})
	return art, took, nil
}

// run alternates local and distributed passes until the window has
// elapsed. After the window, every artifact, less Figure 12's timing
// values, must equal the first local one byte for byte.
func (b *sweepBench) run(ctx context.Context) (*outcome, error) {
	tr := b.e.tr
	o := newOutcome()
	var dist []passStats
	var locals []*results.Artifact
	var localMs, gaps []float64
	var runErr error
	u := measure(func() {
		start := time.Now()
		last := start
		for time.Since(start) < b.e.window && ctx.Err() == nil {
			gaps = append(gaps, ms(time.Since(last)))
			o.attempted += 2
			art, took, err := b.local()
			if err != nil {
				runErr = fmt.Errorf("local pass: %w", err)
				return
			}
			locals = append(locals, art)
			localMs = append(localMs, took.wallMs())
			ps, err := b.distributed(ctx, b.specs, tr)
			if err != nil {
				runErr = fmt.Errorf("distributed pass: %w", err)
				return
			}
			dist = append(dist, ps)
			last = time.Now()
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	ref, err := comparableArtifact(locals[0])
	if err != nil {
		return nil, err
	}
	check := func(kind string, art *results.Artifact) error {
		data, err := comparableArtifact(art)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, ref) {
			o.failed++
			o.problem("a %s pass's artifact differs from the first local one", kind)
		}
		return nil
	}
	for _, art := range locals[1:] {
		if err := check("local", art); err != nil {
			return nil, err
		}
	}
	for _, ps := range dist {
		var art results.Artifact
		if err := json.Unmarshal(ps.art, &art); err != nil {
			return nil, err
		}
		if err := check("distributed", &art); err != nil {
			return nil, err
		}
	}

	var distMs, distCPU, distSteal []float64
	var agg passStats
	for _, ps := range dist {
		distMs = append(distMs, ps.took.wallMs())
		distCPU = append(distCPU, ps.took.cpuMs())
		distSteal = append(distSteal, ps.took.steal)
		agg.leases += ps.leases
		agg.requeues += ps.requeues
		agg.duplicates += ps.duplicates
		agg.journalBytes += ps.journalBytes
	}
	passes := float64(len(dist))
	o.e2e["p50_ms"] = percentile(distMs, 0.5)
	o.e2e["p75_ms"] = percentile(distMs, 0.75)
	o.e2e["alt_p50_ms"] = percentile(localMs, 0.5)
	o.e2e["cpu_ms_per_op"] = median(distCPU)
	o.layer["host.steal_share"] = median(distSteal)
	u.layers(o, len(dist)+len(localMs))
	o.layer["loadgen.lag_p99_ms"] = percentile(gaps, 0.99)
	o.layer["experiments.local_cells_per_s"] = ratio(float64(b.cells)*float64(len(localMs)), sum(localMs)/1e3)
	o.layer["distrib.overhead_share"] = 1 - ratio(percentile(localMs, 0.5), percentile(distMs, 0.5))
	o.layer["distrib.leases"] = float64(agg.leases) / passes
	o.layer["distrib.requeues"] = float64(agg.requeues) / passes
	o.layer["distrib.duplicates"] = float64(agg.duplicates) / passes
	o.layer["distrib.journal_bytes"] = float64(agg.journalBytes) / passes

	if tr != nil {
		if err := b.traceLayers(o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// traceLayers times the lease and complete round trips (the complete call
// includes the journal fsync), the plan's compile and the artifact's
// merge, and replays the sweep's families solo through the layer
// functions.
func (b *sweepBench) traceLayers(o *outcome) error {
	durs := make(map[string][]float64)
	for _, s := range b.e.tr.snapshot() {
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
	}
	o.layer["distrib.lease_p50_ms"] = percentile(durs["POST /v1/lease"], 0.5)
	o.layer["distrib.lease_p99_ms"] = percentile(durs["POST /v1/lease"], 0.99)
	o.layer["distrib.complete_p50_ms"] = percentile(durs["POST /v1/complete"], 0.5)
	o.layer["distrib.complete_p99_ms"] = percentile(durs["POST /v1/complete"], 0.99)
	o.layer["distrib.artifact_ms"] = percentile(durs["distrib.artifact"], 0.5)
	o.layer["experiments.compile_ms"] = percentile(durs["experiments.compile"], 0.5)

	dir, err := b.e.mkWork("replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rp, err := newReplayer(b.e.tr, dir)
	if err != nil {
		return err
	}
	// The plan's own graphs stay inside the experiments engine; the replay
	// builds graphs of the same families, sizes and volume configuration.
	rng := rand.New(rand.NewSource(b.e.seed))
	graphs := 4
	if b.e.smoke {
		graphs = 1
	}
	for i, t := range experiments.Topologies() {
		for g := 0; g < graphs; g++ {
			tg := t.Build(rng, b.specs[0].Opt.Config)
			for _, p := range t.PEs {
				for v := range variants {
					err := rp.replay(replayInput{
						id: fmt.Sprintf("t%d/g%d/P%d/%s", i, g, p, variantNames[v]), tg: tg,
						pes: p, variant: variants[v], varName: variantNames[v], simulate: true,
					})
					if err != nil {
						return err
					}
				}
			}
		}
	}
	rp.st.layers(o.layer)
	return nil
}
