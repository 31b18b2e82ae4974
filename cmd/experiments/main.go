// Command experiments regenerates the paper's tables and figures as text.
//
// Usage:
//
//	experiments [-exp all|fig10|...|placement,heft,pipeline] [-graphs N] [-seed S]
//	            [-quick] [-full-models] [-workers N] [-shard i/n] [-out shard.json]
//	            [-cache dir] [-report]
//	            [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz]
//	experiments -merge a.json b.json ...
//	experiments -serve addr [-lease-timeout d] [-batch N] [-state dir]
//	            [-snapshot-every N] [-token t] [-out merged.json] [spec flags]
//	experiments -agent http://host:port [-worker-id name] [-workers N] [-cache dir] [-token t]
//	experiments -status http://host:port [-token t]
//	experiments -list-variants
//	experiments -cache dir -cache-stats
//	experiments -cache dir -cache-gc 168h
//
// The default reproduces every experiment with 100 random graphs per
// topology, as in the paper, plus the repo's extensions (the NoC placement
// sweep, the HEFT baseline comparison, and the steady-state pipelining
// table). -exp selects a comma-separated subset. -quick reduces graph
// counts and volumes for a fast smoke run. -full-models runs Table 2 on the
// full-size ResNet-50 and transformer-encoder graphs (tens of thousands of
// nodes).
//
// Every experiment compiles to cell jobs on the concurrent engine of
// internal/experiments, dispatching through its Variant and Workload
// registries (-list-variants prints them): -workers sizes the goroutine
// pool (default GOMAXPROCS) and -shard i/n runs only the i-th of n job
// shards so one run can be split across processes or machines. -out writes
// the shard's cells to a versioned JSON artifact instead of rendering
// tables, and -merge validates and combines shard artifacts into the final
// tables, byte-identical to an unsharded run (see docs/ARTIFACTS.md).
// -cache points at a persistent results cache keyed by graph content, so
// repeated runs skip already-computed cells; -cache-stats and -cache-gc
// report and prune it. -report summarizes jobs, timings, and cache hits on
// stderr. A run whose jobs partly failed still writes its output but exits
// nonzero.
//
// Simulating experiments run on desim's auto engine, which picks the
// event-leaping fast path or the unit-stepping reference loop per simulation
// via a cost model (cells are byte-identical under every engine).
// -cpuprofile and -memprofile write pprof profiles of the run — also with
// -agent — so sweep hot spots can be inspected without a test harness.
//
// Instead of picking shards by hand, a run can self-schedule across
// machines (see docs/DISTRIBUTED.md): -serve starts an HTTP job-queue
// coordinator that leases job batches to pull-based workers, requeues the
// batches of workers that die, and — once every job is resolved — writes
// the merged artifact (-out) or renders the tables, byte-identical to an
// unsharded local run. -agent joins a coordinator as a worker, reusing the
// local worker pool (-workers) and the persistent results cache (-cache).
// -status prints a coordinator's progress/failure report as JSON. With
// -state the coordinator journals every state transition to a directory
// and a killed coordinator restarted with the same flags resumes the run
// exactly where it crashed (docs/DISTRIBUTED.md, "Failure recovery");
// -token requires a shared bearer token of every client.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/distrib"
	"repro/internal/experiments"
	"repro/internal/results"
)

func main() {
	exp := flag.String("exp", "all", "experiments to run: all, or a comma-separated subset of "+strings.Join(experiments.ExperimentNames(), ","))
	graphs := flag.Int("graphs", 0, "random graphs per topology (default 100, or 15 with -quick)")
	seed := flag.Int64("seed", 1, "base random seed")
	quick := flag.Bool("quick", false, "reduced graph counts and volumes")
	fullModels := flag.Bool("full-models", false, "run Table 2 on full-size model graphs")
	workers := flag.Int("workers", 0, "engine worker goroutines (default GOMAXPROCS)")
	shard := flag.String("shard", "", "run only shard i of n cell jobs, format i/n")
	out := flag.String("out", "", "write this run's cells to a JSON shard artifact instead of rendering tables")
	cacheDir := flag.String("cache", "", "persistent results cache directory; computed cells are reused across runs")
	cacheStats := flag.Bool("cache-stats", false, "print cache entry count, bytes, and last-run hit/miss, then exit (requires -cache)")
	cacheGC := flag.Duration("cache-gc", 0, "delete cache entries older than this age (e.g. 168h), then exit (requires -cache)")
	merge := flag.Bool("merge", false, "merge the shard artifacts given as arguments and render their tables")
	report := flag.Bool("report", false, "print a job/timing/cache summary to stderr")
	listVariants := flag.Bool("list-variants", false, "list the registered experiments, variants, and workloads, then exit")
	serve := flag.String("serve", "", "serve the run as a distributed-sweep coordinator on this address (e.g. :8077), then write -out or render tables")
	agent := flag.String("agent", "", "join the coordinator at this URL as a pull-based worker")
	workerID := flag.String("worker-id", "", "worker name reported to the coordinator (default host-pid)")
	leaseTimeout := flag.Duration("lease-timeout", distrib.DefaultLeaseTimeout, "with -serve: requeue a leased batch not completed within this duration")
	batch := flag.Int("batch", distrib.DefaultBatchSize, "with -serve: jobs granted per lease")
	stateDir := flag.String("state", "", "with -serve: journal coordinator state to this directory so a killed coordinator can be restarted with the same flags and resume the run")
	snapshotEvery := flag.Int("snapshot-every", 0, "with -serve -state: journal records between snapshots (default 256; negative disables snapshots)")
	token := flag.String("token", "", "shared bearer token: required of every client with -serve, sent with -agent and -status")
	status := flag.String("status", "", "print the status JSON of the coordinator at this URL, then exit")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	flag.Parse()

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if err := run(*exp, *graphs, *seed, *quick, *fullModels, *workers, *shard,
		*out, *cacheDir, *cacheStats, *cacheGC, *merge, *report, *listVariants,
		*serve, *agent, *workerID, *leaseTimeout, *batch, *stateDir, *snapshotEvery, *token, *status,
		*cpuProfile, *memProfile,
		explicit, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
}

func run(exp string, graphs int, seed int64, quick, fullModels bool, workers int,
	shard, out, cacheDir string, cacheStats bool, cacheGC time.Duration,
	merge, report, listVariants bool,
	serve, agent, workerID string, leaseTimeout time.Duration, batch int,
	stateDir string, snapshotEvery int, token, status string,
	cpuProfile, memProfile string,
	explicit map[string]bool, args []string) error {

	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if memProfile != "" {
		defer func() {
			f, err := os.Create(memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final live-heap state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	if listVariants {
		return runListVariants(os.Stdout)
	}
	if status != "" {
		for name := range explicit {
			switch name {
			case "status", "token":
			default:
				return fmt.Errorf("-%s has no effect with -status", name)
			}
		}
		return runStatus(status, token)
	}
	if agent != "" {
		for name := range explicit {
			switch name {
			case "agent", "workers", "cache", "worker-id", "token", "cpuprofile", "memprofile":
			default:
				return fmt.Errorf("-%s has no effect with -agent (the coordinator defines the run)", name)
			}
		}
		return runAgent(agent, workerID, workers, cacheDir, token)
	}
	if serve != "" {
		for name := range explicit {
			switch name {
			case "serve", "exp", "graphs", "seed", "quick", "full-models",
				"lease-timeout", "batch", "out", "state", "snapshot-every", "token":
			default:
				return fmt.Errorf("-%s has no effect with -serve (workers run in -agent processes)", name)
			}
		}
		return runServe(serve, exp, graphs, seed, quick, fullModels, leaseTimeout, batch, stateDir, snapshotEvery, token, out)
	}
	if snapshotEvery != 0 || stateDir != "" {
		return fmt.Errorf("-state/-snapshot-every only apply to -serve")
	}
	if merge {
		// Merge mode takes its entire configuration from the artifacts'
		// metadata; any other flag would be silently ignored, so reject it.
		for name := range explicit {
			if name != "merge" {
				return fmt.Errorf("-%s has no effect with -merge (the artifacts' metadata defines the run)", name)
			}
		}
		return runMerge(args)
	}
	if cacheStats || cacheGC != 0 {
		// Cache maintenance modes: no experiments run.
		for name := range explicit {
			switch name {
			case "cache", "cache-stats", "cache-gc":
			default:
				return fmt.Errorf("-%s has no effect with -cache-stats/-cache-gc", name)
			}
		}
		return runCacheMaintenance(cacheDir, cacheStats, cacheGC)
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q (artifact files go with -merge)", args)
	}

	specs, err := specsFromFlags(exp, graphs, seed, quick, fullModels)
	if err != nil {
		return err
	}
	plan, err := experiments.Compile(specs)
	if err != nil {
		return err
	}

	idx, count, err := experiments.ParseShard(shard)
	if err != nil {
		return err
	}
	runner := experiments.Runner{Workers: workers, ShardIndex: idx, ShardCount: count}
	var cache *results.Cache
	if cacheDir != "" {
		cache, err = results.OpenCache(cacheDir)
		if err != nil {
			return err
		}
		runner.Results = cache
	}

	set, rep := runner.RunPlan(plan)
	experiments.ReportFailures(os.Stderr, rep)
	if report {
		fmt.Fprintf(os.Stderr, "report: %d jobs (%d skipped by shard), %d completed, %d cached, %d failed, elapsed %v, work %v\n",
			rep.Jobs, rep.Skipped, rep.Completed, rep.CacheHits, len(rep.Failures), rep.Elapsed, rep.Work)
	}
	if cache != nil {
		// Record this run's hit/miss so a later -cache-stats can report it.
		rc := results.RunCounters{Hits: rep.CacheHits, Misses: rep.Completed - rep.CacheHits, When: time.Now()}
		if err := cache.RecordRun(rc); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		}
	}

	if out != "" {
		art := &results.Artifact{
			Meta:  experiments.MetaFromSpecs(specs, idx, count),
			Cells: set.Cells(),
		}
		for _, f := range rep.Failures {
			art.Failures = append(art.Failures, results.Failure{Label: f.Job.String(), Err: f.Err.Error()})
		}
		if err := art.WriteFile(out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d cells to %s (shard %d/%d); combine with -merge\n",
			set.Len(), out, art.Meta.ShardIndex, art.Meta.ShardCount)
		return failedJobsError(len(rep.Failures), rep.Jobs)
	}

	if count > 1 {
		fmt.Fprintf(os.Stderr, "note: rendering shard %d/%d only; use -out and -merge for complete tables\n", idx, count)
	}
	experiments.Render(os.Stdout, plan, set)
	return failedJobsError(len(rep.Failures), rep.Jobs)
}

// failedJobsError turns dropped cells into a nonzero exit: the tables (or
// the artifact) are still produced, but scripts must not mistake an
// incomplete run for success.
func failedJobsError(failed, jobs int) error {
	if failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d jobs failed; output is incomplete", failed, jobs)
}

// specsFromFlags turns the spec-selecting flags into the experiment specs a
// local run, a -serve coordinator, and the e2e tests all agree on.
func specsFromFlags(exp string, graphs int, seed int64, quick, fullModels bool) ([]experiments.Spec, error) {
	opt := experiments.Defaults()
	if quick {
		opt = experiments.Quick()
	}
	if graphs > 0 {
		opt.Graphs = graphs
	}
	opt.Seed = seed
	return buildSpecs(exp, opt, quick, fullModels)
}

// buildSpecs selects the experiments to run, in canonical order; exp is
// "all" or a comma-separated subset. As in the paper's scripts, experiments
// that run element-level simulations (fig13, the ablation) scale their
// volumes down to the quick config on a full-size run.
func buildSpecs(exp string, opt experiments.Options, quick, fullModels bool) ([]experiments.Spec, error) {
	simOpt := opt
	if !quick {
		simOpt.Config = experiments.Quick().Config // element-level simulation
	}
	selected := map[string]bool{}
	if exp != "all" {
		for _, name := range strings.Split(exp, ",") {
			name = strings.TrimSpace(name)
			if _, err := experiments.LookupExperiment(name); err != nil {
				return nil, err
			}
			selected[name] = true
		}
	}
	var specs []experiments.Spec
	for _, name := range experiments.ExperimentNames() {
		if exp != "all" && !selected[name] {
			continue
		}
		e, err := experiments.LookupExperiment(name)
		if err != nil {
			return nil, err
		}
		switch {
		case e.ModelFlag:
			specs = append(specs, experiments.Spec{Name: name, Full: fullModels})
		case e.Simulates:
			specs = append(specs, experiments.Spec{Name: name, Opt: simOpt})
		default:
			specs = append(specs, experiments.Spec{Name: name, Opt: opt})
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("unknown experiment %q", exp)
	}
	return specs, nil
}

// runListVariants prints the three registries: experiments in render order
// with their variants, then every variant with its declared metric keys,
// then every workload with its PE sweep.
func runListVariants(w *os.File) error {
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
		fmt.Fprintf(w, "  %-14s %s\n", name, strings.Join(v.Metrics(), ", "))
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

// runCacheMaintenance handles -cache-stats and -cache-gc: prune first if
// requested, then report the (post-GC) state.
func runCacheMaintenance(cacheDir string, stats bool, gc time.Duration) error {
	if cacheDir == "" {
		return fmt.Errorf("-cache-stats/-cache-gc need -cache to point at the cache directory")
	}
	if gc < 0 {
		return fmt.Errorf("-cache-gc wants a positive age, got %v", gc)
	}
	cache, err := results.OpenCache(cacheDir)
	if err != nil {
		return err
	}
	if gc != 0 {
		removed, freed, err := cache.GC(gc)
		if err != nil {
			return err
		}
		fmt.Printf("cache-gc: removed %d entries older than %v, freed %d bytes\n", removed, gc, freed)
	}
	st, err := cache.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("cache: %d entries, %d bytes in %s\n", st.Entries, st.Bytes, cache.Dir())
	if st.LastRun != nil {
		fmt.Printf("last run (%s): %d hits, %d misses\n",
			st.LastRun.When.Format(time.RFC3339), st.LastRun.Hits, st.LastRun.Misses)
	} else if stats {
		fmt.Println("last run: no counters recorded yet")
	}
	return nil
}

// runMerge combines shard artifacts from separate processes into the final
// tables: validate that the shards belong to one run and neither overlap
// nor miss cells, then render from the merged set.
func runMerge(files []string) error {
	if len(files) == 0 {
		return fmt.Errorf("-merge needs at least one artifact file")
	}
	arts := make([]*results.Artifact, 0, len(files))
	for _, f := range files {
		a, err := results.ReadArtifactFile(f)
		if err != nil {
			return err
		}
		arts = append(arts, a)
	}
	set, meta, err := results.Merge(arts)
	if err != nil {
		return err
	}
	specs, err := experiments.SpecsFromMeta(meta)
	if err != nil {
		return err
	}
	plan, err := experiments.Compile(specs)
	if err != nil {
		return err
	}
	// Cells missing because their shard recorded a job failure render like
	// the in-process path: dropped from the aggregates, reported on stderr.
	excused := make(map[string]bool)
	var failed []results.Failure
	for _, a := range arts {
		for _, f := range a.Failures {
			excused[f.Label] = true
			failed = append(failed, f)
		}
	}
	if err := experiments.VerifySet(plan, set, excused); err != nil {
		return err
	}
	experiments.ReportArtifactFailures(os.Stderr, failed)
	experiments.Render(os.Stdout, plan, set)
	return failedJobsError(len(failed), len(plan.Jobs))
}

// runServe compiles the selected experiments and serves them as a
// distributed-sweep coordinator until every cell job is resolved by -agent
// workers, then writes the merged artifact (-out) or renders the tables —
// either way byte-identical to an unsharded local run of the same flags
// (docs/DISTRIBUTED.md). With -state the run is crash-safe: the address is
// bound (and served 503 + Retry-After) before any journal replay, so a
// restarted coordinator picks up a half-finished run where it left off
// while its surviving agents retry into the recovery gate.
func runServe(addr, exp string, graphs int, seed int64, quick, fullModels bool,
	leaseTimeout time.Duration, batch int, stateDir string, snapshotEvery int, token, out string) error {

	specs, err := specsFromFlags(exp, graphs, seed, quick, fullModels)
	if err != nil {
		return err
	}
	coord, err := distrib.ServeRecovering(addr, os.Stderr, func() (*distrib.Coordinator, error) {
		return distrib.NewCoordinator(specs, distrib.CoordinatorOptions{
			LeaseTimeout:  leaseTimeout,
			BatchSize:     batch,
			StateDir:      stateDir,
			SnapshotEvery: snapshotEvery,
			Token:         token,
		})
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	art := coord.Artifact()
	experiments.ReportArtifactFailures(os.Stderr, art.Failures)
	if out != "" {
		if err := art.WriteFile(out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d cells to %s (merged distributed run)\n", len(art.Cells), out)
		return failedJobsError(len(art.Failures), len(coord.Plan().Jobs))
	}
	set := results.NewSet()
	for _, c := range art.Cells {
		if err := set.Add(c); err != nil {
			return err
		}
	}
	experiments.Render(os.Stdout, coord.Plan(), set)
	return failedJobsError(len(art.Failures), len(coord.Plan().Jobs))
}

// runAgent joins a coordinator as a pull-based worker until the run is
// done. The coordinator defines the experiments; only the local execution
// knobs (-workers, -cache, -worker-id) apply here.
func runAgent(url, workerID string, workers int, cacheDir, token string) error {
	a := &distrib.Agent{URL: url, Worker: workerID, Workers: workers, Token: token}
	if cacheDir != "" {
		cache, err := results.OpenCache(cacheDir)
		if err != nil {
			return err
		}
		a.Cache = cache
	}
	rep, err := a.Run(context.Background())
	if err != nil {
		return err
	}
	if rep.Failed > 0 {
		return fmt.Errorf("%d of this agent's %d jobs failed (the coordinator recorded them)", rep.Failed, rep.Jobs)
	}
	return nil
}

// runStatus fetches and pretty-prints a coordinator's /v1/status report.
func runStatus(url, token string) error {
	st, err := distrib.FetchStatus(context.Background(), nil, url, token)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}
