// Command experiments regenerates the paper's tables and figures as text.
//
// Usage:
//
//	experiments [-exp all|fig10|...|placement,heft,pipeline] [-graphs N] [-seed S]
//	            [-quick] [-full-models] [-workers N] [-out run.json]
//	            [-cache dir] [-report]
//	            [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz]
//	experiments -serve addr [-lease-timeout d] [-batch N] [-state dir]
//	            [-token t] [-out run.json] [spec flags]
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
// internal/experiments, dispatching through its variant and workload
// tables (-list-variants prints them): -workers sizes the goroutine
// pool (default GOMAXPROCS). -out writes the run's cells to a versioned
// JSON artifact instead of rendering tables (see docs/ARTIFACTS.md).
// -cache points at a persistent results cache keyed by graph content, so
// repeated runs skip already-computed cells; -cache-stats and -cache-gc
// report and prune it. -report summarizes jobs, timings, and cache hits on
// stderr. A run whose jobs partly failed still writes its output but exits
// nonzero.
//
// Simulating experiments run on desim's event-leaping engine (cells are
// byte-identical to the unit-stepping reference loop the tests check it
// against).
// -cpuprofile and -memprofile write pprof profiles of the run — also with
// -agent — so sweep hot spots can be inspected without a test harness.
//
// To split a run across processes or machines, it self-schedules (see
// docs/DISTRIBUTED.md): -serve starts an HTTP job-queue coordinator that
// leases job batches to pull-based workers, requeues the batches of
// workers that die, and — once every job is resolved — writes the
// artifact (-out) or renders the tables, byte-identical to a local run.
// -agent joins a coordinator as a worker, reusing the local worker pool
// (-workers) and the persistent results cache (-cache).
// -status prints a coordinator's progress/failure report as JSON. With
// -state the coordinator journals every accepted result to a directory
// and a killed coordinator restarted with the same flags resumes the run
// with those results kept (docs/DISTRIBUTED.md, "Failure recovery");
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

// config is the parsed command line: every flag's value, the names of the
// flags set explicitly, and the positional arguments (none are read).
type config struct {
	exp                    string
	graphs                 int
	seed                   int64
	quick, fullModels      bool
	workers                int
	out, cacheDir          string
	cacheStats             bool
	cacheGC                time.Duration
	report, list           bool
	serve, agent, workerID string
	leaseTimeout           time.Duration
	batch                  int
	stateDir               string
	token, status          string
	cpuProfile, memProfile string
	explicit               map[string]bool
	args                   []string
}

func main() {
	var c config
	flag.StringVar(&c.exp, "exp", "all", "experiments to run: all, or a comma-separated subset of "+strings.Join(experiments.ExperimentNames(), ","))
	flag.IntVar(&c.graphs, "graphs", 0, "random graphs per topology (default 100, or 15 with -quick)")
	flag.Int64Var(&c.seed, "seed", 1, "base random seed")
	flag.BoolVar(&c.quick, "quick", false, "reduced graph counts and volumes")
	flag.BoolVar(&c.fullModels, "full-models", false, "run Table 2 on full-size model graphs")
	flag.IntVar(&c.workers, "workers", 0, "engine worker goroutines (default GOMAXPROCS)")
	flag.StringVar(&c.out, "out", "", "write this run's cells to a JSON artifact instead of rendering tables")
	flag.StringVar(&c.cacheDir, "cache", "", "persistent results cache directory; computed cells are reused across runs")
	flag.BoolVar(&c.cacheStats, "cache-stats", false, "print cache entry count, bytes, and last-run hit/miss, then exit (requires -cache)")
	flag.DurationVar(&c.cacheGC, "cache-gc", 0, "delete cache entries older than this age (e.g. 168h), then exit (requires -cache)")
	flag.BoolVar(&c.report, "report", false, "print a job/timing/cache summary to stderr")
	flag.BoolVar(&c.list, "list-variants", false, "list the experiments, variants, and workloads, then exit")
	flag.StringVar(&c.serve, "serve", "", "serve the run as a distributed-sweep coordinator on this address (e.g. :8077), then write -out or render tables")
	flag.StringVar(&c.agent, "agent", "", "join the coordinator at this URL as a pull-based worker")
	flag.StringVar(&c.workerID, "worker-id", "", "worker name reported to the coordinator (default host-pid)")
	flag.DurationVar(&c.leaseTimeout, "lease-timeout", distrib.DefaultLeaseTimeout, "with -serve: requeue a leased batch not completed within this duration")
	flag.IntVar(&c.batch, "batch", distrib.DefaultBatchSize, "with -serve: jobs granted per lease")
	flag.StringVar(&c.stateDir, "state", "", "with -serve: journal coordinator state to this directory so a killed coordinator can be restarted with the same flags and resume the run")
	flag.StringVar(&c.token, "token", "", "shared bearer token: required of every client with -serve, sent with -agent and -status")
	flag.StringVar(&c.status, "status", "", "print the status JSON of the coordinator at this URL, then exit")
	flag.StringVar(&c.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	flag.StringVar(&c.memProfile, "memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	flag.Parse()

	c.explicit = map[string]bool{}
	flag.Visit(func(f *flag.Flag) { c.explicit[f.Name] = true })
	c.args = flag.Args()

	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
}

// modeFlags maps each exclusive mode to the flags it reads. Any other flag
// set beside the mode would be silently ignored, so run rejects it.
var modeFlags = map[string]experiments.ModeFlags{
	"-list-variants": {Allowed: []string{"list-variants"}},
	"-status":        {Allowed: []string{"status", "token"}},
	"-agent": {Allowed: []string{"agent", "workers", "cache", "worker-id", "token", "cpuprofile", "memprofile"},
		Why: " (the coordinator defines the run)"},
	"-serve": {Allowed: []string{"serve", "exp", "graphs", "seed", "quick", "full-models",
		"lease-timeout", "batch", "out", "state", "token"},
		Why: " (workers run in -agent processes)"},
	"-cache-stats/-cache-gc": {Allowed: []string{"cache", "cache-stats", "cache-gc"}},
	"a local run": {Allowed: []string{"exp", "graphs", "seed", "quick", "full-models", "workers",
		"out", "cache", "report", "cpuprofile", "memprofile"},
		Why: " (it applies to a coordinator or its clients)"},
}

// mode names the mode c selects, a key of modeFlags.
func (c *config) mode() string {
	switch {
	case c.list:
		return "-list-variants"
	case c.status != "":
		return "-status"
	case c.agent != "":
		return "-agent"
	case c.serve != "":
		return "-serve"
	case c.cacheStats || c.cacheGC != 0:
		return "-cache-stats/-cache-gc"
	}
	return "a local run"
}

func run(c config) error {
	// Check the command line before anything acts on it: a rejected run
	// leaves no profile file behind.
	mode := c.mode()
	if err := experiments.CheckModeFlags(modeFlags, mode, c.explicit); err != nil {
		return err
	}
	if len(c.args) > 0 {
		return fmt.Errorf("unexpected arguments %q", c.args)
	}
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if c.memProfile != "" {
		defer func() {
			f, err := os.Create(c.memProfile)
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

	switch mode {
	case "-list-variants":
		experiments.ListVariants(os.Stdout)
		return nil
	case "-status":
		return runStatus(c.status, c.token)
	case "-agent":
		return runAgent(c.agent, c.workerID, c.workers, c.cacheDir, c.token)
	case "-serve":
		return runServe(c)
	case "-cache-stats/-cache-gc":
		return runCacheMaintenance(c.cacheDir, c.cacheStats, c.cacheGC)
	}
	return runLocal(c)
}

// runLocal runs the selected experiments in this process and renders
// their tables, or writes the cells to -out.
func runLocal(c config) error {
	specs, err := specsFromFlags(c)
	if err != nil {
		return err
	}
	plan, err := experiments.Compile(specs)
	if err != nil {
		return err
	}
	runner := experiments.Runner{Workers: c.workers}
	var cache *results.Cache
	if c.cacheDir != "" {
		cache, err = results.OpenCache(c.cacheDir)
		if err != nil {
			return err
		}
		runner.Results = cache
	}

	set, rep := runner.RunPlan(plan)
	experiments.ReportFailures(os.Stderr, rep)
	if c.report {
		fmt.Fprintf(os.Stderr, "report: %d jobs, %d completed, %d cached, %d failed, elapsed %v, work %v\n",
			rep.Jobs, rep.Completed, rep.CacheHits, len(rep.Failures), rep.Elapsed, rep.Work)
	}
	if cache != nil {
		// Record this run's hit/miss so a later -cache-stats can report it.
		rc := results.RunCounters{Hits: rep.CacheHits, Misses: rep.Completed - rep.CacheHits, When: time.Now()}
		if err := cache.RecordRun(rc); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		}
	}

	if c.out != "" {
		art := &results.Artifact{
			Meta:  experiments.MetaFromSpecs(specs, 0, 1),
			Cells: set.Cells(),
		}
		for _, f := range rep.Failures {
			art.Failures = append(art.Failures, results.Failure{Label: f.Job.String(), Err: f.Err.Error()})
		}
		if err := art.WriteFile(c.out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d cells to %s\n", set.Len(), c.out)
		return failedJobsError(len(rep.Failures), rep.Jobs)
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
func specsFromFlags(c config) ([]experiments.Spec, error) {
	opt := experiments.Defaults()
	if c.quick {
		opt = experiments.Quick()
	}
	if c.graphs > 0 {
		opt.Graphs = c.graphs
	}
	opt.Seed = c.seed
	return buildSpecs(c.exp, opt, c.quick, c.fullModels)
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

// runServe compiles the selected experiments and serves them as a
// distributed-sweep coordinator until every cell job is resolved by -agent
// workers, then writes the artifact (-out) or renders the tables —
// either way byte-identical to a local run of the same flags
// (docs/DISTRIBUTED.md). With -state the run is crash-safe: the address is
// bound (and served 503 + Retry-After) before any journal replay, so a
// restarted coordinator picks up a half-finished run where it left off
// while its surviving agents retry into the recovery gate.
func runServe(c config) error {
	specs, err := specsFromFlags(c)
	if err != nil {
		return err
	}
	coord, err := distrib.ServeRecovering(c.serve, os.Stderr, func() (*distrib.Coordinator, error) {
		return distrib.NewCoordinator(specs, distrib.CoordinatorOptions{
			LeaseTimeout: c.leaseTimeout,
			BatchSize:    c.batch,
			StateDir:     c.stateDir,
			Token:        c.token,
		})
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	art := coord.Artifact()
	experiments.ReportArtifactFailures(os.Stderr, art.Failures)
	if c.out != "" {
		if err := art.WriteFile(c.out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d cells to %s (distributed run)\n", len(art.Cells), c.out)
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
