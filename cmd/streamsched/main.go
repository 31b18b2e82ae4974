// Command streamsched schedules a canonical task graph onto an abstract
// dataflow device and reports the streaming schedule, the FIFO buffer sizes
// required for deadlock freedom, and (optionally) a discrete-event
// validation of the result.
//
// Usage:
//
//	streamsched -synth chain -size 8 -pes 4                 # generated input
//	streamsched -graph app.json -pes 16 -variant rlx -sim   # JSON input
//	streamsched -model encoder -pes 256                     # ML model graphs
//	streamsched -synth fft -size 32 -sweep 32,64,96,128     # parallel PE sweep
//	streamsched -serve :8080                                # always-on service
//	streamsched -loadtest -rate 20 -requests 600            # in-process load test
//	streamsched -loadgen http://127.0.0.1:8080 -rate 50     # load a live service
//
// JSON graphs list canonical nodes (kind: compute/buffer/source/sink with
// per-edge in/out volumes) and edges as node-index pairs; see
// examples/quickstart for the builder API.
//
// -sweep schedules the graph at every PE count of a comma-separated list on
// the worker pool of internal/experiments (-workers goroutines, default
// GOMAXPROCS) and prints one table row per PE count. To regenerate the
// paper's full evaluation — including sharding across processes, artifact
// merging, and the persistent results cache — use cmd/experiments;
// docs/ARCHITECTURE.md maps how the two commands share the scheduling and
// experiment layers.
//
// -serve runs the always-on scheduling service of internal/service:
// streaming JSON submissions on POST /v1/submit, long-pollable results on
// GET /v1/result/{id}, health on GET /v1/statusz, admission control
// (-queue-cap, 429 + Retry-After past the cap), and -workers workers that
// each take the next job in weighted fair order the moment they are free.
// SIGINT/SIGTERM drains in-flight jobs before exiting.
// docs/SERVICE.md documents the protocol and the load-test workflow.
//
// Each mode reads its own flags (modeFlags); setting a flag the selected
// mode would ignore is an error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/noc"
	"repro/internal/results"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/trace"
)

// modelHelp names the -model graphs: the onnx:* workloads of the
// experiment tables, without the prefix (TestModelHelpNamesWorkloads).
const modelHelp = "resnet, encoder, vgg, mlp, or the published sizes resnet-full, encoder-full, vgg-full, mlp-deep"

// config is the parsed command line: every flag's value and the names of
// the flags set explicitly.
type config struct {
	graphPath, synth, model string
	size                    int
	seed                    int64
	pes                     int
	variant                 string
	sim                     bool
	dotPath, tracePath      string
	tasks, gantt            bool
	place, pipeline         bool
	sweep                   string
	workers                 int
	list                    bool

	// Service mode.
	serve                string
	queueCap             int
	tenants, shed, cache string

	// Load-test modes.
	loadgen                   string
	loadtest                  bool
	rate                      float64
	requests                  int
	dist, workload, tenantMix string
	loadOut                   string

	explicit map[string]bool
}

// parseFlags parses args into a config on fs.
func parseFlags(fs *flag.FlagSet, args []string) (config, error) {
	var c config
	fs.StringVar(&c.graphPath, "graph", "", "JSON task graph to schedule")
	fs.StringVar(&c.synth, "synth", "", "generate a synthetic graph: chain, fft, gaussian, cholesky")
	fs.StringVar(&c.model, "model", "", "generate an ML model graph: "+modelHelp)
	fs.IntVar(&c.size, "size", 8, "synthetic size parameter (tasks, points, matrix, or tiles)")
	fs.Int64Var(&c.seed, "seed", 1, "random seed for synthetic volumes (and load-test arrivals)")
	fs.IntVar(&c.pes, "pes", 4, "number of processing elements")
	fs.StringVar(&c.variant, "variant", "lts", "spatial block heuristic: lts or rlx")
	fs.BoolVar(&c.sim, "sim", false, "validate the schedule with the discrete-event simulator")
	fs.StringVar(&c.dotPath, "dot", "", "write the task graph in Graphviz DOT format to this file")
	fs.BoolVar(&c.tasks, "tasks", false, "print the per-task schedule table")
	fs.BoolVar(&c.gantt, "gantt", false, "print an ASCII Gantt chart of the schedule")
	fs.StringVar(&c.tracePath, "trace", "", "write a Chrome trace-event JSON file of the schedule")
	fs.BoolVar(&c.place, "place", false, "place blocks on a 2D mesh NoC and report congestion")
	fs.BoolVar(&c.pipeline, "pipeline", false, "report steady-state pipelining of repeated iterations")
	fs.StringVar(&c.sweep, "sweep", "", "schedule at every PE count of this comma-separated list, in parallel")
	fs.IntVar(&c.workers, "workers", 0, "worker goroutines for -sweep and -serve (default GOMAXPROCS / NumCPU)")
	fs.BoolVar(&c.list, "list-variants", false, "list the experiments, variants, and workloads, then exit")

	fs.StringVar(&c.serve, "serve", "", "run as an always-on scheduling service on this address (e.g. :8080)")
	fs.IntVar(&c.queueCap, "queue-cap", service.DefaultQueueCap, "admission cap on queued+running jobs; past it submissions get 429 + Retry-After")
	fs.StringVar(&c.tenants, "tenants", "", "tenant contract for -serve/-loadtest: a JSON file path or inline JSON object (weights, max_open quotas, slo_ms; SIGHUP reloads a file)")
	fs.StringVar(&c.shed, "shed", "", "load-shed policy at a full queue: tail-drop (default), largest-graph-first, or over-quota-first")
	fs.StringVar(&c.cache, "cache", "", "persistent result-cache directory: schedule reports are reused across submissions and service restarts")

	fs.StringVar(&c.loadgen, "loadgen", "", "drive an open-loop load test against a running service at this base URL")
	fs.BoolVar(&c.loadtest, "loadtest", false, "run an in-process load test: spins up a service (no socket) and drives it")
	fs.Float64Var(&c.rate, "rate", 20, "load-test arrival rate, requests per second")
	fs.IntVar(&c.requests, "requests", 600, "load-test request count")
	fs.StringVar(&c.dist, "dist", service.DistPoisson, "load-test arrival process: poisson or uniform")
	fs.StringVar(&c.workload, "workload", "synth:fft", "workload submitted by the load test (see -list-variants)")
	fs.StringVar(&c.tenantMix, "tenant-mix", "", "load-test tenant mix: name=share[@slo_ms][/workload],... (see docs/SERVICE.md)")
	fs.StringVar(&c.loadOut, "load-out", "", "write the load-test JSON artifact ("+service.LoadSchema+") to this file")

	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	c.explicit = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { c.explicit[f.Name] = true })
	return c, nil
}

func main() {
	c, _ := parseFlags(flag.CommandLine, os.Args[1:]) // exits on a bad flag

	// Only the modes that read ctx hold SIGINT/SIGTERM: the first signal
	// cancels the run (the service drains, a load test stops issuing) and
	// a second kills the process the default way. A batch run or a sweep
	// reads no context, so nothing holds the signal: the first ends it.
	ctx, stop := context.Background(), func() {}
	switch c.mode() {
	case "-serve", "-loadtest", "-loadgen":
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		context.AfterFunc(ctx, stop)
	}
	err := run(ctx, c, os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamsched:", err)
		os.Exit(1)
	}
}

// Flag groups that more than one mode reads.
var (
	graphFlags   = []string{"graph", "synth", "model", "size", "seed", "variant"}
	serviceFlags = []string{"pes", "workers", "queue-cap", "tenants", "shed", "cache"}
	loadFlags    = []string{"pes", "variant", "sim", "seed", "workload", "rate", "requests", "dist", "tenant-mix", "load-out"}
)

// modeFlags maps each exclusive mode to the flags it reads. Any other flag
// set beside the mode would be silently ignored, so run rejects it.
var modeFlags = map[string]experiments.ModeFlags{
	"-list-variants": {Allowed: []string{"list-variants"}},
	"-serve":         {Allowed: append([]string{"serve"}, serviceFlags...), Why: " (submissions carry the graph and its options)"},
	"-loadtest":      {Allowed: slices.Concat([]string{"loadtest"}, serviceFlags, loadFlags), Why: " (it submits -workload)"},
	"-loadgen":       {Allowed: append([]string{"loadgen"}, loadFlags...), Why: " (the remote service has its own options)"},
	"-sweep":         {Allowed: append([]string{"sweep", "workers"}, graphFlags...), Why: " (it prints one summary row per PE count)"},
	"a batch run": {Allowed: append([]string{"pes", "sim", "dot", "tasks", "gantt", "trace", "place", "pipeline"}, graphFlags...),
		Why: " (it schedules one graph at -pes)"},
}

// mode names the mode c selects, a key of modeFlags.
func (c *config) mode() string {
	switch {
	case c.list:
		return "-list-variants"
	case c.serve != "":
		return "-serve"
	case c.loadgen != "":
		return "-loadgen"
	case c.loadtest:
		return "-loadtest"
	case c.sweep != "":
		return "-sweep"
	}
	return "a batch run"
}

// run executes the mode c selects until it finishes or ctx is cancelled,
// writing results to stdout and progress to stderr.
func run(ctx context.Context, c config, stdout, stderr io.Writer) error {
	mode := c.mode()
	if err := experiments.CheckModeFlags(modeFlags, mode, c.explicit); err != nil {
		return err
	}
	switch mode {
	case "-list-variants":
		experiments.ListVariants(stdout)
		return nil
	case "-serve":
		opt, err := c.serviceOptions(c.pes)
		if err != nil {
			return err
		}
		// SIGHUP reloads the tenant contract only when it came from a
		// file (inline JSON has nothing new to read).
		reloadPath := ""
		if t := strings.TrimSpace(c.tenants); t != "" && !strings.HasPrefix(t, "{") {
			reloadPath = t
		}
		return runServe(ctx, c.serve, opt, reloadPath, stderr)
	case "-loadgen", "-loadtest":
		return runLoadTest(ctx, c, stdout, stderr)
	}

	tg, err := loadGraph(c.graphPath, c.synth, c.model, c.size, c.seed)
	if err != nil {
		return err
	}
	v, err := schedule.ParseVariant(c.variant)
	if err != nil {
		return err
	}
	if mode == "-sweep" {
		return runSweep(stdout, tg, v, c.sweep, c.workers)
	}
	return runBatch(stdout, c, tg, v)
}

// runBatch evaluates tg once and prints the summary from the service's
// report, then the views the flags ask for.
func runBatch(stdout io.Writer, c config, tg *core.TaskGraph, v schedule.Variant) error {
	ec := experiments.NewEvalContext()
	ev, err := ec.Evaluate(tg, c.pes, v, c.sim)
	if err != nil {
		return err
	}
	res := ev.Res
	rep := service.NewReport(ec, tg, c.pes, c.variant, ev)
	fmt.Fprintf(stdout, "graph: %d nodes (%d compute), %d edges\n", rep.Nodes, rep.ComputeNodes, rep.Edges)
	fmt.Fprintf(stdout, "schedule (%s, %d PEs): %d spatial blocks, makespan %.0f\n", v, rep.PEs, rep.Blocks, rep.Makespan)
	fmt.Fprintf(stdout, "T1 %.0f   speedup %.2f   SSLR %.3f   utilization %.1f%%\n",
		rep.SequentialTime, rep.Speedup, rep.SSLR, 100*rep.Utilization)
	fmt.Fprintf(stdout, "buffers: %d streaming edges, %d on undirected cycles, %d total FIFO slots on cycle edges\n",
		rep.StreamingEdges, rep.CycleEdges, rep.BufferSlots)

	if c.tasks {
		printTasks(stdout, tg, res)
	}
	if c.gantt {
		fmt.Fprint(stdout, trace.Gantt(tg, res, 100))
		fmt.Fprint(stdout, trace.Summary(tg, res))
	}
	if c.tracePath != "" {
		if err := writeFile(stdout, c.tracePath, func(w io.Writer) error {
			return trace.WriteChromeTrace(w, tg, res)
		}); err != nil {
			return err
		}
	}
	if c.place {
		mesh := noc.NewMesh(c.pes)
		// The seed flag deterministically drives the annealer; equal inputs
		// give byte-identical placement reports.
		_, costs, err := noc.PlaceAll(tg, res, mesh, 2000, c.seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "placement on %dx%d mesh (annealed):\n", mesh.W, mesh.H)
		for b, cost := range costs {
			fmt.Fprintf(stdout, "  block %2d: hop-volume %.0f, max link load %.0f, avg hops %.2f, congestion x%.2f\n",
				b, cost.TotalHopVolume, cost.MaxLinkLoad, cost.AvgHops, cost.CongestionFactor())
		}
	}
	if c.pipeline {
		p := schedule.AnalyzePipeline(tg, res)
		fmt.Fprintf(stdout, "pipeline: latency %.0f, initiation interval %.0f, steady-state throughput %.3g iters/cycle\n",
			p.Latency, p.InitiationInterval, p.Throughput())
	}
	if st := rep.Sim; st != nil {
		if st.Deadlocked {
			fmt.Fprintf(stdout, "simulation: DEADLOCK at cycle %d\n", st.DeadlockCycle)
		} else {
			fmt.Fprintf(stdout, "simulation: makespan %.0f (relative error %+.2f%%), no deadlock\n",
				st.Makespan, 100*st.RelativeError)
		}
	}
	if c.dotPath != "" {
		return writeFile(stdout, c.dotPath, func(w io.Writer) error {
			_, err := io.WriteString(w, tg.DOT("taskgraph"))
			return err
		})
	}
	return nil
}

// writeFile creates path, fills it with write, closes it — a failed close
// fails the write — and reports the file on stdout.
func writeFile(stdout io.Writer, path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

// loadGraph builds the task graph selected by exactly one of path (a JSON
// graph file), synthName (a generated topology), or model (an onnx:*
// workload of the experiment tables). size and seed parameterize the
// synthetic generators; model graphs are static and ignore both.
func loadGraph(path, synthName, model string, size int, seed int64) (*core.TaskGraph, error) {
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
	return buildSynth(synthName, size, seed)
}

// buildSynth generates one synthetic topology instance. The graph is a
// pure function of (name, size, seed).
func buildSynth(name string, size int, seed int64) (*core.TaskGraph, error) {
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

// runSweep schedules tg at every PE count of the comma-separated list on
// the experiments worker pool and writes one table row per PE count, in
// list order.
func runSweep(w io.Writer, tg *core.TaskGraph, v schedule.Variant, list string, workers int) error {
	var pes []int
	for _, s := range strings.Split(list, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || p < 1 {
			return fmt.Errorf("bad -sweep entry %q", s)
		}
		pes = append(pes, p)
	}

	rows, errs := experiments.RunIndexed(workers, len(pes), experiments.NewEvalContext, func(ctx *experiments.EvalContext, i int) (string, error) {
		p := pes[i]
		ev, err := ctx.Evaluate(tg, p, v, false)
		if err != nil {
			return "", err
		}
		res := ev.Res
		return fmt.Sprintf("%6d %8d %10.0f %8.2f %7.1f%%\n",
			p, res.Partition.NumBlocks(), res.Makespan, res.Speedup(tg), 100*res.Utilization(tg, p)), nil
	})

	fmt.Fprintf(w, "sweep (%s): %d nodes, %d PE configurations\n", v, tg.Len(), len(pes))
	fmt.Fprintf(w, "%6s %8s %10s %8s %8s\n", "PEs", "blocks", "makespan", "speedup", "util")
	failed := 0
	for i, row := range rows {
		if errs[i] != nil {
			row = fmt.Sprintf("%6d  FAILED: %v\n", pes[i], errs[i])
			failed++
		}
		fmt.Fprint(w, row)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d sweep entries failed", failed, len(pes))
	}
	return nil
}

// printTasks writes the per-task schedule table, ordered by block then
// start time.
func printTasks(w io.Writer, tg *core.TaskGraph, res *schedule.Result) {
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

// serviceOptions builds the service configuration of -serve and
// -loadtest; defaultPEs is the device of submissions that leave pes unset.
func (c *config) serviceOptions(defaultPEs int) (service.Options, error) {
	tenants, err := service.ParseTenantsArg(c.tenants)
	if err != nil {
		return service.Options{}, err
	}
	policy, err := service.ParseShedPolicy(c.shed)
	if err != nil {
		return service.Options{}, err
	}
	opt := service.Options{
		QueueCap:   c.queueCap,
		Workers:    c.workers,
		DefaultPEs: defaultPEs,
		Tenants:    tenants,
		ShedPolicy: policy,
	}
	if c.cache != "" {
		if opt.Cache, err = results.OpenCache(c.cache); err != nil {
			return service.Options{}, err
		}
	}
	return opt, nil
}

// runServe runs the always-on scheduling service until ctx is cancelled,
// then drains: in-flight and queued jobs complete, new submissions get
// 503, and the process exits 0 on a clean drain. SIGHUP reloads the
// tenant contract from tenantsPath (when the -tenants flag named a
// file); a malformed file is logged and the running contract kept.
func runServe(ctx context.Context, addr string, opt service.Options, tenantsPath string, stderr io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s := service.New(opt)
	s.Start()
	defer context.AfterFunc(ctx, func() { fmt.Fprintln(stderr, "streamsched: draining...") })()

	if tenantsPath != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				if err := s.ReloadTenantsFile(tenantsPath); err != nil {
					fmt.Fprintf(stderr, "streamsched: tenants reload failed: %v\n", err)
				} else {
					fmt.Fprintf(stderr, "streamsched: reloaded tenant contract from %s\n", tenantsPath)
				}
			}
		}()
	}

	fmt.Fprintf(stderr, "streamsched: serving on %s (queue cap %d, workers %d, shed %s)\n",
		addr, opt.QueueCap, s.Status().Workers, opt.ShedPolicy)

	// Stop accepting connections first, then drain the job queue.
	err = httpapi.Serve(ln, s.Handler(), ctx.Done(), 30*time.Second)
	if ctx.Err() == nil {
		return err // the server failed before any signal
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if cerr := s.Close(drainCtx); cerr != nil {
		return fmt.Errorf("drain: %w", cerr)
	}
	if err != nil {
		return err
	}
	st := s.Status()
	fmt.Fprintf(stderr, "streamsched: drained (accepted %d, completed %d, rejected %d)\n",
		st.Accepted, st.Completed, st.Rejected)
	return nil
}

// runLoadTest drives one open-loop load test — against a remote service
// (-loadgen URL) or an in-process one (-loadtest) — until it finishes or
// ctx is cancelled, prints the summary, and optionally writes the
// versioned JSON artifact.
func runLoadTest(ctx context.Context, c config, stdout, stderr io.Writer) error {
	mix, err := service.ParseTenantMix(c.tenantMix)
	if err != nil {
		return err
	}
	req := service.SubmitRequest{
		Workload: c.workload,
		Seed:     c.seed,
		PEs:      c.pes,
		Variant:  c.variant,
		Simulate: c.sim,
	}
	var target service.Target
	var local *service.Service
	if c.loadgen != "" {
		target = &service.HTTPTarget{Client: &service.Client{Base: c.loadgen}, Req: req}
	} else {
		opt, err := c.serviceOptions(service.DefaultPEs)
		if err != nil {
			return err
		}
		local = service.New(opt)
		local.Start()
		target = &service.LocalTarget{Service: local, Req: req}
	}
	cfg := service.LoadConfig{
		Requests: c.requests,
		Rate:     c.rate,
		Dist:     c.dist,
		Seed:     c.seed,
		Timeout:  time.Minute,
		Tenants:  mix,
	}

	fmt.Fprintf(stderr, "loadgen: %d requests at %.3g/s (%s arrivals, seed %d, workload %s)\n",
		cfg.Requests, cfg.Rate, cfg.Dist, cfg.Seed, c.workload)
	rep, err := service.RunLoad(ctx, cfg, target, nil)
	if err != nil {
		return err
	}
	if local != nil {
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := local.Close(drainCtx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	}

	fmt.Fprintf(stdout, "requests %d  accepted %d  rejected %d (%.1f%%)  completed %d  shed %d  errors %d  dropped %d\n",
		rep.Requests, rep.Accepted, rep.Rejected, 100*rep.RejectionRate, rep.Completed, rep.Shed, rep.Errors, rep.Dropped())
	fmt.Fprintf(stdout, "elapsed %.2fs  throughput %.2f/s\n", rep.ElapsedMs/1000, rep.ThroughputPerSec)
	fmt.Fprintf(stdout, "latency p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms\n",
		rep.Latency.P50Ms, rep.Latency.P95Ms, rep.Latency.P99Ms, rep.Latency.MaxMs)
	for _, ts := range rep.Tenants {
		fmt.Fprintf(stdout, "tenant %-12s requests %d  completed %d  rejected %d  shed %d  slo_misses %d  p99 %.2fms\n",
			ts.Name, ts.Requests, ts.Completed, ts.Rejected, ts.Shed, ts.SLOMisses, ts.Latency.P99Ms)
	}

	if c.loadOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.loadOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", c.loadOut)
	}
	if rep.Errors > 0 || rep.Dropped() != 0 {
		return fmt.Errorf("load test unhealthy: %d errors, %d dropped accepted jobs", rep.Errors, rep.Dropped())
	}
	return nil
}
