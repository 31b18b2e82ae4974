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
// GOMAXPROCS; -shard i/n runs only one shard of the list) and prints one
// table row per PE count. To regenerate the paper's full evaluation —
// including sharding across processes, artifact merging, and the
// persistent results cache — use cmd/experiments; docs/ARCHITECTURE.md
// maps how the two commands share the scheduling and experiment layers.
//
// -serve runs the always-on scheduling service of internal/service:
// streaming JSON submissions on POST /v1/submit, long-pollable results on
// GET /v1/result/{id}, health on GET /v1/statusz, admission control
// (-queue-cap, 429 + Retry-After past the cap), and batched scheduling
// ticks (-tick). SIGINT/SIGTERM drains in-flight jobs before exiting.
// docs/SERVICE.md documents the protocol and the load-test workflow.
//
// The batch scheduling and reporting logic lives in internal/streamcli;
// this file only parses flags and routes between the three modes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/httpapi"
	"repro/internal/noc"
	"repro/internal/results"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/streamcli"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "streamsched:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		graphPath = flag.String("graph", "", "JSON task graph to schedule")
		synthName = flag.String("synth", "", "generate a synthetic graph: chain, fft, gaussian, cholesky")
		model     = flag.String("model", "", "generate an ML model graph: resnet, encoder, vgg, mlp (add -full for published sizes)")
		size      = flag.Int("size", 8, "synthetic size parameter (tasks, points, matrix, or tiles)")
		seed      = flag.Int64("seed", 1, "random seed for synthetic volumes (and load-test arrivals)")
		pes       = flag.Int("pes", 4, "number of processing elements")
		variant   = flag.String("variant", "lts", "spatial block heuristic: lts or rlx")
		sim       = flag.Bool("sim", false, "validate the schedule with the discrete-event simulator")
		dotPath   = flag.String("dot", "", "write the task graph in Graphviz DOT format to this file")
		showTasks = flag.Bool("tasks", false, "print the per-task schedule table")
		gantt     = flag.Bool("gantt", false, "print an ASCII Gantt chart of the schedule")
		tracePath = flag.String("trace", "", "write a Chrome trace-event JSON file of the schedule")
		place     = flag.Bool("place", false, "place blocks on a 2D mesh NoC and report congestion")
		pipeline  = flag.Bool("pipeline", false, "report steady-state pipelining of repeated iterations")
		sweepPEs  = flag.String("sweep", "", "schedule at every PE count of this comma-separated list, in parallel")
		workers   = flag.Int("workers", 0, "worker goroutines for -sweep and -serve (default GOMAXPROCS / NumCPU)")
		shard     = flag.String("shard", "", "run only shard i of n sweep entries, format i/n")
		listVar   = flag.Bool("list-variants", false, "list the experiments, variants, and workloads, then exit")

		// Service mode.
		serveAddr  = flag.String("serve", "", "run as an always-on scheduling service on this address (e.g. :8080)")
		queueCap   = flag.Int("queue-cap", service.DefaultQueueCap, "admission cap on queued+running jobs; past it submissions get 429 + Retry-After")
		tick       = flag.Duration("tick", service.DefaultTick, "scheduling-tick period: submissions arriving within one tick are batched")
		tenantsArg = flag.String("tenants", "", "tenant contract for -serve/-loadtest: a JSON file path or inline JSON object (weights, max_open quotas, slo_ms; SIGHUP reloads a file)")
		batchCap   = flag.Int("batch-cap", 0, "max jobs dispatched per scheduling tick (0 = whole queue); a positive cap makes weighted fair queueing bite under backlog")
		shed       = flag.String("shed", "", "load-shed policy at a full queue: tail-drop (default), largest-graph-first, or over-quota-first")
		cacheDir   = flag.String("cache", "", "persistent result-cache directory: schedule reports are reused across submissions and service restarts")

		// Load-test modes.
		loadURL   = flag.String("loadgen", "", "drive an open-loop load test against a running service at this base URL")
		loadTest  = flag.Bool("loadtest", false, "run an in-process load test: spins up a service (no socket) and drives it")
		rate      = flag.Float64("rate", 20, "load-test arrival rate, requests per second")
		requests  = flag.Int("requests", 600, "load-test request count")
		dist      = flag.String("dist", service.DistPoisson, "load-test arrival process: poisson or uniform")
		workload  = flag.String("workload", "synth:fft", "workload submitted by the load test (see -list-variants)")
		tenantMix = flag.String("tenant-mix", "", "load-test tenant mix: name=share[@slo_ms][/workload],... (see docs/SERVICE.md)")
		loadOut   = flag.String("load-out", "", "write the load-test JSON artifact ("+service.LoadSchema+") to this file")
	)
	flag.Parse()

	if *shard != "" && *sweepPEs == "" {
		return fmt.Errorf("-shard only applies to -sweep")
	}
	if *listVar {
		return streamcli.ListVariants(os.Stdout)
	}
	svcOpt := func(defaultPEs int) (service.Options, error) {
		tenants, err := streamcli.ParseTenantsArg(*tenantsArg)
		if err != nil {
			return service.Options{}, err
		}
		policy, err := service.ParseShedPolicy(*shed)
		if err != nil {
			return service.Options{}, err
		}
		opt := service.Options{
			QueueCap:   *queueCap,
			Workers:    *workers,
			Tick:       *tick,
			DefaultPEs: defaultPEs,
			Tenants:    tenants,
			BatchCap:   *batchCap,
			ShedPolicy: policy,
		}
		if *cacheDir != "" {
			cache, err := results.OpenCache(*cacheDir)
			if err != nil {
				return service.Options{}, err
			}
			opt.Cache = cache
		}
		return opt, nil
	}
	if *serveAddr != "" {
		opt, err := svcOpt(*pes)
		if err != nil {
			return err
		}
		// SIGHUP reloads the tenant contract only when it came from a
		// file (inline JSON has nothing new to read).
		reloadPath := ""
		if t := strings.TrimSpace(*tenantsArg); t != "" && !strings.HasPrefix(t, "{") {
			reloadPath = t
		}
		return runServe(*serveAddr, opt, reloadPath)
	}
	if *loadURL != "" || *loadTest {
		opt, err := svcOpt(service.DefaultPEs)
		if err != nil {
			return err
		}
		mix, err := streamcli.ParseTenantMix(*tenantMix)
		if err != nil {
			return err
		}
		return runLoadTest(loadParams{
			url:      *loadURL,
			svcOpt:   opt,
			workload: *workload,
			pes:      *pes,
			variant:  *variant,
			simulate: *sim,
			cfg: service.LoadConfig{
				Requests: *requests,
				Rate:     *rate,
				Dist:     *dist,
				Seed:     *seed,
				Timeout:  time.Minute,
				Tenants:  mix,
			},
			out: *loadOut,
		})
	}

	tg, err := streamcli.LoadGraph(*graphPath, *synthName, *model, *size, *seed)
	if err != nil {
		return err
	}
	v, err := schedule.ParseVariant(*variant)
	if err != nil {
		return err
	}

	if *sweepPEs != "" {
		return streamcli.RunSweep(os.Stdout, tg, v, *sweepPEs, *workers, *shard)
	}

	ev, err := experiments.NewEvalContext().Evaluate(tg, *pes, v, *sim)
	if err != nil {
		return err
	}
	res := ev.Res
	streamcli.PrintSummary(os.Stdout, tg, *pes, v, ev)

	if *showTasks {
		streamcli.PrintTasks(os.Stdout, tg, res)
	}
	if *gantt {
		fmt.Print(trace.Gantt(tg, res, 100))
		fmt.Print(trace.Summary(tg, res))
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := trace.WriteChromeTrace(f, tg, res); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *tracePath)
	}
	if *place {
		mesh := noc.NewMesh(*pes)
		// The seed flag deterministically drives the annealer; equal inputs
		// give byte-identical placement reports.
		_, costs, err := noc.PlaceAll(tg, res, mesh, 2000, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("placement on %dx%d mesh (annealed):\n", mesh.W, mesh.H)
		for b, c := range costs {
			fmt.Printf("  block %2d: hop-volume %.0f, max link load %.0f, avg hops %.2f, congestion x%.2f\n",
				b, c.TotalHopVolume, c.MaxLinkLoad, c.AvgHops, c.CongestionFactor())
		}
	}
	if *pipeline {
		p := schedule.AnalyzePipeline(tg, res)
		fmt.Printf("pipeline: latency %.0f, initiation interval %.0f, steady-state throughput %.3g iters/cycle\n",
			p.Latency, p.InitiationInterval, p.Throughput())
	}

	streamcli.PrintSim(os.Stdout, ev)

	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := f.WriteString(tg.DOT("taskgraph")); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *dotPath)
	}
	return nil
}

// runServe runs the always-on scheduling service until SIGINT/SIGTERM,
// then drains: in-flight and queued jobs complete, new submissions get
// 503, and the process exits 0 on a clean drain. SIGHUP reloads the
// tenant contract from tenantsPath (when the -tenants flag named a
// file); a malformed file is logged and the running contract kept.
func runServe(addr string, opt service.Options, tenantsPath string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s := service.New(opt)
	s.Start()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, func() {
		stop() // a second signal now kills the process the default way
		fmt.Fprintln(os.Stderr, "streamsched: draining...")
	})

	if tenantsPath != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				if err := s.ReloadTenantsFile(tenantsPath); err != nil {
					fmt.Fprintf(os.Stderr, "streamsched: tenants reload failed: %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "streamsched: reloaded tenant contract from %s\n", tenantsPath)
				}
			}
		}()
	}

	fmt.Fprintf(os.Stderr, "streamsched: serving on %s (queue cap %d, batch cap %d, tick %s, shed %s)\n",
		addr, opt.QueueCap, opt.BatchCap, opt.Tick, opt.ShedPolicy)

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
	fmt.Fprintf(os.Stderr, "streamsched: drained (accepted %d, completed %d, rejected %d)\n",
		st.Accepted, st.Completed, st.Rejected)
	return nil
}

type loadParams struct {
	url      string // remote base URL; empty means in-process
	svcOpt   service.Options
	workload string
	pes      int
	variant  string
	simulate bool
	cfg      service.LoadConfig
	out      string
}

// runLoadTest drives one open-loop load test — against a remote service
// (-loadgen URL) or an in-process one (-loadtest) — prints the summary,
// and optionally writes the versioned JSON artifact.
func runLoadTest(p loadParams) error {
	req := service.SubmitRequest{
		Workload: p.workload,
		Seed:     p.cfg.Seed,
		PEs:      p.pes,
		Variant:  p.variant,
		Simulate: p.simulate,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var target service.Target
	var local *service.Service
	if p.url != "" {
		target = &service.HTTPTarget{Client: &service.Client{Base: p.url}, Req: req}
	} else {
		local = service.New(p.svcOpt)
		local.Start()
		target = &service.LocalTarget{Service: local, Req: req}
	}

	fmt.Fprintf(os.Stderr, "loadgen: %d requests at %.3g/s (%s arrivals, seed %d, workload %s)\n",
		p.cfg.Requests, p.cfg.Rate, p.cfg.Dist, p.cfg.Seed, p.workload)
	rep, err := service.RunLoad(ctx, p.cfg, target, nil)
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

	fmt.Printf("requests %d  accepted %d  rejected %d (%.1f%%)  completed %d  shed %d  errors %d  dropped %d\n",
		rep.Requests, rep.Accepted, rep.Rejected, 100*rep.RejectionRate, rep.Completed, rep.Shed, rep.Errors, rep.Dropped())
	fmt.Printf("elapsed %.2fs  throughput %.2f/s\n", rep.ElapsedMs/1000, rep.ThroughputPerSec)
	fmt.Printf("latency p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms\n",
		rep.Latency.P50Ms, rep.Latency.P95Ms, rep.Latency.P99Ms, rep.Latency.MaxMs)
	for _, ts := range rep.Tenants {
		fmt.Printf("tenant %-12s requests %d  completed %d  rejected %d  shed %d  slo_misses %d  p99 %.2fms\n",
			ts.Name, ts.Requests, ts.Completed, ts.Rejected, ts.Shed, ts.SLOMisses, ts.Latency.P99Ms)
	}

	if p.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(p.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", p.out)
	}
	if rep.Errors > 0 || rep.Dropped() != 0 {
		return fmt.Errorf("load test unhealthy: %d errors, %d dropped accepted jobs", rep.Errors, rep.Dropped())
	}
	return nil
}
