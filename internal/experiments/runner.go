package experiments

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/desim"
	"repro/internal/results"
	"repro/internal/schedule"
)

// Job is the human-readable identity of one cell job, used in reports and
// failure records.
type Job struct {
	// Family is the synthetic topology or model name.
	Family string
	// Graph is the instance index within the family (0 for the static
	// model graphs).
	Graph int
	// PEs is the evaluated PE count (0 for the Figure 12 jobs, which use
	// as many PEs as the graph has compute nodes).
	PEs int
	// Variant is the evaluation procedure (VariantLTS, VariantFig12Str, ...).
	Variant string
	// Simulate marks sweep jobs that also ran the discrete-event validation.
	Simulate bool
}

func (j Job) String() string {
	s := fmt.Sprintf("%s/g%d/P%d/%s", j.Family, j.Graph, j.PEs, j.Variant)
	if j.Simulate {
		s += "+sim"
	}
	return s
}

// JobTiming reports how long one job took on its worker, and whether its
// cell was served by the persistent results cache instead of being
// recomputed.
type JobTiming struct {
	Job      Job
	Duration time.Duration
	Cached   bool
}

// JobFailure pairs a failed job with its error. Failures are collected per
// job instead of aborting the run, so one pathological graph cannot sink a
// multi-hour sweep.
type JobFailure struct {
	Job Job
	Err error
}

func (f JobFailure) Error() string { return fmt.Sprintf("%s: %v", f.Job, f.Err) }

// Report summarizes one engine run: job counts, per-job timings in job
// enumeration order, cache hits, and every failure.
type Report struct {
	Jobs      int           // jobs this run executed
	Completed int           // jobs that produced a cell
	CacheHits int           // completed jobs served by the results cache
	Elapsed   time.Duration // wall-clock time of the whole run
	Work      time.Duration // sum of per-job durations (CPU-side work)
	Timings   []JobTiming
	Failures  []JobFailure
}

// Runner is the concurrent experiment engine: it spreads cell jobs across
// RunIndexed's pool of worker goroutines, collects their results in job
// order, and memoizes graph construction behind a thread-safe cache.
// Every experiment of the paper — the Fig10/11/13 sweeps, the Fig12 CSDF
// comparison, the Table 2 model rows, and the buffer ablation — compiles
// to jobs on this engine (Compile), and the aggregate it produces is
// byte-identical to the sequential reference regardless of worker count.
type Runner struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Only, when non-nil, runs exactly the listed job indices instead of
	// the whole plan. This is how a distributed-sweep agent
	// (internal/distrib) executes the job batches its coordinator leases to
	// it: the coordinator picks indices into the shared compiled plan, and
	// the agent runs just those. Order and repeats do not matter, and
	// out-of-range indices are skipped.
	Only []int
	// SimEngine selects the desim engine every worker uses. The zero value
	// is desim.EngineLeap; desim.EngineReference is the engine-equivalence
	// test seam. Both engines produce byte-identical Stats, so cells and
	// cache keys are engine-independent.
	SimEngine desim.Engine
	// Results, when set, is the persistent cell cache: a job whose
	// (graph fingerprint, PEs, variant, simulate) content key is already
	// stored returns the stored values instead of recomputing, and newly
	// computed cells are stored for future runs. Hits are visible as
	// Cached timings in the Report.
	Results *results.Cache

	// measureFn, when set, replaces the wall-clock measurement of timed
	// experiment sections (Figure 12); tests inject a fixed-duration clock
	// to make timing columns deterministic.
	measureFn func(func()) time.Duration
	// failHook, when set, injects an error for matching jobs; used by tests
	// to exercise failure collection.
	failHook func(Job) error
}

func (r Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// GraphCache memoizes graph constructions so that concurrent jobs touching
// the same graph share a single frozen TaskGraph (with its streaming depth
// and content fingerprint) instead of rebuilding it per job. Frozen graphs
// are immutable, so sharing across goroutines is safe. Concurrent Gets for
// the same key block until the single build completes.
type GraphCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	builds  int
}

type cacheEntry struct {
	once   sync.Once
	tg     *core.TaskGraph
	depth  float64 // schedule.StreamingDepth, shared by every SSLR sample
	fpOnce sync.Once
	fp     string // results.Fingerprint, computed only when a results cache needs it
}

// NewGraphCache returns an empty thread-safe cache.
func NewGraphCache() *GraphCache {
	return &GraphCache{entries: make(map[string]*cacheEntry)}
}

func (c *GraphCache) entry(key string, build func() *core.TaskGraph) *cacheEntry {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.tg = build()
		e.depth = schedule.StreamingDepth(e.tg)
		c.mu.Lock()
		c.builds++
		c.mu.Unlock()
	})
	return e
}

// Get returns the graph and streaming depth for key, building and memoizing
// them on first use.
func (c *GraphCache) Get(key string, build func() *core.TaskGraph) (*core.TaskGraph, float64) {
	e := c.entry(key, build)
	return e.tg, e.depth
}

// Fingerprint returns the content fingerprint of the graph under key,
// computing and memoizing it (and the graph itself) on first use.
func (c *GraphCache) Fingerprint(key string, build func() *core.TaskGraph) string {
	e := c.entry(key, build)
	e.fpOnce.Do(func() { e.fp = results.Fingerprint(e.tg) })
	return e.fp
}

// Builds reports how many keys were actually constructed (cache misses).
func (c *GraphCache) Builds() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.builds
}

// RunPlan executes a compiled plan's jobs (all of them, or Only's, sorted
// and deduplicated) on RunIndexed's pool, memoizing graphs in the plan's
// cache (shared with table rendering), and collects the produced cells in
// job order into a set ready for rendering or artifact writing, plus the
// run report. It is the one engine path.
func (r Runner) RunPlan(p *Plan) (*results.Set, Report) {
	start := time.Now()
	jobs, graphs := p.Jobs, p.graphs

	idx := slices.Clone(r.Only)
	if r.Only == nil {
		idx = make([]int, len(jobs))
		for i := range idx {
			idx[i] = i
		}
	}
	idx = slices.DeleteFunc(idx, func(i int) bool { return i < 0 || i >= len(jobs) })
	slices.Sort(idx)
	idx = slices.Compact(idx)

	type jobOut struct {
		cell   *results.Cell
		cached bool
		dur    time.Duration
	}
	outs, errs := RunIndexed(r.workers(), len(idx), r.newContext, func(ws *EvalContext, k int) (jobOut, error) {
		t0 := time.Now()
		cell, cached, err := r.runCellJob(jobs[idx[k]], graphs, ws)
		return jobOut{cell: cell, cached: cached, dur: time.Since(t0)}, err
	})

	set := results.NewSet()
	rep := Report{Jobs: len(idx)}
	for k, out := range outs {
		job := jobs[idx[k]].Job
		rep.Work += out.dur
		rep.Timings = append(rep.Timings, JobTiming{Job: job, Duration: out.dur, Cached: out.cached})
		if errs[k] != nil {
			rep.Failures = append(rep.Failures, JobFailure{Job: job, Err: errs[k]})
			continue
		}
		rep.Completed++
		if out.cached {
			rep.CacheHits++
		}
		if err := set.Add(*out.cell); err != nil {
			// Compile deduplicates keys, so a collision here is a bug in
			// the job grid.
			panic(err)
		}
	}
	rep.Elapsed = time.Since(start)
	return set, rep
}

// newContext returns one worker's evaluation context, with the run's
// simulation engine and, in tests, its fixed clock.
func (r Runner) newContext() *EvalContext {
	ws := NewEvalContext()
	ws.SimEngine = r.SimEngine
	if r.measureFn != nil {
		ws.measure = r.measureFn
	}
	return ws
}

// runCellJob executes one job: fetch (or build) the graph, consult the
// persistent results cache, and only on a miss run the job's variant and
// store its values.
func (r Runner) runCellJob(job CellJob, graphs *GraphCache, ws *EvalContext) (*results.Cell, bool, error) {
	if r.failHook != nil {
		if err := r.failHook(job.Job); err != nil {
			return nil, false, err
		}
	}
	tg, depth := graphs.Get(job.graphKey, job.build)

	var contentKey results.CellKey
	if r.Results != nil {
		contentKey = job.Key
		contentKey.Graph = graphs.Fingerprint(job.graphKey, job.build)
		if hit, ok := r.Results.Get(contentKey); ok {
			return &results.Cell{Key: job.Key, Label: job.Job.String(), Values: hit.Values}, true, nil
		}
	}

	vals, err := job.variant.Eval(ws, tg, EvalParams{PEs: job.Job.PEs, Simulate: job.Job.Simulate, Depth: depth})
	if err != nil {
		return nil, false, err
	}
	if r.Results != nil {
		stored := results.Cell{Key: contentKey, Label: job.Job.String(), Values: vals}
		if err := r.Results.Put(stored); err != nil {
			// A full disk must not sink the run; the cell is still returned.
			fmt.Fprintf(os.Stderr, "experiments: results cache: %v\n", err)
		}
	}
	return &results.Cell{Key: job.Key, Label: job.Job.String(), Values: vals}, false, nil
}

// sweepPointsFromSet folds one sweep family's cells into SweepPoints in
// the sequential loop's enumeration order (graphs outermost, then PEs,
// then LTS/RLX/NSTR), skipping cells that failed or were not run. The append order — and therefore the rendered table — matches
// the sequential reference bit for bit.
func sweepPointsFromSet(set *results.Set, f *synthWorkload, opt Options, simulate bool) []SweepPoint {
	pes := f.topo.PEs
	points := make([]SweepPoint, len(pes))
	for i, p := range pes {
		points[i].PEs = p
	}
	// One explicit fold per sweep variant, visited in the sequential loop's
	// LTS/RLX/NSTR order.
	foldStreaming := func(pt *SweepPoint, v map[string]float64,
		speedup, sslr, util, errs *[]float64) {
		*speedup = append(*speedup, v["speedup"])
		*sslr = append(*sslr, v["sslr"])
		*util = append(*util, v["util"])
		if simulate {
			*errs = append(*errs, v["simerr"]*100)
		}
		if v["deadlock"] == 1 {
			pt.Deadlocks++
		}
	}
	for g := 0; g < opt.Graphs; g++ {
		gid := f.GraphID(opt, g)
		for i, p := range pes {
			pt := &points[i]
			if cell, ok := set.Get(cellKey(gid, p, VariantLTS, simulate)); ok {
				foldStreaming(pt, cell.Values, &pt.SpeedupLTS, &pt.SSLRLTS, &pt.UtilLTS, &pt.ErrLTS)
			}
			if cell, ok := set.Get(cellKey(gid, p, VariantRLX, simulate)); ok {
				foldStreaming(pt, cell.Values, &pt.SpeedupRLX, &pt.SSLRRLX, &pt.UtilRLX, &pt.ErrRLX)
			}
			if cell, ok := set.Get(cellKey(gid, p, VariantNSTR, simulate)); ok {
				pt.SpeedupNSTR = append(pt.SpeedupNSTR, cell.Values["speedup"])
				pt.UtilNSTR = append(pt.UtilNSTR, cell.Values["util"])
			}
		}
	}
	return points
}

// RunIndexed runs fn(ctx, 0) .. fn(ctx, n-1) on a pool of workers and
// returns the results in index order, with per-index errors (nil on
// success). Each worker builds one context with newContext and passes it
// to all its fn calls. It is the one worker pool, behind Runner.RunPlan and
// commands' own sweeps (e.g. streamsched's multi-P sweep).
func RunIndexed[T any](workers, n int, newContext func() *EvalContext, fn func(ctx *EvalContext, i int) (T, error)) ([]T, []error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	errs := make([]error, n)
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := newContext()
			for i := range idxCh {
				results[i], errs[i] = fn(ctx, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	return results, errs
}
