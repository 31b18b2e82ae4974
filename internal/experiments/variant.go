package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/buffers"
	"repro/internal/core"
	"repro/internal/desim"
	"repro/internal/graph"
	"repro/internal/schedule"
)

// EvalContext is the per-worker evaluation state handed to every variant: a
// reusable partitioner, scheduler and simulator so the hot paths allocate no
// per-run state, plus the engine's timing seam for the measured experiments.
// One context serves one goroutine at a time.
type EvalContext struct {
	// Sched is the worker's scratch streaming scheduler (ST/FO/LO
	// recurrences).
	Sched *schedule.Scheduler
	// Part is the worker's scratch Algorithm 1 partitioner. The Partition
	// it returns is valid only until its next use.
	Part *schedule.Partitioner
	// Sim is the worker's scratch discrete-event simulator.
	Sim *desim.Scratch
	// SimEngine selects the desim engine for every simulation this worker
	// runs (Runner.SimEngine). The zero value is desim.EngineLeap; setting
	// desim.EngineReference is the engine-equivalence test seam. Both
	// engines produce byte-identical Stats, so cells — and their cache keys
	// — do not depend on it.
	SimEngine desim.Engine
	// measure times a region of an evaluation; tests inject a fixed clock to
	// make the measured columns deterministic.
	measure func(func()) time.Duration
}

// SimConfig returns the desim configuration variants must use: the given
// FIFO capacities plus this worker's engine selection.
func (c *EvalContext) SimConfig(caps map[[2]graph.NodeID]int64) desim.Config {
	return desim.Config{FIFOCap: caps, Engine: c.SimEngine}
}

// NewEvalContext returns a context with fresh scratch state and a wall-clock
// measurement, for callers evaluating outside the Runner.
func NewEvalContext() *EvalContext {
	return &EvalContext{
		Sched: schedule.NewScheduler(),
		Part:  schedule.NewPartitioner(),
		Sim:   desim.NewScratch(),
		measure: func(f func()) time.Duration {
			t0 := time.Now()
			f()
			return time.Since(t0)
		},
	}
}

// Evaluation is the output of one pass of the paper pipeline over a graph.
type Evaluation struct {
	// Res is the streaming schedule. Its ST/FO/LO/PE slices are owned by
	// the Result; Res.Partition aliases the context's Part scratch and is
	// valid only until the next Evaluate call on the same context.
	Res *schedule.Result
	// Sizes are the Equation 5 FIFO depths of every streaming edge, set
	// only when simulating.
	Sizes []buffers.EdgeSpace
	// Sim is the Appendix B validation with those FIFO depths, set only
	// when simulating. It aliases the context's Sim scratch and is valid
	// only until the next Evaluate (or Sim.Simulate) call on the context.
	Sim *desim.Stats
}

// Evaluate runs the paper pipeline on one graph with this context's
// scratch: Algorithm 1 with heuristic v on pes processing elements, the
// Section 5.1 ST/FO/LO schedule, and, when simulate is set, the Equation 5
// buffer sizes and the Appendix B discrete-event simulation with them. It is
// the one evaluation path behind the service, the CLI and every streaming
// variant; see Evaluation for which results alias the scratch.
func (c *EvalContext) Evaluate(tg *core.TaskGraph, pes int, v schedule.Variant, simulate bool) (Evaluation, error) {
	part, err := c.Part.Partition(tg, pes, schedule.Options{Variant: v})
	if err != nil {
		return Evaluation{}, err
	}
	res, err := c.Sched.Schedule(tg, part, pes)
	if err != nil {
		return Evaluation{}, err
	}
	ev := Evaluation{Res: res}
	if !simulate {
		return ev, nil
	}
	ev.Sizes = buffers.Sizes(tg, res)
	if ev.Sim, err = c.Sim.Simulate(tg, res, c.SimConfig(buffers.FIFOCaps(ev.Sizes))); err != nil {
		return Evaluation{}, err
	}
	return ev, nil
}

// Measure runs f and reports how long it took on this worker's clock.
func (c *EvalContext) Measure(f func()) time.Duration { return c.measure(f) }

// EvalParams selects how a variant evaluates one graph: the PE count, whether
// the Appendix B discrete-event validation also runs, and the precomputed
// streaming depth of the graph (shared by every SSLR sample).
type EvalParams struct {
	PEs      int
	Simulate bool
	Depth    float64
}

// Variant is one registered evaluation procedure: given a frozen task graph
// and parameters, it produces the named float64 values of a results.Cell.
// A variant's name addresses its cells in shard artifacts and the results
// cache, so evaluation arithmetic must never change under a fixed name —
// changing it requires a new name (and a results.SchemaVersion bump, see
// docs/ARTIFACTS.md).
//
// Variants must be stateless (or internally synchronized): one instance is
// shared by every worker goroutine. Per-evaluation scratch belongs on the
// EvalContext.
type Variant interface {
	// Name is the registry key and the CellKey.Variant value.
	Name() string
	// Metrics declares every value name cells of this variant may carry.
	// Cells may carry a subset (e.g. simulation errors only when Simulate),
	// never a value outside this list — merges validate against it.
	Metrics() []string
	// Eval runs the procedure on one graph.
	Eval(ctx *EvalContext, tg *core.TaskGraph, p EvalParams) (map[string]float64, error)
}

// variantRegistry holds the registered variants; registration happens in
// this package's init, so lookups are read-only afterwards and need no lock.
var (
	variantRegistry = map[string]Variant{}
	variantOrder    []string
)

// RegisterVariant adds a variant to the registry. It panics on an empty name,
// a nil metric list, or a duplicate registration: variants address persistent
// artifacts, so two procedures under one name would silently corrupt caches.
func RegisterVariant(v Variant) {
	name := v.Name()
	if name == "" {
		panic("experiments: RegisterVariant: empty variant name")
	}
	if len(v.Metrics()) == 0 {
		panic(fmt.Sprintf("experiments: RegisterVariant(%q): variant declares no metrics", name))
	}
	if _, dup := variantRegistry[name]; dup {
		panic(fmt.Sprintf("experiments: RegisterVariant(%q): already registered", name))
	}
	variantRegistry[name] = v
	variantOrder = append(variantOrder, name)
}

// LookupVariant returns the registered variant with the given name.
func LookupVariant(name string) (Variant, error) {
	v, ok := variantRegistry[name]
	if !ok {
		return nil, fmt.Errorf("unknown variant %q (see -list-variants)", name)
	}
	return v, nil
}

// mustVariant is LookupVariant for compile paths whose names are registered
// by this package itself.
func mustVariant(name string) Variant {
	v, err := LookupVariant(name)
	if err != nil {
		panic(err)
	}
	return v
}

// VariantNames returns every registered variant name, sorted.
func VariantNames() []string {
	names := append([]string(nil), variantOrder...)
	sort.Strings(names)
	return names
}
