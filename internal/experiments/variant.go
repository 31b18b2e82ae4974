package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/buffers"
	"repro/internal/core"
	"repro/internal/desim"
	"repro/internal/schedule"
)

// EvalContext is the per-worker evaluation state handed to every variant: a
// reusable partitioner, scheduler, buffer sizer and simulator so the hot
// paths allocate no per-run state, plus the engine's timing seam for the
// measured experiments. One context serves one goroutine at a time.
type EvalContext struct {
	// Sched is the worker's scratch streaming scheduler (ST/FO/LO
	// recurrences).
	Sched *schedule.Scheduler
	// Part is the worker's scratch Algorithm 1 partitioner. The Partition
	// it returns is valid only until its next use.
	Part *schedule.Partitioner
	// Sizer is the worker's scratch Equation 5 buffer sizer.
	Sizer *buffers.Sizer
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
func (c *EvalContext) SimConfig(caps []buffers.EdgeSpace) desim.Config {
	return desim.Config{FIFOCap: caps, Engine: c.SimEngine}
}

// NewEvalContext returns a context with fresh scratch state and a wall-clock
// measurement, for callers evaluating outside the Runner.
func NewEvalContext() *EvalContext {
	return &EvalContext{
		Sched: schedule.NewScheduler(),
		Part:  schedule.NewPartitioner(),
		Sizer: new(buffers.Sizer),
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
	ev.Sizes = c.Sizer.Sizes(tg, res)
	if ev.Sim, err = c.Sim.Simulate(tg, res, c.SimConfig(ev.Sizes)); err != nil {
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

// Variant is one evaluation procedure, a row of the variant table: given a
// frozen task graph and parameters, Eval produces the named float64 values
// of a results.Cell. A variant's name addresses its cells in artifacts
// and the results cache, so evaluation arithmetic must never
// change under a fixed name — changing it requires a new name (and a
// results.SchemaVersion bump, see docs/ARTIFACTS.md).
//
// Eval must be stateless: one row is shared by every worker goroutine.
// Per-evaluation scratch belongs on the EvalContext.
type Variant struct {
	// Name is the table key and the CellKey.Variant value.
	Name string
	// Metrics declares every value name cells of this variant may carry.
	// Cells may carry a subset (e.g. simulation errors only when Simulate),
	// never a value outside this list — coordinators validate against it.
	Metrics []string
	// Eval runs the procedure on one graph.
	Eval func(ctx *EvalContext, tg *core.TaskGraph, p EvalParams) (map[string]float64, error)
}

// LookupVariant returns the row of the variant table with the given name.
func LookupVariant(name string) (*Variant, error) {
	for i := range variantTable {
		if variantTable[i].Name == name {
			return &variantTable[i], nil
		}
	}
	return nil, fmt.Errorf("unknown variant %q (see -list-variants)", name)
}

// VariantNames returns every variant name, sorted.
func VariantNames() []string {
	names := make([]string, len(variantTable))
	for i, v := range variantTable {
		names[i] = v.Name
	}
	sort.Strings(names)
	return names
}
