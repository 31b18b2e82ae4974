package service

import (
	"slices"

	"repro/internal/buffers"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/schedule"
)

// ScheduleReport is one job's result: the schedule's summary metrics and
// the full per-task assignment, everything cmd/streamsched's batch mode
// derives from one schedule.Schedule call. All fields are pure functions
// of (graph, PEs, variant, simulate), so two reports for the same
// submission marshal byte-identically regardless of how the service
// batched or coalesced them.
type ScheduleReport struct {
	Nodes        int    `json:"nodes"`
	ComputeNodes int    `json:"compute_nodes"`
	Edges        int    `json:"edges"`
	PEs          int    `json:"pes"`
	Variant      string `json:"variant"`

	Blocks         int     `json:"blocks"`
	Makespan       float64 `json:"makespan"`
	SequentialTime float64 `json:"sequential_time"`
	Speedup        float64 `json:"speedup"`
	SSLR           float64 `json:"sslr"`
	Utilization    float64 `json:"utilization"`

	// BufferSlots is the total FIFO space Equation 5 assigns to streaming
	// edges on undirected cycles (the deadlock-freedom requirement);
	// CycleEdges counts those edges.
	StreamingEdges int   `json:"streaming_edges"`
	CycleEdges     int   `json:"cycle_edges"`
	BufferSlots    int64 `json:"buffer_slots"`

	// Per-task schedule, indexed by node ID: spatial block, assigned PE
	// (-1 for passive nodes), and the ST/FO/LO streaming times.
	BlockOf []int     `json:"block_of"`
	PE      []int     `json:"pe"`
	ST      []float64 `json:"st"`
	FO      []float64 `json:"fo"`
	LO      []float64 `json:"lo"`

	// Sim is the discrete-event validation, present when requested.
	Sim *SimReport `json:"sim,omitempty"`
}

// SimReport is the discrete-event validation of a schedule.
type SimReport struct {
	Makespan      float64 `json:"makespan"`
	RelativeError float64 `json:"relative_error"`
	Cycles        int64   `json:"cycles"`
	Deadlocked    bool    `json:"deadlocked,omitempty"`
	DeadlockCycle int64   `json:"deadlock_cycle,omitempty"`
}

// BuildReport runs the paper pipeline (experiments.EvalContext.Evaluate)
// on one graph with fresh scratch and packages the result. It is the
// reference the byte-identity tests compare service responses against;
// service workers run the same packaging on their pooled contexts.
func BuildReport(tg *core.TaskGraph, pes int, v schedule.Variant, varName string, simulate bool) (*ScheduleReport, error) {
	ec := experiments.NewEvalContext()
	ev, err := ec.Evaluate(tg, pes, v, simulate)
	if err != nil {
		return nil, err
	}
	return NewReport(ec, tg, pes, varName, ev), nil
}

// NewReport packages ev, the evaluation of tg on pes processing elements
// that ec just produced, as the report of heuristic varName; it is the one
// derivation of the summary metrics, behind the service and the batch CLI.
// When ev did not simulate, ec's sizer computes the Equation 5 buffer
// budget. The report owns every slice it carries: BlockOf is cloned out of
// ec's partition scratch, and ST/FO/LO/PE are owned by the schedule Result.
func NewReport(ec *experiments.EvalContext, tg *core.TaskGraph, pes int, varName string, ev experiments.Evaluation) *ScheduleReport {
	res := ev.Res
	rep := &ScheduleReport{
		Nodes:          tg.Len(),
		ComputeNodes:   tg.NumComputeNodes(),
		Edges:          tg.G.NumEdges(),
		PEs:            pes,
		Variant:        varName,
		Blocks:         res.Partition.NumBlocks(),
		Makespan:       res.Makespan,
		SequentialTime: schedule.SequentialTime(tg),
		Speedup:        res.Speedup(tg),
		SSLR:           res.SSLR(tg),
		Utilization:    res.Utilization(tg, pes),
		BlockOf:        slices.Clone(res.Partition.BlockOf),
		PE:             res.PE,
		ST:             res.ST,
		FO:             res.FO,
		LO:             res.LO,
	}
	sizes := ev.Sizes
	if ev.Sim == nil {
		sizes = ec.Sizer.Sizes(tg, res)
	}
	rep.StreamingEdges = len(sizes)
	rep.CycleEdges, rep.BufferSlots = buffers.CycleSpace(sizes)
	if st := ev.Sim; st != nil {
		rep.Sim = &SimReport{
			Makespan:      st.Makespan,
			RelativeError: st.RelativeError(res.Makespan),
			Cycles:        st.Cycles,
			Deadlocked:    st.Deadlocked,
			DeadlockCycle: st.DeadlockCycle,
		}
	}
	return rep
}
