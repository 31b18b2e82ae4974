// Package desim is a deterministic, element-level discrete-event simulator
// for scheduled canonical task graphs, mirroring the simpy-based validation
// of Appendix B of the paper. It checks that
//
//   - the computed FIFO buffer space suffices (the simulation does not
//     deadlock), and
//   - the steady-state analysis predicts a realistic makespan (the relative
//     error between the scheduled and the simulated makespan is small).
//
// Semantics: time advances in unit cycles. Within a spatial block every
// computational task owns a PE and executes one micro-action per cycle
// (consume one element from every input, and/or produce one element to every
// output, paced by its production rate). Streaming edges are bounded FIFOs
// with blocking-after-service semantics; all other edges go through global
// memory (available once the producer finished, readable one element per
// cycle). Spatial blocks run back to back: block i starts once every task of
// block i-1 has finished.
//
// Tasks are evaluated in reverse topological order within a cycle, so a
// consumer's pop frees space that its producer can use in the same cycle;
// this makes depth-1 FIFOs bubble-free on rate-matched edges and matches the
// first-out/last-out recurrences of Section 5.1 exactly on the paper's
// worked examples.
//
// # Engines
//
// Two engines produce byte-identical semantic Stats:
//
//   - The event-leaping engine (EngineLeap, the zero value and the default)
//     runs the unit-cycle loop but fingerprints the simulation's control
//     state after every cycle. Between event boundaries (a FIFO filling or
//     draining, a memory edge becoming readable, a task finishing, a
//     rate-pattern boundary) the pipeline repeats a short periodic pattern
//     of micro-actions, so once a period is detected and verified the
//     engine advances counters and the clock by whole batches of periods in
//     O(1) arithmetic (leap.go), falling back to exact unit stepping at and
//     around every boundary. Stats.Leap records its detector counters.
//
//   - The reference engine (EngineReference) advances one unit cycle at a
//     time and steps every unfinished task every cycle. It is the
//     executable specification: simple, obviously faithful to the
//     semantics above, and O(makespan x tasks). Only the tests run it.
//
// The leap engine is cycle-exact: golden tables, a differential test, and
// the FuzzDesimLeapVsReference fuzz target cross-check it against the
// reference loop over random graphs, schedules, and FIFO capacities
// (leap_test.go).
//
// Sweeps that validate many schedules should allocate one Scratch per worker
// and call its Simulate method: all edge, FIFO, task, and leap-detection
// state is then reused across runs instead of being reallocated per
// simulation; after warm-up a Scratch.Simulate call performs no heap
// allocations.
//
// Entry points: Simulate (one-shot) and NewScratch + Scratch.Simulate (the
// engine's per-worker hot path); both return Stats with the simulated
// makespan, deadlock flag, and RelativeError against the analytical
// makespan. The simulator is cycle-exact and deterministic — no randomness,
// fixed task evaluation order — so simulate-variant cells are pure
// functions of (graph content, schedule, FIFO sizes) and cache cleanly
// regardless of the engine; a Scratch must not be shared between goroutines.
package desim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/schedule"
	"repro/internal/scratch"
)

// Engine selects which simulation loop executes a run. Both engines
// produce byte-identical semantic Stats (makespan, Finish, deadlock flag
// and cycle, total cycles); they differ only in speed.
type Engine uint8

const (
	// EngineLeap, the zero value and the default, is the event-leaping fast
	// path (leap.go).
	EngineLeap Engine = iota
	// EngineReference is the unit-stepping reference loop: the executable
	// specification and the oracle for the differential tests.
	EngineReference
)

// String returns the engine name: leap or reference.
func (e Engine) String() string {
	switch e {
	case EngineLeap:
		return "leap"
	case EngineReference:
		return "reference"
	}
	return fmt.Sprintf("Engine(%d)", uint8(e))
}

// Config controls the simulation.
type Config struct {
	// FIFOCap is the per-streaming-edge capacity, usually the output of
	// buffers.Sizes. Edges not present fall back to DefaultCap.
	FIFOCap map[[2]graph.NodeID]int64
	// DefaultCap is the capacity of streaming edges missing from FIFOCap.
	// Zero means 1.
	DefaultCap int64
	// MaxCycles aborts runaway simulations. Zero means 100 million.
	MaxCycles int64
	// Engine selects the simulation loop. The zero value is EngineLeap;
	// EngineReference is the executable specification the tests and
	// benchmarks compare it against. Both produce byte-identical semantic
	// Stats.
	Engine Engine
}

// Stats reports the outcome of a simulation.
type Stats struct {
	// Makespan is the simulated schedule length in cycles.
	Makespan float64
	// Finish[v] is the cycle at which node v performed its last action.
	Finish []float64
	// Deadlocked is set when the simulation wedged with unfinished tasks.
	Deadlocked bool
	// DeadlockCycle is the cycle at which the wedge was detected.
	DeadlockCycle int64
	// Cycles is the total number of simulated cycles.
	Cycles int64
	// Leap holds the leap engine's period-detector counters (all zero for a
	// reference run). It is excluded from the engines' byte-identity
	// contract — the semantic fields above are identical across engines,
	// Leap describes how the run was executed.
	Leap LeapStats
}

// LeapStats instruments one run of the event-leaping engine: how often the
// period detector proposed, verified, and refuted candidate periods, how
// many cycles were replayed arithmetically vs stepped exactly, and how often
// the working set was compacted. A reference run leaves it zero. Tests use
// these counters to assert the fast path actually engages, and they make
// "why was this run slow" answerable without a profiler.
type LeapStats struct {
	// Proposed counts candidate periods anchored from an action-hash repeat;
	// Verified those whose full control-state compare succeeded one period
	// later; Refuted those that failed it (the state drifted under a
	// repeating action pattern, or the actions changed before confirmation).
	Proposed, Verified, Refuted int64
	// Leaps counts arithmetic period replays; LeapedCycles the cycles they
	// advanced; SteppedCycles the cycles executed by the exact loop.
	// SteppedCycles + LeapedCycles == Cycles for a leap-engine run.
	Leaps, LeapedCycles, SteppedCycles int64
	// Compactions counts working-set shrinks (finished tasks and frozen
	// edges dropped from the live lists).
	Compactions int64
}

// RelativeError returns (simulated - scheduled) / scheduled: negative when
// the scheduling makespan overestimates the simulated one, as plotted in
// Figure 13.
func (s *Stats) RelativeError(scheduled float64) float64 {
	if scheduled == 0 {
		return math.Inf(1)
	}
	return (s.Makespan - scheduled) / scheduled
}

// edgeKind classifies how data moves across one edge.
type edgeKind uint8

const (
	fifoEdge   edgeKind = iota // bounded streaming FIFO
	memoryEdge                 // through global memory (cross-block or buffer)
)

// edgeState is the runtime state of one edge.
type edgeState struct {
	kind edgeKind
	from graph.NodeID
	to   graph.NodeID
	vol  int64

	// FIFO state: occupancy and capacity.
	occ, cap int64

	// Memory state: how many elements the producer has deposited, when the
	// deposit completed (whole-edge readiness for buffered semantics), and
	// how many the consumer has taken.
	written  int64
	ready    int64 // cycle after which the consumer may start reading; -1 = not ready
	consumed int64
}

// taskState is the runtime state of one node.
type taskState struct {
	id       graph.NodeID
	node     core.Node
	inEdges  []*edgeState
	outEdges []*edgeState
	c, p     int64 // consumed per input edge, produced per output edge
	done     bool
	finish   int64
	active   bool // participates in the per-cycle loop (buffers do not)
}

// Scratch holds reusable simulation state: the per-edge FIFO/memory records,
// the per-task runtime records, the Finish vector, the per-block working
// sets, and the leap engine's period-detection state. A Scratch must not be
// used from multiple goroutines at once; sweeps allocate one per worker. The
// zero value is ready to use.
type Scratch struct {
	stats    Stats
	finish   []float64
	edges    []edgeState
	tasks    []taskState
	refs     []*edgeState // backing array carved into per-task inEdges/outEdges
	order    []*taskState
	bufs     []*taskState
	blkEdges []*edgeState
	inBlk    []bool
	wantStep []bool  // leap engine: tasks marked for re-examination
	wakeAt   []int64 // leap engine: pending timed-wake cycle per task (0 = none)
	events   []timedEvent
	// leap engine: per-task counts of FIFO endpoints contributing to the
	// live-occupancy proposal signal (leap.go).
	nInLiveFifo []int32
	nOutFifo    []int32
	isCompute   []bool // leap engine: step() routes through the paced branch
	leap        leapState
}

// NewScratch returns an empty Scratch ready for (re)use.
func NewScratch() *Scratch { return &Scratch{} }

// Simulate runs the schedule through the simulator, allocating fresh state.
// Hot loops should prefer Scratch.Simulate, which reuses buffers.
func Simulate(t *core.TaskGraph, r *schedule.Result, cfg Config) (*Stats, error) {
	return NewScratch().Simulate(t, r, cfg)
}

// Simulate runs the schedule through the simulator, reusing the scratch's
// buffers. The returned Stats — including its Finish slice — aliases scratch
// memory and is only valid until the next Simulate call on the same Scratch.
func (s *Scratch) Simulate(t *core.TaskGraph, r *schedule.Result, cfg Config) (*Stats, error) {
	if cfg.DefaultCap <= 0 {
		cfg.DefaultCap = 1
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 100_000_000
	}

	n := t.G.Len()
	ne := t.G.NumEdges()
	s.finish = scratch.GrowSlice(s.finish, n)
	s.stats = Stats{Finish: s.finish}
	stats := &s.stats

	// Build edge states in deterministic (producer, successor-order) order.
	if cap(s.edges) < ne {
		s.edges = make([]edgeState, ne)
	}
	s.edges = s.edges[:ne]
	ei := 0
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		vols := t.G.SuccVolumes(id)
		for i, w := range t.G.Succs(id) {
			es := &s.edges[ei]
			*es = edgeState{from: id, to: w, vol: vols[i], ready: -1}
			if r.Partition.Streaming(t, id, w) {
				es.kind = fifoEdge
				es.cap = cfg.DefaultCap
				if c, ok := cfg.FIFOCap[[2]graph.NodeID{id, w}]; ok && c > 0 {
					es.cap = c
				}
			} else {
				es.kind = memoryEdge
			}
			ei++
		}
	}

	// Task states, with inEdges/outEdges carved out of one backing array:
	// out-edge lists follow edge construction order directly; in-edge lists
	// are filled by a second pass over the edges (the simulator treats every
	// in-edge set all-or-nothing, so their order is immaterial).
	if cap(s.refs) < 2*ne {
		s.refs = make([]*edgeState, 2*ne)
	}
	s.refs = s.refs[:2*ne]
	if cap(s.tasks) < n {
		s.tasks = make([]taskState, n)
	}
	s.tasks = s.tasks[:n]
	off := 0
	ei = 0
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		ts := &s.tasks[v]
		*ts = taskState{id: id, node: t.Nodes[v], finish: -1}
		preds := t.G.Preds(id)
		ts.inEdges = s.refs[off : off : off+len(preds)]
		off += len(preds)
		succs := t.G.Succs(id)
		out := s.refs[off : off : off+len(succs)]
		for range succs {
			out = append(out, &s.edges[ei])
			ei++
		}
		off += len(succs)
		ts.outEdges = out
		ts.active = t.Nodes[v].Kind != core.Buffer
	}
	for i := range s.edges {
		e := &s.edges[i]
		to := &s.tasks[e.to]
		to.inEdges = append(to.inEdges, e)
	}

	s.inBlk = scratch.GrowSlice(s.inBlk, n)
	if cfg.Engine != EngineReference {
		s.wantStep = scratch.GrowSlice(s.wantStep, n)
		s.wakeAt = scratch.GrowSlice(s.wakeAt, n)
		s.nInLiveFifo = scratch.GrowSlice(s.nInLiveFifo, n)
		s.nOutFifo = scratch.GrowSlice(s.nOutFifo, n)
		s.isCompute = scratch.GrowSlice(s.isCompute, n)
		s.events = s.events[:0]
	}

	topo := t.G.Topo()
	cycle := int64(0)
	for bi, blk := range r.Partition.Blocks {
		var start int64
		var err error
		if cfg.Engine == EngineReference {
			start, err = s.simulateBlock(blk, topo, cycle, cfg.MaxCycles)
		} else {
			start, err = s.simulateBlockLeap(blk, topo, cycle, cfg.MaxCycles)
		}
		if err != nil {
			return stats, fmt.Errorf("desim: block %d: %w", bi, err)
		}
		if stats.Deadlocked {
			return stats, nil
		}
		cycle = start
	}
	stats.Cycles = cycle
	stats.Makespan = 0
	for v := 0; v < n; v++ {
		if f := stats.Finish[v]; f > stats.Makespan {
			stats.Makespan = f
		}
	}
	return stats, nil
}

// prepareBlock marks the block's nodes, rebuilds the per-block working sets
// (active tasks in reverse topological order, passive buffers), flags
// already-satisfied tasks as done, and resolves buffers fed entirely by
// earlier blocks. It returns the number of unfinished active tasks. The
// working sets live on the Scratch so repeated simulations allocate nothing.
func (s *Scratch) prepareBlock(blk schedule.Block, topo []graph.NodeID, blockStart int64) int {
	for _, v := range blk.Nodes {
		s.inBlk[v] = true
	}

	// Reverse topological order restricted to the block: consumers first.
	order := s.order[:0]
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		if s.inBlk[v] && s.tasks[v].active {
			order = append(order, &s.tasks[v])
		}
	}
	bufs := s.bufs[:0]
	for _, v := range blk.Nodes {
		if !s.tasks[v].active {
			bufs = append(bufs, &s.tasks[v])
		}
	}
	s.order, s.bufs = order, bufs

	pending := len(order)
	for _, ts := range order {
		if taskDone(ts) {
			ts.done = true
			pending--
		}
	}
	s.resolveBufs(blockStart, false) // buffers fed entirely by earlier blocks
	return pending
}

// finishBlock resolves buffers completed by the block's last writes, clears
// the block marks, and returns the barrier time for the next block: the next
// block starts once every task of this block finished.
func (s *Scratch) finishBlock(blk schedule.Block, blockStart, cycle int64) int64 {
	s.resolveBufs(cycle, false)
	for _, v := range blk.Nodes {
		s.inBlk[v] = false
	}
	end := blockStart
	for _, ts := range s.order {
		if ts.finish > end {
			end = ts.finish
		}
	}
	for _, b := range s.bufs {
		if b.finish > end {
			// A buffer only delays the barrier if it is still filling, which
			// cannot happen once all block tasks finished; kept for safety.
			end = b.finish
		}
	}
	return end
}

// resolveBufs marks passive buffers of the current block ready once every
// producer deposited all of its data; consumers can start reading the
// following cycle. With track set (the leap engine), a resolution also
// wakes the out-edges' consumers and folds itself into the detector's
// action hash — the data movement itself is identical for both engines.
func (s *Scratch) resolveBufs(now int64, track bool) bool {
	progress := false
	for _, b := range s.bufs {
		if b.finish >= 0 { // already resolved; buffers fill exactly once
			continue
		}
		filled := true
		last := now
		for _, e := range b.inEdges {
			if e.written < e.vol {
				filled = false
				break
			}
			if e.ready > last {
				last = e.ready
			}
		}
		if filled {
			b.finish = last
			s.stats.Finish[b.id] = float64(last)
			for _, e := range b.outEdges {
				e.written = e.vol
				// The buffer head spends a cycle emitting the first
				// element (FO(buffer) = fill + 1 in Section 5.1), so
				// consumers see data one cycle after the fill.
				e.ready = last + 1
				if track {
					s.wantStep[e.to] = true
					s.events = append(s.events, timedEvent{at: e.ready + 1, task: e.to})
				}
			}
			if track {
				// Resolutions are actions too: fold them so a period can
				// never be proposed across one.
				s.leap.actHash = s.leap.actHash*0x100000001B3 ^ mixAct(uint64(b.id)<<2|3)
			}
			progress = true
		}
	}
	return progress
}

// memoryWake returns the earliest future cycle at which some pending task's
// memory input becomes readable, or math.MaxInt64 when no such edge exists
// (a true deadlock). Called on quiet cycles only.
func (s *Scratch) memoryWake(cycle int64) int64 {
	wake := int64(math.MaxInt64)
	for _, ts := range s.order {
		if ts.done {
			continue
		}
		for _, e := range ts.inEdges {
			if e.kind == memoryEdge && e.ready >= cycle && e.consumed < e.written {
				if e.ready < wake {
					wake = e.ready
				}
			}
		}
	}
	return wake
}

// simulateBlock runs one spatial block to completion with the unit-stepping
// reference engine, starting at cycle blockStart, and returns the barrier
// time for the next block. This loop is the executable specification that
// simulateBlockLeap must reproduce cycle for cycle.
func (s *Scratch) simulateBlock(blk schedule.Block, topo []graph.NodeID,
	blockStart, maxCycles int64) (int64, error) {

	stats := &s.stats
	pending := s.prepareBlock(blk, topo, blockStart)
	order := s.order

	cycle := blockStart
	for pending > 0 {
		cycle++
		if cycle-blockStart > maxCycles {
			return cycle, fmt.Errorf("exceeded %d cycles", maxCycles)
		}
		progress := false
		for _, ts := range order {
			if ts.done {
				continue
			}
			if step(ts, cycle) {
				progress = true
				ts.finish = cycle
				if taskDone(ts) {
					ts.done = true
					stats.Finish[ts.id] = float64(ts.finish)
					pending--
				}
			}
		}
		if s.resolveBufs(cycle, false) {
			progress = true
		}
		if !progress {
			// A quiet cycle is not a deadlock if some pending task waits on
			// a memory edge that becomes readable later; fast-forward to it.
			wake := s.memoryWake(cycle)
			if wake == math.MaxInt64 {
				stats.Deadlocked = true
				stats.DeadlockCycle = cycle
				return cycle, nil
			}
			cycle = wake // readable from wake+1; loop increments
		}
	}
	return s.finishBlock(blk, blockStart, cycle), nil
}

// taskDone reports whether the node has consumed and produced everything.
func taskDone(ts *taskState) bool {
	switch ts.node.Kind {
	case core.Source:
		return ts.p >= ts.node.Out
	case core.Sink:
		return ts.c >= ts.node.In
	default:
		needIn := ts.node.In
		if len(ts.inEdges) == 0 {
			needIn = 0 // entry task: its reads are folded into its write pace
		}
		// Exit tasks still "emit" all outputs (to memory) to account their
		// time, so the full Out count is always required.
		return ts.c >= needIn && ts.p >= ts.node.Out
	}
}

// step attempts the task's micro-action for this cycle and reports whether
// anything happened. Reads consume from every input edge simultaneously;
// writes produce to every output edge simultaneously. The production rate
// paces reads: the task reads only when the next output needs more input,
// which reproduces the steady-state ingestion interval S_i = S_o * R.
func step(ts *taskState, cycle int64) bool {
	in, out := ts.node.In, ts.node.Out
	if ts.node.Kind == core.Source || len(ts.inEdges) == 0 && ts.node.Kind != core.Sink {
		// Pure producer (explicit source or entry task): one element per
		// cycle to every output, subject to space.
		if ts.p < out && canWrite(ts) {
			doWrite(ts, cycle)
			return true
		}
		return false
	}
	if ts.node.Kind == core.Sink || len(ts.outEdges) == 0 && out == 0 {
		if ts.c < in && canRead(ts, cycle) {
			doRead(ts)
			return true
		}
		return false
	}

	acted := false
	// Read when the next output still needs input: to produce element p+1
	// the task must have consumed ceil((p+1)*in/out) elements.
	if ts.c < in {
		needed := ceilDiv((ts.p+1)*in, out)
		if ts.p >= out {
			needed = in // drain the remaining inputs
		}
		if ts.c < needed && canRead(ts, cycle) {
			doRead(ts)
			acted = true
		}
	}
	// Write when enough input credit accumulated: element p+1 requires
	// c*out >= (p+1)*in.
	if ts.p < out && ts.c*out >= (ts.p+1)*in && canWrite(ts) {
		doWrite(ts, cycle)
		acted = true
	}
	return acted
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// canRead reports whether one element is available on every input edge.
func canRead(ts *taskState, cycle int64) bool {
	for _, e := range ts.inEdges {
		switch e.kind {
		case fifoEdge:
			if e.occ < 1 {
				return false
			}
		case memoryEdge:
			if e.ready < 0 || cycle <= e.ready || e.consumed >= e.written {
				return false
			}
		}
	}
	return len(ts.inEdges) > 0
}

func doRead(ts *taskState) {
	for _, e := range ts.inEdges {
		switch e.kind {
		case fifoEdge:
			e.occ--
		case memoryEdge:
			e.consumed++
		}
	}
	ts.c++
}

// canWrite reports whether one element fits on every output edge. Memory
// edges never block (blocking-after-service applies to FIFO channels only).
func canWrite(ts *taskState) bool {
	for _, e := range ts.outEdges {
		if e.kind == fifoEdge && e.occ >= e.cap {
			return false
		}
	}
	return true
}

func doWrite(ts *taskState, cycle int64) {
	for _, e := range ts.outEdges {
		switch e.kind {
		case fifoEdge:
			e.occ++
		case memoryEdge:
			e.written++
			if e.written >= e.vol {
				e.ready = cycle // fully deposited; readable next cycle
			}
		}
	}
	ts.p++
}
