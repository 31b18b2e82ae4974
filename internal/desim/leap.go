// Event-leaping fast path. simulateBlockLeap runs the reference engine's
// per-cycle loop, made cheap and leapable by three cooperating mechanisms,
// none of which may change a single simulated outcome:
//
//  1. A wake worklist. A task can only act when one of its decision inputs
//     changed: it acted last cycle, a producer deposited into one of its
//     input edges, a consumer freed space on one of its output FIFOs, a
//     buffer feeding it resolved, or a memory edge's scheduled readiness
//     arrived. The engine tracks exactly these events and skips every other
//     task — blocked tasks cost one flag test per cycle instead of a full
//     gating evaluation.
//
//  2. A periodic-state detector. Between events the block repeats a short
//     pattern of micro-actions: every task's counters advance by a fixed
//     delta per period while the control state — the only input of every
//     gating branch — returns to the same value. The engine folds each
//     cycle's action sequence into a hash (one multiply-xor per performed
//     action), proposes a candidate period when the hash repeats, and
//     verifies the candidate by computing and comparing the control-state
//     code of every live task and touched edge. Confirmation is the sole
//     gate to a leap, so the cheap proposal channel cannot corrupt one; a
//     failed confirmation backs the detector off exponentially, bounding
//     its cost on genuinely aperiodic phases.
//
//  3. O(1) period replay. A verified period is replayed arithmetically:
//     leapBound computes how many whole periods fit before the earliest
//     event boundary — a task approaching its volume, a FIFO or memory
//     edge filling or draining, a scheduled readiness flip, the cycle
//     budget — with one full period of slack, so the boundary cycle itself
//     is always simulated exactly; applyLeap then advances counters and
//     the clock by the whole batch.
//
// Why replaying a verified period is cycle-exact: every branch in step(),
// canRead, canWrite, and resolveBufs depends only on
//
//   - per-task boundary flags c < In and p < Out, monotone in the counters;
//   - the pacing residue r = c*Out - p*In (c < ceil((p+1)*In/Out) iff
//     r < In, and the write gate c*Out >= (p+1)*In iff r >= In);
//   - per-FIFO occupancy (only its emptiness once the producer finished);
//   - per-memory-edge readiness (ready >= 0 and cycle > ready, monotone
//     once ready is stamped) and deposit-gap emptiness.
//
// The codes capture exactly these inputs (taskCode/edgeCode) for the
// running block: only its tasks and buffers act, so only edges touching
// them can change. If the control state at cycle t equals the state at t-L,
// then by induction the next L cycles perform the same micro-actions as the
// previous L: residues and live occupancies are equal outright, drifting
// drains are bounded away from their zero crossings, and the boundary flags
// cannot change while every monotone counter keeps a period of slack. Quiet
// cycles (the memory-wake fast-forward and the deadlock check) invalidate
// the detector and always run in the exact loop, as does every task
// completion and buffer resolution — their one-way state changes break
// fingerprint equality, so a period can never straddle them.
package desim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/schedule"
	"repro/internal/scratch"
)

// leapWindow is the longest detectable steady-state period, in cycles. The
// synthetic and model workloads use power-of-two production rates between
// 1/4 and 4; even chained through several rate converters, the resulting
// action patterns repeat well within this window (widening it further finds
// no additional periods on any of the paper's graph families).
const leapWindow = 64

// refRetry is how long a refuted action hash stays muted. Drifting phases
// re-pay one anchor-and-compare per refRetry cycles; once the drift settles
// the same actions become a valid period and must not stay muted for long.
const refRetry = 16

// timedEvent is a scheduled task wake-up: the cycle at which a memory input
// of the task becomes readable. at is an absolute cycle.
type timedEvent struct {
	at   int64
	task graph.NodeID
}

// leapState is the period detector: a ring of end-of-cycle control-state
// hashes, plus one verified anchor snapshot (codes and raw counters) that
// leap candidates are confirmed against. It lives on the Scratch so sweeps
// reuse it across simulations; all arrays are sized to the running block.
type leapState struct {
	ring     []uint64 // hash of the last leapWindow end-of-cycle states, indexed by cycle % leapWindow
	ringFrom int64    // earliest cycle whose ring entry is valid

	anchored  bool
	aCycle    int64  // cycle the anchor snapshot was taken at
	aHash     uint64 // state hash at the anchor
	confirmAt int64  // cycle at which to verify the candidate period

	taskCode  []uint64 // anchor control codes, indexed by live task order
	edgeCode  []uint64 // anchor control codes, indexed by block edge order
	aC, aP    []int64  // anchor per-task counters
	aOcc      []int64  // anchor per-FIFO-edge occupancy
	aW, aCons []int64  // anchor per-memory-edge counters

	// actHash folds the running cycle's action sequence; together with the
	// live-FIFO occupancy sum it is the cheap proposal channel the ring
	// records. liveOcc is the occupancy total over FIFOs whose producer is
	// still running — the one quantity that drifts monotonically through
	// fill transients while the action sequence is already periodic, so
	// folding it in stops fills from proposing doomed candidates. Drained
	// FIFOs and memory deposit gaps are excluded: their drift is replayable
	// and must not mask a period.
	actHash uint64
	liveOcc int64
	// resSum accumulates the pacing-residue deltas of residue-relevant
	// tasks (mid-stream computes): like liveOcc it folds into the proposal
	// hash so a cascade sliding out of phase — actions periodic, residues
	// drifting — never proposes a doomed candidate. Under a true period
	// every relevant task's residue delta is zero, so the sum repeats.
	resSum int64

	// refHash is the last action hash whose candidate failed the full state
	// compare: a drifting phase (a FIFO filling, a cascade sliding out of
	// phase) repeats its action sequence with a constant hash while its
	// state never returns, so proposals with that hash are skipped instead
	// of re-paying an O(block) compare every period. The refutation expires
	// at refUntil — the same actions with converged state are a valid
	// period, e.g. right after a fill transient settles.
	refHash  uint64
	refUntil int64
}

// sizeFor grows the detector's arrays for a block with n live tasks and ne
// touched edges.
func (lp *leapState) sizeFor(n, ne int) {
	if lp.ring == nil {
		lp.ring = make([]uint64, leapWindow)
	}
	lp.taskCode = scratch.GrowSlice(lp.taskCode, n)
	lp.edgeCode = scratch.GrowSlice(lp.edgeCode, ne)
	lp.aC = scratch.GrowSlice(lp.aC, n)
	lp.aP = scratch.GrowSlice(lp.aP, n)
	lp.aOcc = scratch.GrowSlice(lp.aOcc, ne)
	lp.aW = scratch.GrowSlice(lp.aW, ne)
	lp.aCons = scratch.GrowSlice(lp.aCons, ne)
}

// restart forgets the anchor and every recorded hash before cycle from:
// called at block starts, after quiet-cycle fast-forwards, after working-set
// compactions, and after a leap, where the cycle numbering or the state
// history is discontinuous.
func (lp *leapState) restart(from int64) {
	lp.anchored = false
	lp.ringFrom = from
}

// taskCode encodes every decision input of step() for one task that the
// leap bounds do not already protect: the done flag, the c < In and p < Out
// boundary flags, and — while the task is mid-stream, both reading and
// writing — the pacing residue c*Out - p*In. The residue is bounded by
// In+Out in that regime, and two states with equal residues make identical
// read/write gating decisions.
func taskCode(ts *taskState) uint64 {
	if ts.done {
		return 1
	}
	in, out := ts.node.In, ts.node.Out
	code := uint64(2)
	if ts.c < in {
		code |= 4
	}
	if ts.p < out {
		code |= 8
	}
	if ts.c < in && ts.p < out && computeLike(ts) {
		code |= uint64(ts.c*out-ts.p*in) << 4
	}
	return code
}

// computeLike reports whether step() routes the task through the paced
// read+write branch (as opposed to the pure-producer or pure-consumer
// branches, whose gating uses only the boundary flags).
func computeLike(ts *taskState) bool {
	if ts.node.Kind == core.Source || len(ts.inEdges) == 0 && ts.node.Kind != core.Sink {
		return false
	}
	if ts.node.Kind == core.Sink || len(ts.outEdges) == 0 && ts.node.Out == 0 {
		return false
	}
	return true
}

// edgeCode encodes the decision inputs of one edge at the end of the given
// cycle, and nothing that merely drifts without gating anything:
//
//   - A live FIFO (producer still running) is encoded by its exact
//     occupancy: both the consumer's occ >= 1 gate and the producer's
//     occ < cap gate depend on it.
//   - A FIFO whose producer finished only drains; the producer gate is
//     never evaluated again, so all that matters is whether it is empty.
//     The draining occupancy itself is replayed as a per-period delta,
//     bounded away from zero by leapBound.
//   - A memory edge is encoded by whether consumers can read from the next
//     cycle on (ready stamped and not in the future) and whether it still
//     holds undelivered elements; the deposit gap drifts under replay and
//     is likewise bounded away from zero by leapBound.
func edgeCode(e *edgeState, cycle int64, prodDone bool) uint64 {
	if e.kind == fifoEdge {
		if prodDone {
			code := uint64(4)
			if e.occ > 0 {
				code |= 8
			}
			return code
		}
		return 2 | uint64(e.occ)<<3
	}
	code := uint64(1)
	if e.ready >= 0 && e.ready <= cycle {
		code |= 2
		if e.written > e.consumed {
			code |= 8
		}
	}
	return code
}

// mixAct scrambles one action record for the action-sequence hash
// (splitmix64 finalizer).
func mixAct(v uint64) uint64 {
	z := v + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// blockEdges rebuilds s.blkEdges: every edge whose state the running block
// can change, i.e. every edge touching a block task or buffer. Each edge is
// listed exactly once — as its producer's out-edge when the producer is in
// the block, otherwise as its consumer's in-edge — so the anchor snapshots
// and leap bounds index it positionally.
func (s *Scratch) blockEdges() {
	blk := s.blkEdges[:0]
	for _, ts := range s.order {
		for _, e := range ts.inEdges {
			if !s.inBlk[e.from] {
				blk = append(blk, e)
			}
		}
		blk = append(blk, ts.outEdges...)
	}
	for _, b := range s.bufs {
		for _, e := range b.inEdges {
			if !s.inBlk[e.from] {
				blk = append(blk, e)
			}
		}
		blk = append(blk, b.outEdges...)
	}
	s.blkEdges = blk
}

// anchor snapshots the control codes and raw counters as the candidate
// period's start, to be confirmed period cycles later. Codes are computed
// from the simulation state — the action hash proposes, never decides — so
// a misleading proposal can only cost a refused candidate, not a wrong
// leap.
func (lp *leapState) anchor(s *Scratch, live []*taskState, cycle int64, h uint64, period int64) {
	for i, ts := range live {
		lp.taskCode[i] = taskCode(ts)
		lp.aC[i] = ts.c
		lp.aP[i] = ts.p
	}
	for i, e := range s.blkEdges {
		lp.edgeCode[i] = edgeCode(e, cycle, s.tasks[e.from].done)
		lp.aOcc[i] = e.occ
		lp.aW[i] = e.written
		lp.aCons[i] = e.consumed
	}
	lp.anchored = true
	lp.aCycle = cycle
	lp.aHash = h
	lp.confirmAt = cycle + period
	s.stats.Leap.Proposed++
}

// stateMatchesAnchor reports whether the current control state equals the
// anchor snapshot code for code, recomputing every code from the simulation
// state. Equality means the cycles since the anchor form a period whose
// replay is exact (see the file comment).
func (s *Scratch) stateMatchesAnchor(live []*taskState, cycle int64) bool {
	lp := &s.leap
	for i, ts := range live {
		if taskCode(ts) != lp.taskCode[i] {
			return false
		}
	}
	for i, e := range s.blkEdges {
		if edgeCode(e, cycle, s.tasks[e.from].done) != lp.edgeCode[i] {
			return false
		}
	}
	return true
}

// leapBound returns how many whole periods may be replayed from the current
// cycle without any control-state branch changing truth value: every
// monotone counter keeps at least one period of slack before its bound, so
// the boundary cycle itself — a task finishing, an edge filling or
// draining, a readiness flip — is always simulated exactly.
func (s *Scratch) leapBound(live []*taskState, blockStart, maxCycles, cycle, period int64) int64 {
	lp := &s.leap
	// Never jump past the cycle budget: the overrun error must fire at the
	// same cycle as in the reference engine.
	n := (blockStart + maxCycles - cycle) / period
	for i, ts := range live {
		if dc := ts.c - lp.aC[i]; dc > 0 {
			n = min(n, (ts.node.In-1-ts.c)/dc)
		}
		if dp := ts.p - lp.aP[i]; dp > 0 {
			n = min(n, (ts.node.Out-1-ts.p)/dp)
		}
	}
	for i, e := range s.blkEdges {
		if e.kind == fifoEdge {
			// A live FIFO's occupancy is fingerprinted exactly, so its
			// per-period delta is zero by construction. A drained FIFO
			// (producer done) shrinks by a fixed delta per period: keep one
			// period of slack before it empties, so the consumer's last
			// pops — and its completion — run in the exact loop.
			if docc := e.occ - lp.aOcc[i]; docc < 0 {
				n = min(n, (e.occ-1-period)/(-docc))
			} else if docc > 0 && s.tasks[e.from].done {
				return 0 // a drained FIFO cannot grow; defensive
			}
			continue
		}
		dw := e.written - lp.aW[i]
		dcons := e.consumed - lp.aCons[i]
		if dw > 0 {
			if e.written >= e.vol {
				// Only reachable through a mid-period buffer resolution on a
				// non-canonical edge; re-stamping ready is not replayable.
				return 0
			}
			n = min(n, (e.vol-1-e.written)/dw)
		}
		if e.ready > cycle {
			// Readability flips at ready+1 (buffer heads and cross-block
			// deposits schedule it in the future): stop leaping before then.
			n = min(n, (e.ready-cycle)/period)
		}
		if net := dcons - dw; net > 0 {
			// The deposit gap shrinks under replay; its only gate is the
			// consumed >= written check, so keep it positive with one
			// period of slack and let the final drain step exactly.
			gap := e.written - e.consumed
			n = min(n, (gap-1-period)/net)
		} else if net < 0 && dcons > 0 {
			// A consumer-visible gap that grows per period would unblock
			// reads mid-replay; unreachable on canonical graphs (producers
			// finish exactly when their edges fill), so refuse defensively.
			return 0
		}
	}
	if n < 0 {
		return 0
	}
	return n
}

// applyLeap replays n whole periods in O(block): counters advance by n
// times their per-period delta; live-FIFO occupancies, residues, readiness,
// control flags — and therefore every fingerprint code — are unchanged by
// construction, while drained FIFOs and memory deposits advance by their
// per-period drift.
func (s *Scratch) applyLeap(live []*taskState, n int64) {
	lp := &s.leap
	for i, ts := range live {
		ts.c += n * (ts.c - lp.aC[i])
		ts.p += n * (ts.p - lp.aP[i])
	}
	for i, e := range s.blkEdges {
		if e.kind == memoryEdge {
			e.written += n * (e.written - lp.aW[i])
			e.consumed += n * (e.consumed - lp.aCons[i])
		} else {
			e.occ += n * (e.occ - lp.aOcc[i]) // nonzero only for drained FIFOs
		}
	}
}

// compactTasks drops finished tasks from the live iteration list in place,
// preserving the evaluation order of the rest; the reference loop would
// only have skipped them.
func compactTasks(live []*taskState) []*taskState {
	kept := live[:0]
	for _, ts := range live {
		if !ts.done {
			kept = append(kept, ts)
		}
	}
	return kept
}

// compactEdges drops frozen edges — those whose state and control code can
// never change again — from the fingerprint list in place. Frozen edges
// impose no leap bound and carry no per-period delta, so the detector can
// ignore them; they still participate in the semantics through the tasks'
// own edge lists.
func (s *Scratch) compactEdges(edges []*edgeState) []*edgeState {
	kept := edges[:0]
	for _, e := range edges {
		prodDone := s.tasks[e.from].done
		consDone := s.tasks[e.to].done
		var frozen bool
		if e.kind == fifoEdge {
			frozen = prodDone && (consDone || e.occ == 0)
		} else {
			frozen = (prodDone || e.written >= e.vol) && (consDone || e.consumed >= e.written)
		}
		if !frozen {
			kept = append(kept, e)
		}
	}
	return kept
}

// wakeNeighborhood marks everything an action by ts can have unblocked: the
// task itself (it may act again), the producers of its input FIFOs (a pop
// freed space; they evaluate later in the same reverse-topological pass, so
// the mark is visible immediately, exactly like the reference loop), and the
// consumers of its output edges (a push made data available). Memory-edge
// endpoints that the action cannot unblock are skipped: memory writes never
// block on the consumer, and a deposit wakes its reader only once the
// edge's readiness is stamped (which happens with the depositing action, so
// the check below observes it).
func (s *Scratch) wakeNeighborhood(ts *taskState) {
	s.wantStep[ts.id] = true
	for _, e := range ts.inEdges {
		if e.kind == fifoEdge {
			s.wantStep[e.from] = true
		}
	}
	for _, e := range ts.outEdges {
		if e.kind == fifoEdge || e.ready >= 0 {
			s.wantStep[e.to] = true
		}
	}
}

// registerBlockedWakes schedules a re-examination for a task that attempted
// to act but could not: if it waits on memory edges whose readiness lies in
// the future, it sleeps until the latest such arrival (a read needs every
// input, so no earlier cycle can unblock it through this channel); every
// other unblocking event — deposits, pops, buffer resolutions — wakes it
// through wakeNeighborhood. At most one timed wake is pending per task.
func (s *Scratch) registerBlockedWakes(ts *taskState, cycle int64) {
	at := int64(-1)
	for _, e := range ts.inEdges {
		if e.kind == memoryEdge && e.ready >= cycle && e.consumed < e.written {
			if e.ready+1 > at {
				at = e.ready + 1
			}
		}
	}
	if at < 0 {
		return
	}
	if w := s.wakeAt[ts.id]; w != 0 && w <= at {
		return // an earlier wake is already pending; it will re-register
	}
	s.wakeAt[ts.id] = at
	s.events = append(s.events, timedEvent{at: at, task: ts.id})
}

// processDue fires every task wake scheduled at or before now.
func (s *Scratch) processDue(now int64) {
	kept := s.events[:0]
	for _, ev := range s.events {
		if ev.at > now {
			kept = append(kept, ev)
			continue
		}
		s.wantStep[ev.task] = true
		if s.wakeAt[ev.task] == ev.at {
			s.wakeAt[ev.task] = 0
		}
	}
	s.events = kept
}

// simulateBlockLeap runs one spatial block to completion with the
// event-leaping engine, starting at cycle blockStart, and returns the
// barrier time for the next block. It is cycle-for-cycle identical to
// simulateBlock; the differences are that blocked tasks sleep until an
// unblocking event, finished tasks and frozen edges leave the working set,
// and verified steady-state periods are replayed arithmetically instead of
// being stepped.
func (s *Scratch) simulateBlockLeap(blk schedule.Block, topo []graph.NodeID,
	blockStart, maxCycles int64) (int64, error) {

	stats := &s.stats
	pending := s.prepareBlock(blk, topo, blockStart)
	s.blockEdges()
	lp := &s.leap
	live := s.order
	lp.sizeFor(len(live), len(s.blkEdges))
	lp.restart(blockStart + 1)
	lp.refUntil = 0
	compactBelow := 3 * pending / 4

	// Everything may act when the block opens. Count, per task, the FIFO
	// endpoints that feed the live-occupancy sum; FIFO edges are
	// intra-block and start empty, so the sum itself starts at zero.
	s.events = s.events[:0]
	lp.liveOcc, lp.resSum = 0, 0
	for _, ts := range live {
		s.wantStep[ts.id] = true
		s.isCompute[ts.id] = computeLike(ts)
		nin, nout := int32(0), int32(0)
		for _, e := range ts.inEdges {
			if e.kind == fifoEdge && !s.tasks[e.from].done {
				nin++
			}
		}
		for _, e := range ts.outEdges {
			if e.kind == fifoEdge {
				nout++
			}
		}
		s.nInLiveFifo[ts.id], s.nOutFifo[ts.id] = nin, nout
	}

	cycle := blockStart
	for pending > 0 {
		cycle++
		if cycle-blockStart > maxCycles {
			return cycle, fmt.Errorf("exceeded %d cycles", maxCycles)
		}
		stats.Leap.SteppedCycles++
		s.processDue(cycle)
		lp.actHash = 0
		progress := false
		finished := false
		for _, ts := range live {
			if ts.done || !s.wantStep[ts.id] {
				continue
			}
			s.wantStep[ts.id] = false
			c0, p0 := ts.c, ts.p
			if step(ts, cycle) {
				progress = true
				ts.finish = cycle
				s.wakeNeighborhood(ts)
				// Fold (who, read/write) into the cycle's action hash; the
				// sequence repeats exactly in a steady period.
				act := uint64(ts.id) << 2
				if ts.c != c0 {
					act |= 1
					lp.liveOcc -= int64(s.nInLiveFifo[ts.id])
				}
				if ts.p != p0 {
					act |= 2
					lp.liveOcc += int64(s.nOutFifo[ts.id])
				}
				lp.actHash = lp.actHash*0x100000001B3 ^ mixAct(act)
				if in, out := ts.node.In, ts.node.Out; s.isCompute[ts.id] && ts.c < in && ts.p < out {
					lp.resSum += (ts.c-c0)*out - (ts.p-p0)*in
				}
				if taskDone(ts) {
					ts.done = true
					stats.Finish[ts.id] = float64(ts.finish)
					pending--
					finished = true
					// This producer's output FIFOs now only drain: move
					// them out of the live-occupancy sum so their drift
					// cannot mask a period.
					for _, e := range ts.outEdges {
						if e.kind == fifoEdge {
							lp.liveOcc -= e.occ
							s.nInLiveFifo[e.to]--
						}
					}
				}
			} else {
				s.registerBlockedWakes(ts, cycle)
			}
		}
		if s.resolveBufs(cycle, true) {
			progress = true
		}
		if finished {
			// Completions end any steady period. Once enough tasks are done,
			// shrink the working set: tail phases where a handful of slow
			// streams drain then cost O(remaining) instead of O(block).
			if pending < compactBelow {
				live = compactTasks(live)
				s.blkEdges = s.compactEdges(s.blkEdges)
				compactBelow = 3 * pending / 4
				stats.Leap.Compactions++
			}
			lp.restart(cycle + 1)
			continue
		}
		if !progress {
			wake := s.memoryWakeOf(live, cycle)
			if wake == math.MaxInt64 {
				stats.Deadlocked = true
				stats.DeadlockCycle = cycle
				return cycle, nil
			}
			cycle = wake // readable from wake+1; loop increments
			for _, ts := range live {
				s.wantStep[ts.id] = true
			}
			lp.restart(wake + 1)
			continue
		}

		// Period detection on the cycle's action hash and live occupancy: a
		// repeat proposes a candidate period, confirmed against the full
		// control state.
		h := mixAct(lp.actHash ^ uint64(lp.liveOcc)*0x9E3779B97F4A7C15 ^ uint64(lp.resSum)*0xBF58476D1CE4E5B9)
		if lp.anchored && cycle == lp.confirmAt {
			period := cycle - lp.aCycle
			if h == lp.aHash && s.stateMatchesAnchor(live, cycle) {
				stats.Leap.Verified++
				if n := s.leapBound(live, blockStart, maxCycles, cycle, period); n >= 1 {
					s.applyLeap(live, n)
					cycle += n * period
					stats.Leap.Leaps++
					stats.Leap.LeapedCycles += n * period
					lp.refUntil = 0
					lp.restart(cycle + 1)
					continue
				}
				// State matched but the leap bound was empty: an event
				// boundary is at most a period away and will be crossed in
				// the exact loop; nothing to refute.
			} else if h == lp.aHash {
				// The action pattern repeats but the state drifts: mute the
				// hash for a while instead of re-paying the compare.
				stats.Leap.Refuted++
				lp.refHash, lp.refUntil = h, cycle+refRetry
			} else {
				// The action pattern itself changed before confirmation.
				stats.Leap.Refuted++
			}
			lp.anchored = false
		}
		if !lp.anchored && !(cycle < lp.refUntil && h == lp.refHash) {
			// Scan for the smallest lag at which this hash occurred before;
			// a hit proposes a candidate period, verified one period later.
			maxLag := min(int64(leapWindow), cycle-lp.ringFrom)
			for lag := int64(1); lag <= maxLag; lag++ {
				if lp.ring[(cycle-lag)%leapWindow] == h {
					lp.anchor(s, live, cycle, h, lag)
					break
				}
			}
		}
		lp.ring[cycle%leapWindow] = h
	}
	return s.finishBlock(blk, blockStart, cycle), nil
}

// memoryWakeOf is memoryWake over the compacted live list.
func (s *Scratch) memoryWakeOf(live []*taskState, cycle int64) int64 {
	wake := int64(math.MaxInt64)
	for _, ts := range live {
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
