package schedule

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/scratch"
)

// Result is a complete streaming schedule: the partition, per-node times,
// block-local streaming intervals, and PE assignments.
type Result struct {
	Partition Partition

	// ST, FO, LO are the starting, first-out, and last-out times of every
	// node (Section 5.1). For sinks FO = LO = arrival of the last element.
	ST, FO, LO []float64

	// So, Si are the block-local steady-state streaming intervals of every
	// node, computed per weakly connected component of the buffer-split
	// subgraph induced by the node's block (Theorem 4.1 applied per block).
	So, Si []float64

	// Comp is the per-block WCC index of each node (head side for buffers),
	// unique across blocks.
	Comp []int

	// PE assigns every computational node a processing element in
	// [0, P); -1 for passive nodes.
	PE []int

	// BlockStart[i] is the barrier time at which block i begins: all tasks
	// of block i-1 have completed (Section 5.1).
	BlockStart []float64

	// Makespan is the schedule length: max finishing time over all nodes.
	Makespan float64
}

// Scheduler evaluates schedules while reusing its internal scratch buffers
// (block membership marks, buffer-fill times, the union-find of the
// per-block components) across calls. Sweeps that schedule many graphs
// allocate one Scheduler per worker; a Scheduler must not be used from
// multiple goroutines at once. The zero value is ready to use. The returned
// Results own all their slices, so they stay valid after further Schedule
// calls, and those slices are all a call allocates beyond Validate's.
type Scheduler struct {
	bufferFill []float64
	inBlk      []bool  // blockTimes: node in current block
	localIdx   []int32 // blockIntervals: node -> local index, -1 outside
	// blockIntervals, by local index: the block node (or buffer) it stands
	// for, the union-find parent and component, and, for block node i,
	// the index it emits from.
	owner              []graph.NodeID
	parent, comp, side []int32
	maxOut             []int64        // blockIntervals: per component
	rank               []int32        // node -> position in the graph's topological order
	order              []graph.NodeID // blockTimes: a block's nodes sorted by rank
}

// NewScheduler returns a Scheduler with empty scratch buffers.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Schedule computes the streaming schedule for a frozen canonical task graph
// under the given partition. P is the number of processing elements and is
// only used to validate the partition and assign PEs. It allocates fresh
// scratch state; hot loops should prefer Scheduler.Schedule.
func Schedule(t *core.TaskGraph, part Partition, p int) (*Result, error) {
	return NewScheduler().Schedule(t, part, p)
}

// Schedule is the scratch-reusing equivalent of the package-level Schedule.
func (s *Scheduler) Schedule(t *core.TaskGraph, part Partition, p int) (*Result, error) {
	if err := part.Validate(t, p); err != nil {
		return nil, err
	}
	n := t.G.Len()
	r := &Result{
		Partition:  part,
		ST:         make([]float64, n),
		FO:         make([]float64, n),
		LO:         make([]float64, n),
		So:         make([]float64, n),
		Si:         make([]float64, n),
		Comp:       make([]int, n),
		PE:         make([]int, n),
		BlockStart: make([]float64, len(part.Blocks)),
	}
	for v := range r.PE {
		r.PE[v] = -1
	}

	// bufferFill[v]: for buffer nodes, the time the tail has received all
	// its input; consumers in later blocks read from memory and only need
	// the fill time, not the emission time.
	s.bufferFill = scratch.GrowFloats(s.bufferFill, n)
	s.inBlk = scratch.GrowBools(s.inBlk, n)
	if cap(s.localIdx) < n {
		s.localIdx = make([]int32, n)
	}
	s.localIdx = s.localIdx[:n]
	for i := range s.localIdx {
		s.localIdx[i] = -1
	}
	if cap(s.rank) < n {
		s.rank = make([]int32, n)
	}
	s.rank = s.rank[:n]
	for i, v := range t.G.Topo() {
		s.rank[v] = int32(i)
	}

	compBase := 0
	blockStart := 0.0
	for bi, blk := range part.Blocks {
		r.BlockStart[bi] = blockStart
		compBase = s.blockIntervals(r, t, blk, compBase)
		r.assignPEs(t, blk)
		end := s.blockTimes(r, t, blk, blockStart)
		if end > r.Makespan {
			r.Makespan = end
		}
		// Barrier: the next block starts once every task of this block has
		// completed.
		blockStart = end
	}
	return r, nil
}

// blockIntervals computes block-local streaming intervals (Theorem 4.1 on
// the subgraph induced by the block, after buffer splitting) and stores them
// into r.So/r.Si/r.Comp. compBase offsets component IDs so they stay unique
// across blocks; the new base is returned.
func (s *Scheduler) blockIntervals(r *Result, t *core.TaskGraph, blk Block, compBase int) int {
	localIdx := s.localIdx // node -> local index; -1 outside the block
	for i, v := range blk.Nodes {
		localIdx[v] = int32(i)
	}
	defer func() {
		for _, v := range blk.Nodes {
			localIdx[v] = -1
		}
	}()

	// Split the buffers: local index i is block node i (a buffer's tail
	// side), and each buffer's head side gets an index after all block
	// nodes. side[i] is the index node i emits from.
	nb := len(blk.Nodes)
	owner, side := append(s.owner[:0], blk.Nodes...), s.side[:0]
	for i, v := range blk.Nodes {
		if t.Nodes[v].Kind == core.Buffer {
			side = append(side, int32(len(owner)))
			owner = append(owner, v)
		} else {
			side = append(side, int32(i))
		}
	}
	s.owner, s.side = owner, side
	s.parent = scratch.GrowInt32s(s.parent, len(owner))
	for i := range s.parent {
		s.parent[i] = int32(i)
	}
	for i, v := range blk.Nodes {
		for _, w := range t.G.Succs(v) {
			if wi := localIdx[w]; wi >= 0 { // cross-block edges are buffered, not part of the stream
				s.union(side[i], wi)
			}
		}
	}
	// Number the weakly connected components densely in the order of
	// their smallest local index, which union keeps as the root.
	comp, count := scratch.GrowInt32s(s.comp, len(owner)), int32(0)
	for sv := range comp {
		if root := s.find(int32(sv)); root == int32(sv) {
			comp[sv] = count
			count++
		} else {
			comp[sv] = comp[root]
		}
	}
	s.comp = comp

	maxOut := scratch.GrowInts(s.maxOut, int(count))
	s.maxOut = maxOut
	for sv, v := range owner {
		node := t.Nodes[v]
		out := node.Out
		if node.Kind == core.Buffer && sv < nb {
			out = 0 // tail side produces nothing downstream
		}
		// A node that ingests data produced outside this stream (a block
		// source re-reading memory, or a buffer head replaying its content)
		// is still rate-limited to one element per cycle per input edge, so
		// its input volume bounds the component period too. For nodes fed
		// within the component this is a no-op: their In equals the
		// producer's Out, which is already counted.
		if node.Kind != core.Source && t.G.InDegree(v) > 0 && node.In > out && sv < nb {
			out = node.In
		}
		if out > maxOut[comp[sv]] {
			maxOut[comp[sv]] = out
		}
	}

	for i, v := range blk.Nodes {
		node := t.Nodes[v]
		headComp := comp[side[i]]
		r.Comp[v] = compBase + int(headComp)
		if node.Kind != core.Sink && node.Out > 0 {
			r.So[v] = float64(maxOut[headComp]) / float64(node.Out)
			if r.So[v] < 1 {
				r.So[v] = 1
			}
		}
		if node.Kind != core.Source && node.In > 0 {
			r.Si[v] = float64(maxOut[comp[i]]) / float64(node.In)
			if r.Si[v] < 1 {
				r.Si[v] = 1
			}
		}
	}
	return compBase + int(count)
}

// find returns the root of x's union-find tree, halving the path.
func (s *Scheduler) find(x int32) int32 {
	p := s.parent
	for p[x] != x {
		p[x] = p[p[x]]
		x = p[x]
	}
	return x
}

// union merges the trees of a and b under the smaller root, so every root
// is the smallest local index of its component.
func (s *Scheduler) union(a, b int32) {
	ra, rb := s.find(a), s.find(b)
	if ra > rb {
		ra, rb = rb, ra
	}
	s.parent[rb] = ra
}

// assignPEs gives each computational node of the block a PE index.
func (r *Result) assignPEs(t *core.TaskGraph, blk Block) {
	pe := 0
	for _, v := range blk.Nodes {
		if countsTowardP(t, v) {
			r.PE[v] = pe
			pe++
		}
	}
}

// blockTimes evaluates the ST/FO/LO recurrences of Section 5.1 for one block
// and returns the completion time of the block (max LO over its nodes).
func (s *Scheduler) blockTimes(r *Result, t *core.TaskGraph, blk Block, blockStart float64) float64 {
	inBlk, bufferFill := s.inBlk, s.bufferFill
	for _, v := range blk.Nodes {
		inBlk[v] = true
	}
	defer func() {
		for _, v := range blk.Nodes {
			inBlk[v] = false
		}
	}()

	end := blockStart
	for _, v := range s.topoOrder(blk) {
		node := t.Nodes[v]
		graphSource := t.G.InDegree(v) == 0

		// Classify predecessors and gather their contribution.
		maxInFO := math.Inf(-1)   // max FO over in-block predecessors
		maxOutLO := math.Inf(-1)  // max (memory-availability) over cross-block predecessors
		maxPredLO := math.Inf(-1) // max LO over all predecessors (block-local view)
		hasInPred := false
		for _, u := range t.G.Preds(v) {
			if inBlk[u] {
				hasInPred = true
				if r.FO[u] > maxInFO {
					maxInFO = r.FO[u]
				}
				if r.LO[u] > maxPredLO {
					maxPredLO = r.LO[u]
				}
			} else {
				avail := r.LO[u]
				if t.Nodes[u].Kind == core.Buffer {
					avail = bufferFill[u] // data is in memory once the tail filled
				}
				if avail > maxOutLO {
					maxOutLO = avail
				}
				if avail > maxPredLO {
					maxPredLO = avail
				}
			}
		}

		rate := node.Rate()
		switch {
		case node.Kind == core.Sink:
			// Sinks absorb into memory; the last element arrives when the
			// slowest producer emits it.
			r.ST[v] = math.Max(blockStart, maxInFO)
			if !hasInPred {
				r.ST[v] = math.Max(blockStart, maxOutLO)
			}
			r.FO[v] = math.Max(blockStart, maxPredLO)
			r.LO[v] = r.FO[v]

		case node.Kind == core.Buffer:
			// A buffer waits for the completion of all preceding tasks,
			// then emits O elements at its head interval.
			base := math.Max(blockStart, maxPredLO)
			if math.IsInf(base, -1) {
				base = blockStart
			}
			bufferFill[v] = base
			r.ST[v] = base
			r.FO[v] = base + 1
			r.LO[v] = base + math.Ceil((float64(node.Out)-1)*r.So[v]) + 1

		case graphSource:
			// Source of the whole task graph (explicit Source node or an
			// entry computational task reading from memory).
			r.ST[v] = blockStart
			r.FO[v] = blockStart + 1
			r.LO[v] = blockStart + math.Ceil((float64(node.Out)-1)*r.So[v]) + 1

		case !hasInPred:
			// Source of the block but not of the graph: waits for the
			// completion of tasks in previous blocks, then streams its data
			// from memory. Unlike a graph source it has a real input volume;
			// re-reading it at one element per cycle floors the last-out
			// time at In cycles.
			base := math.Max(blockStart, maxOutLO)
			r.ST[v] = base
			if rate > 0 && rate < 1 {
				r.FO[v] = base + math.Ceil((1/rate-1)*r.Si[v]) + 1
			} else {
				r.FO[v] = base + 1
			}
			r.LO[v] = base + math.Max(
				math.Ceil((float64(node.Out)-1)*r.So[v])+1,
				float64(node.In))
			if fo := r.FO[v]; r.LO[v] < fo {
				r.LO[v] = fo
			}

		default:
			// Interior node of the block: Equation (3) and the first-out
			// recurrence. Mixed predecessors (some cross-block) contribute
			// their memory availability to the start.
			base := math.Max(blockStart, maxInFO)
			if !math.IsInf(maxOutLO, -1) {
				base = math.Max(base, maxOutLO)
			}
			r.ST[v] = base
			if rate > 0 && rate < 1 {
				r.FO[v] = base + math.Ceil((1/rate-1)*r.Si[v]) + 1
			} else {
				r.FO[v] = base + 1
			}
			loBase := math.Max(blockStart, maxPredLO)
			if rate > 1 {
				r.LO[v] = loBase + math.Ceil((rate-1)*r.So[v]) + 1
			} else {
				r.LO[v] = loBase + 1
			}
			if r.LO[v] < r.FO[v] {
				r.LO[v] = r.FO[v]
			}
		}

		if r.LO[v] > end {
			end = r.LO[v]
		}
	}
	return end
}

// topoOrder returns the block's nodes in the graph's topological order: the
// block list itself when it is already in that order, otherwise a sorted
// copy. Either way it costs the block, not the graph.
func (s *Scheduler) topoOrder(blk Block) []graph.NodeID {
	rank := s.rank
	for i := 1; i < len(blk.Nodes); i++ {
		if rank[blk.Nodes[i-1]] > rank[blk.Nodes[i]] {
			s.order = append(s.order[:0], blk.Nodes...)
			slices.SortFunc(s.order, func(a, b graph.NodeID) int { return int(rank[a]) - int(rank[b]) })
			return s.order
		}
	}
	return blk.Nodes
}

// SequentialTime returns T1: the sum of node works, i.e. the single-PE
// execution time (Section 4.2).
func SequentialTime(t *core.TaskGraph) float64 { return t.Work() }

// Speedup returns T1 / makespan for this schedule.
func (r *Result) Speedup(t *core.TaskGraph) float64 {
	if r.Makespan == 0 {
		return 0
	}
	return SequentialTime(t) / r.Makespan
}

// SSLR returns the Streaming Scheduling Length Ratio: makespan divided by
// the streaming depth T_s-infinity of the DAG (Section 7, comparison
// metrics). It is >= 1 and reaches 1 when the schedule matches the
// infinite-PE single-block execution.
func (r *Result) SSLR(t *core.TaskGraph) float64 {
	d := StreamingDepth(t)
	if d == 0 {
		return math.Inf(1)
	}
	return r.Makespan / d
}

// Utilization returns T1 / (P * makespan): the average fraction of the
// device kept busy.
func (r *Result) Utilization(t *core.TaskGraph, p int) float64 {
	if r.Makespan == 0 || p == 0 {
		return 0
	}
	return SequentialTime(t) / (float64(p) * r.Makespan)
}

// String summarizes the schedule for debugging.
func (r *Result) String() string {
	return fmt.Sprintf("schedule{blocks=%d makespan=%g}", len(r.Partition.Blocks), r.Makespan)
}
