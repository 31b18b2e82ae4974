// The incremental fast path of Algorithm 1. PartitionReference (the
// executable specification in partition.go) rescans the whole frontier on
// every placement, which is quadratic on wide graphs. This file replaces
// the scan with per-class binary heaps, exploiting one invariant of the
// algorithm:
//
//	A node enters the frontier only when ALL of its predecessors are
//	placed. From that moment until the current block closes, nothing that
//	determines its candidate class can change: the set of its predecessors
//	in the current block is fixed, and their governing source volumes
//	(srcO) are immutable once assigned.
//
// So a node can be classified ONCE at frontier entry — passive, class-1
// (produces within the governing volume), block source, or least-producing
// — and pushed into the matching heap, keyed by the reference comparator
// ((level, Out, ID); the least-producing class orders by (Out, level, ID)).
// The only global invalidation is a block close, after which every compute
// node in the frontier is a block source: closeBlock drains the class-1 and
// least-producing heaps into the block-source heap. Each node is classified
// once and migrates at most once, so total heap traffic is O(V log V) and
// the whole partition runs in O((V + E) log V). Passive nodes never migrate;
// their stale "had a predecessor in the block" bit is resolved at pop time
// by an epoch check.
//
// Per-block membership uses epoch stamps (inCurEpoch) instead of a boolean
// array cleared per block, and all state lives in a reusable Partitioner so
// steady-state calls allocate nothing (the TestPartitionAllocFree contract,
// mirroring desim.Scratch and Scheduler).
package schedule

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/scratch"
)

// The four candidate classes of Algorithm 1, in pick priority order; each
// indexes one heap of the Partitioner.
const (
	heapPassive  = iota // buffers/sources/sinks: free to place
	heapClass1          // produces within the governing volume
	heapBlockSrc        // would start a fresh stream
	heapLeast           // SB-RLX fallback: smallest produced volume
	numHeaps
)

// Partitioner carries the reusable scratch state of the fast Algorithm 1
// path. Like Scheduler and desim.Scratch, one instance per worker: it must
// not be shared across goroutines, and the Partition it returns aliases the
// scratch arenas, so it is valid only until the next Partition call on the
// same instance. Algorithm1 wraps a fresh Partitioner per call for callers
// that keep the result.
type Partitioner struct {
	t     *core.TaskGraph
	epoch int32 // current block number + 1; inCurEpoch[v] == epoch means "in current block"

	remIn      []int32 // remaining unplaced predecessors
	level      []int32 // structural level, for tie breaks
	srcO       []int64 // governing source volume once placed
	inCurEpoch []int32 // epoch the node was placed in
	classEpoch []int32 // epoch a passive node was classified in
	hadPred    []bool  // passive node had an in-block predecessor at classification

	heaps    [numHeaps][]graph.NodeID
	frontier int // total nodes across the four heaps

	// Output arenas: nodes in placement order, block views over them, and
	// the node-to-block map. Reused across calls.
	arena   []graph.NodeID
	blocks  []Block
	blockOf []int

	placed   int // nodes placed so far (next free arena slot)
	curStart int // arena index where the current block begins
	curCC    int // compute count of the current block
}

// NewPartitioner returns an empty Partitioner; the first Partition call
// sizes its scratch.
func NewPartitioner() *Partitioner { return &Partitioner{} }

// Partition runs Algorithm 1 over the graph, byte-identical to
// PartitionReference. The returned Partition aliases this Partitioner's
// scratch and is invalidated by the next Partition call on it.
func (pt *Partitioner) Partition(t *core.TaskGraph, p int, opt Options) (Partition, error) {
	if p < 1 {
		return Partition{}, fmt.Errorf("schedule: need at least one PE, got %d", p)
	}
	n := t.G.Len()
	pt.t = t
	pt.epoch = 1
	pt.remIn = scratch.GrowSlice(pt.remIn, n)
	pt.level = scratch.GrowSlice(pt.level, n)
	pt.srcO = scratch.GrowSlice(pt.srcO, n)
	pt.inCurEpoch = scratch.GrowSlice(pt.inCurEpoch, n)
	pt.classEpoch = scratch.GrowSlice(pt.classEpoch, n)
	pt.hadPred = scratch.GrowSlice(pt.hadPred, n)
	pt.arena = scratch.GrowSlice(pt.arena, n)
	pt.blockOf = scratch.GrowSlice(pt.blockOf, n)
	pt.blocks = pt.blocks[:0]
	for i := range pt.heaps {
		pt.heaps[i] = pt.heaps[i][:0]
	}
	pt.frontier, pt.placed, pt.curStart, pt.curCC = 0, 0, 0, 0

	// Structural levels from the cached topo order. graph.Levels computes
	// the same values but allocates a fresh slice per call.
	for _, v := range t.G.Topo() {
		best := int32(0)
		for _, u := range t.G.Preds(v) {
			if pt.level[u] > best {
				best = pt.level[u]
			}
		}
		pt.level[v] = best + 1
	}
	for v := 0; v < n; v++ {
		pt.remIn[v] = int32(t.G.InDegree(graph.NodeID(v)))
	}
	for v := 0; v < n; v++ {
		if pt.remIn[v] == 0 {
			pt.admit(graph.NodeID(v))
		}
	}

	for remaining := n; remaining > 0; {
		if pt.frontier == 0 {
			return Partition{}, fmt.Errorf("schedule: no sources left with %d nodes unplaced (cycle?)", remaining)
		}
		cand := graph.InvalidNode
		candBlockSource := false
		if pt.curCC < p {
			cand, candBlockSource = pt.pick(opt.Variant)
		}
		if cand != graph.InvalidNode {
			pt.place(cand, candBlockSource)
			remaining--
		}
		if pt.curCC >= p || cand == graph.InvalidNode {
			if pt.placed == pt.curStart {
				// Defensive: should not happen because a fresh block always
				// accepts a block source.
				return Partition{}, fmt.Errorf("schedule: empty block with %d nodes unplaced", remaining)
			}
			pt.closeBlock()
		}
	}
	if pt.placed > pt.curStart {
		pt.closeBlock()
	}
	return Partition{Blocks: pt.blocks, BlockOf: pt.blockOf}, nil
}

// admit classifies a node the moment it enters the frontier (all
// predecessors placed) and pushes it into its class heap. Per the file
// comment, the classification stays valid until the current block closes.
func (pt *Partitioner) admit(v graph.NodeID) {
	pt.frontier++
	t := pt.t
	if !countsTowardP(t, v) {
		pt.classEpoch[v] = pt.epoch
		pt.hadPred[v] = false
		for _, u := range t.G.Preds(v) {
			if pt.inCurEpoch[u] == pt.epoch {
				pt.hadPred[v] = true
				break
			}
		}
		pt.push(heapPassive, v)
		return
	}
	gov := int64(-1)
	for _, u := range t.G.Preds(v) {
		if pt.inCurEpoch[u] == pt.epoch && pt.srcO[u] > gov {
			gov = pt.srcO[u]
		}
	}
	switch {
	case gov < 0: // no predecessor in the current block
		pt.push(heapBlockSrc, v)
	case t.Nodes[v].Out <= gov:
		pt.push(heapClass1, v)
	default:
		pt.push(heapLeast, v)
	}
}

// pick mirrors pickCandidate's class priority: passive, class 1, block
// source, then (SB-RLX only) least-producing. Each heap's minimum is the
// node the reference scan would select for that class.
func (pt *Partitioner) pick(variant Variant) (graph.NodeID, bool) {
	if len(pt.heaps[heapPassive]) > 0 {
		v := pt.pop(heapPassive)
		// The entry-time "had an in-block predecessor" bit is stale once the
		// block it was computed in has closed; then the node starts a fresh
		// stream, exactly as the reference's pick-time re-evaluation finds.
		return v, !(pt.classEpoch[v] == pt.epoch && pt.hadPred[v])
	}
	if len(pt.heaps[heapClass1]) > 0 {
		return pt.pop(heapClass1), false
	}
	if len(pt.heaps[heapBlockSrc]) > 0 {
		return pt.pop(heapBlockSrc), true // class 2
	}
	if variant == SBRLX && len(pt.heaps[heapLeast]) > 0 {
		return pt.pop(heapLeast), false // class 3
	}
	return graph.InvalidNode, false
}

// place assigns v to the current block; identical arithmetic to the
// reference's place closure, minus the frontier deletion (v was already
// popped from its heap).
func (pt *Partitioner) place(v graph.NodeID, asBlockSource bool) {
	pt.frontier--
	t := pt.t
	pt.inCurEpoch[v] = pt.epoch
	pt.arena[pt.placed] = v
	pt.placed++
	pt.blockOf[v] = len(pt.blocks)
	if countsTowardP(t, v) {
		pt.curCC++
	}
	if asBlockSource {
		pt.srcO[v] = t.Nodes[v].Out
	} else {
		best := int64(-1)
		for _, u := range t.G.Preds(v) {
			if pt.inCurEpoch[u] == pt.epoch && pt.srcO[u] > best {
				best = pt.srcO[u]
			}
		}
		if o := t.Nodes[v].Out; o > best {
			best = o
		}
		pt.srcO[v] = best
	}
	for _, w := range t.G.Succs(v) {
		pt.remIn[w]--
		if pt.remIn[w] == 0 {
			pt.admit(w)
		}
	}
}

// closeBlock seals the current block and reclassifies the frontier for the
// next one: with the block empty again, every compute candidate is a block
// source, so the class-1 and least-producing heaps drain into the
// block-source heap. A node migrates this way at most once in its lifetime
// (it is never reclassified back), which keeps total heap work O(V log V).
func (pt *Partitioner) closeBlock() {
	pt.blocks = append(pt.blocks, Block{
		Nodes:        pt.arena[pt.curStart:pt.placed:pt.placed],
		ComputeCount: pt.curCC,
	})
	pt.curStart = pt.placed
	pt.curCC = 0
	pt.epoch++
	for len(pt.heaps[heapClass1]) > 0 {
		pt.push(heapBlockSrc, pt.pop(heapClass1))
	}
	for len(pt.heaps[heapLeast]) > 0 {
		pt.push(heapBlockSrc, pt.pop(heapLeast))
	}
}

// less is the deterministic preference order within class h — the exact
// comparator of the reference scan: (level, Out, ID), except the
// least-producing class which prefers the smallest produced volume first.
func (pt *Partitioner) less(h int, a, b graph.NodeID) bool {
	la, lb := pt.level[a], pt.level[b]
	oa, ob := pt.t.Nodes[a].Out, pt.t.Nodes[b].Out
	if h == heapLeast {
		if oa != ob {
			return oa < ob
		}
		if la != lb {
			return la < lb
		}
		return a < b
	}
	if la != lb {
		return la < lb
	}
	if oa != ob {
		return oa < ob
	}
	return a < b
}

// push inserts v into heap h (binary sift-up).
func (pt *Partitioner) push(h int, v graph.NodeID) {
	s := append(pt.heaps[h], v)
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !pt.less(h, s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	pt.heaps[h] = s
}

// pop removes and returns the minimum of heap h (binary sift-down).
func (pt *Partitioner) pop(h int) graph.NodeID {
	s := pt.heaps[h]
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(s) {
			break
		}
		m := l
		if r := l + 1; r < len(s) && pt.less(h, s[r], s[l]) {
			m = r
		}
		if !pt.less(h, s[m], s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	pt.heaps[h] = s
	return top
}
