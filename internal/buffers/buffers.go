// Package buffers computes the FIFO buffer space needed for deadlock-free
// execution of pipelined (streaming) communications, following Section 6 of
// the paper. Streaming channels use blocking-after-service semantics, so an
// undersized FIFO on one of several disjoint paths between two tasks can
// stall the producer and deadlock the whole spatial block even though the
// task graph is acyclic.
//
// Deadlocks can only occur along streaming paths, so each spatial block is
// analyzed independently. Within a block, only nodes lying on an undirected
// cycle are at risk; for an incident streaming edge (u,v) of such a node the
// required space is the extra delay data experiences on the slowest sibling
// path, divided by the production interval of u (Equation 5), capped by the
// edge's total data volume.
//
// Entry points: Sizes derives the per-edge FIFO depths of a schedule, a
// slice sorted by (From, To) that desim.Config.FIFOCap reads as is, and
// CycleSpace sums the deadlock-freedom budget. Sizing
// is a pure function of the frozen graph and its schedule — no
// randomness, no state — so sized simulations are reproducible and
// cacheable.
//
// Hot loops size through a reusable Sizer (Sizes is new(Sizer).Sizes), the
// same scratch contract as schedule.Scheduler: one Sizer per worker, whose
// steady-state calls allocate only the returned slice. All blocks are sized
// in two passes over the graph with per-node slices indexed by node ID: "in
// block" is BlockOf[u] == BlockOf[v], the first pass counts each node's
// in-block predecessors (two of them put a node on an undirected cycle, see
// Sizer.Sizes) and their largest first-out time, the second emits the
// streaming edges in (From, To) order.
package buffers

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/schedule"
	"repro/internal/scratch"
)

// EdgeSpace is the computed FIFO depth for one streaming edge.
type EdgeSpace struct {
	From, To graph.NodeID
	// Space is the FIFO depth in elements. At least MinDepth even for edges
	// that need no slack.
	Space int64
	// OnCycle reports whether Equation 5 applies: the edge's head has more
	// than one in-block predecessor, and so lies on an undirected cycle of
	// its spatial block.
	OnCycle bool
}

// MinDepth is the smallest FIFO depth assigned to any streaming edge. One
// element suffices for bubble-free rate-1 pipelining under
// consume-then-produce channel semantics.
const MinDepth = 1

// Sizes computes the buffer space of every streaming edge of the scheduled
// graph, sorted by (From, To). It allocates fresh scratch state; hot loops
// should prefer Sizer.Sizes.
func Sizes(t *core.TaskGraph, r *schedule.Result) []EdgeSpace {
	return new(Sizer).Sizes(t, r)
}

// Deprecated: SizeMap is Sizes, kept only for the benchmark module.
func SizeMap(t *core.TaskGraph, r *schedule.Result) []EdgeSpace { return Sizes(t, r) }

// CycleSpace sums the Equation 5 requirement over sizes: the number of
// edges whose head lies on an undirected cycle, and their total FIFO
// slots (the deadlock-freedom budget the reports print).
func CycleSpace(sizes []EdgeSpace) (edges int, slots int64) {
	for _, e := range sizes {
		if e.OnCycle {
			edges++
			slots += e.Space
		}
	}
	return edges, slots
}

// Sizer computes Sizes while reusing its per-node scratch across calls. The
// zero value is ready to use; a Sizer must not be used from multiple
// goroutines at once. The slices it returns are fresh, so they stay valid
// after further calls.
type Sizer struct {
	// preds counts each node's in-block predecessors and maxFO holds the
	// largest first-out time among them.
	preds []int32
	maxFO []float64
}

// Sizes is the scratch-reusing equivalent of the package-level Sizes. The
// schedule's partition must be valid, as schedule.Schedule checks.
//
// Equation 5 applies to the edges whose head lies on an undirected cycle of
// its block and has more than one in-block predecessor. Section 6 finds the
// cycles by peeling the block down to its 2-core, with a virtual
// super-source tied to every stream entry (a node with in-block successors
// but no in-block predecessor): independent streams are coupled through the
// environment they all draw from, so a join of two source-fed chains can
// stall exactly like a reconvergent diamond, as in Figure 9, graph 2. With
// that super-source the second condition implies the first, so no peeling
// is needed: tracing each of two in-block predecessors back through
// in-block edges ends at a stream entry, and any two entries meet at the
// super-source, so the predecessors are connected without the head, which
// therefore lies on a cycle through both. The differential tests pin this
// against the peeling reference.
func (s *Sizer) Sizes(t *core.TaskGraph, r *schedule.Result) []EdgeSpace {
	n, blockOf := t.G.Len(), r.Partition.BlockOf
	s.preds = scratch.GrowSlice(s.preds, n)
	s.maxFO = scratch.GrowSlice(s.maxFO, n)

	// Delay paths can also run through in-block buffer nodes (Figure 4,
	// graph 2: the norm value reaches the divider only after the whole
	// input was consumed), so the cycle test and the per-node delay bound
	// consider every in-block edge, while only streaming edges receive
	// FIFO space.
	edges := 0
	for u := 0; u < n; u++ {
		b, uBuf := blockOf[u], t.Nodes[u].Kind == core.Buffer
		for _, w := range t.G.Succs(graph.NodeID(u)) {
			if blockOf[w] != b {
				continue
			}
			if s.preds[w] == 0 || r.FO[u] > s.maxFO[w] {
				s.maxFO[w] = r.FO[u]
			}
			s.preds[w]++
			if !uBuf && t.Nodes[w].Kind != core.Buffer {
				edges++
			}
		}
	}
	if edges == 0 {
		return nil
	}

	out := make([]EdgeSpace, 0, edges)
	for u := 0; u < n; u++ {
		if t.Nodes[u].Kind == core.Buffer {
			continue
		}
		from, b, start := graph.NodeID(u), blockOf[u], len(out)
		vols := t.G.SuccVolumes(from)
		for i, v := range t.G.Succs(from) {
			if blockOf[v] != b || t.Nodes[v].Kind == core.Buffer {
				continue
			}
			e := EdgeSpace{From: from, To: v, Space: MinDepth, OnCycle: s.preds[v] > 1}
			if e.OnCycle {
				e.Space = equation5(s.maxFO[v]-r.FO[u], r.So[u], vols[i])
			}
			out = append(out, e)
		}
		if byTo := func(a, b EdgeSpace) int { return cmp.Compare(a.To, b.To) }; !slices.IsSortedFunc(out[start:], byTo) {
			slices.SortFunc(out[start:], byTo)
		}
	}
	return out
}

// equation5 is the FIFO depth of a streaming edge whose head lies on an
// undirected cycle: the slack behind the slowest in-block predecessor of
// the head, in elements of the tail's production interval so, capped by the
// edge's volume. The cap is applied in float64 before converting, so a
// slack beyond 2^63 cannot wrap to a negative depth.
func equation5(slack, so float64, vol int64) int64 {
	if so < 1 {
		so = 1
	}
	need := math.Ceil(slack / so)
	if need >= float64(vol) {
		return vol // never need more than the total data sent
	}
	return max(int64(need), MinDepth)
}
