package buffers

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/schedule"
)

// sizesReference is the executable specification of Sizes: Section 6
// applied block by block with map-backed sets, then one global sort. The
// slice-backed Sizer must match it edge for edge.
func sizesReference(t *core.TaskGraph, r *schedule.Result) []EdgeSpace {
	var out []EdgeSpace
	for _, blk := range r.Partition.Blocks {
		out = append(out, sizeBlock(t, r, blk)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// sizeBlock applies Equation 5 within one spatial block.
func sizeBlock(t *core.TaskGraph, r *schedule.Result, blk schedule.Block) []EdgeSpace {
	inBlk := make(map[graph.NodeID]bool, len(blk.Nodes))
	for _, v := range blk.Nodes {
		inBlk[v] = true
	}
	streaming := func(u, v graph.NodeID) bool {
		return inBlk[u] && inBlk[v] && r.Partition.Streaming(t, u, v)
	}
	// Delay paths can also run through in-block buffer nodes (Figure 4,
	// graph 2: the norm value reaches the divider only after the whole
	// input was consumed), so cycle detection and the per-node delay bound
	// consider every in-block edge, while only streaming edges receive
	// FIFO space.
	inBlockEdge := func(u, v graph.NodeID) bool { return inBlk[u] && inBlk[v] }

	onCycle := cycleNodes(t, blk, inBlockEdge)

	var out []EdgeSpace
	for _, v := range blk.Nodes {
		preds, vols := t.G.Preds(v), t.G.PredVolumes(v)
		// The highest delay any element experiences reaching v is the
		// largest first-out time among its in-block predecessors, whether
		// they stream directly or emit from a buffer.
		maxFO := math.Inf(-1)
		nPreds := 0
		for _, u := range preds {
			if inBlockEdge(u, v) {
				nPreds++
				if r.FO[u] > maxFO {
					maxFO = r.FO[u]
				}
			}
		}
		// Size every streaming edge into v.
		for i, u := range preds {
			if !streaming(u, v) {
				continue
			}
			space := int64(MinDepth)
			cyc := onCycle[v] && nPreds > 1
			if cyc {
				so := r.So[u]
				if so < 1 {
					so = 1
				}
				// Clamp in float64 before converting: a slack beyond
				// 2^63 must not wrap to a negative depth.
				if need, vol := math.Ceil((maxFO-r.FO[u])/so), vols[i]; need >= float64(vol) {
					space = vol // never need more than the total data sent
				} else if int64(need) > space {
					space = int64(need)
				}
			}
			out = append(out, EdgeSpace{From: u, To: v, Space: space, OnCycle: cyc})
		}
	}
	return out
}

// cycleNodes returns the set of block nodes lying on an undirected cycle of
// the block's streaming subgraph. A node is on an undirected cycle exactly
// when it survives in the 2-core of the undirected graph (iteratively
// pruning nodes of degree < 2), which is equivalent to the marked-ancestor
// DFS the paper describes and runs in O(V + E).
//
// A virtual super-source is connected to every stream entry of the block
// (nodes with no in-block streaming predecessor): independent streams are
// coupled through the environment they all draw from, so a join of two
// source-fed chains can stall exactly like a reconvergent diamond — this is
// the situation of Figure 9, graph 2.
func cycleNodes(t *core.TaskGraph, blk schedule.Block, inBlockEdge func(u, v graph.NodeID) bool) map[graph.NodeID]bool {
	const virtual = graph.NodeID(-2) // super-source sentinel
	deg := make(map[graph.NodeID]int, len(blk.Nodes))
	adj := make(map[graph.NodeID][]graph.NodeID, len(blk.Nodes))
	for _, v := range blk.Nodes {
		for _, w := range t.G.Succs(v) {
			if inBlockEdge(v, w) {
				deg[v]++
				deg[w]++
				adj[v] = append(adj[v], w)
				adj[w] = append(adj[w], v)
			}
		}
	}
	for _, v := range blk.Nodes {
		entry := deg[v] > 0 // participates in a stream...
		for _, u := range t.G.Preds(v) {
			if inBlockEdge(u, v) {
				entry = false // ...but is fed within the block
				break
			}
		}
		if entry {
			deg[v]++
			deg[virtual]++
			adj[v] = append(adj[v], virtual)
			adj[virtual] = append(adj[virtual], v)
		}
	}
	// Peel degree-<2 nodes.
	var queue []graph.NodeID
	removed := make(map[graph.NodeID]bool)
	for _, v := range blk.Nodes {
		if deg[v] < 2 {
			queue = append(queue, v)
			removed[v] = true
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if removed[w] {
				continue
			}
			deg[w]--
			if deg[w] < 2 {
				removed[w] = true
				queue = append(queue, w)
			}
		}
	}
	onCycle := make(map[graph.NodeID]bool)
	for _, v := range blk.Nodes {
		if deg[v] >= 2 && !removed[v] {
			onCycle[v] = true
		}
	}
	return onCycle
}
