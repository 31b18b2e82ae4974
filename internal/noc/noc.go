// Package noc models a 2D-mesh network-on-chip and places spatial blocks
// onto it. The paper's device model assumes contention-free communication
// and defers placement to future work (Section 9: "taking into account
// placement, which plays a crucial role in Coarse-Grained Reconfigurable
// Arrays"); this package provides that extension: XY-routed link loads,
// greedy BFS placement seeded by the schedule, and a simulated-annealing
// refinement that minimizes the maximum link congestion weighted by
// streaming traffic.
//
// Placement never changes the schedule's logical times — it reports how much
// the contention-free assumption is violated (the congestion factor), which
// bounds the slowdown a real mesh would add.
//
// The entry point is PlaceAll (graph, schedule, Mesh, anneal iterations,
// seed), which places every spatial block and returns per-block Placements
// and Costs. The annealer draws all randomness from the caller's int64
// seed, so placement is a pure function of (graph content, schedule, mesh,
// seed) — the invariant that makes placement cells content-addressable in
// the results cache and the placement tables byte-identical across runs.
package noc

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/schedule"
)

// Mesh is a W x H grid of PEs with bidirectional links between neighbors
// and dimension-ordered (XY) routing.
type Mesh struct {
	W, H int
}

// NewMesh returns a mesh with at least pes processing elements, as square
// as possible.
func NewMesh(pes int) Mesh {
	if pes < 1 {
		pes = 1
	}
	w := int(math.Ceil(math.Sqrt(float64(pes))))
	h := (pes + w - 1) / w
	return Mesh{W: w, H: h}
}

// PEs returns the number of processing elements in the mesh.
func (m Mesh) PEs() int { return m.W * m.H }

// Coord converts a PE index to mesh coordinates.
func (m Mesh) Coord(pe int) (x, y int) { return pe % m.W, pe / m.W }

// Index converts mesh coordinates to a PE index.
func (m Mesh) Index(x, y int) int { return y*m.W + x }

// Hops returns the Manhattan distance between two PEs (the XY route
// length).
func (m Mesh) Hops(a, b int) int {
	ax, ay := m.Coord(a)
	bx, by := m.Coord(b)
	return abs(ax-bx) + abs(ay-by)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// linkID identifies a directed mesh link.
type linkID struct {
	fromX, fromY, toX, toY int
}

// route appends the XY-route links from a to b to dst.
func (m Mesh) route(a, b int, dst []linkID) []linkID {
	ax, ay := m.Coord(a)
	bx, by := m.Coord(b)
	x, y := ax, ay
	for x != bx {
		nx := x + sign(bx-x)
		dst = append(dst, linkID{x, y, nx, y})
		x = nx
	}
	for y != by {
		ny := y + sign(by-y)
		dst = append(dst, linkID{x, y, x, ny})
		y = ny
	}
	return dst
}

func sign(x int) int {
	if x < 0 {
		return -1
	}
	if x > 0 {
		return 1
	}
	return 0
}

// Placement maps the tasks of one spatial block onto mesh PEs.
type Placement struct {
	Mesh Mesh
	// PEOf maps each node of the graph to a mesh PE (-1 for passive nodes
	// and nodes of other blocks).
	PEOf []int
	// Block is the index of the placed spatial block.
	Block int
}

// Cost summarizes the communication quality of a placement.
type Cost struct {
	// TotalHopVolume is the sum over streaming edges of volume * hops.
	TotalHopVolume float64
	// MaxLinkLoad is the largest traffic volume crossing any single mesh
	// link under XY routing. With contention-free NoC assumptions the
	// schedule is valid as long as each link's load fits its capacity; the
	// congestion factor MaxLinkLoad / MaxEdgeVolume bounds the slowdown.
	MaxLinkLoad float64
	// MaxEdgeVolume is the largest single streaming-edge volume among the
	// placed edges — the load a link carries when it serves exactly one
	// edge, i.e. the contention-free reference for CongestionFactor.
	MaxEdgeVolume float64
	// AvgHops is the volume-weighted mean hop count of streaming edges.
	AvgHops float64
}

// CongestionFactor is how many times over its contention-free load the
// busiest link is subscribed: MaxLinkLoad / MaxEdgeVolume, at least 1. A
// placement with no streaming traffic has factor 1 (no slowdown).
func (c Cost) CongestionFactor() float64 {
	if c.MaxEdgeVolume <= 0 || c.MaxLinkLoad <= c.MaxEdgeVolume {
		return 1
	}
	return c.MaxLinkLoad / c.MaxEdgeVolume
}

// blockEdges lists the streaming edges inside the placed block with their
// volumes.
func blockEdges(t *core.TaskGraph, r *schedule.Result, blk schedule.Block) []graph.Edge {
	inBlk := make(map[graph.NodeID]bool, len(blk.Nodes))
	for _, v := range blk.Nodes {
		inBlk[v] = true
	}
	var out []graph.Edge
	for _, v := range blk.Nodes {
		vols := t.G.SuccVolumes(v)
		for i, w := range t.G.Succs(v) {
			if inBlk[w] && r.Partition.Streaming(t, v, w) &&
				t.Nodes[v].Kind == core.Compute && t.Nodes[w].Kind == core.Compute {
				out = append(out, graph.Edge{From: v, To: w, Volume: vols[i]})
			}
		}
	}
	return out
}

// Evaluate computes the cost of a placement for one block.
func Evaluate(t *core.TaskGraph, r *schedule.Result, p Placement) Cost {
	blk := r.Partition.Blocks[p.Block]
	edges := blockEdges(t, r, blk)
	load := map[linkID]float64{}
	var c Cost
	var totalVol float64
	var scratch []linkID
	for _, e := range edges {
		a, b := p.PEOf[e.From], p.PEOf[e.To]
		if a < 0 || b < 0 {
			continue
		}
		hops := float64(p.Mesh.Hops(a, b))
		vol := float64(e.Volume)
		// Only edges that traverse links enter the contention-free
		// reference; a zero-hop edge (possible only in hand-built
		// placements — Greedy/Anneal keep task→PE injective) loads no link.
		if hops > 0 && vol > c.MaxEdgeVolume {
			c.MaxEdgeVolume = vol
		}
		c.TotalHopVolume += vol * hops
		c.AvgHops += vol * hops
		totalVol += vol
		scratch = p.Mesh.route(a, b, scratch[:0])
		for _, l := range scratch {
			load[l] += vol
			if load[l] > c.MaxLinkLoad {
				c.MaxLinkLoad = load[l]
			}
		}
	}
	if totalVol > 0 {
		c.AvgHops /= totalVol
	}
	return c
}

// PlaceGreedy places one spatial block with a BFS heuristic: tasks are
// visited in schedule order; each task goes to the free PE closest (fewest
// hops, heaviest edges first) to its already-placed streaming neighbors.
func PlaceGreedy(t *core.TaskGraph, r *schedule.Result, mesh Mesh, block int) (Placement, error) {
	blk := r.Partition.Blocks[block]
	if blk.ComputeCount > mesh.PEs() {
		return Placement{}, fmt.Errorf("noc: block %d has %d tasks, mesh has %d PEs",
			block, blk.ComputeCount, mesh.PEs())
	}
	p := Placement{Mesh: mesh, Block: block, PEOf: make([]int, t.G.Len())}
	for i := range p.PEOf {
		p.PEOf[i] = -1
	}

	// Order compute tasks by start time, then by heaviest total streaming
	// traffic, so producers are placed before their consumers.
	var tasks []graph.NodeID
	for _, v := range blk.Nodes {
		if t.Nodes[v].Kind == core.Compute {
			tasks = append(tasks, v)
		}
	}
	traffic := func(v graph.NodeID) int64 {
		var s int64
		for _, vol := range t.G.SuccVolumes(v) {
			s += vol
		}
		for _, vol := range t.G.PredVolumes(v) {
			s += vol
		}
		return s
	}
	sort.SliceStable(tasks, func(i, j int) bool {
		if r.ST[tasks[i]] != r.ST[tasks[j]] {
			return r.ST[tasks[i]] < r.ST[tasks[j]]
		}
		return traffic(tasks[i]) > traffic(tasks[j])
	})

	used := make([]bool, mesh.PEs())
	center := mesh.Index(mesh.W/2, mesh.H/2)
	for _, v := range tasks {
		best, bestCost := -1, math.Inf(1)
		for pe := 0; pe < mesh.PEs(); pe++ {
			if used[pe] {
				continue
			}
			cost := 0.0
			connected := false
			for i, u := range t.G.Preds(v) {
				if p.PEOf[u] >= 0 {
					cost += float64(t.G.PredVolumes(v)[i]) * float64(mesh.Hops(pe, p.PEOf[u]))
					connected = true
				}
			}
			for i, w := range t.G.Succs(v) {
				if p.PEOf[w] >= 0 {
					cost += float64(t.G.SuccVolumes(v)[i]) * float64(mesh.Hops(pe, p.PEOf[w]))
					connected = true
				}
			}
			if !connected {
				cost = float64(mesh.Hops(pe, center)) // cluster roots centrally
			}
			if cost < bestCost {
				bestCost, best = cost, pe
			}
		}
		used[best] = true
		p.PEOf[v] = best
	}
	return p, nil
}

// Anneal refines a placement with simulated annealing over pairwise swaps,
// minimizing TotalHopVolume + meshPenalty*MaxLinkLoad. The rng makes runs
// reproducible.
func Anneal(t *core.TaskGraph, r *schedule.Result, p Placement, iters int, rng *rand.Rand) Placement {
	blk := r.Partition.Blocks[p.Block]
	var tasks []graph.NodeID
	for _, v := range blk.Nodes {
		if p.PEOf[v] >= 0 {
			tasks = append(tasks, v)
		}
	}
	if len(tasks) < 2 || iters <= 0 {
		return p
	}
	const meshPenalty = 0.5
	objective := func() float64 {
		c := Evaluate(t, r, p)
		return c.TotalHopVolume + meshPenalty*c.MaxLinkLoad
	}
	cur := objective()
	best := cur
	bestPE := append([]int(nil), p.PEOf...)
	temp0 := cur / 10
	for i := 0; i < iters; i++ {
		a := tasks[rng.Intn(len(tasks))]
		b := tasks[rng.Intn(len(tasks))]
		if a == b {
			continue
		}
		p.PEOf[a], p.PEOf[b] = p.PEOf[b], p.PEOf[a]
		next := objective()
		temp := temp0 * (1 - float64(i)/float64(iters))
		if next <= cur || (temp > 0 && rng.Float64() < math.Exp((cur-next)/temp)) {
			cur = next
			if cur < best {
				best = cur
				copy(bestPE, p.PEOf)
			}
		} else {
			p.PEOf[a], p.PEOf[b] = p.PEOf[b], p.PEOf[a] // revert
		}
	}
	p.PEOf = bestPE
	return p
}

// PlaceAll places every spatial block of a schedule on the mesh (blocks are
// temporally multiplexed, so each block reuses the whole device) and returns
// the per-block placements with their costs after annealing. The seed fully
// determines the annealer's random choices: two calls with equal inputs
// return identical placements, which is what lets placement results be
// cached and compared across processes.
func PlaceAll(t *core.TaskGraph, r *schedule.Result, mesh Mesh, annealIters int, seed int64) ([]Placement, []Cost, error) {
	rng := rand.New(rand.NewSource(seed))
	var ps []Placement
	var cs []Cost
	for b := range r.Partition.Blocks {
		p, err := PlaceGreedy(t, r, mesh, b)
		if err != nil {
			return nil, nil, err
		}
		p = Anneal(t, r, p, annealIters, rng)
		ps = append(ps, p)
		cs = append(cs, Evaluate(t, r, p))
	}
	return ps, cs, nil
}
