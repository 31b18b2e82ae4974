// Package graph provides the directed-acyclic-graph substrate used by the
// canonical task graph model, the schedulers, and the evaluation harness.
//
// Nodes are dense integer IDs assigned by AddNode. Edges carry the data
// volume communicated between tasks, counted in unitary elements as in the
// paper (Section 2). The structure is mutable while building and is usually
// frozen (validated as acyclic, topologically ordered) before analysis.
//
// Storage is slices only, in compressed sparse row form: one array of
// successor IDs for the whole graph with a per-node offset into it, a
// parallel array of edge volumes, and the same three arrays for the
// predecessors. SuccVolumes(v)[i] is the volume of the edge
// v -> Succs(v)[i], and PredVolumes(v)[i] that of Preds(v)[i] -> v, so
// adjacency loops read volumes without a lookup; Volume is a degree-bounded
// scan for one-off queries. AddEdge only appends to a pending list. The
// first read after an insertion (or Freeze) folds the pending edges into the
// arrays in one O(V+E) pass, merging duplicates with a stamp array: each
// edge keeps the position of its first copy in both lists and the volume of
// its last. A frozen graph has nothing pending.
//
// The freeze is the package's key invariant: a frozen DAG is immutable and
// carries a fixed topological order, so schedulers, simulators, and
// concurrent experiment workers can share one instance without
// synchronization, and the canonical iteration order (dense IDs, stable
// edge lists) makes every downstream analysis deterministic — the property
// the content-addressed results cache and byte-identical tables are built
// on. An unfrozen DAG must not be read from several goroutines at once,
// since a read may fold pending edges in. Entry points: New, AddNode/AddEdge
// while building, Freeze to validate, then Topo/Succs/Preds for traversal.
package graph

import (
	"errors"
	"fmt"
)

// NodeID identifies a node within a single DAG. IDs are dense: the first
// node added is 0, the second 1, and so on.
type NodeID int

// InvalidNode is returned by lookups that find no node.
const InvalidNode NodeID = -1

// Edge is a directed edge u -> v carrying Volume data elements.
type Edge struct {
	From, To NodeID
	Volume   int64
}

// DAG is a directed graph intended to be acyclic. Acyclicity is enforced by
// Freeze, not by AddEdge, so construction can proceed in any order.
type DAG struct {
	n       int
	out, in adjacency
	pending []Edge // added since the last fold, in insertion order
	dirty   bool   // nodes or edges were added since the last fold
	frozen  bool
	topo    []NodeID
}

// adjacency is one direction of the edge lists: node v's neighbours are
// ids[off[v]:off[v+1]], with the edge volumes at the same positions of vols.
type adjacency struct {
	off  []int
	ids  []NodeID
	vols []int64
}

func (a *adjacency) nbrs(v NodeID) []NodeID { return a.ids[a.off[v]:a.off[v+1]] }

func (a *adjacency) volumes(v NodeID) []int64 { return a.vols[a.off[v]:a.off[v+1]] }

// New returns an empty DAG.
func New() *DAG { return &DAG{} }

// NewWithCapacity returns an empty DAG with room for edges edges before
// the pending list grows.
func NewWithCapacity(edges int) *DAG {
	return &DAG{pending: make([]Edge, 0, edges)}
}

// AddNode adds a node and returns its ID.
func (g *DAG) AddNode() NodeID {
	if g.frozen {
		panic("graph: AddNode on frozen DAG")
	}
	g.n++
	g.dirty = true
	return NodeID(g.n - 1)
}

// AddEdge adds the edge u -> v with the given data volume. Adding an edge
// that already exists overwrites its volume and keeps its position in both
// adjacency lists. Self loops are rejected.
func (g *DAG) AddEdge(u, v NodeID, volume int64) error {
	if g.frozen {
		return errors.New("graph: AddEdge on frozen DAG")
	}
	if u == v {
		return fmt.Errorf("graph: self loop on node %d", u)
	}
	if !g.valid(u) || !g.valid(v) {
		return fmt.Errorf("graph: edge (%d,%d) references unknown node", u, v)
	}
	if volume <= 0 {
		return fmt.Errorf("graph: edge (%d,%d) has non-positive volume %d", u, v, volume)
	}
	g.pending = append(g.pending, Edge{From: u, To: v, Volume: volume})
	g.dirty = true
	return nil
}

// MustEdge is AddEdge that panics on error; used by generators whose inputs
// are correct by construction.
func (g *DAG) MustEdge(u, v NodeID, volume int64) {
	if err := g.AddEdge(u, v, volume); err != nil {
		panic(err)
	}
}

func (g *DAG) valid(id NodeID) bool { return id >= 0 && int(id) < g.n }

// fold brings the adjacency arrays up to date with the nodes and edges
// added since the last fold.
func (g *DAG) fold() {
	if !g.dirty {
		return
	}
	// stamp[w] == v+1 while w has been seen in v's list (v+1+n on the
	// predecessor side), at position pos[w].
	stamp := make([]int, 2*g.n)
	stamp, pos := stamp[:g.n], stamp[g.n:]
	g.out = g.out.fold(g.n, g.pending, false, stamp, pos, 1)
	g.in = g.in.fold(g.n, g.pending, true, stamp, pos, 1+g.n)
	g.pending = nil
	g.dirty = false
}

// fold returns the adjacency a with the pending edges appended to each
// node's list (keyed by the edge's head when in, else by its tail), then
// duplicates merged: an edge keeps its first position and its last volume.
func (a adjacency) fold(n int, pending []Edge, in bool, stamp, pos []int, mark int) adjacency {
	ends := func(e Edge) (key, other NodeID) {
		if in {
			return e.To, e.From
		}
		return e.From, e.To
	}
	b := adjacency{off: make([]int, n+1)}
	for v := 0; v+1 < len(a.off); v++ {
		b.off[v+1] = a.off[v+1] - a.off[v]
	}
	for _, e := range pending {
		key, _ := ends(e)
		b.off[key+1]++
	}
	for v := 0; v < n; v++ {
		b.off[v+1] += b.off[v]
	}
	b.ids = make([]NodeID, b.off[n])
	b.vols = make([]int64, b.off[n])
	next := pos // each node's next free slot; the merge below rewrites pos
	for v := 0; v < n; v++ {
		next[v] = b.off[v]
		if v+1 < len(a.off) {
			next[v] += copy(b.ids[b.off[v]:], a.nbrs(NodeID(v)))
			copy(b.vols[b.off[v]:], a.volumes(NodeID(v)))
		}
	}
	for _, e := range pending {
		key, other := ends(e)
		b.ids[next[key]], b.vols[next[key]] = other, e.Volume
		next[key]++
	}
	// Merge duplicates, compacting the arrays in place.
	w := 0
	for v := 0; v < n; v++ {
		lo, hi := b.off[v], b.off[v+1]
		b.off[v] = w
		for i := lo; i < hi; i++ {
			x := b.ids[i]
			if stamp[x] == mark+v {
				b.vols[pos[x]] = b.vols[i]
				continue
			}
			stamp[x], pos[x] = mark+v, w
			b.ids[w], b.vols[w] = x, b.vols[i]
			w++
		}
	}
	b.off[n] = w
	b.ids, b.vols = b.ids[:w:w], b.vols[:w:w]
	return b
}

// Len returns the number of nodes.
func (g *DAG) Len() int { return g.n }

// NumEdges returns the number of edges.
func (g *DAG) NumEdges() int {
	g.fold()
	return len(g.out.ids)
}

// The adjacency accessors below are windows of the graph-wide arrays, kept
// small enough to inline; their capacity runs past the window, so callers
// must neither modify nor append to them.

// Succs returns the successors of v.
func (g *DAG) Succs(v NodeID) []NodeID {
	if g.dirty {
		g.fold()
	}
	return g.out.ids[g.out.off[v]:g.out.off[v+1]]
}

// Preds returns the predecessors of v.
func (g *DAG) Preds(v NodeID) []NodeID {
	if g.dirty {
		g.fold()
	}
	return g.in.ids[g.in.off[v]:g.in.off[v+1]]
}

// SuccVolumes returns the volumes of v's outgoing edges, parallel to
// Succs(v).
func (g *DAG) SuccVolumes(v NodeID) []int64 {
	if g.dirty {
		g.fold()
	}
	return g.out.vols[g.out.off[v]:g.out.off[v+1]]
}

// PredVolumes returns the volumes of v's incoming edges, parallel to
// Preds(v).
func (g *DAG) PredVolumes(v NodeID) []int64 {
	if g.dirty {
		g.fold()
	}
	return g.in.vols[g.in.off[v]:g.in.off[v+1]]
}

// InDegree returns the number of incoming edges of v.
func (g *DAG) InDegree(v NodeID) int {
	if g.dirty {
		g.fold()
	}
	return g.in.off[v+1] - g.in.off[v]
}

// OutDegree returns the number of outgoing edges of v.
func (g *DAG) OutDegree(v NodeID) int {
	if g.dirty {
		g.fold()
	}
	return g.out.off[v+1] - g.out.off[v]
}

// HasEdge reports whether the edge u -> v exists. It scans the shorter of
// u's successor and v's predecessor lists.
func (g *DAG) HasEdge(u, v NodeID) bool {
	_, ok := g.lookup(u, v)
	return ok
}

// Volume returns the data volume on edge u -> v, or 0 if the edge does not
// exist. Like HasEdge it scans an adjacency list; loops over a node's edges
// read SuccVolumes or PredVolumes instead.
func (g *DAG) Volume(u, v NodeID) int64 {
	vol, _ := g.lookup(u, v)
	return vol
}

func (g *DAG) lookup(u, v NodeID) (int64, bool) {
	succs, preds := g.Succs(u), g.Preds(v)
	if len(succs) <= len(preds) {
		for i, w := range succs {
			if w == v {
				return g.out.volumes(u)[i], true
			}
		}
		return 0, false
	}
	for i, w := range preds {
		if w == u {
			return g.in.volumes(v)[i], true
		}
	}
	return 0, false
}

// Edges returns all edges sorted by (From, To). The result is freshly
// allocated on every call. A counting sort keeps it O(V+E): walking targets
// in ID order and scattering each into its source's run leaves every run
// sorted by target.
func (g *DAG) Edges() []Edge {
	g.fold()
	next := append([]int(nil), g.out.off[:g.n]...)
	out := make([]Edge, len(g.out.ids))
	for v := 0; v < g.n; v++ {
		for i, u := range g.in.nbrs(NodeID(v)) {
			out[next[u]] = Edge{From: u, To: NodeID(v), Volume: g.in.volumes(NodeID(v))[i]}
			next[u]++
		}
	}
	return out
}

// Sources returns the nodes with no predecessors, in ID order.
func (g *DAG) Sources() []NodeID {
	var out []NodeID
	for v := 0; v < g.n; v++ {
		if g.InDegree(NodeID(v)) == 0 {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// Sinks returns the nodes with no successors, in ID order.
func (g *DAG) Sinks() []NodeID {
	var out []NodeID
	for v := 0; v < g.n; v++ {
		if g.OutDegree(NodeID(v)) == 0 {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// ErrCycle is returned by Freeze and TopoOrder when the graph has a cycle.
var ErrCycle = errors.New("graph: cycle detected")

// TopoOrder returns a topological order of the nodes, or ErrCycle. The order
// is deterministic: ties are broken by node ID (Kahn's algorithm with a
// min-heap would be O(E log V); since ties only need determinism, a simple
// FIFO over ID-sorted sources suffices and keeps it O(V+E)).
func (g *DAG) TopoOrder() ([]NodeID, error) {
	g.fold()
	indeg := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		indeg[v] = g.in.off[v+1] - g.in.off[v]
	}
	queue := make([]NodeID, 0, g.n)
	for v := 0; v < g.n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, NodeID(v))
		}
	}
	order := make([]NodeID, 0, g.n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, w := range g.out.nbrs(u) {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != g.n {
		return nil, ErrCycle
	}
	return order, nil
}

// Freeze validates the DAG (acyclicity) and caches the topological order.
// After Freeze, mutations panic or fail.
func (g *DAG) Freeze() error {
	topo, err := g.TopoOrder()
	if err != nil {
		return err
	}
	g.topo = topo
	g.frozen = true
	return nil
}

// Frozen reports whether Freeze has completed successfully.
func (g *DAG) Frozen() bool { return g.frozen }

// Topo returns the cached topological order. It panics if the DAG is not
// frozen.
func (g *DAG) Topo() []NodeID {
	if !g.frozen {
		panic("graph: Topo before Freeze")
	}
	return g.topo
}

// WCC partitions the nodes into weakly connected components, ignoring edge
// direction. It returns the component index of every node and the number of
// components. Component indices are dense and assigned in order of the
// smallest node ID they contain.
func (g *DAG) WCC() (comp []int, count int) {
	g.fold()
	comp = make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var stack []NodeID
	for v := 0; v < g.n; v++ {
		if comp[v] != -1 {
			continue
		}
		comp[v] = count
		stack = append(stack[:0], NodeID(v))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.out.nbrs(u) {
				if comp[w] == -1 {
					comp[w] = count
					stack = append(stack, w)
				}
			}
			for _, w := range g.in.nbrs(u) {
				if comp[w] == -1 {
					comp[w] = count
					stack = append(stack, w)
				}
			}
		}
		count++
	}
	return comp, count
}
