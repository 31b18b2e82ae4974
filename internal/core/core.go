// Package core implements canonical task graphs, the dataflow-centric model
// of computation introduced in Section 3 of "Streaming Task Graph Scheduling
// for Dataflow Architectures" (De Matteis et al., HPDC 2023), together with
// the steady-state analysis of Section 4: streaming intervals (Theorem 4.1),
// levels, work, and streaming depth.
//
// A canonical node receives the same amount of data I(v) from every input
// edge and produces the same amount O(v) = R(v)*I(v) to every output edge,
// where R(v) is the node's production rate. Element-wise nodes have R = 1,
// downsamplers R < 1, upsamplers R > 1. Buffer nodes store all their input
// before emitting it (pipelining cannot cross them); source and sink nodes
// read from and write to global memory.
//
// Entry points: New then AddSource/AddCompute/AddElementWise/AddBuffer/
// AddSink and Connect to build, Freeze to validate (canonicity, acyclicity,
// finite volumes) — after which the graph is immutable and safe to share
// across goroutines, which is what lets the experiment engine memoize one
// instance per graph ID. EncodeJSON/DecodeJSON give the canonical codec:
// the encoding is byte-stable for a frozen graph, so its hash
// (results.Fingerprint) content-addresses cells in the persistent cache.
// DecodeJSON is a hand-written single-pass decoder that accepts exactly
// the language encoding/json accepts for the same document struct, quirks
// included (see its comment), and decodes as it reads, through a fixed
// window, so no document is held whole; the encoding/json decoder it
// replaced lives on in the package tests as the differential oracle.
// StreamingIntervals, Levels, Work, and StreamingDepth expose the Section 4
// steady-state analysis.
package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Kind classifies a canonical node.
type Kind uint8

const (
	// Compute is a computational node with a production rate: element-wise
	// (R = 1), downsampler (R < 1) or upsampler (R > 1).
	Compute Kind = iota
	// Buffer stores all input elements, then outputs them R times; it is
	// not an active entity and is never scheduled on a PE.
	Buffer
	// Source reads its output from global memory.
	Source
	// Sink stores its input into global memory.
	Sink
)

func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Buffer:
		return "buffer"
	case Source:
		return "source"
	case Sink:
		return "sink"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Node holds the canonical attributes of one task-graph node. Input and
// output volumes are stored explicitly; the production rate is the derived
// ratio Out/In (Section 3.1).
type Node struct {
	Kind Kind
	// In is I(v): elements consumed from each input edge. Zero for sources.
	In int64
	// Out is O(v): elements produced to each output edge. Zero for sinks.
	Out int64
	// Name is an optional human-readable label used in DOT dumps and error
	// messages.
	Name string
}

// Rate returns the production rate R(v) = O(v)/I(v). Sources and sinks,
// which have no rate in the model, return 0.
func (n Node) Rate() float64 {
	if n.Kind == Source || n.Kind == Sink || n.In == 0 {
		return 0
	}
	return float64(n.Out) / float64(n.In)
}

// IsElementWise reports whether the node is a computational node with R = 1.
func (n Node) IsElementWise() bool { return n.Kind == Compute && n.In == n.Out }

// IsDownsampler reports whether the node is a computational node with R < 1.
func (n Node) IsDownsampler() bool { return n.Kind == Compute && n.Out < n.In }

// IsUpsampler reports whether the node is a computational node with R > 1.
func (n Node) IsUpsampler() bool { return n.Kind == Compute && n.Out > n.In }

// Work returns W(v) = max{I(v), O(v)}, the ideal execution time of the node
// in isolation under the one-element-per-cycle assumption (Section 4.2).
// Buffer nodes are passive and have zero work.
func (n Node) Work() float64 {
	if n.Kind == Buffer {
		return 0
	}
	if n.In > n.Out {
		return float64(n.In)
	}
	return float64(n.Out)
}

// TaskGraph is a canonical task graph: a DAG whose nodes carry canonical
// attributes. Build one with New/AddX/Connect and call Freeze before
// analysis.
type TaskGraph struct {
	G     *graph.DAG
	Nodes []Node
}

// New returns an empty canonical task graph.
func New() *TaskGraph {
	return &TaskGraph{G: graph.New()}
}

// add appends a node with the given attributes.
func (t *TaskGraph) add(n Node) graph.NodeID {
	id := t.G.AddNode()
	t.Nodes = append(t.Nodes, n)
	return id
}

// AddSource adds a source node producing out elements to each output edge.
func (t *TaskGraph) AddSource(name string, out int64) graph.NodeID {
	return t.add(Node{Kind: Source, Out: out, Name: name})
}

// AddSink adds a sink node consuming in elements from each input edge.
func (t *TaskGraph) AddSink(name string, in int64) graph.NodeID {
	return t.add(Node{Kind: Sink, In: in, Name: name})
}

// AddCompute adds a computational node consuming in elements from each input
// edge and producing out elements to each output edge.
func (t *TaskGraph) AddCompute(name string, in, out int64) graph.NodeID {
	return t.add(Node{Kind: Compute, In: in, Out: out, Name: name})
}

// AddElementWise adds an element-wise node (R = 1) moving n elements.
func (t *TaskGraph) AddElementWise(name string, n int64) graph.NodeID {
	return t.AddCompute(name, n, n)
}

// AddBuffer adds a buffer node storing in elements and emitting out
// elements (out = R*in copies/reshapes of the input).
func (t *TaskGraph) AddBuffer(name string, in, out int64) graph.NodeID {
	return t.add(Node{Kind: Buffer, In: in, Out: out, Name: name})
}

// Connect adds the edge u -> v. The edge volume is taken from the producer's
// output volume, which by canonicity must equal the consumer's input volume;
// Validate checks this.
func (t *TaskGraph) Connect(u, v graph.NodeID) error {
	vol := t.Nodes[u].Out
	if vol <= 0 {
		return fmt.Errorf("core: node %d (%s) produces no data", u, t.Nodes[u].Name)
	}
	return t.G.AddEdge(u, v, vol)
}

// MustConnect is Connect that panics on error.
func (t *TaskGraph) MustConnect(u, v graph.NodeID) {
	if err := t.Connect(u, v); err != nil {
		panic(err)
	}
}

// Len returns the number of nodes, including buffers, sources, and sinks.
func (t *TaskGraph) Len() int { return t.G.Len() }

// NumComputeNodes returns the number of computational nodes (the ones that
// occupy a PE when scheduled).
func (t *TaskGraph) NumComputeNodes() int {
	c := 0
	for _, n := range t.Nodes {
		if n.Kind == Compute {
			c++
		}
	}
	return c
}

// Node returns the attributes of v.
func (t *TaskGraph) Node(v graph.NodeID) Node { return t.Nodes[v] }

// Validate checks canonicity: every edge's volume matches both endpoints,
// computational nodes have positive I and O, sources have no inputs, sinks
// have inputs but no outputs, and the graph is acyclic. It must be called
// (directly or via Freeze) before analysis.
func (t *TaskGraph) Validate() error {
	if _, err := t.G.TopoOrder(); err != nil {
		return err
	}
	return t.validateNodes()
}

// validateNodes is Validate without the acyclicity check.
func (t *TaskGraph) validateNodes() error {
	for v := 0; v < t.G.Len(); v++ {
		n := t.Nodes[v]
		id := graph.NodeID(v)
		switch n.Kind {
		case Source:
			if t.G.InDegree(id) != 0 {
				return fmt.Errorf("core: source %d (%s) has inputs", v, n.Name)
			}
			if n.Out <= 0 {
				return fmt.Errorf("core: source %d (%s) has no output volume", v, n.Name)
			}
		case Sink:
			if t.G.OutDegree(id) != 0 {
				return fmt.Errorf("core: sink %d (%s) has outputs", v, n.Name)
			}
			if t.G.InDegree(id) == 0 {
				return fmt.Errorf("core: sink %d (%s) has no inputs", v, n.Name)
			}
			if n.In <= 0 {
				return fmt.Errorf("core: sink %d (%s) has no input volume", v, n.Name)
			}
		case Compute, Buffer:
			if n.In <= 0 || n.Out <= 0 {
				return fmt.Errorf("core: node %d (%s) needs positive I and O, got I=%d O=%d", v, n.Name, n.In, n.Out)
			}
		}
		vols := t.G.PredVolumes(id)
		for i, u := range t.G.Preds(id) {
			vol := vols[i]
			if n.Kind != Source && vol != n.In {
				return fmt.Errorf("core: edge (%d,%d) volume %d != I(%d)=%d", u, v, vol, v, n.In)
			}
			if p := t.Nodes[u]; p.Kind != Sink && vol != p.Out {
				return fmt.Errorf("core: edge (%d,%d) volume %d != O(%d)=%d", u, v, vol, u, p.Out)
			}
		}
	}
	return nil
}

// Freeze validates the task graph and freezes the underlying DAG. It runs
// the topological sort once, inside the DAG's Freeze, after the canonicity
// checks; so a graph that is both cyclic and non-canonical reports the
// canonicity error.
func (t *TaskGraph) Freeze() error {
	if err := t.validateNodes(); err != nil {
		return err
	}
	return t.G.Freeze()
}

// Work returns T1, the work of the graph: the sum of node works, equal to
// the execution time of the DAG on a single PE (Section 4.2). Buffer nodes
// contribute nothing (they are passive memory).
func (t *TaskGraph) Work() float64 {
	total := 0.0
	for _, n := range t.Nodes {
		total += n.Work()
	}
	return total
}

// Levels returns the canonical level L(v) of each node per Section 4.2.3:
// L(v) = 1 for nodes without parents, otherwise
// L(v) = max(R(v), 1) + max over predecessors of L(u).
// This is the time for the last element leaving a source to reach v and be
// processed, accounting for upsamplers having to emit R outputs per input.
func (t *TaskGraph) Levels() []float64 {
	topo, err := t.G.TopoOrder()
	if err != nil {
		panic(err)
	}
	lv := make([]float64, t.G.Len())
	for _, v := range topo {
		if t.G.InDegree(v) == 0 {
			lv[v] = 1
			continue
		}
		step := 1.0
		if r := t.Nodes[v].Rate(); r > 1 {
			step = r
		}
		best := 0.0
		for _, u := range t.G.Preds(v) {
			if lv[u] > best {
				best = lv[u]
			}
		}
		lv[v] = best + step
	}
	return lv
}

// SplitBuffers returns the "buffer-split" transform of Section 4.1: a new
// DAG in which every buffer node occurs twice, once as the sink of its
// predecessors (the tail) and once as the source of its successors (the
// head). Streaming intervals are computed on the weakly connected components
// of this transformed graph, capturing that pipelining cannot cross a
// buffer.
//
// The returned split maps every original node to its (single) image, and
// buffer nodes additionally to their head image.
type SplitResult struct {
	// G is the transformed DAG. Nodes [0, t.Len()) are the originals (with
	// buffer nodes acting as tails); heads are appended after them.
	G *graph.DAG
	// Head maps a buffer node to its head image; InvalidNode for non-buffer
	// nodes.
	Head []graph.NodeID
	// Owner maps each transformed node back to the original node.
	Owner []graph.NodeID
}

// SplitBuffers builds the buffer-split transform.
func (t *TaskGraph) SplitBuffers() SplitResult {
	n := t.G.Len()
	s := SplitResult{
		G:     graph.New(),
		Head:  make([]graph.NodeID, n),
		Owner: make([]graph.NodeID, 0, n),
	}
	for v := 0; v < n; v++ {
		s.G.AddNode()
		s.Owner = append(s.Owner, graph.NodeID(v))
		s.Head[v] = graph.InvalidNode
	}
	for v := 0; v < n; v++ {
		if t.Nodes[v].Kind == Buffer {
			h := s.G.AddNode()
			s.Head[v] = h
			s.Owner = append(s.Owner, graph.NodeID(v))
		}
	}
	for _, e := range t.G.Edges() {
		from := e.From
		if h := s.Head[e.From]; h != graph.InvalidNode {
			from = h // edges leaving a buffer leave its head
		}
		s.G.MustEdge(from, e.To, e.Volume)
	}
	return s
}

// StreamingIntervals computes the steady-state output streaming interval
// S_o(v) of every node (Theorem 4.1): within each weakly connected component
// of the buffer-split graph, S_o(v) = max_{u in WCC(v)} O(u) / O(v).
// The input interval follows from Equation (2): S_i(v) = S_o(v) * R(v).
//
// For buffer nodes, the returned S_o is the interval of the head (the side
// that feeds successors); Si reports the tail's ingestion interval (the
// maximum interval at which its predecessors deliver). Sinks have So = 0.
type Intervals struct {
	// So[v] is the output streaming interval of node v (0 for sinks).
	So []float64
	// Si[v] is the input streaming interval of node v (0 for sources).
	Si []float64
	// Comp[v] is the WCC index of node v in the buffer-split graph; a
	// buffer node belongs to its head's component (its tail component is
	// TailComp[v]).
	Comp []int
	// TailComp[v] is the WCC index of the tail image for buffer nodes,
	// and equals Comp[v] otherwise.
	TailComp []int
	// NumComp is the number of weakly connected components.
	NumComp int
}

// StreamingIntervals runs the Theorem 4.1 computation. It is linear in the
// size of the graph.
func (t *TaskGraph) StreamingIntervals() Intervals {
	split := t.SplitBuffers()
	comp, count := split.G.WCC()

	// Per component, the largest number of output elements O(u). Volumes of
	// a transformed node are the originals'.
	maxOut := make([]int64, count)
	for sv := 0; sv < split.G.Len(); sv++ {
		orig := split.Owner[sv]
		n := t.Nodes[orig]
		out := n.Out
		if n.Kind == Buffer && split.Head[orig] != graph.NodeID(sv) {
			// The tail side of a buffer "outputs" nothing downstream; its
			// contribution to the component is via its input volume, which
			// its predecessors already account for with their O.
			out = 0
		}
		if out > maxOut[comp[sv]] {
			maxOut[comp[sv]] = out
		}
	}

	n := t.G.Len()
	iv := Intervals{
		So:       make([]float64, n),
		Si:       make([]float64, n),
		Comp:     make([]int, n),
		TailComp: make([]int, n),
		NumComp:  count,
	}
	for v := 0; v < n; v++ {
		node := t.Nodes[v]
		headSide := v // component that v's outputs live in
		if h := split.Head[v]; h != graph.InvalidNode {
			headSide = int(h)
		}
		iv.Comp[v] = comp[headSide]
		iv.TailComp[v] = comp[v]

		if node.Kind != Sink && node.Out > 0 {
			iv.So[v] = float64(maxOut[comp[headSide]]) / float64(node.Out)
			if iv.So[v] < 1 {
				iv.So[v] = 1 // Equation (1); only possible when the max is on the other side of a buffer
			}
		}
		if node.Kind != Source && node.In > 0 {
			// Rate at which the node ingests: limited by the slowest
			// producer in its (tail-side) component, which by Lemma 4.3 is
			// the same for all its inputs: S_i = maxOut(tail comp)/I(v).
			iv.Si[v] = float64(maxOut[comp[v]]) / float64(node.In)
			if iv.Si[v] < 1 {
				iv.Si[v] = 1
			}
		}
	}
	return iv
}

// StreamingDepth returns T_s-infinity for the whole canonical graph
// (Section 4.2.3): each weakly connected component of the buffer-split graph
// contributes depth L(WCC) + max O(u) - 1; components are merged into the
// supernode DAG H and the depth of G is the deepest path in H.
//
// For a graph of element-wise nodes this reduces to k + L(G) - 1, the exact
// streaming depth; in general it is the Equation (4) bound (tight as the
// number of streamed elements goes to infinity).
func (t *TaskGraph) StreamingDepth() float64 {
	split := t.SplitBuffers()
	comp, count := split.G.WCC()

	// Depth of each component: levels within the component plus max O - 1.
	// Levels are computed on the split graph restricted to the component but
	// can be done globally: level resets do not cross components because
	// components are disconnected in the split graph.
	topo, err := split.G.TopoOrder()
	if err != nil {
		panic(err)
	}
	lv := make([]float64, split.G.Len())
	maxLv := make([]float64, count)
	maxOut := make([]int64, count)
	for _, sv := range topo {
		orig := split.Owner[sv]
		n := t.Nodes[orig]
		if split.G.InDegree(sv) == 0 {
			lv[sv] = 1
		} else {
			step := 1.0
			if r := n.Rate(); r > 1 && n.Kind == Compute {
				step = r
			}
			best := 0.0
			for _, u := range split.G.Preds(sv) {
				if lv[u] > best {
					best = lv[u]
				}
			}
			lv[sv] = best + step
		}
		c := comp[sv]
		if lv[sv] > maxLv[c] {
			maxLv[c] = lv[sv]
		}
		out := n.Out
		if n.Kind == Buffer && split.Head[orig] != sv {
			out = 0
		}
		if out > maxOut[c] {
			maxOut[c] = out
		}
	}
	depth := make([]float64, count)
	for c := 0; c < count; c++ {
		depth[c] = maxLv[c] + float64(maxOut[c]) - 1
		if depth[c] < 0 {
			depth[c] = 0
		}
	}

	// Supernode DAG H: edge between the components holding the tail and the
	// head of each split buffer node. Longest path weighted by component
	// depth.
	h := graph.New()
	for c := 0; c < count; c++ {
		h.AddNode()
	}
	for v := 0; v < t.G.Len(); v++ {
		if t.Nodes[v].Kind != Buffer {
			continue
		}
		tail := comp[v]
		head := comp[split.Head[v]]
		if tail != head {
			h.MustEdge(graph.NodeID(tail), graph.NodeID(head), 1) // a repeat merges into the first
		}
	}
	return h.LongestPath(depth)
}

// CriticalPath returns the longest path through the graph using node work as
// weights: the non-streaming depth T-infinity used by the classical SLR
// metric.
func (t *TaskGraph) CriticalPath() float64 {
	w := make([]float64, t.G.Len())
	for v, n := range t.Nodes {
		w[v] = n.Work()
	}
	return t.G.LongestPath(w)
}

// DOT renders the task graph with kind/volume annotations.
func (t *TaskGraph) DOT(name string) string {
	return t.G.DOT(name, func(v graph.NodeID) string {
		n := t.Nodes[v]
		tag := n.Name
		if tag == "" {
			tag = fmt.Sprintf("n%d", v)
		}
		switch n.Kind {
		case Source:
			return fmt.Sprintf("%s\nsrc O=%d", tag, n.Out)
		case Sink:
			return fmt.Sprintf("%s\nsink I=%d", tag, n.In)
		case Buffer:
			return fmt.Sprintf("%s\nbuf [%d]", tag, n.In)
		default:
			return fmt.Sprintf("%s\nR=%s I=%d O=%d", tag, fmtRate(n.Rate()), n.In, n.Out)
		}
	})
}

func fmtRate(r float64) string {
	if r >= 1 || r == 0 {
		return fmt.Sprintf("%g", r)
	}
	return fmt.Sprintf("1/%g", math.Round(1/r))
}
