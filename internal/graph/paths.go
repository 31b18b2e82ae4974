package graph

import (
	"fmt"
	"strings"
)

// Levels returns the level of each node: 1 for nodes with no parent,
// otherwise 1 + max level over predecessors. This is the plain structural
// level; the canonical-graph level of Section 4.2.3 (which adds the
// production rate of upsamplers) lives in package core.
func (g *DAG) Levels() []int {
	topo, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	lv := make([]int, g.n)
	for _, v := range topo {
		best := 0
		for _, u := range g.in.nbrs(v) {
			if lv[u] > best {
				best = lv[u]
			}
		}
		lv[v] = best + 1
	}
	return lv
}

// LongestPath returns the maximum total node weight along any directed path,
// where weight[v] is the cost of node v. Edge costs are not modeled (the
// paper's NoC is contention free). Returns 0 for the empty graph.
func (g *DAG) LongestPath(weight []float64) float64 {
	if len(weight) != g.n {
		panic("graph: LongestPath weight length mismatch")
	}
	topo, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	dist := make([]float64, g.n)
	best := 0.0
	for _, v := range topo {
		d := 0.0
		for _, u := range g.in.nbrs(v) {
			if dist[u] > d {
				d = dist[u]
			}
		}
		dist[v] = d + weight[v]
		if dist[v] > best {
			best = dist[v]
		}
	}
	return best
}

// BottomLevels returns, for each node, the maximum total node weight of any
// path from that node to a sink, including the node itself. This is the
// "bottom level" priority used by critical-path list scheduling.
func (g *DAG) BottomLevels(weight []float64) []float64 {
	if len(weight) != g.n {
		panic("graph: BottomLevels weight length mismatch")
	}
	topo, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	bl := make([]float64, g.n)
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		best := 0.0
		for _, w := range g.out.nbrs(v) {
			if bl[w] > best {
				best = bl[w]
			}
		}
		bl[v] = best + weight[v]
	}
	return bl
}

// DOT renders the graph in Graphviz DOT format. label may be nil, in which
// case node IDs are used.
func (g *DAG) DOT(name string, label func(NodeID) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n", name)
	for v := 0; v < g.n; v++ {
		l := fmt.Sprintf("%d", v)
		if label != nil {
			l = label(NodeID(v))
		}
		fmt.Fprintf(&b, "  n%d [label=%q];\n", v, l)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"%d\"];\n", e.From, e.To, e.Volume)
	}
	b.WriteString("}\n")
	return b.String()
}
