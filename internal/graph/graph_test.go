package graph

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// randomDAG builds a random layered DAG; edges only go to later nodes, so it
// is acyclic by construction.
func randomDAG(rng *rand.Rand, n int) *DAG {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode()
	}
	for v := 1; v < n; v++ {
		parents := rng.Intn(3)
		for p := 0; p < parents; p++ {
			u := rng.Intn(v)
			if !slices.Contains(g.Succs(NodeID(u)), NodeID(v)) {
				g.MustEdge(NodeID(u), NodeID(v), int64(rng.Intn(100)+1))
			}
		}
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := New()
	a, b := g.AddNode(), g.AddNode()
	if err := g.AddEdge(a, a, 1); err == nil {
		t.Error("self loop accepted")
	}
	if err := g.AddEdge(a, 99, 1); err == nil {
		t.Error("unknown node accepted")
	}
	if err := g.AddEdge(a, b, 0); err == nil {
		t.Error("zero volume accepted")
	}
	if err := g.AddEdge(a, b, 5); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
	if vols := g.SuccVolumes(a); !slices.Equal(vols, []int64{5}) {
		t.Errorf("volumes = %v, want [5]", vols)
	}
	// Overwrite keeps a single edge.
	if err := g.AddEdge(a, b, 7); err != nil {
		t.Fatal(err)
	}
	if vols := g.SuccVolumes(a); g.NumEdges() != 1 || !slices.Equal(vols, []int64{7}) {
		t.Errorf("edge overwrite failed: %d edges, volumes %v", g.NumEdges(), vols)
	}
}

func TestCycleDetection(t *testing.T) {
	g := New()
	a, b, c := g.AddNode(), g.AddNode(), g.AddNode()
	g.MustEdge(a, b, 1)
	g.MustEdge(b, c, 1)
	g.MustEdge(c, a, 1)
	if _, err := g.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
	if err := g.Freeze(); err == nil {
		t.Error("Freeze accepted a cyclic graph")
	}
}

// TestTopoOrderProperty: for random DAGs, the topological order is a
// permutation of the nodes in which every edge goes forward.
func TestTopoOrderProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%60) + 2
		g := randomDAG(rand.New(rand.NewSource(seed)), n)
		topo, err := g.TopoOrder()
		if err != nil || len(topo) != n {
			return false
		}
		pos := make([]int, n)
		for i, v := range topo {
			pos[v] = i
		}
		for _, e := range g.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWCCProperty: endpoints of every edge share a component, components
// partition the nodes, and an edgeless graph has n components.
func TestWCCProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%60) + 2
		g := randomDAG(rand.New(rand.NewSource(seed)), n)
		comp, count := g.WCC()
		if count < 1 || count > n {
			return false
		}
		for _, e := range g.Edges() {
			if comp[e.From] != comp[e.To] {
				return false
			}
		}
		seen := make(map[int]bool)
		for _, c := range comp {
			if c < 0 || c >= count {
				return false
			}
			seen[c] = true
		}
		return len(seen) == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWCCDisconnected(t *testing.T) {
	g := New()
	a, b := g.AddNode(), g.AddNode()
	c, d := g.AddNode(), g.AddNode()
	g.MustEdge(a, b, 1)
	g.MustEdge(c, d, 1)
	comp, count := g.WCC()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if comp[a] != comp[b] || comp[c] != comp[d] || comp[a] == comp[c] {
		t.Errorf("components wrong: %v", comp)
	}
}

func TestLevelsChain(t *testing.T) {
	g := New()
	a, b, c := g.AddNode(), g.AddNode(), g.AddNode()
	g.MustEdge(a, b, 1)
	g.MustEdge(b, c, 1)
	lv := g.Levels()
	if lv[a] != 1 || lv[b] != 2 || lv[c] != 3 {
		t.Errorf("levels = %v", lv)
	}
}

func TestLongestPathAndBottomLevels(t *testing.T) {
	g := New()
	a, b, c, d := g.AddNode(), g.AddNode(), g.AddNode(), g.AddNode()
	g.MustEdge(a, b, 1)
	g.MustEdge(b, d, 1)
	g.MustEdge(a, c, 1)
	w := []float64{1, 10, 2, 3}
	if got := g.LongestPath(w); got != 14 {
		t.Errorf("longest path = %g, want 14 (a-b-d)", got)
	}
	bl := g.BottomLevels(w)
	if bl[a] != 14 || bl[b] != 13 || bl[c] != 2 || bl[d] != 3 {
		t.Errorf("bottom levels = %v", bl)
	}
}

func TestFreezeBlocksMutation(t *testing.T) {
	g := New()
	g.AddNode()
	if err := g.Freeze(); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Error("AddEdge allowed on frozen graph")
	}
	defer func() {
		if recover() == nil {
			t.Error("AddNode did not panic on frozen graph")
		}
	}()
	g.AddNode()
}

func TestDOTOutput(t *testing.T) {
	g := New()
	a, b := g.AddNode(), g.AddNode()
	g.MustEdge(a, b, 42)
	dot := g.DOT("test", nil)
	for _, want := range []string{"digraph", "n0 -> n1", "42"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestSourcesSinks(t *testing.T) {
	g := New()
	a, b, c := g.AddNode(), g.AddNode(), g.AddNode()
	g.MustEdge(a, b, 1)
	g.MustEdge(a, c, 1)
	var sources, sinks []NodeID
	for v := NodeID(0); int(v) < g.Len(); v++ {
		if len(g.Preds(v)) == 0 {
			sources = append(sources, v)
		}
		if len(g.Succs(v)) == 0 {
			sinks = append(sinks, v)
		}
	}
	if !slices.Equal(sources, []NodeID{a}) {
		t.Errorf("sources = %v", sources)
	}
	if !slices.Equal(sinks, []NodeID{b, c}) {
		t.Errorf("sinks = %v", sinks)
	}
}

// TestDuplicateEdgesFold: a repeated edge keeps the position of its first
// copy in both adjacency lists and the volume of its last, also when the
// repeat arrives after a read folded the earlier edges in and after more
// nodes were added.
func TestDuplicateEdgesFold(t *testing.T) {
	g := New()
	a, b, c := g.AddNode(), g.AddNode(), g.AddNode()
	g.MustEdge(a, c, 1)
	g.MustEdge(a, b, 2)
	g.MustEdge(b, c, 3)
	g.MustEdge(a, c, 4)
	if got := g.Succs(a); len(got) != 2 || got[0] != c || got[1] != b {
		t.Fatalf("succs(a) = %v, want [c b]", got)
	}
	d := g.AddNode()
	g.MustEdge(a, b, 5)
	g.MustEdge(d, c, 6)
	g.MustEdge(b, c, 7)
	checks := []struct {
		name string
		ids  []NodeID
		vols []int64
		want []NodeID
		wvol []int64
	}{
		{"succs(a)", g.Succs(a), g.SuccVolumes(a), []NodeID{c, b}, []int64{4, 5}},
		{"succs(b)", g.Succs(b), g.SuccVolumes(b), []NodeID{c}, []int64{7}},
		{"preds(c)", g.Preds(c), g.PredVolumes(c), []NodeID{a, b, d}, []int64{4, 7, 6}},
		{"preds(b)", g.Preds(b), g.PredVolumes(b), []NodeID{a}, []int64{5}},
	}
	for _, ck := range checks {
		if !slices.Equal(ck.ids, ck.want) || !slices.Equal(ck.vols, ck.wvol) {
			t.Errorf("%s = %v %v, want %v %v", ck.name, ck.ids, ck.vols, ck.want, ck.wvol)
		}
	}
	want := []Edge{{a, b, 5}, {a, c, 4}, {b, c, 7}, {d, c, 6}}
	if got := g.Edges(); !slices.Equal(got, want) || g.NumEdges() != 4 {
		t.Errorf("edges = %v (%d), want %v", got, g.NumEdges(), want)
	}
	if got := g.Succs(c); len(got) != 0 {
		t.Errorf("succs(c) = %v, want none", got)
	}
}

// TestOrderedFoldMatchesMerge: a first fold of edges in strictly increasing
// (From, To) order skips the duplicate merge, and builds the adjacency the
// merging fold builds from the same edges (forced here by folding the
// first edge in alone).
func TestOrderedFoldMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		var edges []Edge
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Intn(4) == 0 {
					edges = append(edges, Edge{NodeID(u), NodeID(v), int64(1 + rng.Intn(9))})
				}
			}
		}
		ordered, merged := New(), New()
		for i := 0; i < n; i++ {
			ordered.AddNode()
			merged.AddNode()
		}
		for i, e := range edges {
			ordered.MustEdge(e.From, e.To, e.Volume)
			merged.MustEdge(e.From, e.To, e.Volume)
			if i == 0 {
				merged.NumEdges()
			}
		}
		for v := NodeID(0); int(v) < n; v++ {
			if !slices.Equal(ordered.Succs(v), merged.Succs(v)) || !slices.Equal(ordered.SuccVolumes(v), merged.SuccVolumes(v)) ||
				!slices.Equal(ordered.Preds(v), merged.Preds(v)) || !slices.Equal(ordered.PredVolumes(v), merged.PredVolumes(v)) {
				t.Fatalf("trial %d node %d: ordered %v %v / %v %v, merged %v %v / %v %v", trial, v,
					ordered.Succs(v), ordered.SuccVolumes(v), ordered.Preds(v), ordered.PredVolumes(v),
					merged.Succs(v), merged.SuccVolumes(v), merged.Preds(v), merged.PredVolumes(v))
			}
		}
		if !slices.Equal(ordered.Edges(), edges) {
			t.Fatalf("trial %d: edges %v, want %v", trial, ordered.Edges(), edges)
		}
	}
}
