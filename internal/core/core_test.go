package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestNodeClassification(t *testing.T) {
	cases := []struct {
		n    Node
		ew   bool
		down bool
		up   bool
		rate float64
		work float64
	}{
		{Node{Kind: Compute, In: 8, Out: 8}, true, false, false, 1, 8},
		{Node{Kind: Compute, In: 8, Out: 2}, false, true, false, 0.25, 8},
		{Node{Kind: Compute, In: 2, Out: 8}, false, false, true, 4, 8},
		{Node{Kind: Buffer, In: 8, Out: 8}, false, false, false, 1, 0},
		{Node{Kind: Source, Out: 8}, false, false, false, 0, 8},
		{Node{Kind: Sink, In: 8}, false, false, false, 0, 8},
	}
	for i, c := range cases {
		if c.n.IsElementWise() != c.ew || c.n.IsDownsampler() != c.down || c.n.IsUpsampler() != c.up {
			t.Errorf("case %d: classification wrong", i)
		}
		if c.n.Rate() != c.rate {
			t.Errorf("case %d: rate = %g, want %g", i, c.n.Rate(), c.rate)
		}
		if c.n.Work() != c.work {
			t.Errorf("case %d: work = %g, want %g", i, c.n.Work(), c.work)
		}
	}
}

func TestValidateVolumeMismatch(t *testing.T) {
	tg := New()
	a := tg.AddElementWise("a", 8)
	b := tg.AddElementWise("b", 16) // consumes 16, but a produces 8
	if err := tg.G.AddEdge(a, b, 8); err != nil {
		t.Fatal(err)
	}
	if err := tg.Validate(); err == nil {
		t.Error("volume mismatch accepted")
	}
}

func TestValidateSourceWithInputs(t *testing.T) {
	tg := New()
	a := tg.AddElementWise("a", 8)
	s := tg.AddSource("s", 8)
	if err := tg.G.AddEdge(a, s, 8); err != nil {
		t.Fatal(err)
	}
	if err := tg.Validate(); err == nil {
		t.Error("source with inputs accepted")
	}
}

func TestValidateSinkWithOutputs(t *testing.T) {
	tg := New()
	s := tg.AddSink("s", 8)
	b := tg.AddElementWise("b", 8)
	if err := tg.G.AddEdge(s, b, 8); err != nil {
		t.Fatal(err)
	}
	if err := tg.Validate(); err == nil {
		t.Error("sink with outputs accepted")
	}
}

// A sink with no predecessor is not canonical: it would be scheduled a
// finite completion time while the simulator waits on it forever.
func TestValidateSinkWithoutInputs(t *testing.T) {
	tg := New()
	src := tg.AddSource("src", 8)
	a := tg.AddElementWise("a", 8)
	out := tg.AddSink("out", 8)
	tg.MustConnect(src, a)
	tg.MustConnect(a, out)
	if err := tg.Validate(); err != nil {
		t.Fatalf("canonical graph rejected: %v", err)
	}
	tg.AddSink("orphan", 8)
	if err := tg.Validate(); err == nil || !strings.Contains(err.Error(), "sink 3 (orphan) has no inputs") {
		t.Errorf("Validate = %v, want the input-less sink rejected", err)
	}
	if err := tg.Freeze(); err == nil || !strings.Contains(err.Error(), "has no inputs") {
		t.Errorf("Freeze = %v, want the input-less sink rejected", err)
	}
}

func TestConnectChecksProducer(t *testing.T) {
	tg := New()
	snk := tg.AddSink("s", 8)
	b := tg.AddElementWise("b", 8)
	if err := tg.Connect(snk, b); err == nil {
		t.Error("connecting from a sink (no output volume) accepted")
	}
}

func TestLevelsWithUpsampler(t *testing.T) {
	tg := New()
	a := tg.AddElementWise("a", 4)
	u := tg.AddCompute("u", 4, 16) // R = 4
	c := tg.AddElementWise("c", 16)
	tg.MustConnect(a, u)
	tg.MustConnect(u, c)
	lv := tg.Levels()
	if lv[a] != 1 || lv[u] != 5 || lv[c] != 6 {
		t.Errorf("levels = %v, want [1 5 6]", lv)
	}
}

func TestWork(t *testing.T) {
	tg := New()
	tg.AddElementWise("a", 10)
	tg.AddCompute("d", 20, 5)
	tg.AddBuffer("b", 100, 100)
	if got := tg.Work(); got != 30 {
		t.Errorf("work = %g, want 30 (buffers free)", got)
	}
	if got := tg.Node(1).Work(); got != 20 {
		t.Errorf("work of d = %g, want 20", got)
	}
}

func TestSplitBuffersStructure(t *testing.T) {
	tg := New()
	a := tg.AddElementWise("a", 8)
	b := tg.AddBuffer("b", 8, 8)
	c := tg.AddElementWise("c", 8)
	tg.MustConnect(a, b)
	tg.MustConnect(b, c)
	s := tg.SplitBuffers()
	if s.G.Len() != 4 {
		t.Fatalf("split graph has %d nodes, want 4", s.G.Len())
	}
	head := s.Head[b]
	if head == graph.InvalidNode {
		t.Fatal("buffer head missing")
	}
	if got := s.G.Succs(a); !slices.Equal(got, []graph.NodeID{b}) {
		t.Errorf("succs(a) = %v, want the tail edge a->b", got)
	}
	if got := s.G.Succs(head); !slices.Equal(got, []graph.NodeID{c}) {
		t.Errorf("succs(head) = %v, want the head edge head->c", got)
	}
	if got := s.G.Succs(b); len(got) != 0 {
		t.Errorf("succs(b) = %v: the edge leaving the buffer tail should have moved to the head", got)
	}
	if s.Owner[head] != b {
		t.Errorf("head owner = %d, want %d", s.Owner[head], b)
	}
}

// randomCanonicalChainDAG builds a random canonical graph: a tree of
// downsampler/elementwise/upsampler nodes with consistent volumes.
func randomCanonicalChainDAG(rng *rand.Rand) *TaskGraph {
	tg := New()
	n := rng.Intn(20) + 2
	vol := int64(1) << (3 + rng.Intn(5))
	prev := tg.AddElementWise("src", vol)
	for i := 1; i < n; i++ {
		out := vol
		switch rng.Intn(3) {
		case 0:
			if vol%2 == 0 {
				out = vol / 2
			}
		case 1:
			if vol < 1<<12 {
				out = vol * 2
			}
		}
		cur := tg.AddCompute("t", vol, out)
		tg.MustConnect(prev, cur)
		prev, vol = cur, out
	}
	if err := tg.Freeze(); err != nil {
		panic(err)
	}
	return tg
}

// TestStreamingIntervalInvariants checks Lemma 4.3 and Equation 1 on random
// canonical graphs: all intervals are >= 1, and O(v) * So(v) is constant
// within a weakly connected component.
func TestStreamingIntervalInvariants(t *testing.T) {
	f := func(seed int64) bool {
		tg := randomCanonicalChainDAG(rand.New(rand.NewSource(seed)))
		iv := tg.StreamingIntervals()
		perComp := map[int]float64{}
		for v := 0; v < tg.Len(); v++ {
			n := tg.Nodes[v]
			if n.Kind == Sink || n.Out == 0 {
				continue
			}
			if iv.So[v] < 1 {
				return false
			}
			prod := float64(n.Out) * iv.So[v]
			if prev, ok := perComp[iv.Comp[v]]; ok && prev != prod {
				return false // violates Lemma 4.3
			}
			perComp[iv.Comp[v]] = prod
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStreamingDepthElwiseExact: the closed-form bound is exact on
// element-wise graphs (Section 4.2.1).
func TestStreamingDepthElwiseExact(t *testing.T) {
	tg := New()
	a := tg.AddElementWise("a", 50)
	b := tg.AddElementWise("b", 50)
	c := tg.AddElementWise("c", 50)
	d := tg.AddElementWise("d", 50)
	tg.MustConnect(a, b)
	tg.MustConnect(a, c)
	tg.MustConnect(b, d)
	tg.MustConnect(c, d)
	if err := tg.Freeze(); err != nil {
		t.Fatal(err)
	}
	if got, want := tg.StreamingDepth(), float64(50+3-1); got != want {
		t.Errorf("streaming depth = %g, want %g", got, want)
	}
}

// TestStreamingDepthWithBuffer: buffer-split components chain additively
// through the supernode DAG H.
func TestStreamingDepthWithBuffer(t *testing.T) {
	tg := New()
	a := tg.AddElementWise("a", 32)
	b := tg.AddBuffer("buf", 32, 32)
	c := tg.AddElementWise("c", 32)
	tg.MustConnect(a, b)
	tg.MustConnect(b, c)
	if err := tg.Freeze(); err != nil {
		t.Fatal(err)
	}
	// Component 1 (a + buffer tail) has depth 2 + 32 - 1 = 33 and so does
	// component 2 (head + c); chained through H the bound is 66. The exact
	// infinite-PE makespan is 65, within the paper's L-hat slack.
	if got := tg.StreamingDepth(); got != 66 {
		t.Errorf("streaming depth bound = %g, want 66", got)
	}
}

func TestCriticalPath(t *testing.T) {
	tg := New()
	a := tg.AddElementWise("a", 10)
	b := tg.AddCompute("b", 10, 5)
	c := tg.AddElementWise("c", 5)
	tg.MustConnect(a, b)
	tg.MustConnect(b, c)
	if err := tg.Freeze(); err != nil {
		t.Fatal(err)
	}
	if got := tg.CriticalPath(); got != 25 {
		t.Errorf("critical path = %g, want 25", got)
	}
}

func TestDOTMentionsKinds(t *testing.T) {
	tg := New()
	tg.AddSource("in", 4)
	tg.AddBuffer("mem", 4, 4)
	tg.AddCompute("half", 4, 2)
	dot := tg.DOT("g")
	for _, want := range []string{"src", "buf", "R=1/2"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestNumComputeNodes(t *testing.T) {
	tg := New()
	tg.AddSource("s", 4)
	tg.AddElementWise("e", 4)
	tg.AddBuffer("b", 4, 4)
	tg.AddSink("k", 4)
	if got := tg.NumComputeNodes(); got != 1 {
		t.Errorf("compute nodes = %d, want 1", got)
	}
}
