package buffers

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/schedule"
)

func scheduleAll(t *testing.T, tg *core.TaskGraph) *schedule.Result {
	t.Helper()
	if err := tg.Freeze(); err != nil {
		t.Fatal(err)
	}
	p := tg.NumComputeNodes()
	r, err := schedule.Schedule(tg, schedule.AllInOneBlock(tg), p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// space returns the FIFO depth sizes gives the streaming edge (from, to),
// or 0 when sizes has no entry for it.
func space(sizes []EdgeSpace, from, to graph.NodeID) int64 {
	for _, e := range sizes {
		if e.From == from && e.To == to {
			return e.Space
		}
	}
	return 0
}

// TestBufferSpaceFig9Graph1 reproduces the Section 6 result: the FIFO on
// edge (0,4) of Figure 9 graph 1 needs 18 slots.
func TestBufferSpaceFig9Graph1(t *testing.T) {
	tg := core.New()
	n0 := tg.AddElementWise("t0", 32)
	n1 := tg.AddCompute("t1", 32, 4)
	n2 := tg.AddCompute("t2", 4, 2)
	n3 := tg.AddCompute("t3", 2, 32)
	n4 := tg.AddElementWise("t4", 32)
	tg.MustConnect(n0, n1)
	tg.MustConnect(n1, n2)
	tg.MustConnect(n2, n3)
	tg.MustConnect(n3, n4)
	tg.MustConnect(n0, n4)
	r := scheduleAll(t, tg)
	sizes := Sizes(tg, r)
	if got := space(sizes, n0, n4); got != 18 {
		t.Errorf("B(0,4) = %d, want 18", got)
	}
	if got := space(sizes, n3, n4); got != MinDepth {
		t.Errorf("B(3,4) = %d, want %d (aligned path)", got, MinDepth)
	}
}

// TestBufferSpaceFig9Graph2 reproduces the second example: the channel on
// the fast path into task 5 needs 32 slots.
func TestBufferSpaceFig9Graph2(t *testing.T) {
	tg := core.New()
	n0 := tg.AddElementWise("t0", 32)
	n1 := tg.AddCompute("t1", 32, 1)
	n2 := tg.AddCompute("t2", 1, 32)
	n3 := tg.AddElementWise("t3", 32)
	n4 := tg.AddElementWise("t4", 32)
	n5 := tg.AddElementWise("t5", 32)
	tg.MustConnect(n0, n1)
	tg.MustConnect(n1, n2)
	tg.MustConnect(n2, n5)
	tg.MustConnect(n3, n4)
	tg.MustConnect(n4, n5)
	r := scheduleAll(t, tg)
	sizes := Sizes(tg, r)
	if got := space(sizes, n4, n5); got != 32 {
		t.Errorf("B(4,5) = %d, want 32", got)
	}
	if got := space(sizes, n2, n5); got != MinDepth {
		t.Errorf("B(2,5) = %d, want %d", got, MinDepth)
	}
}

// TestBufferSpaceCappedByVolume: the computed slack never exceeds the data
// volume actually sent over the edge.
func TestBufferSpaceCappedByVolume(t *testing.T) {
	// Diamond where the slow path delays the join by far more than the fast
	// path's total volume.
	tg := core.New()
	src := tg.AddElementWise("src", 64)
	slow1 := tg.AddCompute("slow1", 64, 1) // huge accumulation delay
	slow2 := tg.AddCompute("slow2", 1, 64)
	join := tg.AddElementWise("join", 64)
	tg.MustConnect(src, slow1)
	tg.MustConnect(slow1, slow2)
	tg.MustConnect(src, join)
	tg.MustConnect(slow2, join)
	r := scheduleAll(t, tg)
	sizes := Sizes(tg, r)
	if got := space(sizes, src, join); got != 64 {
		t.Errorf("B(src,join) = %d, want capped at 64", got)
	}
}

// TestNoCycleNoExtraSpace: a plain chain has no undirected cycles, so all
// edges get the minimum depth.
func TestNoCycleNoExtraSpace(t *testing.T) {
	tg := core.New()
	a := tg.AddElementWise("a", 16)
	b := tg.AddElementWise("b", 16)
	c := tg.AddElementWise("c", 16)
	tg.MustConnect(a, b)
	tg.MustConnect(b, c)
	r := scheduleAll(t, tg)
	for _, e := range Sizes(tg, r) {
		if e.OnCycle {
			t.Errorf("edge (%d,%d) marked on cycle in a chain", e.From, e.To)
		}
		if e.Space != MinDepth {
			t.Errorf("edge (%d,%d) space = %d, want %d", e.From, e.To, e.Space, MinDepth)
		}
	}
}

// TestCrossBlockEdgesNotSized: edges between blocks are buffered through
// memory and receive no FIFO.
func TestCrossBlockEdgesNotSized(t *testing.T) {
	tg := core.New()
	a := tg.AddElementWise("a", 16)
	b := tg.AddElementWise("b", 16)
	tg.MustConnect(a, b)
	if err := tg.Freeze(); err != nil {
		t.Fatal(err)
	}
	part := schedule.Partition{
		Blocks: []schedule.Block{
			{Nodes: []graph.NodeID{a}, ComputeCount: 1},
			{Nodes: []graph.NodeID{b}, ComputeCount: 1},
		},
		BlockOf: []int{0, 1},
	}
	r, err := schedule.Schedule(tg, part, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sizes := Sizes(tg, r); len(sizes) != 0 {
		t.Errorf("got %d sized edges across blocks, want 0", len(sizes))
	}
}
