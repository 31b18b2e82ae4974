package desim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/buffers"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/schedule"
	"repro/internal/synth"
)

func schedAll(t *testing.T, tg *core.TaskGraph) *schedule.Result {
	t.Helper()
	if !tg.G.Frozen() {
		if err := tg.Freeze(); err != nil {
			t.Fatal(err)
		}
	}
	p := tg.NumComputeNodes()
	if p == 0 {
		p = 1
	}
	r, err := schedule.Schedule(tg, schedule.AllInOneBlock(tg), p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func simulate(t *testing.T, tg *core.TaskGraph, r *schedule.Result, caps []buffers.EdgeSpace) *Stats {
	t.Helper()
	st, err := Simulate(tg, r, Config{FIFOCap: caps})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	return st
}

// setSpace edits, in place, the FIFO depth caps gives the streaming edge
// (from, to); caps must hold an entry for it.
func setSpace(t testing.TB, caps []buffers.EdgeSpace, from, to graph.NodeID, space int64) {
	t.Helper()
	i := slices.IndexFunc(caps, func(e buffers.EdgeSpace) bool { return e.From == from && e.To == to })
	if i < 0 {
		t.Fatalf("no FIFO entry for (%d,%d)", from, to)
	}
	caps[i].Space = space
}

// TestChainExact: an element-wise chain with unit FIFOs matches the
// analytical makespan exactly (k + n - 1).
func TestChainExact(t *testing.T) {
	const n, k = 8, 100
	tg := core.New()
	prev := tg.AddElementWise("t0", k)
	for i := 1; i < n; i++ {
		cur := tg.AddElementWise("t", k)
		tg.MustConnect(prev, cur)
		prev = cur
	}
	r := schedAll(t, tg)
	st := simulate(t, tg, r, buffers.Sizes(tg, r))
	if st.Deadlocked {
		t.Fatalf("deadlock at cycle %d", st.DeadlockCycle)
	}
	if st.Makespan != r.Makespan {
		t.Errorf("simulated %g != scheduled %g", st.Makespan, r.Makespan)
	}
	if st.Makespan != k+n-1 {
		t.Errorf("makespan = %g, want %d", st.Makespan, k+n-1)
	}
}

func fig9Graph1() *core.TaskGraph {
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
	return tg
}

// TestBufferSpaceFig9SufficientNoDeadlock: the Equation 5 sizes keep the
// Figure 9 graph deadlock- and bubble-free, landing on the scheduled
// makespan.
func TestBufferSpaceFig9SufficientNoDeadlock(t *testing.T) {
	tg := fig9Graph1()
	r := schedAll(t, tg)
	st := simulate(t, tg, r, buffers.Sizes(tg, r))
	if st.Deadlocked {
		t.Fatalf("deadlock at cycle %d with computed buffer sizes", st.DeadlockCycle)
	}
	if math.Abs(st.RelativeError(r.Makespan)) > 0.05 {
		t.Errorf("relative error %.3f too large (sim %g vs sched %g)",
			st.RelativeError(r.Makespan), st.Makespan, r.Makespan)
	}
}

// TestBufferSpaceFig9InsufficientDeadlocks: shrinking the (0,4) channel
// below the amount the left path needs before producing its first element
// wedges the pipeline, the failure mode described in Section 6.
func TestBufferSpaceFig9InsufficientDeadlocks(t *testing.T) {
	tg := fig9Graph1()
	r := schedAll(t, tg)
	caps := buffers.Sizes(tg, r)
	setSpace(t, caps, 0, 4, 8) // left path needs 16 elements of task 0 first
	st := simulate(t, tg, r, caps)
	if !st.Deadlocked {
		t.Fatalf("expected deadlock with undersized FIFO, simulation finished at %g", st.Makespan)
	}
}

// TestFIFOCapSliceContract pins how Config.FIFOCap, the sorted slice
// buffers.Sizes returns, is matched to the edges of the Figure 9 graph
// (t0 -> t1 -> t2 -> t3 -> t4 plus the skip channel t0 -> t4, sized to 18
// slots; the run ends at cycle 52): entries that name no streaming edge
// are ignored, an edge takes its last entry with Space > 0 or else
// DefaultCap, and an unsorted slice is an error. Both engines must wedge
// an 8-slot skip channel at cycle 11.
func TestFIFOCapSliceContract(t *testing.T) {
	tg := fig9Graph1()
	r := schedAll(t, tg)
	// Blocks {t0, t1, t2} and {t3, t4}: t2 -> t3 and t0 -> t4 go through
	// memory.
	two, err := schedule.Schedule(tg, schedule.Partition{
		Blocks: []schedule.Block{
			{Nodes: []graph.NodeID{0, 1, 2}, ComputeCount: 3},
			{Nodes: []graph.NodeID{3, 4}, ComputeCount: 2},
		},
		BlockOf: []int{0, 0, 0, 1, 1},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	const deadlock = 11 // the cycle an 8-slot skip channel wedges at
	edited := func(edit func([]buffers.EdgeSpace) []buffers.EdgeSpace) []buffers.EdgeSpace {
		return edit(buffers.Sizes(tg, r))
	}
	cases := []struct {
		name       string
		res        *schedule.Result
		caps       []buffers.EdgeSpace
		defaultCap int64
		want       int64 // the deadlock cycle; 0 for a run that ends as with the sizes alone
		wantErr    bool
	}{
		{name: "sized", res: r, caps: buffers.Sizes(tg, r), want: 0},
		{name: "8-slot skip channel", res: r, caps: edited(func(c []buffers.EdgeSpace) []buffers.EdgeSpace {
			setSpace(t, c, 0, 4, 8)
			return c
		}), want: deadlock},
		{name: "no entries take DefaultCap", res: r, defaultCap: 8, want: deadlock},
		{name: "space 0 takes DefaultCap", res: r, defaultCap: 8, caps: edited(func(c []buffers.EdgeSpace) []buffers.EdgeSpace {
			setSpace(t, c, 0, 4, 0)
			return c
		}), want: deadlock},
		{name: "later duplicate wins", res: r, caps: edited(func(c []buffers.EdgeSpace) []buffers.EdgeSpace {
			return slices.Insert(c, 1, buffers.EdgeSpace{From: 0, To: 4, Space: 8})
		}), want: 0},
		{name: "earlier duplicate loses", res: r, caps: edited(func(c []buffers.EdgeSpace) []buffers.EdgeSpace {
			return slices.Insert(c, 2, buffers.EdgeSpace{From: 0, To: 4, Space: 8})
		}), want: deadlock},
		// The skip channel has no entry and takes DefaultCap's 18 slots;
		// 8 slots from any of the entries naming no edge would wedge it.
		{name: "entries naming no edge ignored", res: r, defaultCap: 18, caps: []buffers.EdgeSpace{
			{From: -1, To: 4, Space: 8}, {From: 0, To: 1, Space: 1}, {From: 0, To: 3, Space: 8}, {From: 0, To: 99, Space: 8},
			{From: 1, To: 2, Space: 1}, {From: 1, To: 4, Space: 8}, {From: 2, To: 3, Space: 1}, {From: 2, To: 4, Space: 8},
			{From: 3, To: 4, Space: 1}, {From: 5, To: 4, Space: 8}, {From: 99, To: 4, Space: 8},
		}, want: 0},
		// With the skip channel in memory the unit FIFOs suffice; a
		// one-slot entry on t0 -> t4 must not turn it back into a FIFO.
		{name: "memory-edge entry ignored", res: two, caps: []buffers.EdgeSpace{{From: 0, To: 4, Space: 1}, {From: 2, To: 3, Space: 1}}, want: 0},
		{name: "unsorted", res: r, caps: edited(func(c []buffers.EdgeSpace) []buffers.EdgeSpace {
			slices.Reverse(c)
			return c
		}), wantErr: true},
	}
	for _, tc := range cases {
		for _, engine := range []Engine{EngineLeap, EngineReference} {
			st, err := Simulate(tg, tc.res, Config{FIFOCap: tc.caps, DefaultCap: tc.defaultCap, Engine: engine})
			if tc.wantErr {
				if err == nil || !strings.Contains(err.Error(), "buffers.Sizes") {
					t.Errorf("%s/%v: err = %v, want one naming buffers.Sizes", tc.name, engine, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s/%v: %v", tc.name, engine, err)
			}
			if st.Deadlocked != (tc.want != 0) || st.DeadlockCycle != tc.want {
				t.Errorf("%s/%v: deadlocked=%v at cycle %d, want deadlock cycle %d (0: none)",
					tc.name, engine, st.Deadlocked, st.DeadlockCycle, tc.want)
			}
			if sized := simulate(t, tg, tc.res, buffers.Sizes(tg, tc.res)); tc.want == 0 && st.Makespan != sized.Makespan {
				t.Errorf("%s/%v: makespan %g, want %g as with the sizes alone", tc.name, engine, st.Makespan, sized.Makespan)
			}
		}
	}
}

// TestFIFOCapMatchesEdges checks the one-pass matching of Config.FIFOCap
// against a map keyed by edge: across the
// differential graphs, with an entry of a distinct Space for every node
// pair (u, x) and one Scratch reused throughout, each streaming edge gets
// its pair's Space, and no other pair's, whatever positions the earlier
// graphs left behind.
func TestFIFOCapMatchesEdges(t *testing.T) {
	const defaultCap = 3
	s := NewScratch()
	checked := 0
	for family := 0; family < 5; family++ {
		for seed := int64(0); seed < 4; seed++ {
			tg := diffGraph(family, seed)
			for _, pes := range []int{2, 8} {
				part, err := schedule.Algorithm1(tg, pes, schedule.Options{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := schedule.Schedule(tg, part, pes)
				if err != nil {
					t.Fatal(err)
				}
				var caps []buffers.EdgeSpace
				want := make(map[[2]graph.NodeID]int64)
				for u := range tg.Len() {
					for x := range tg.Len() {
						e := buffers.EdgeSpace{From: graph.NodeID(u), To: graph.NodeID(x), Space: int64(defaultCap + 1 + len(caps))}
						want[[2]graph.NodeID{e.From, e.To}] = e.Space
						caps = append(caps, e)
					}
				}
				if _, err := s.Simulate(tg, res, Config{FIFOCap: caps, DefaultCap: defaultCap, MaxCycles: 1}); err != nil &&
					!strings.Contains(err.Error(), "exceeded") {
					t.Fatal(err)
				}
				for _, e := range s.edges {
					if e.kind != fifoEdge {
						continue
					}
					if w := want[[2]graph.NodeID{e.from, e.to}]; e.cap != w {
						t.Fatalf("family %d seed %d P=%d: edge (%d,%d) cap %d, want %d", family, seed, pes, e.from, e.to, e.cap, w)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no streaming edge checked")
	}
}

// TestFIFOCapStalePositions: a Scratch reused on another graph must not
// match an entry through the successor positions the earlier graph left.
func TestFIFOCapStalePositions(t *testing.T) {
	s := NewScratch()
	fig9 := fig9Graph1() // its first edge is t0 -> t1
	r := schedAll(t, fig9)
	if _, err := s.Simulate(fig9, r, Config{FIFOCap: buffers.Sizes(fig9, r)}); err != nil {
		t.Fatal(err)
	}
	join := core.New() // t0 -> t2 <- t1: t1 is no successor of t0
	t0, t1, t2 := join.AddElementWise("t0", 32), join.AddElementWise("t1", 32), join.AddElementWise("t2", 32)
	join.MustConnect(t0, t2)
	join.MustConnect(t1, t2)
	rj := schedAll(t, join)
	if _, err := s.Simulate(join, rj, Config{FIFOCap: []buffers.EdgeSpace{{From: t0, To: t1, Space: 7}}}); err != nil {
		t.Fatal(err)
	}
	for _, e := range s.edges {
		if e.cap != 1 {
			t.Errorf("edge (%d,%d) cap %d, want DefaultCap 1", e.from, e.to, e.cap)
		}
	}
}

// TestFig9Graph2MatchesSchedule: the two-source join of Figure 9 graph 2
// runs to the scheduled makespan with the computed sizes.
func TestFig9Graph2MatchesSchedule(t *testing.T) {
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
	r := schedAll(t, tg)
	st := simulate(t, tg, r, buffers.Sizes(tg, r))
	if st.Deadlocked {
		t.Fatalf("deadlock at cycle %d", st.DeadlockCycle)
	}
	if math.Abs(st.RelativeError(r.Makespan)) > 0.05 {
		t.Errorf("relative error %.3f (sim %g vs sched %g)",
			st.RelativeError(r.Makespan), st.Makespan, r.Makespan)
	}
}

// TestBufferNodeBlocksPipelining: a buffer in the middle of a chain forces
// the consumer side to start only after the producer side finished.
func TestBufferNodeBlocksPipelining(t *testing.T) {
	const k = 64
	tg := core.New()
	a := tg.AddElementWise("a", k)
	b := tg.AddBuffer("buf", k, k)
	c := tg.AddElementWise("c", k)
	tg.MustConnect(a, b)
	tg.MustConnect(b, c)
	r := schedAll(t, tg)
	st := simulate(t, tg, r, buffers.Sizes(tg, r))
	if st.Deadlocked {
		t.Fatal("deadlock")
	}
	// a finishes at k; the buffer head starts emitting the next cycle, so c
	// reads k elements and finishes at 2k+1, matching LO(c).
	if st.Finish[a] != k || st.Finish[c] != 2*k+1 {
		t.Errorf("finish a=%g c=%g, want %d and %d", st.Finish[a], st.Finish[c], k, 2*k+1)
	}
	if st.Makespan != r.Makespan {
		t.Errorf("simulated %g != scheduled %g", st.Makespan, r.Makespan)
	}
}

// TestCrossBlockBarrier: the second block starts only after the first
// completed, and the simulation agrees with the scheduled makespan.
func TestCrossBlockBarrier(t *testing.T) {
	const k = 64
	tg := core.New()
	a := tg.AddElementWise("a", k)
	b := tg.AddElementWise("b", k)
	c := tg.AddElementWise("c", k)
	d := tg.AddElementWise("d", k)
	tg.MustConnect(a, b)
	tg.MustConnect(b, c)
	tg.MustConnect(c, d)
	if err := tg.Freeze(); err != nil {
		t.Fatal(err)
	}
	part := schedule.Partition{
		Blocks: []schedule.Block{
			{Nodes: []graph.NodeID{a, b}, ComputeCount: 2},
			{Nodes: []graph.NodeID{c, d}, ComputeCount: 2},
		},
		BlockOf: []int{0, 0, 1, 1},
	}
	r, err := schedule.Schedule(tg, part, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := simulate(t, tg, r, buffers.Sizes(tg, r))
	if st.Deadlocked {
		t.Fatal("deadlock")
	}
	if st.Finish[c] <= st.Finish[b] {
		t.Errorf("block 1 (%g) did not wait for block 0 (%g)", st.Finish[c], st.Finish[b])
	}
	if st.Makespan != r.Makespan {
		t.Errorf("simulated %g != scheduled %g", st.Makespan, r.Makespan)
	}
}

// TestSyntheticValidation mirrors Appendix B / Figure 13: across random
// synthetic graphs, simulation with the computed buffer sizes never
// deadlocks, and the median relative error between scheduled and simulated
// makespan is (close to) zero.
func TestSyntheticValidation(t *testing.T) {
	cfg := synth.SmallConfig()
	type gen struct {
		name  string
		build func(rng *rand.Rand) *core.TaskGraph
		pes   int
	}
	gens := []gen{
		{"chain", func(r *rand.Rand) *core.TaskGraph { return synth.Chain(8, r, cfg) }, 4},
		{"fft", func(r *rand.Rand) *core.TaskGraph { return synth.FFT(16, r, cfg) }, 32},
		{"gaussian", func(r *rand.Rand) *core.TaskGraph { return synth.Gaussian(8, r, cfg) }, 16},
		{"cholesky", func(r *rand.Rand) *core.TaskGraph { return synth.Cholesky(6, r, cfg) }, 16},
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			var errs []float64
			for seed := int64(0); seed < 15; seed++ {
				rng := rand.New(rand.NewSource(seed))
				tg := g.build(rng)
				for _, variant := range []schedule.Variant{schedule.SBLTS, schedule.SBRLX} {
					part, err := schedule.Algorithm1(tg, g.pes, schedule.Options{Variant: variant})
					if err != nil {
						t.Fatal(err)
					}
					res, err := schedule.Schedule(tg, part, g.pes)
					if err != nil {
						t.Fatal(err)
					}
					st := simulate(t, tg, res, buffers.Sizes(tg, res))
					if st.Deadlocked {
						t.Fatalf("seed %d %v: deadlock at cycle %d", seed, variant, st.DeadlockCycle)
					}
					errs = append(errs, st.RelativeError(res.Makespan))
				}
			}
			sort.Float64s(errs)
			median := errs[len(errs)/2]
			if math.Abs(median) > 0.10 {
				t.Errorf("median relative error %.3f, want |median| <= 0.10 (min %.3f max %.3f)",
					median, errs[0], errs[len(errs)-1])
			}
		})
	}
}
