package desim

import (
	"math/rand"
	"testing"

	"repro/internal/buffers"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/schedule"
	"repro/internal/synth"
)

// diffGraph builds one of the synthetic families from a seed, small enough
// for element-level simulation but large enough to reach steady state.
func diffGraph(family int, seed int64) *core.TaskGraph {
	cfg := synth.SmallConfig()
	rng := rand.New(rand.NewSource(seed))
	switch ((family % 5) + 5) % 5 {
	case 0:
		return synth.Chain(6, rng, cfg)
	case 1:
		return synth.FFT(8, rng, cfg)
	case 2:
		return synth.Gaussian(6, rng, cfg)
	case 3:
		return synth.Cholesky(5, rng, cfg)
	default:
		// The Figure 9 diamond: the skip edge must hold everything the
		// down/up path needs before its first output, so shrunken
		// capacities wedge it — the known deadlock shape of Section 6.
		vol := int64(16) << (((seed % 4) + 4) % 4)
		tg := core.New()
		src := tg.AddElementWise("src", vol)
		down := tg.AddCompute("down", vol, vol/8)
		mid := tg.AddElementWise("mid", vol/8)
		up := tg.AddCompute("up", vol/8, vol)
		join := tg.AddElementWise("join", vol)
		tg.MustConnect(src, down)
		tg.MustConnect(down, mid)
		tg.MustConnect(mid, up)
		tg.MustConnect(up, join)
		tg.MustConnect(src, join)
		if err := tg.Freeze(); err != nil {
			panic(err)
		}
		return tg
	}
}

// diffCaps derives the FIFO capacities for one differential case: the
// Equation 5 sizes, a uniformly shrunken variant (which provokes the
// deadlock paths), or unit capacities.
func diffCaps(tg *core.TaskGraph, res *schedule.Result, mode int) ([]buffers.EdgeSpace, int64) {
	switch ((mode % 3) + 3) % 3 {
	case 0:
		return buffers.Sizes(tg, res), 0
	case 1:
		caps := buffers.Sizes(tg, res)
		for i := range caps {
			caps[i].Space = max(1, caps[i].Space/4)
		}
		return caps, 0
	default:
		return nil, 1 // unit FIFOs everywhere
	}
}

// runBoth simulates one scheduled graph with the reference loop as the
// oracle and requires the default configuration — the leap engine — to
// produce identical semantic Stats, the Finish vector and the deadlock
// cycle included. It returns the reference Stats, or nil when both engines
// failed alike.
func runBoth(t testing.TB, tg *core.TaskGraph, res *schedule.Result,
	caps []buffers.EdgeSpace, defaultCap, maxCycles int64) *Stats {
	t.Helper()
	ref, refErr := NewScratch().Simulate(tg, res, Config{
		FIFOCap: caps, DefaultCap: defaultCap, MaxCycles: maxCycles, Engine: EngineReference,
	})
	lp, lpErr := NewScratch().Simulate(tg, res, Config{
		FIFOCap: caps, DefaultCap: defaultCap, MaxCycles: maxCycles,
	})
	if (refErr != nil) != (lpErr != nil) {
		t.Fatalf("engines disagree on error: reference=%v default=%v", refErr, lpErr)
	}
	if refErr != nil {
		if refErr.Error() != lpErr.Error() {
			t.Fatalf("engines disagree on error text: reference=%v default=%v", refErr, lpErr)
		}
		return nil
	}
	if ref.Makespan != lp.Makespan || ref.Deadlocked != lp.Deadlocked ||
		ref.DeadlockCycle != lp.DeadlockCycle || ref.Cycles != lp.Cycles {
		t.Fatalf("stats diverge: reference makespan=%g deadlock=%v@%d cycles=%d, default makespan=%g deadlock=%v@%d cycles=%d",
			ref.Makespan, ref.Deadlocked, ref.DeadlockCycle, ref.Cycles,
			lp.Makespan, lp.Deadlocked, lp.DeadlockCycle, lp.Cycles)
	}
	for v := range ref.Finish {
		if ref.Finish[v] != lp.Finish[v] {
			t.Fatalf("Finish[%d] diverges: reference %g, default %g", v, ref.Finish[v], lp.Finish[v])
		}
	}
	return ref
}

// diffCase schedules one differential configuration, cross-checks the
// engines and returns the reference Stats (nil when both engines failed
// alike); ok is false when the configuration is unschedulable (the fuzzer
// may propose one) rather than failing. With the Equation 5 sizes (cap mode
// 0) and no cycle budget it also requires that the run does not deadlock:
// Section 6 sizes the FIFOs of Algorithm 1's partitions for exactly that.
func diffCase(t testing.TB, family int, seed int64, pes int, variant schedule.Variant, capMode int, maxCycles int64) (st *Stats, ok bool) {
	tg := diffGraph(family, seed)
	part, err := schedule.Algorithm1(tg, pes, schedule.Options{Variant: variant})
	if err != nil {
		return nil, false
	}
	res, err := schedule.Schedule(tg, part, pes)
	if err != nil {
		return nil, false
	}
	caps, defaultCap := diffCaps(tg, res, capMode)
	st = runBoth(t, tg, res, caps, defaultCap, maxCycles)
	if ((capMode%3)+3)%3 == 0 && maxCycles == 0 && st != nil && st.Deadlocked {
		t.Fatalf("Equation 5 sizes deadlock at cycle %d (family %d, seed %d, P=%d, %v)",
			st.DeadlockCycle, family, seed, pes, variant)
	}
	return st, true
}

// TestLeapMatchesReference sweeps random graphs, partition variants, PE
// counts, and FIFO capacity regimes (sized, shrunken, unit) and requires the
// leap engine's Stats to be byte-identical to the reference loop's —
// deadlocks and deadlock cycles included.
func TestLeapMatchesReference(t *testing.T) {
	variants := []schedule.Variant{schedule.SBLTS, schedule.SBRLX}
	cases, deadlocks := 0, 0
	for family := 0; family < 5; family++ {
		for seed := int64(0); seed < 6; seed++ {
			for _, pes := range []int{2, 8, 32} {
				for capMode := 0; capMode < 3; capMode++ {
					v := variants[(family+int(seed)+capMode)%2]
					st, ok := diffCase(t, family, seed, pes, v, capMode, 0)
					if !ok {
						continue
					}
					cases++
					if st != nil && st.Deadlocked {
						deadlocks++
					}
				}
			}
		}
	}
	if cases < 100 {
		t.Fatalf("only %d differential cases ran; the sweep is miswired", cases)
	}
	if deadlocks == 0 {
		t.Fatal("no differential case deadlocked; the shrunken-capacity regime no longer exercises the deadlock paths")
	}
}

// TestLeapMatchesReferenceWorkedExamples pins the engines against each other
// on the paper's worked shapes: the Figure 9 diamond with sufficient and
// insufficient capacities, a buffer-split chain, and a two-block partition
// with cross-block memory edges.
func TestLeapMatchesReferenceWorkedExamples(t *testing.T) {
	tg := fig9Graph1()
	res := schedAll(t, tg)
	runBoth(t, tg, res, buffers.Sizes(tg, res), 0, 0)

	// Undersized (0,4) channel: both engines must wedge at the same cycle.
	caps := buffers.Sizes(tg, res)
	setSpace(t, caps, 0, 4, 8)
	runBoth(t, tg, res, caps, 0, 0)

	// Buffer in the middle of a chain: memory-edge readiness and the
	// buffer-head emission cycle must replay identically.
	const k = 512
	tg2 := core.New()
	a := tg2.AddElementWise("a", k)
	b := tg2.AddBuffer("buf", k, k)
	c := tg2.AddElementWise("c", k)
	tg2.MustConnect(a, b)
	tg2.MustConnect(b, c)
	res2 := schedAll(t, tg2)
	runBoth(t, tg2, res2, buffers.Sizes(tg2, res2), 0, 0)

	// Two blocks back to back: cross-block memory drains must leap too.
	tg3 := core.New()
	n0 := tg3.AddElementWise("a", k)
	n1 := tg3.AddElementWise("b", k)
	n2 := tg3.AddElementWise("c", k)
	n3 := tg3.AddElementWise("d", k)
	tg3.MustConnect(n0, n1)
	tg3.MustConnect(n1, n2)
	tg3.MustConnect(n2, n3)
	if err := tg3.Freeze(); err != nil {
		t.Fatal(err)
	}
	part := schedule.Partition{
		Blocks: []schedule.Block{
			{Nodes: []graph.NodeID{n0, n1}, ComputeCount: 2},
			{Nodes: []graph.NodeID{n2, n3}, ComputeCount: 2},
		},
		BlockOf: []int{0, 0, 1, 1},
	}
	res3, err := schedule.Schedule(tg3, part, 2)
	if err != nil {
		t.Fatal(err)
	}
	runBoth(t, tg3, res3, buffers.Sizes(tg3, res3), 0, 0)
}

// TestLeapMatchesReferenceMaxCycles forces the cycle-budget overrun on both
// engines: the leap bound must never jump past the budget, so the error
// fires at the same point.
func TestLeapMatchesReferenceMaxCycles(t *testing.T) {
	tg := fig9Graph1()
	res := schedAll(t, tg)
	for _, budget := range []int64{1, 3, 10, 17, 40} {
		runBoth(t, tg, res, buffers.Sizes(tg, res), 0, budget)
	}
}

// TestLeapActuallyLeaps guards the fast path against silent regression to
// pure unit stepping: on a long rate-matched chain the steady state must be
// detected and replayed, which shows up as the leap engine running the same
// simulation orders of magnitude faster than cycle-by-cycle stepping would
// allow. Rather than timing, it checks the leap detector's bookkeeping: the
// ring restarts only at discontinuities, so after a successful run on a
// long chain the detector must have jumped at least once.
func TestLeapActuallyLeaps(t *testing.T) {
	const k = 100_000
	tg := core.New()
	prev := tg.AddElementWise("t0", k)
	for i := 1; i < 6; i++ {
		cur := tg.AddElementWise("t", k)
		tg.MustConnect(prev, cur)
		prev = cur
	}
	res := schedAll(t, tg)
	st, err := NewScratch().Simulate(tg, res, Config{FIFOCap: buffers.Sizes(tg, res), Engine: EngineLeap})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deadlocked {
		t.Fatal("unexpected deadlock")
	}
	if st.Makespan != k+5 {
		t.Fatalf("makespan %g, want %d", st.Makespan, k+5)
	}
	// Nearly the whole makespan must be replayed arithmetically; pure unit
	// stepping would leave the leap counters at zero.
	if st.Leap.LeapedCycles < int64(k)/2 {
		t.Fatalf("leap engine replayed only %d of %d cycles; the fast path degraded to unit stepping",
			st.Leap.LeapedCycles, st.Cycles)
	}
	if st.Leap.Verified < 1 || st.Leap.Proposed < st.Leap.Verified {
		t.Fatalf("inconsistent detector counters: %+v", st.Leap)
	}
}

// TestSimulateAllocFree verifies the allocation pass: after a warm-up run,
// repeated Scratch.Simulate calls allocate nothing, on the default engine
// or on the reference loop.
func TestSimulateAllocFree(t *testing.T) {
	tg := fig9Graph1()
	res := schedAll(t, tg)
	caps := buffers.Sizes(tg, res)
	for _, engine := range []Engine{EngineLeap, EngineReference} {
		t.Run(engine.String(), func(t *testing.T) {
			s := NewScratch()
			cfg := Config{FIFOCap: caps, Engine: engine}
			if _, err := s.Simulate(tg, res, cfg); err != nil { // warm up
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := s.Simulate(tg, res, cfg); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("Scratch.Simulate allocates %.1f times per run, want 0", allocs)
			}
		})
	}
}

// FuzzDesimLeapVsReference is the differential fuzz target: random synthetic
// graphs x partition variants x PE counts x FIFO-capacity regimes x cycle
// budgets, asserting identical Stats (deadlock cycle included) between the
// two engines. CI runs it briefly on every push.
func FuzzDesimLeapVsReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(8), uint8(0), uint8(0), uint16(0))
	f.Add(int64(7), uint8(1), uint8(32), uint8(1), uint8(1), uint16(0))
	f.Add(int64(3), uint8(2), uint8(2), uint8(2), uint8(0), uint16(50))
	f.Add(int64(9), uint8(3), uint8(16), uint8(1), uint8(1), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, family, pes, capMode, variant uint8, budget uint16) {
		p := int(pes)%64 + 1
		v := schedule.SBLTS
		if variant%2 == 1 {
			v = schedule.SBRLX
		}
		diffCase(t, int(family), seed, p, v, int(capMode), int64(budget))
	})
}
