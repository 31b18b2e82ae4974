package desim_test

import (
	"math/rand"
	"testing"

	"repro/internal/buffers"
	"repro/internal/core"
	"repro/internal/desim"
	"repro/internal/schedule"
	"repro/internal/synth"
)

func goldenGraph(t testing.TB, name string) *core.TaskGraph {
	t.Helper()
	cfg := synth.DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	switch name {
	case "chain":
		return synth.Chain(8, rng, cfg)
	case "fft":
		return synth.FFT(32, rng, cfg)
	case "gaussian":
		return synth.Gaussian(16, rng, cfg)
	case "cholesky":
		return synth.Cholesky(8, rng, cfg)
	case "diamond":
		tg := core.New()
		src := tg.AddElementWise("src", 32)
		down := tg.AddCompute("down", 32, 4)
		mid := tg.AddElementWise("mid", 4)
		up := tg.AddCompute("up", 4, 32)
		join := tg.AddElementWise("join", 32)
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
	t.Fatalf("unknown golden graph %q", name)
	return nil
}

// TestGoldenSimulations pins the discrete-event results — buffer-edge
// counts, undirected-cycle edges, total Equation 5 FIFO slots on streaming
// edges, and the simulated makespan — for the worked examples, so the
// scratch-reuse optimization and future simulator changes cannot silently
// drift. A mismatch means behavior changed, not that the table is stale.
func TestGoldenSimulations(t *testing.T) {
	cases := []struct {
		graph      string
		variant    schedule.Variant
		p          int
		edges      int   // streaming edges sized by buffers.Sizes
		cycleEdges int   // edges on undirected cycles (Equation 5 applies)
		slots      int64 // total FIFO capacity over all streaming edges
		simulated  float64
	}{
		{"chain", schedule.SBLTS, 4, 3, 0, 3, 771},
		{"chain", schedule.SBRLX, 4, 6, 0, 6, 775},
		{"fft", schedule.SBLTS, 64, 208, 98, 208, 1678},
		{"fft", schedule.SBRLX, 64, 222, 106, 222, 2066},
		{"gaussian", schedule.SBLTS, 64, 157, 102, 160, 1228},
		{"gaussian", schedule.SBRLX, 64, 183, 118, 183, 1077},
		{"cholesky", schedule.SBLTS, 64, 155, 134, 165, 786},
		{"cholesky", schedule.SBRLX, 64, 206, 185, 212, 745},
		{"diamond", schedule.SBLTS, 5, 5, 2, 14, 46},
		{"diamond", schedule.SBRLX, 5, 5, 2, 14, 46},
	}
	scratch := desim.NewScratch() // shared on purpose: reuse must not leak state
	for _, tc := range cases {
		tg := goldenGraph(t, tc.graph)
		part, err := schedule.Algorithm1(tg, tc.p, schedule.Options{Variant: tc.variant})
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.graph, tc.variant, err)
		}
		res, err := schedule.Schedule(tg, part, tc.p)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.graph, tc.variant, err)
		}
		sizes := buffers.Sizes(tg, res)
		var slots int64
		cyc := 0
		for _, e := range sizes {
			slots += e.Space
			if e.OnCycle {
				cyc++
			}
		}
		if len(sizes) != tc.edges || cyc != tc.cycleEdges || slots != tc.slots {
			t.Errorf("%s/%s/P=%d: buffers %d edges/%d on-cycle/%d slots, want %d/%d/%d",
				tc.graph, tc.variant, tc.p, len(sizes), cyc, slots, tc.edges, tc.cycleEdges, tc.slots)
		}
		st, err := scratch.Simulate(tg, res, desim.Config{FIFOCap: buffers.Sizes(tg, res)})
		if err != nil {
			t.Fatalf("%s/%s: simulate: %v", tc.graph, tc.variant, err)
		}
		if st.Deadlocked {
			t.Errorf("%s/%s/P=%d: deadlocked at cycle %d with Equation 5 sizes",
				tc.graph, tc.variant, tc.p, st.DeadlockCycle)
		}
		if st.Makespan != tc.simulated {
			t.Errorf("%s/%s/P=%d: simulated makespan %g, want %g",
				tc.graph, tc.variant, tc.p, st.Makespan, tc.simulated)
		}

		// The scratch path must agree exactly with a fresh simulation.
		fresh, err := desim.Simulate(tg, res, desim.Config{FIFOCap: buffers.Sizes(tg, res)})
		if err != nil {
			t.Fatalf("%s/%s: fresh simulate: %v", tc.graph, tc.variant, err)
		}
		if fresh.Makespan != st.Makespan || fresh.Deadlocked != st.Deadlocked || fresh.Cycles != st.Cycles {
			t.Errorf("%s/%s: scratch simulation diverges from fresh (%g/%v/%d vs %g/%v/%d)",
				tc.graph, tc.variant, st.Makespan, st.Deadlocked, st.Cycles,
				fresh.Makespan, fresh.Deadlocked, fresh.Cycles)
		}
		for v := range fresh.Finish {
			if fresh.Finish[v] != st.Finish[v] {
				t.Fatalf("%s/%s: Finish[%d] diverges between scratch and fresh", tc.graph, tc.variant, v)
			}
		}
	}
}
