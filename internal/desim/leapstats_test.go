package desim

import (
	"math/rand"
	"testing"

	"repro/internal/buffers"
	"repro/internal/core"
	"repro/internal/schedule"
	"repro/internal/synth"
)

// goldenFamily builds the named golden graph with the fixed seed used by the
// golden table and the engine benchmarks.
func goldenFamily(name string) *core.TaskGraph {
	cfg := synth.DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	switch name {
	case "fft":
		return synth.FFT(32, rng, cfg)
	case "gaussian":
		return synth.Gaussian(16, rng, cfg)
	case "cholesky":
		return synth.Cholesky(8, rng, cfg)
	default:
		return synth.Chain(8, rng, cfg)
	}
}

// TestLeapEngagesOnGoldenGraphs asserts that the default configuration runs
// the leap engine on every golden family and that the fast path actually
// replays a substantial share of each graph's cycles instead of quietly
// degrading to unit stepping: Stats.Leap exposes how many cycles were
// leaped vs stepped exactly.
func TestLeapEngagesOnGoldenGraphs(t *testing.T) {
	cases := []struct {
		name     string
		variant  schedule.Variant
		p        int
		minShare float64 // leaped cycles / total cycles
	}{
		{"chain", schedule.SBLTS, 4, 0.5},
		{"fft", schedule.SBLTS, 64, 0.5},
		{"gaussian", schedule.SBRLX, 64, 0.2},
		{"cholesky", schedule.SBLTS, 64, 0.2},
	}
	for _, tc := range cases {
		tg := goldenFamily(tc.name)
		part, err := schedule.Algorithm1(tg, tc.p, schedule.Options{Variant: tc.variant})
		if err != nil {
			t.Fatal(err)
		}
		res, err := schedule.Schedule(tg, part, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewScratch().Simulate(tg, res, Config{FIFOCap: buffers.SizeMap(tg, res)})
		if err != nil {
			t.Fatal(err)
		}
		share := float64(st.Leap.LeapedCycles) / float64(st.Cycles)
		t.Logf("%s: cycles=%d stepped=%d leaps=%d leaped=%d (%.0f%%) proposed=%d verified=%d refuted=%d compactions=%d",
			tc.name, st.Cycles, st.Leap.SteppedCycles, st.Leap.Leaps, st.Leap.LeapedCycles, 100*share,
			st.Leap.Proposed, st.Leap.Verified, st.Leap.Refuted, st.Leap.Compactions)
		if st.Leap.SteppedCycles+st.Leap.LeapedCycles != st.Cycles {
			t.Errorf("%s: stepped %d + leaped %d != total cycles %d",
				tc.name, st.Leap.SteppedCycles, st.Leap.LeapedCycles, st.Cycles)
		}
		if st.Leap.Leaps > st.Leap.Verified || st.Leap.Verified+st.Leap.Refuted > st.Leap.Proposed {
			t.Errorf("%s: inconsistent detector counters: %+v", tc.name, st.Leap)
		}
		if share < tc.minShare {
			t.Errorf("%s: leap engine replayed only %.0f%% of cycles, want >= %.0f%% — the fast path degraded",
				tc.name, 100*share, 100*tc.minShare)
		}
	}
}

// TestReferenceLeavesLeapStatsEmpty pins the contract that Stats.Leap is
// diagnostic only: a reference run leaves every detector counter zero, so
// the semantic Stats fields stay the byte-identity surface.
func TestReferenceLeavesLeapStatsEmpty(t *testing.T) {
	tg := goldenFamily("chain")
	res := schedAll(t, tg)
	st, err := NewScratch().Simulate(tg, res, Config{FIFOCap: buffers.SizeMap(tg, res), Engine: EngineReference})
	if err != nil {
		t.Fatal(err)
	}
	if st.Leap != (LeapStats{}) {
		t.Fatalf("reference run left detector counters set: %+v", st.Leap)
	}
}
