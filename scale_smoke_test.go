package repro_test

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/buffers"
	"repro/internal/desim"
	"repro/internal/onnx"
	"repro/internal/schedule"
	"repro/internal/synth"
)

// The scale-smoke pipeline: the million-task acceptance path of the scale
// work, gated behind SCALE_SMOKE=1 so plain `go test ./...` (tier-1) and the
// race job stay fast. CI runs it as a dedicated job under a wall-clock
// budget; locally: SCALE_SMOKE=1 go test -run TestScaleSmokePipeline .

// requireScaleSmoke skips unless the gate is set.
func requireScaleSmoke(t *testing.T) {
	t.Helper()
	if os.Getenv("SCALE_SMOKE") == "" {
		t.Skip("set SCALE_SMOKE=1 to run the scale smoke pipeline")
	}
}

// stage runs one named pipeline stage and reports its wall time, failing if
// it exceeds budget — generous bounds that catch accidental quadratic
// regressions, not benchmark noise.
func stage(t *testing.T, name string, budget time.Duration, f func()) {
	t.Helper()
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.Logf("%s: %v", name, d)
	if d > budget {
		t.Errorf("%s took %v, budget %v", name, d, budget)
	}
}

// TestScaleSmokePipeline drives a 10^5-task synthetic graph end to end —
// partition (fast path), validation, scheduling, and a leap-engine
// discrete-event simulation — then builds the ~10^6-task deep MLP and runs
// partition plus scheduling on it.
func TestScaleSmokePipeline(t *testing.T) {
	requireScaleSmoke(t)

	// Stage 1: 10^5-task Gaussian elimination, the full pipeline.
	var tg = synth.Gaussian(synth.GaussianFor(100_000), rand.New(rand.NewSource(1)), synth.DefaultConfig())
	t.Logf("gaussian-xl: %d tasks", tg.G.Len())
	const p = 256
	var part schedule.Partition
	var err error
	pt := schedule.NewPartitioner()
	stage(t, "partition 100k", 30*time.Second, func() {
		part, err = pt.Partition(tg, p, schedule.Options{Variant: schedule.SBLTS})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Validate(tg, p); err != nil {
		t.Fatal(err)
	}
	var res *schedule.Result
	stage(t, "schedule 100k", 60*time.Second, func() {
		res, err = schedule.Schedule(tg, part, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	var st *desim.Stats
	stage(t, "desim 100k (leap)", 120*time.Second, func() {
		st, err = desim.Simulate(tg, res, desim.Config{FIFOCap: buffers.SizeMap(tg, res)})
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Deadlocked {
		t.Fatal("simulation deadlocked with Equation 5 buffer sizes")
	}
	// The default engine must be the leap engine, every cycle accounted
	// for by its stepped and leaped counters; the reference loop would blow
	// the budget.
	if st.Leap.SteppedCycles+st.Leap.LeapedCycles != st.Cycles {
		t.Errorf("stepped %d + leaped %d != %d cycles on a 10^5-task graph: the leap engine did not run",
			st.Leap.SteppedCycles, st.Leap.LeapedCycles, st.Cycles)
	}

	// Stage 2: the ~10^6-task deep MLP, build + partition + schedule (no
	// simulation and no reference comparison at this size).
	mtg, err := onnx.MLP(onnx.DeepMLP(980, 512, 64))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mlp-deep: %d nodes", mtg.G.Len())
	if mtg.G.Len() < 1_000_000 {
		t.Errorf("deep MLP has %d nodes, want >= 10^6", mtg.G.Len())
	}
	var mpart schedule.Partition
	stage(t, "partition 1M", 120*time.Second, func() {
		mpart, err = pt.Partition(mtg, p, schedule.Options{Variant: schedule.SBLTS})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mpart.Validate(mtg, p); err != nil {
		t.Fatal(err)
	}
	var mres *schedule.Result
	stage(t, "schedule 1M", 300*time.Second, func() {
		mres, err = schedule.Schedule(mtg, mpart, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if mres.Makespan <= 0 {
		t.Error("non-positive makespan on the deep MLP")
	}
}
