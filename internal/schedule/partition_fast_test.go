package schedule_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/onnx"
	"repro/internal/schedule"
	"repro/internal/synth"
)

// comparePartitions asserts byte-identical partitions: same block sequence
// (node order and compute counts) and same node-to-block map.
func comparePartitions(t *testing.T, label string, want, got schedule.Partition) {
	t.Helper()
	if len(want.Blocks) != len(got.Blocks) {
		t.Fatalf("%s: %d blocks, reference has %d", label, len(got.Blocks), len(want.Blocks))
	}
	for i := range want.Blocks {
		wb, gb := want.Blocks[i], got.Blocks[i]
		if wb.ComputeCount != gb.ComputeCount {
			t.Fatalf("%s: block %d ComputeCount=%d, reference %d", label, i, gb.ComputeCount, wb.ComputeCount)
		}
		if len(wb.Nodes) != len(gb.Nodes) {
			t.Fatalf("%s: block %d has %d nodes, reference %d", label, i, len(gb.Nodes), len(wb.Nodes))
		}
		for j := range wb.Nodes {
			if wb.Nodes[j] != gb.Nodes[j] {
				t.Fatalf("%s: block %d node %d is %d, reference %d", label, i, j, gb.Nodes[j], wb.Nodes[j])
			}
		}
	}
	if len(want.BlockOf) != len(got.BlockOf) {
		t.Fatalf("%s: BlockOf length %d, reference %d", label, len(got.BlockOf), len(want.BlockOf))
	}
	for v := range want.BlockOf {
		if want.BlockOf[v] != got.BlockOf[v] {
			t.Fatalf("%s: BlockOf[%d]=%d, reference %d", label, v, got.BlockOf[v], want.BlockOf[v])
		}
	}
}

// diffPartition runs the reference and fast paths (both the package entry
// point and a caller-supplied reused Partitioner) on one instance and
// asserts identical output, errors included.
func diffPartition(t *testing.T, label string, pt *schedule.Partitioner, tg *core.TaskGraph, p int, v schedule.Variant) {
	t.Helper()
	opt := schedule.Options{Variant: v}
	want, wantErr := schedule.PartitionReference(tg, p, opt)
	got, gotErr := schedule.Algorithm1(tg, p, opt)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: fast error %v, reference error %v", label, gotErr, wantErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: fast error %q, reference error %q", label, gotErr, wantErr)
		}
		return
	}
	comparePartitions(t, label+"/Algorithm1", want, got)
	reused, err := pt.Partition(tg, p, opt)
	if err != nil {
		t.Fatalf("%s: reused Partitioner: %v", label, err)
	}
	comparePartitions(t, label+"/reused", want, reused)
	if err := got.Validate(tg, p); err != nil {
		t.Fatalf("%s: invalid partition: %v", label, err)
	}
}

// onnxGraph builds the test-size model graphs the fast path must also
// reproduce the reference on: unlike the synth families these contain
// buffer nodes (passive candidates) on every MatMul.
func onnxGraph(t testing.TB, name string) *core.TaskGraph {
	t.Helper()
	var tg *core.TaskGraph
	var err error
	switch name {
	case "resnet":
		tg, err = onnx.ResNet50(onnx.TinyResNet50())
	case "encoder":
		tg, err = onnx.TransformerEncoder(onnx.TinyEncoder())
	case "vgg":
		tg, err = onnx.VGG(onnx.TinyVGG())
	case "mlp":
		tg, err = onnx.MLP(onnx.MLPConfig{Batch: 64, Layers: []int64{256, 512, 512, 128, 10}})
	default:
		t.Fatalf("unknown onnx graph %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

// TestFastMatchesReference is the table-driven differential harness: every
// synthetic family (all five golden graphs plus randomized instances) and
// the ONNX model graphs, across PE counts and both variants, must partition
// byte-identically on the fast and reference paths.
func TestFastMatchesReference(t *testing.T) {
	variants := []schedule.Variant{schedule.SBLTS, schedule.SBRLX}
	pt := schedule.NewPartitioner() // shared across all cases: reuse must not leak state

	t.Run("golden", func(t *testing.T) {
		for _, name := range []string{"chain", "fft", "gaussian", "cholesky", "diamond"} {
			tg := goldenGraph(t, name)
			for _, p := range []int{1, 2, 3, 5, 17, 64, 128} {
				for _, v := range variants {
					diffPartition(t, fmt.Sprintf("%s/p%d/%v", name, p, v), pt, tg, p, v)
				}
			}
		}
	})

	t.Run("randomized", func(t *testing.T) {
		cfg := synth.DefaultConfig()
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			graphs := map[string]*core.TaskGraph{
				"chain":    synth.Chain(1+rng.Intn(40), rng, cfg),
				"fft":      synth.FFT(1<<(2+rng.Intn(4)), rng, cfg),
				"gaussian": synth.Gaussian(2+rng.Intn(20), rng, cfg),
				"cholesky": synth.Cholesky(1+rng.Intn(9), rng, cfg),
			}
			for name, tg := range graphs {
				for _, p := range []int{1, 3, 8, 32, 100} {
					for _, v := range variants {
						diffPartition(t, fmt.Sprintf("s%d/%s/p%d/%v", seed, name, p, v), pt, tg, p, v)
					}
				}
			}
		}
	})

	t.Run("onnx", func(t *testing.T) {
		for _, name := range []string{"resnet", "encoder", "vgg", "mlp"} {
			tg := onnxGraph(t, name)
			for _, p := range []int{1, 16, 64, 256} {
				for _, v := range variants {
					diffPartition(t, fmt.Sprintf("%s/p%d/%v", name, p, v), pt, tg, p, v)
				}
			}
		}
	})

	t.Run("rejects", func(t *testing.T) {
		tg := goldenGraph(t, "chain")
		for _, p := range []int{0, -1} {
			if _, err := schedule.Algorithm1(tg, p, schedule.Options{}); err == nil {
				t.Errorf("fast path accepted p=%d", p)
			}
			if _, err := schedule.NewPartitioner().Partition(tg, p, schedule.Options{}); err == nil {
				t.Errorf("Partitioner accepted p=%d", p)
			}
		}
	})
}

// FuzzAlgorithm1FastVsReference is the differential fuzz target: random
// graph families x sizes x PE counts x variants, asserting the fast path
// reproduces PartitionReference byte for byte — including on a reused
// Partitioner called twice in a row.
func FuzzAlgorithm1FastVsReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(7), uint8(0), uint8(0))
	f.Add(int64(7), uint8(1), uint8(32), uint8(1), uint8(3))
	f.Add(int64(3), uint8(2), uint8(2), uint8(0), uint8(9))
	f.Add(int64(9), uint8(3), uint8(64), uint8(1), uint8(5))
	f.Add(int64(5), uint8(4), uint8(1), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, family, pes, variant, size uint8) {
		p := int(pes)%96 + 1
		v := schedule.SBLTS
		if variant%2 == 1 {
			v = schedule.SBRLX
		}
		rng := rand.New(rand.NewSource(seed))
		cfg := synth.DefaultConfig()
		if seed%2 == 0 {
			cfg = synth.SmallConfig()
		}
		var tg *core.TaskGraph
		switch family % 5 {
		case 0:
			tg = synth.Chain(int(size)%48+1, rng, cfg)
		case 1:
			tg = synth.FFT(1<<(int(size)%5+1), rng, cfg)
		case 2:
			tg = synth.Gaussian(int(size)%24+2, rng, cfg)
		case 3:
			tg = synth.Cholesky(int(size)%10+1, rng, cfg)
		case 4:
			tg = goldenDiamond()
		}
		opt := schedule.Options{Variant: v}
		want, wantErr := schedule.PartitionReference(tg, p, opt)
		pt := schedule.NewPartitioner()
		for round := 0; round < 2; round++ { // second call exercises scratch reuse
			got, gotErr := pt.Partition(tg, p, opt)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("round %d: fast error %v, reference error %v", round, gotErr, wantErr)
			}
			if wantErr != nil {
				return
			}
			comparePartitions(t, fmt.Sprintf("round%d", round), want, got)
		}
	})
}

// TestPartitionAllocFree pins the scratch contract: after a warm-up call,
// repeated Partitioner.Partition calls allocate nothing, on both variants
// and on graphs with and without passive nodes (same contract style as
// desim's TestSimulateAllocFree).
func TestPartitionAllocFree(t *testing.T) {
	cases := []struct {
		graph string
		build func(testing.TB) *core.TaskGraph
		p     int
	}{
		{"gaussian", func(tb testing.TB) *core.TaskGraph { return goldenGraph(tb, "gaussian") }, 64},
		{"cholesky", func(tb testing.TB) *core.TaskGraph { return goldenGraph(tb, "cholesky") }, 64},
		{"onnx-mlp", func(tb testing.TB) *core.TaskGraph { return onnxGraph(tb, "mlp") }, 32},
	}
	for _, tc := range cases {
		for _, v := range []schedule.Variant{schedule.SBLTS, schedule.SBRLX} {
			t.Run(fmt.Sprintf("%s/%v", tc.graph, v), func(t *testing.T) {
				tg := tc.build(t)
				pt := schedule.NewPartitioner()
				opt := schedule.Options{Variant: v}
				if _, err := pt.Partition(tg, tc.p, opt); err != nil { // warm up
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(20, func() {
					if _, err := pt.Partition(tg, tc.p, opt); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("Partitioner.Partition allocates %.1f times per run, want 0", allocs)
				}
			})
		}
	}
}

// TestScheduleAllocsFlatInBlocks pins the Scheduler's scratch contract: a
// reused Scheduler allocates as often for a partition of thousands of
// blocks as for one of a few dozen, so only the Result (the struct and its
// eight slices) and Validate's membership marks allocate, never per-block
// state.
func TestScheduleAllocsFlatInBlocks(t *testing.T) {
	tg := synth.Gaussian(synth.GaussianFor(10_000), rand.New(rand.NewSource(1)), synth.DefaultConfig())
	sched := schedule.NewScheduler()
	for _, p := range []int{4, 256} {
		part, err := schedule.Algorithm1(tg, p, schedule.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sched.Schedule(tg, part, p); err != nil { // grow the scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := sched.Schedule(tg, part, p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 10 {
			t.Errorf("P=%d (%d blocks): Scheduler.Schedule allocates %v times per call, want 10", p, part.NumBlocks(), allocs)
		}
	}
}
