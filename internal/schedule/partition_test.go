package schedule

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/synth"
)

func TestParseVariant(t *testing.T) {
	if v, err := ParseVariant("lts"); err != nil || v != SBLTS {
		t.Fatalf("lts: got %v, %v", v, err)
	}
	if v, err := ParseVariant("rlx"); err != nil || v != SBRLX {
		t.Fatalf("rlx: got %v, %v", v, err)
	}
	if _, err := ParseVariant("heft"); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

// TestAlgorithm1Rejects: bad PE counts are refused.
func TestAlgorithm1Rejects(t *testing.T) {
	tg := core.New()
	tg.AddElementWise("a", 4)
	if err := tg.Freeze(); err != nil {
		t.Fatal(err)
	}
	if _, err := Algorithm1(tg, 0, Options{}); err == nil {
		t.Error("P=0 accepted")
	}
	if _, err := PartitionByWork(tg, 0); err == nil {
		t.Error("PartitionByWork P=0 accepted")
	}
	if _, err := PartitionLevelOrder(tg, 0); err == nil {
		t.Error("PartitionLevelOrder P=0 accepted")
	}
}

// TestValidateCatchesBrokenPartitions: structural violations are reported.
func TestValidateCatchesBrokenPartitions(t *testing.T) {
	tg := core.New()
	a := tg.AddElementWise("a", 4)
	b := tg.AddElementWise("b", 4)
	tg.MustConnect(a, b)
	if err := tg.Freeze(); err != nil {
		t.Fatal(err)
	}

	cases := map[string]Partition{
		"node in two blocks": {
			Blocks:  []Block{{Nodes: []graph.NodeID{a, b, a}, ComputeCount: 3}},
			BlockOf: []int{0, 0},
		},
		"missing node": {
			Blocks:  []Block{{Nodes: []graph.NodeID{a}, ComputeCount: 1}},
			BlockOf: []int{0, 0},
		},
		"backwards dependency": {
			Blocks: []Block{
				{Nodes: []graph.NodeID{b}, ComputeCount: 1},
				{Nodes: []graph.NodeID{a}, ComputeCount: 1},
			},
			BlockOf: []int{1, 0},
		},
		"wrong compute count": {
			Blocks:  []Block{{Nodes: []graph.NodeID{a, b}, ComputeCount: 1}},
			BlockOf: []int{0, 0},
		},
		"block over capacity": {
			Blocks:  []Block{{Nodes: []graph.NodeID{a, b}, ComputeCount: 2}},
			BlockOf: []int{0, 0},
		},
	}
	for name, part := range cases {
		p := 2
		if name == "block over capacity" {
			p = 1
		}
		if err := part.Validate(tg, p); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestPartitionsValidProperty: both Algorithm 1 variants produce valid
// partitions for random graphs and PE counts.
func TestPartitionsValidProperty(t *testing.T) {
	f := func(seed int64, pRaw uint8, which uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := int(pRaw%16) + 1
		cfg := synth.SmallConfig()
		var tg *core.TaskGraph
		switch which % 4 {
		case 0:
			tg = synth.Chain(6, rng, cfg)
		case 1:
			tg = synth.FFT(8, rng, cfg)
		case 2:
			tg = synth.Gaussian(6, rng, cfg)
		default:
			tg = synth.Cholesky(5, rng, cfg)
		}
		for _, variant := range []Variant{SBLTS, SBRLX} {
			part, err := Algorithm1(tg, p, Options{Variant: variant})
			if err != nil {
				return false
			}
			if err := part.Validate(tg, p); err != nil {
				return false
			}
			res, err := Schedule(tg, part, p)
			if err != nil {
				return false
			}
			// Times are internally consistent: ST <= FO <= LO everywhere.
			for v := 0; v < tg.Len(); v++ {
				if res.ST[v] > res.FO[v] || res.FO[v] > res.LO[v] {
					return false
				}
			}
			// Block starts are monotone.
			for i := 1; i < len(res.BlockStart); i++ {
				if res.BlockStart[i] < res.BlockStart[i-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMakespanMonotoneInPEs: more PEs never hurt the SB-RLX schedule on a
// chain (a sanity check of block accounting; not a theorem for general
// graphs, where upsampler co-location can slow a block).
func TestMakespanMonotoneInPEs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tg := synth.Chain(12, rng, synth.SmallConfig())
	prev := float64(1 << 60)
	for _, p := range []int{1, 2, 4, 8, 12} {
		part, err := PartitionRLX(tg, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Schedule(tg, part, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan > prev*1.05 {
			t.Errorf("P=%d: makespan %g noticeably worse than with fewer PEs (%g)", p, res.Makespan, prev)
		}
		if res.Makespan < prev {
			prev = res.Makespan
		}
	}
}

// TestSinglePEMatchesSequential: with one PE and the SB-RLX partition, the
// makespan is at least the work of the largest task and the speedup is at
// most ~1.
func TestSinglePEMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tg := synth.Gaussian(6, rng, synth.SmallConfig())
	part, err := PartitionRLX(tg, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Schedule(tg, part, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sp := res.Speedup(tg); sp > 1.01 {
		t.Errorf("speedup %g > 1 with a single PE", sp)
	}
	maxWork := 0.0
	for _, n := range tg.Nodes {
		maxWork = max(maxWork, n.Work())
	}
	if res.Makespan < maxWork {
		t.Errorf("makespan %g below the largest task %g", res.Makespan, maxWork)
	}
}
