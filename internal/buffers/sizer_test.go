package buffers

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/onnx"
	"repro/internal/schedule"
	"repro/internal/synth"
)

// diffGraphs is the differential corpus: every synthetic family at paper
// size and at about 10^3 tasks, and the tiny ONNX model graphs.
func diffGraphs(t testing.TB) map[string]*core.TaskGraph {
	t.Helper()
	cfg := synth.DefaultConfig()
	rng := func() *rand.Rand { return rand.New(rand.NewSource(1)) }
	gs := map[string]*core.TaskGraph{
		"chain":         synth.Chain(8, rng(), cfg),
		"fft":           synth.FFT(32, rng(), cfg),
		"gaussian":      synth.Gaussian(16, rng(), cfg),
		"cholesky":      synth.Cholesky(8, rng(), cfg),
		"chain-1000":    synth.Chain(1000, rng(), cfg),
		"fft-1000":      synth.FFT(synth.FFTPointsFor(1000), rng(), cfg),
		"gaussian-1000": synth.Gaussian(synth.GaussianFor(1000), rng(), cfg),
		"cholesky-1000": synth.Cholesky(synth.CholeskyFor(1000), rng(), cfg),
	}
	models := map[string]func() (*core.TaskGraph, error){
		"resnet":  func() (*core.TaskGraph, error) { return onnx.ResNet50(onnx.TinyResNet50()) },
		"encoder": func() (*core.TaskGraph, error) { return onnx.TransformerEncoder(onnx.TinyEncoder()) },
		"vgg":     func() (*core.TaskGraph, error) { return onnx.VGG(onnx.TinyVGG()) },
		"mlp": func() (*core.TaskGraph, error) {
			return onnx.MLP(onnx.MLPConfig{Batch: 64, Layers: []int64{256, 512, 512, 128, 10}})
		},
	}
	for name, build := range models {
		tg, err := build()
		if err != nil {
			t.Fatal(err)
		}
		gs[name] = tg
	}
	return gs
}

// scheduleP schedules tg under Algorithm 1 with variant v on p PEs.
func scheduleP(t testing.TB, tg *core.TaskGraph, p int, v schedule.Variant) *schedule.Result {
	t.Helper()
	part, err := schedule.Algorithm1(tg, p, schedule.Options{Variant: v})
	if err != nil {
		t.Fatal(err)
	}
	r, err := schedule.Schedule(tg, part, p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSizesMatchReference pins the slice-backed Sizer to the map-backed
// specification: identical []EdgeSpace on every corpus graph, PE count and
// Algorithm 1 variant, through one reused Sizer and the package-level
// Sizes.
func TestSizesMatchReference(t *testing.T) {
	var sz Sizer
	for name, tg := range diffGraphs(t) {
		for _, p := range []int{2, 8, 64, 256} {
			for _, v := range []schedule.Variant{schedule.SBLTS, schedule.SBRLX} {
				r := scheduleP(t, tg, p, v)
				want := sizesReference(tg, r)
				for label, got := range map[string][]EdgeSpace{"Sizer": sz.Sizes(tg, r), "Sizes": Sizes(tg, r)} {
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s P=%d %v: %s differs from the reference (%d vs %d edges)", name, p, v, label, len(got), len(want))
					}
				}
			}
		}
	}
}

// randomCase builds a random canonical DAG and a random valid partition of
// it: every edge joins a producer and a consumer of the same volume, every
// sink has an input, and a node's block is never before its predecessors'
// blocks. Some blocks stay empty. It returns the graph and its schedule on
// as many PEs as the fullest block needs.
func randomCase(t testing.TB, seed int64, nodes, density, blocks uint8) (*core.TaskGraph, *schedule.Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := int(nodes)%48 + 1
	vols := []int64{1, 4, 16, 32}
	tg := core.New()
	var producers []int // nodes a later node may read from (all but sinks)
	for i := 0; i < n; i++ {
		in, out := vols[rng.Intn(len(vols))], vols[rng.Intn(len(vols))]
		switch k := rng.Intn(10); {
		case k == 0:
			tg.AddBuffer(fmt.Sprint("b", i), in, out)
		case k == 1 && i > 0:
			// A sink reads what some earlier producer writes, so the
			// edge loop below always finds it an input.
			tg.AddSink(fmt.Sprint("k", i), tg.Nodes[producers[rng.Intn(len(producers))]].Out)
			continue
		case k == 2:
			tg.AddSource(fmt.Sprint("s", i), out)
		default:
			tg.AddCompute(fmt.Sprint("c", i), in, out)
		}
		producers = append(producers, i)
	}
	prob := float64(density%8+1) / 16
	for v := 1; v < n; v++ {
		nv := tg.Nodes[v]
		if nv.Kind == core.Source {
			continue
		}
		last := -1 // the last producer v could read from
		for u := 0; u < v; u++ {
			if nu := tg.Nodes[u]; nu.Kind != core.Sink && nu.Out == nv.In {
				last = u
				if rng.Float64() < prob {
					tg.MustConnect(graph.NodeID(u), graph.NodeID(v))
				}
			}
		}
		if nv.Kind == core.Sink && tg.G.InDegree(graph.NodeID(v)) == 0 {
			tg.MustConnect(graph.NodeID(last), graph.NodeID(v))
		}
	}
	if err := tg.Freeze(); err != nil {
		t.Fatal(err)
	}
	jump := int(blocks)%4 + 1
	part := schedule.Partition{BlockOf: make([]int, n)}
	for v := 0; v < n; v++ {
		b := 0
		for _, u := range tg.G.Preds(graph.NodeID(v)) {
			b = max(b, part.BlockOf[u])
		}
		if rng.Intn(jump+1) > 0 {
			b += rng.Intn(jump)
		}
		part.BlockOf[v] = b
		for len(part.Blocks) <= b {
			part.Blocks = append(part.Blocks, schedule.Block{})
		}
		part.Blocks[b].Nodes = append(part.Blocks[b].Nodes, graph.NodeID(v))
		if tg.Nodes[v].Kind == core.Compute {
			part.Blocks[b].ComputeCount++
		}
	}
	p := 1
	for _, blk := range part.Blocks {
		p = max(p, blk.ComputeCount)
	}
	r, err := schedule.Schedule(tg, part, p)
	if err != nil {
		t.Fatal(err)
	}
	return tg, r
}

// FuzzSizesVsReference cross-checks the Sizer against the reference on
// random canonical DAGs under random partitions, and under Algorithm 1's
// own partition of the same graph.
func FuzzSizesVsReference(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(3), uint8(0))
	f.Add(int64(2), uint8(40), uint8(7), uint8(1))
	f.Add(int64(3), uint8(20), uint8(1), uint8(3))
	f.Add(int64(4), uint8(47), uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nodes, density, blocks uint8) {
		tg, r := randomCase(t, seed, nodes, density, blocks)
		var sz Sizer
		for round := 0; round < 2; round++ { // the second call reuses the scratch
			if got, want := sz.Sizes(tg, r), sizesReference(tg, r); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: random partition: Sizer %v, reference %v", round, got, want)
			}
		}
		r = scheduleP(t, tg, int(blocks)%8+1, schedule.SBLTS)
		if got, want := sz.Sizes(tg, r), sizesReference(tg, r); !reflect.DeepEqual(got, want) {
			t.Fatalf("Algorithm 1 partition: Sizer %v, reference %v", got, want)
		}
	})
}

// TestSizerAllocFree pins the scratch contract: after a warm-up call, a
// reused Sizer allocates only the slice it returns.
func TestSizerAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	resnet, err := onnx.ResNet50(onnx.TinyResNet50())
	if err != nil {
		t.Fatal(err)
	}
	for name, tg := range map[string]*core.TaskGraph{
		"gaussian-1000": synth.Gaussian(synth.GaussianFor(1000), rng, synth.DefaultConfig()),
		"cholesky":      synth.Cholesky(8, rng, synth.DefaultConfig()),
		"resnet":        resnet,
	} {
		r := scheduleP(t, tg, 64, schedule.SBLTS)
		var sz Sizer
		if len(sz.Sizes(tg, r)) == 0 {
			t.Fatalf("%s: no streaming edges to size", name)
		}
		if allocs := testing.AllocsPerRun(10, func() { sz.Sizes(tg, r) }); allocs != 1 {
			t.Errorf("%s: reused Sizer allocates %v times per call, want 1 (the result)", name, allocs)
		}
	}
}

// TestBufferSpaceOverflowClamped: Figure 9 graph 1 with a slow path of two
// accumulators and volumes of 9*10^18 elements. The slack on (0,4) exceeds
// 2^63 cycles; Equation 5 must cap it at the edge volume instead of wrapping
// to MinDepth.
func TestBufferSpaceOverflowClamped(t *testing.T) {
	const vol = 9_000_000_000_000_000_000
	tg := core.New()
	n0 := tg.AddElementWise("t0", vol)
	n1 := tg.AddCompute("t1", vol, 1)
	n2 := tg.AddCompute("t2", 1, vol)
	n3 := tg.AddCompute("t3", vol, 1)
	n4 := tg.AddCompute("t4", 1, vol)
	n5 := tg.AddElementWise("t5", vol)
	tg.MustConnect(n0, n1)
	tg.MustConnect(n1, n2)
	tg.MustConnect(n2, n3)
	tg.MustConnect(n3, n4)
	tg.MustConnect(n4, n5)
	tg.MustConnect(n0, n5)
	r := scheduleAll(t, tg)
	for name, sizes := range map[string][]EdgeSpace{"Sizes": Sizes(tg, r), "reference": sizesReference(tg, r)} {
		if got := space(sizes, n0, n5); got != vol {
			t.Errorf("%s: B(0,5) = %d, want the edge volume %d", name, got, int64(vol))
		}
	}
}
