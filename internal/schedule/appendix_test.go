package schedule

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
)

// randomElwiseDAG builds a layered DAG of element-wise tasks all moving k
// elements, as analyzed in Appendix A.1.
func randomElwiseDAG(rng *rand.Rand, layers, width int, k int64) *core.TaskGraph {
	tg := core.New()
	var prev []graph.NodeID
	for l := 0; l < layers; l++ {
		w := rng.Intn(width) + 1
		var cur []graph.NodeID
		for i := 0; i < w; i++ {
			v := tg.AddElementWise("t", k)
			if l > 0 {
				parents := rng.Intn(2) + 1
				seen := map[graph.NodeID]bool{}
				for p := 0; p < parents; p++ {
					u := prev[rng.Intn(len(prev))]
					if !seen[u] {
						seen[u] = true
						tg.MustConnect(u, v)
					}
				}
			}
			cur = append(cur, v)
		}
		prev = cur
	}
	if err := tg.Freeze(); err != nil {
		panic(err)
	}
	return tg
}

// TestTheoremA1Bound: for element-wise task graphs scheduled with the
// level-order partition, T_s-inf <= T_P <= T1/P + T_s-inf (Theorem A.1).
func TestTheoremA1Bound(t *testing.T) {
	f := func(seed int64, pRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := int(pRaw%7) + 1
		k := int64(kRaw%60) + 4
		tg := randomElwiseDAG(rng, rng.Intn(5)+2, 4, k)

		part, err := PartitionLevelOrder(tg, p)
		if err != nil {
			return false
		}
		res, err := Schedule(tg, part, p)
		if err != nil {
			return false
		}
		tsInf := StreamingDepth(tg)
		t1 := SequentialTime(tg)
		return res.Makespan >= tsInf && res.Makespan <= t1/float64(p)+tsInf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randomDownsamplerForest builds several independent downsampler/elwise
// chains with distinct base volumes, the setting of Theorem A.2 where
// multiple works coexist on a level.
func randomDownsamplerForest(rng *rand.Rand, chains int) *core.TaskGraph {
	tg := core.New()
	for c := 0; c < chains; c++ {
		vol := int64(8) << rng.Intn(4)
		n := rng.Intn(5) + 2
		prev := tg.AddElementWise("src", vol)
		for i := 1; i < n; i++ {
			out := vol
			if vol%2 == 0 && rng.Intn(2) == 0 {
				out = vol / 2
			}
			cur := tg.AddCompute("t", vol, out)
			tg.MustConnect(prev, cur)
			prev, vol = cur, out
		}
	}
	if err := tg.Freeze(); err != nil {
		panic(err)
	}
	return tg
}

// maxDistinctWorksPerLevel computes x of Theorem A.2: the maximum number of
// distinct work values among nodes sharing a level.
func maxDistinctWorksPerLevel(tg *core.TaskGraph) int {
	lv := tg.G.Levels()
	per := map[int]map[float64]bool{}
	for v := 0; v < tg.Len(); v++ {
		m, ok := per[lv[v]]
		if !ok {
			m = map[float64]bool{}
			per[lv[v]] = m
		}
		m[tg.Nodes[v].Work()] = true
	}
	x := 0
	for _, m := range per {
		if len(m) > x {
			x = len(m)
		}
	}
	return x
}

// TestTheoremA2Bound: for elwise+downsampler graphs scheduled with the
// work-ordered Algorithm 2,
// T_P <= T1/P + T_s-inf + min(n-1, (x-1)(L-1)) (Theorem A.2).
func TestTheoremA2Bound(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := int(pRaw%7) + 1
		tg := randomDownsamplerForest(rng, rng.Intn(4)+1)

		part, err := PartitionByWork(tg, p)
		if err != nil {
			return false
		}
		res, err := Schedule(tg, part, p)
		if err != nil {
			return false
		}
		tsInf := StreamingDepth(tg)
		t1 := SequentialTime(tg)
		n := float64(tg.Len())
		x := float64(maxDistinctWorksPerLevel(tg))
		l := float64(slices.Max(tg.G.Levels()))
		slack := n - 1
		if alt := (x - 1) * (l - 1); alt < slack {
			slack = alt
		}
		if slack < 0 {
			slack = 0
		}
		return res.Makespan <= t1/float64(p)+tsInf+slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPartitionByWorkOrder: Algorithm 2 never places a higher-work node in a
// later block than a lower-work one it could have taken first.
func TestPartitionByWorkOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tg := randomDownsamplerForest(rng, 3)
	part, err := PartitionByWork(tg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Validate(tg, 3); err != nil {
		t.Fatal(err)
	}
	// Work is non-increasing across block boundaries in the pick sequence.
	var prevMax float64 = 1 << 60
	for _, blk := range part.Blocks {
		blockMax := 0.0
		for _, v := range blk.Nodes {
			if w := tg.Nodes[v].Work(); w > blockMax {
				blockMax = w
			}
		}
		if blockMax > prevMax {
			t.Errorf("block max work %g exceeds previous block %g", blockMax, prevMax)
		}
		prevMax = blockMax
	}
}

// TestPartitionLevelOrderRespectsLevels: blocks follow the level order.
func TestPartitionLevelOrderRespectsLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tg := randomElwiseDAG(rng, 4, 4, 16)
	part, err := PartitionLevelOrder(tg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Validate(tg, 2); err != nil {
		t.Fatal(err)
	}
	lv := tg.G.Levels()
	prevMin := 0
	for _, blk := range part.Blocks {
		min := 1 << 30
		for _, v := range blk.Nodes {
			if lv[v] < min {
				min = lv[v]
			}
		}
		if min < prevMin {
			t.Errorf("block min level %d below previous %d", min, prevMin)
		}
		prevMin = min
	}
}
