package experiments

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/synth"
)

// diamondTopology builds randomized instances of the Figure 9 pattern: a
// source fans out into a direct edge and a reducing-then-expanding path that
// reconverge at a join. The reduction must accumulate before it emits, so
// unit FIFOs on the direct edge wedge the pipeline — the failure mode
// Equation 5 exists to prevent. The paper's synthetic families have
// delay-balanced joins and rarely trigger it, so the ablation adds this
// family explicitly.
func diamondTopology() Topology {
	return Topology{
		Name: "Reconvergent diamond", Tasks: 5, PEs: []int{5},
		Build: func(rng *rand.Rand, cfg synth.Config) *core.TaskGraph {
			w := int64(16) << rng.Intn(3) // 16, 32, or 64
			d := int64(4) << rng.Intn(3)  // reduction factor 4, 8, or 16
			if d >= w {
				d = w / 2
			}
			tg := core.New()
			src := tg.AddElementWise("src", w)
			down := tg.AddCompute("down", w, w/d)
			mid := tg.AddElementWise("mid", w/d)
			up := tg.AddCompute("up", w/d, w)
			join := tg.AddElementWise("join", w)
			tg.MustConnect(src, down)
			tg.MustConnect(down, mid)
			tg.MustConnect(mid, up)
			tg.MustConnect(up, join)
			tg.MustConnect(src, join)
			if err := tg.Freeze(); err != nil {
				panic(err)
			}
			return tg
		},
	}
}
