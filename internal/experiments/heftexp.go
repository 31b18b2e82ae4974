package experiments

import (
	"fmt"
	"io"

	"repro/internal/results"
	"repro/internal/stats"
)

// The heft experiment compares the paper's SB-LTS streaming heuristic
// against HEFT (Topcuoglu et al., reference [33]) on a homogeneous device —
// the classical buffered list scheduler the paper's Section 9 names as the
// baseline for heterogeneous extensions. Both sides run over the same sweep
// graphs; the SB-LTS cells are the same cells Figures 10/11 render, so a
// combined run computes them once.

// renderHEFT prints one table per topology: per PE count, the median
// speedups of both schedulers and the per-graph streaming gain
// (SB-LTS speedup / HEFT speedup, which equals the makespan ratio
// HEFT / SB-LTS since both speedups share the same sequential time).
func renderHEFT(w io.Writer, _ *Plan, set *results.Set, spec Spec) {
	opt := spec.Opt
	fmt.Fprintf(w, "== HEFT baseline vs SB-LTS streaming (%d graphs/topology) ==\n\n", opt.Graphs)
	for _, f := range sweepFamilies {
		fmt.Fprintf(w, "%s (#Tasks = %d)\n", f.topo.Name, f.topo.Tasks)
		fmt.Fprintf(w, "%6s  %16s %18s %18s\n",
			"PEs", "HEFT speedup", "SB-LTS speedup", "gain (med/max)")
		for _, p := range f.topo.PEs {
			var heftSp, ltsSp, gains []float64
			for g := 0; g < opt.Graphs; g++ {
				gid := f.GraphID(opt, g)
				hc, hok := set.Get(cellKey(gid, p, VariantHEFT, false))
				lc, lok := set.Get(cellKey(gid, p, VariantLTS, false))
				if hok {
					heftSp = append(heftSp, hc.Values["speedup"])
				}
				if lok {
					ltsSp = append(ltsSp, lc.Values["speedup"])
				}
				if hok && lok && hc.Values["speedup"] > 0 {
					gains = append(gains, lc.Values["speedup"]/hc.Values["speedup"])
				}
			}
			h, l, gn := stats.Summarize(heftSp), stats.Summarize(ltsSp), stats.Summarize(gains)
			fmt.Fprintf(w, "%6d  %16.2f %18.2f %9.2f %8.2f\n",
				p, h.Median, l.Median, gn.Median, gn.Max)
		}
		fmt.Fprintln(w)
	}
}
