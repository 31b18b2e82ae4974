package experiments

import (
	"fmt"
	"io"

	"repro/internal/results"
	"repro/internal/schedule"
	"repro/internal/stats"
)

// The pipeline experiment quantifies the steady-state macro-pipelining of
// repeated iterations (Section 3.2.3's stream-of-inputs regime): iteration
// i+1 may occupy a spatial block as soon as iteration i has moved on, so at
// steady state the schedule behaves like a macro-pipeline whose initiation
// interval is the slowest block. The table reports, per PE count, the
// single-iteration latency, the initiation interval, the block count, and
// the speedup of running pipelineIterations iterations pipelined versus
// back to back.

// pipelineIterations is the iteration count of the rendered pipelined
// speedup column; the latency and initiation interval cells let any other
// count be derived.
const pipelineIterations = 16

// renderPipeline prints one steady-state pipelining table per topology.
func renderPipeline(w io.Writer, _ *Plan, set *results.Set, spec Spec) {
	opt := spec.Opt
	fmt.Fprintf(w, "== Steady-state pipelining of the SB-LTS schedule (%d graphs/topology, %d iterations) ==\n\n",
		opt.Graphs, pipelineIterations)
	for _, f := range sweepFamilies {
		fmt.Fprintf(w, "%s (#Tasks = %d)\n", f.topo.Name, f.topo.Tasks)
		fmt.Fprintf(w, "%6s  %10s %10s %8s %14s\n",
			"PEs", "latency", "II", "blocks", "pipe speedup")
		for _, p := range f.topo.PEs {
			var latency, ii, blocks, speedup []float64
			for g := 0; g < opt.Graphs; g++ {
				cell, ok := set.Get(cellKey(f.GraphID(opt, g), p, VariantPipeline, false))
				if !ok {
					continue
				}
				v := cell.Values
				latency = append(latency, v["latency"])
				ii = append(ii, v["ii"])
				blocks = append(blocks, v["blocks"])
				pl := schedule.Pipeline{Latency: v["latency"], InitiationInterval: v["ii"]}
				speedup = append(speedup, pl.PipelinedSpeedup(pipelineIterations))
			}
			l, i, b, s := stats.Summarize(latency), stats.Summarize(ii), stats.Summarize(blocks), stats.Summarize(speedup)
			fmt.Fprintf(w, "%6d  %10.0f %10.0f %8.1f %14.2f\n",
				p, l.Median, i.Median, b.Mean, s.Median)
		}
		fmt.Fprintln(w)
	}
}
