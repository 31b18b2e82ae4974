package experiments

import (
	"fmt"
	"io"

	"repro/internal/results"
	"repro/internal/stats"
)

// Render prints the tables of every experiment in the plan, in spec order,
// from a cell set — whether the cells were computed in-process, uploaded
// by sweep agents, or replayed from the results cache, the bytes are
// identical. Cells missing from the set (failed jobs) are left out of the
// aggregates, exactly as the sequential reference would have dropped them. Each experiment's renderer
// is resolved through the experiment table; specs whose experiment is
// unknown (impossible for a compiled plan) are skipped.
func Render(w io.Writer, p *Plan, set *results.Set) {
	for _, s := range p.Specs {
		if e, err := LookupExperiment(s.Name); err == nil {
			e.render(w, p, set, s)
		}
	}
}

// maxReportedFailures bounds the per-run failure lines ReportFailures
// prints.
const maxReportedFailures = 10

// ReportFailures prints the report's failed jobs (if any), whose cells are
// missing from the rendered tables.
func ReportFailures(w io.Writer, rep Report) {
	fails := make([]results.Failure, 0, len(rep.Failures))
	for _, f := range rep.Failures {
		fails = append(fails, results.Failure{Label: f.Job.String(), Err: f.Err.Error()})
	}
	printFailures(w, fmt.Sprintf("experiments: %d/%d jobs failed, their cells are missing from the tables",
		len(fails), rep.Jobs), fails)
}

// ReportArtifactFailures prints the job failures recorded in a run's
// artifact (a distributed run's), capped like ReportFailures.
func ReportArtifactFailures(w io.Writer, fails []results.Failure) {
	printFailures(w, fmt.Sprintf("experiments: %d jobs failed in the distributed run, their cells are missing from the tables",
		len(fails)), fails)
}

// printFailures renders a capped failure list under a headline.
func printFailures(w io.Writer, headline string, fails []results.Failure) {
	if len(fails) == 0 {
		return
	}
	fmt.Fprintln(w, headline)
	for i, f := range fails {
		if i == maxReportedFailures {
			fmt.Fprintf(w, "  ... and %d more\n", len(fails)-i)
			break
		}
		fmt.Fprintf(w, "  %s: %s\n", f.Label, f.Err)
	}
}

func renderFig10(w io.Writer, _ *Plan, set *results.Set, spec Spec) {
	opt := spec.Opt
	fmt.Fprintf(w, "== Figure 10: speedup over sequential execution (%d graphs/topology) ==\n\n", opt.Graphs)
	for _, f := range sweepFamilies {
		points := sweepPointsFromSet(set, f, opt, false)
		fmt.Fprintf(w, "%s (#Tasks = %d)\n", f.topo.Name, f.topo.Tasks)
		fmt.Fprintf(w, "%6s  %-10s %8s %8s %8s %8s  %s\n",
			"PEs", "scheduler", "Q1", "median", "Q3", "mean", "PE util (mean)")
		for _, pt := range points {
			rows := []struct {
				name string
				sp   []float64
				util []float64
			}{
				{"STR-SCH-1", pt.SpeedupLTS, pt.UtilLTS},
				{"STR-SCH-2", pt.SpeedupRLX, pt.UtilRLX},
				{"NSTR-SCH", pt.SpeedupNSTR, pt.UtilNSTR},
			}
			for _, r := range rows {
				s := stats.Summarize(r.sp)
				u := stats.Summarize(r.util)
				fmt.Fprintf(w, "%6d  %-10s %8.2f %8.2f %8.2f %8.2f  %.0f%%\n",
					pt.PEs, r.name, s.Q1, s.Median, s.Q3, s.Mean, 100*u.Mean)
			}
		}
		fmt.Fprintln(w)
	}
}

func renderFig11(w io.Writer, _ *Plan, set *results.Set, spec Spec) {
	opt := spec.Opt
	fmt.Fprintf(w, "== Figure 11: streaming SLR (makespan / streaming depth, %d graphs/topology) ==\n\n", opt.Graphs)
	for _, f := range sweepFamilies {
		points := sweepPointsFromSet(set, f, opt, false)
		fmt.Fprintf(w, "%s (#Tasks = %d)\n", f.topo.Name, f.topo.Tasks)
		fmt.Fprintf(w, "%6s  %-10s %8s %8s %8s\n", "PEs", "scheduler", "Q1", "median", "Q3")
		for _, pt := range points {
			for _, r := range []struct {
				name string
				xs   []float64
			}{{"STR-SCH-1", pt.SSLRLTS}, {"STR-SCH-2", pt.SSLRRLX}} {
				s := stats.Summarize(r.xs)
				fmt.Fprintf(w, "%6d  %-10s %8.2f %8.2f %8.2f\n", pt.PEs, r.name, s.Q1, s.Median, s.Q3)
			}
		}
		fmt.Fprintln(w)
	}
}

func renderFig12(w io.Writer, _ *Plan, set *results.Set, spec Spec) {
	opt := spec.Opt
	fmt.Fprintf(w, "== Figure 12: canonical task graphs vs CSDF (%d graphs/topology) ==\n\n", opt.Graphs)
	for _, f := range sweepFamilies {
		var schedTimes, csdfTimes, ratios []float64
		for g := 0; g < opt.Graphs; g++ {
			gid := f.GraphID(opt, g)
			str, strOK := set.Get(cellKey(gid, 0, VariantFig12Str, false))
			cs, csOK := set.Get(cellKey(gid, 0, VariantFig12CSDF, false))
			if strOK {
				schedTimes = append(schedTimes, str.Values["seconds"])
			}
			if csOK {
				csdfTimes = append(csdfTimes, cs.Values["seconds"])
			}
			if strOK && csOK {
				ratios = append(ratios, str.Values["makespan"]/cs.Values["makespan"])
			}
		}
		st, ct, rt := stats.Summarize(schedTimes), stats.Summarize(csdfTimes), stats.Summarize(ratios)
		fmt.Fprintf(w, "%s (#Tasks = %d)\n", f.topo.Name, f.topo.Tasks)
		fmt.Fprintf(w, "  scheduling time  STR-SCHD median %.3gs   CSDF median %.3gs   (x%.0f)\n",
			st.Median, ct.Median, ct.Median/st.Median)
		fmt.Fprintf(w, "  makespan ratio   median %.4f  q1 %.4f  q3 %.4f  max %.4f\n\n",
			rt.Median, rt.Q1, rt.Q3, rt.Max)
	}
}

func renderFig13(w io.Writer, _ *Plan, set *results.Set, spec Spec) {
	opt := spec.Opt
	fmt.Fprintf(w, "== Figure 13: discrete-event validation, relative error %% (%d graphs/topology) ==\n\n", opt.Graphs)
	for _, f := range sweepFamilies {
		points := sweepPointsFromSet(set, f, opt, true)
		fmt.Fprintf(w, "%s (#Tasks = %d)\n", f.topo.Name, f.topo.Tasks)
		fmt.Fprintf(w, "%6s  %-10s %8s %8s %8s %8s %8s  %s\n",
			"PEs", "scheduler", "min", "Q1", "median", "Q3", "max", "deadlocks")
		for _, pt := range points {
			for _, r := range []struct {
				name string
				xs   []float64
			}{{"STR-SCH-1", pt.ErrLTS}, {"STR-SCH-2", pt.ErrRLX}} {
				s := stats.Summarize(r.xs)
				fmt.Fprintf(w, "%6d  %-10s %8.2f %8.2f %8.2f %8.2f %8.2f  %d\n",
					pt.PEs, r.name, s.Min, s.Q1, s.Median, s.Q3, s.Max, pt.Deadlocks)
			}
		}
		fmt.Fprintln(w)
	}
}

func renderTable2(w io.Writer, p *Plan, set *results.Set, spec Spec) {
	fmt.Fprintf(w, "== Table 2: ML inference workloads (full=%v) ==\n\n", spec.Full)
	for _, m := range table2Workloads(spec) {
		gid, pes := m.GraphID(Options{}, 0), m.PEs()
		// The streaming cells carry the graph shape, so rendering uploaded
		// cells does not rebuild the model; only a set with no streaming
		// row at all (every str job failed) falls back to building it.
		nodes, bufs, haveShape := 0, 0, false
		for _, pe := range pes {
			if c, ok := set.Get(cellKey(gid, pe, VariantTable2Str, false)); ok {
				nodes, bufs, haveShape = int(c.Values["nodes"]), int(c.Values["buffers"]), true
				break
			}
		}
		if !haveShape {
			tg, _ := p.graphs.Get(gid, buildFunc(m, Options{}, 0))
			nodes, bufs = tg.Len(), bufferNodes(tg)
		}
		fmt.Fprintf(w, "%s: %d nodes (%d buffer nodes)\n", m.Family(), nodes, bufs)
		fmt.Fprintf(w, "%6s  %12s %13s %6s\n", "#PEs", "STR speedup", "NSTR speedup", "G")
		for _, pe := range pes {
			str, strOK := set.Get(cellKey(gid, pe, VariantTable2Str, false))
			nstr, nstrOK := set.Get(cellKey(gid, pe, VariantTable2NSTR, false))
			if !strOK || !nstrOK {
				continue
			}
			fmt.Fprintf(w, "%6d  %12.1f %13.1f %6.1f\n", pe,
				str.Values["speedup"], nstr.Values["speedup"],
				nstr.Values["makespan"]/str.Values["makespan"])
		}
		fmt.Fprintln(w)
	}
}

// renderAblation quantifies what the Section 6 analysis buys: every
// graph is simulated once with the Equation 5 FIFO sizes and once with unit
// FIFOs everywhere. Unit FIFOs either deadlock the block (the Figure 9
// failure) or stall producers into a longer makespan; the table reports the
// deadlock rate and the slowdown distribution of the runs that survive. A
// graph whose sized simulation deadlocks is a job failure.
func renderAblation(w io.Writer, _ *Plan, set *results.Set, spec Spec) {
	opt := spec.Opt
	fmt.Fprintf(w, "== Ablation: Equation 5 buffer sizing vs unit FIFOs (%d graphs/topology) ==\n\n", opt.Graphs)
	for _, f := range ablationFamilies {
		p := ablationPE(f)
		var slowdowns []float64
		deadlocks, runs := 0, 0
		for g := 0; g < opt.Graphs; g++ {
			cell, ok := set.Get(cellKey(f.GraphID(opt, g), p, VariantAblationUnit, false))
			if !ok {
				continue
			}
			runs++
			if cell.Values["deadlock"] == 1 {
				deadlocks++
				continue
			}
			slowdowns = append(slowdowns, cell.Values["unit"]/cell.Values["sized"])
		}
		fmt.Fprintf(w, "%s (#Tasks = %d, P = %d)\n", f.topo.Name, f.topo.Tasks, p)
		fmt.Fprintf(w, "  unit FIFOs deadlock %d/%d graphs\n", deadlocks, runs)
		if len(slowdowns) > 0 {
			s := stats.Summarize(slowdowns)
			fmt.Fprintf(w, "  survivors run %.2fx slower (median; max %.2fx)\n", s.Median, s.Max)
		}
		fmt.Fprintln(w)
	}
}
