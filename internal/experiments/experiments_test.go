package experiments

import (
	"strings"
	"testing"
)

// TestTopologiesMatchPaperSizes: the four families carry the exact task
// counts of the Figure 10 captions.
func TestTopologiesMatchPaperSizes(t *testing.T) {
	want := map[string]int{
		"Chain":                  8,
		"FFT":                    223,
		"Gaussian Elimination":   135,
		"Cholesky Factorization": 120,
	}
	for _, topo := range Topologies() {
		if want[topo.Name] != topo.Tasks {
			t.Errorf("%s: declared %d tasks, want %d", topo.Name, topo.Tasks, want[topo.Name])
		}
		tg := topo.Build(newRng(1), Quick().Config)
		if tg.Len() != topo.Tasks {
			t.Errorf("%s: built %d tasks, declared %d", topo.Name, tg.Len(), topo.Tasks)
		}
	}
}

// TestRunSweepShapes: one point per PE count, one sample per graph.
func TestRunSweepShapes(t *testing.T) {
	opt := Quick()
	opt.Graphs = 4
	f := sweepFamilies[0] // Chain
	points, rep := runSweep(Runner{}, f, opt, true, nil)
	if len(rep.Failures) != 0 {
		t.Fatalf("sweep failures: %v", rep.Failures)
	}
	if len(points) != len(f.topo.PEs) {
		t.Fatalf("%d points, want %d", len(points), len(f.topo.PEs))
	}
	for _, pt := range points {
		if len(pt.SpeedupLTS) != opt.Graphs || len(pt.SpeedupRLX) != opt.Graphs ||
			len(pt.SpeedupNSTR) != opt.Graphs {
			t.Errorf("PE %d: sample counts %d/%d/%d, want %d each",
				pt.PEs, len(pt.SpeedupLTS), len(pt.SpeedupRLX), len(pt.SpeedupNSTR), opt.Graphs)
		}
		if pt.Deadlocks != 0 {
			t.Errorf("PE %d: %d deadlocks with computed buffer sizes", pt.PEs, pt.Deadlocks)
		}
		for _, sp := range pt.SpeedupNSTR {
			if sp != 1 {
				t.Errorf("chain NSTR speedup %g, want exactly 1", sp)
			}
		}
	}
}

// TestFigureWritersProduceSections: every writer emits its headline and one
// block per topology.
func TestFigureWritersProduceSections(t *testing.T) {
	opt := Quick()
	opt.Graphs = 2
	out, _ := renderSpecs(t, []Spec{{Name: "fig10", Opt: opt}}, Runner{})
	for _, want := range []string{"Figure 10", "Chain", "FFT", "Gaussian", "Cholesky", "NSTR-SCH"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig10 output missing %q", want)
		}
	}

	out, _ = renderSpecs(t, []Spec{{Name: "table2"}}, Runner{})
	for _, want := range []string{"Table 2", "Resnet-50", "Transformer", "#PEs"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 output missing %q", want)
		}
	}
}

// TestTable2RowsOrdered: speedups are positive and rows follow the PE list.
func TestTable2RowsOrdered(t *testing.T) {
	topo := Topologies()[0]
	tg := topo.Build(newRng(3), Quick().Config)
	rows := Table2Model(tg, []int{2, 4})
	if len(rows) != 2 || rows[0].PEs != 2 || rows[1].PEs != 4 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.StrSpeedup <= 0 || r.NstrSpeedup <= 0 || r.Gain <= 0 {
			t.Errorf("non-positive entries: %+v", r)
		}
	}
}
