package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/baseline"
	"repro/internal/noc"
	"repro/internal/schedule"
	"repro/internal/stats"
)

// The references below are independent sequential implementations of the
// placement, HEFT, and pipelining experiments: plain loops over freshly
// built graphs calling the underlying packages directly, sharing no engine
// code with the cell-job pipeline. The engine's tables are pinned against
// them byte for byte.

func placementSequentialRef(w io.Writer, opt Options) {
	fmt.Fprintf(w, "== Placement: SB-LTS blocks on a 2D-mesh NoC (%d graphs/topology) ==\n\n", opt.Graphs)
	for _, topo := range Topologies() {
		fmt.Fprintf(w, "%s (#Tasks = %d)\n", topo.Name, topo.Tasks)
		fmt.Fprintf(w, "%6s %6s  %22s  %20s %10s\n",
			"PEs", "mesh", "congestion (med/max)", "slowdown (med/max)", "avg hopvol")
		for _, p := range topo.PEs {
			var congestion, slowdown, hopvol []float64
			for g := 0; g < opt.Graphs; g++ {
				tg := topo.Build(rand.New(rand.NewSource(opt.Seed+int64(g))), opt.Config)
				part, err := schedule.PartitionLTS(tg, p)
				if err != nil {
					panic(err)
				}
				res, err := schedule.Schedule(tg, part, p)
				if err != nil {
					panic(err)
				}
				mesh := noc.NewMesh(p)
				_, costs, err := noc.PlaceAll(tg, res, mesh, placementAnnealIters, placementSeed)
				if err != nil {
					panic(err)
				}
				pl := schedule.AnalyzePipeline(tg, res)
				worst, placed, hv := 1.0, res.Makespan, 0.0
				for b, c := range costs {
					f := c.CongestionFactor()
					if f > worst {
						worst = f
					}
					placed += pl.BlockDurations[b] * (f - 1)
					hv += c.TotalHopVolume
				}
				congestion = append(congestion, worst)
				slowdown = append(slowdown, placed/res.Makespan)
				hopvol = append(hopvol, hv)
			}
			mesh := noc.NewMesh(p)
			c, s, h := stats.Summarize(congestion), stats.Summarize(slowdown), stats.Summarize(hopvol)
			fmt.Fprintf(w, "%6d %6s  %10.2f %10.2f  %9.3f %9.3f %11.0f\n",
				p, fmt.Sprintf("%dx%d", mesh.W, mesh.H), c.Median, c.Max, s.Median, s.Max, h.Mean)
		}
		fmt.Fprintln(w)
	}
}

func heftSequentialRef(w io.Writer, opt Options) {
	fmt.Fprintf(w, "== HEFT baseline vs SB-LTS streaming (%d graphs/topology) ==\n\n", opt.Graphs)
	for _, topo := range Topologies() {
		fmt.Fprintf(w, "%s (#Tasks = %d)\n", topo.Name, topo.Tasks)
		fmt.Fprintf(w, "%6s  %16s %18s %18s\n",
			"PEs", "HEFT speedup", "SB-LTS speedup", "gain (med/max)")
		for _, p := range topo.PEs {
			var heftSp, ltsSp, gains []float64
			for g := 0; g < opt.Graphs; g++ {
				tg := topo.Build(rand.New(rand.NewSource(opt.Seed+int64(g))), opt.Config)
				hres, err := baseline.Schedule(tg, p, baseline.Options{Insertion: true})
				if err != nil {
					panic(err)
				}
				part, err := schedule.PartitionLTS(tg, p)
				if err != nil {
					panic(err)
				}
				lres, err := schedule.Schedule(tg, part, p)
				if err != nil {
					panic(err)
				}
				heftSp = append(heftSp, hres.Speedup(tg))
				ltsSp = append(ltsSp, lres.Speedup(tg))
				if hres.Speedup(tg) > 0 {
					gains = append(gains, lres.Speedup(tg)/hres.Speedup(tg))
				}
			}
			h, l, gn := stats.Summarize(heftSp), stats.Summarize(ltsSp), stats.Summarize(gains)
			fmt.Fprintf(w, "%6d  %16.2f %18.2f %9.2f %8.2f\n",
				p, h.Median, l.Median, gn.Median, gn.Max)
		}
		fmt.Fprintln(w)
	}
}

func pipelineSequentialRef(w io.Writer, opt Options) {
	fmt.Fprintf(w, "== Steady-state pipelining of the SB-LTS schedule (%d graphs/topology, %d iterations) ==\n\n",
		opt.Graphs, pipelineIterations)
	for _, topo := range Topologies() {
		fmt.Fprintf(w, "%s (#Tasks = %d)\n", topo.Name, topo.Tasks)
		fmt.Fprintf(w, "%6s  %10s %10s %8s %14s\n",
			"PEs", "latency", "II", "blocks", "pipe speedup")
		for _, p := range topo.PEs {
			var latency, ii, blocks, speedup []float64
			for g := 0; g < opt.Graphs; g++ {
				tg := topo.Build(rand.New(rand.NewSource(opt.Seed+int64(g))), opt.Config)
				part, err := schedule.PartitionLTS(tg, p)
				if err != nil {
					panic(err)
				}
				res, err := schedule.Schedule(tg, part, p)
				if err != nil {
					panic(err)
				}
				pl := schedule.AnalyzePipeline(tg, res)
				latency = append(latency, pl.Latency)
				ii = append(ii, pl.InitiationInterval)
				blocks = append(blocks, float64(len(pl.BlockDurations)))
				speedup = append(speedup, pl.PipelinedSpeedup(pipelineIterations))
			}
			l, i, b, s := stats.Summarize(latency), stats.Summarize(ii), stats.Summarize(blocks), stats.Summarize(speedup)
			fmt.Fprintf(w, "%6d  %10.0f %10.0f %8.1f %14.2f\n",
				p, l.Median, i.Median, b.Mean, s.Median)
		}
		fmt.Fprintln(w)
	}
}

// TestNewExperimentsMatchSequentialReferences: the placement, HEFT, and
// pipelining tables produced by the cell-job pipeline are byte-identical to
// the independent sequential references, at several worker counts.
func TestNewExperimentsMatchSequentialReferences(t *testing.T) {
	opt := Quick()
	opt.Graphs = 3

	var want bytes.Buffer
	placementSequentialRef(&want, opt)
	heftSequentialRef(&want, opt)
	pipelineSequentialRef(&want, opt)

	specs := []Spec{{Name: "placement", Opt: opt}, {Name: "heft", Opt: opt}, {Name: "pipeline", Opt: opt}}
	for _, workers := range []int{1, 4} {
		got, rep := renderSpecs(t, specs, Runner{Workers: workers})
		if got != want.String() {
			t.Errorf("workers=%d: engine output diverges from the sequential references\nref:\n%s\ngot:\n%s",
				workers, want.String(), got)
		}
		if len(rep.Failures) != 0 {
			t.Errorf("workers=%d: %d unexpected failures", workers, len(rep.Failures))
		}
	}
}

// TestHeftGolden: the heft table rendered through the engine at Quick()
// with 3 graphs is byte-identical to testdata/heft.golden. The golden was
// recorded from a standalone HEFT implementation, so it pins that the
// buffered baseline the HEFT row runs is HEFT on a homogeneous device.
func TestHeftGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "heft.golden"))
	if err != nil {
		t.Fatal(err)
	}
	opt := Quick()
	opt.Graphs = 3
	got, rep := renderSpecs(t, []Spec{{Name: "heft", Opt: opt}}, Runner{Workers: 2})
	if len(rep.Failures) != 0 {
		t.Fatalf("%d unexpected failures", len(rep.Failures))
	}
	if got != string(want) {
		t.Errorf("heft table differs from the golden:\n%s", got)
	}
}

// TestHeftSharesSweepCells: compiling heft with fig10 must reuse the SB-LTS
// sweep cells instead of recomputing them.
func TestHeftSharesSweepCells(t *testing.T) {
	opt := Quick()
	opt.Graphs = 2
	fig10, err := Compile([]Spec{{Name: "fig10", Opt: opt}})
	if err != nil {
		t.Fatal(err)
	}
	heftOnly, err := Compile([]Spec{{Name: "heft", Opt: opt}})
	if err != nil {
		t.Fatal(err)
	}
	both, err := Compile([]Spec{{Name: "fig10", Opt: opt}, {Name: "heft", Opt: opt}})
	if err != nil {
		t.Fatal(err)
	}
	// heft adds only its HEFT cells on top of fig10: the SB-LTS half of its
	// job list is deduplicated away.
	want := len(fig10.Jobs) + len(heftOnly.Jobs)/2
	if len(both.Jobs) != want {
		t.Errorf("fig10+heft compiled to %d jobs, want %d (SB-LTS cells shared)", len(both.Jobs), want)
	}
}

// TestPlacementCellsDeterministic: two runs of the placement experiment
// produce identical cell values — the annealer is driven by a fixed seed,
// not per-run randomness — so placement cells are cacheable.
func TestPlacementCellsDeterministic(t *testing.T) {
	opt := Quick()
	opt.Graphs = 2
	run := func() map[string]map[string]float64 {
		p, err := Compile([]Spec{{Name: "placement", Opt: opt}})
		if err != nil {
			t.Fatal(err)
		}
		set, rep := Runner{Workers: 4}.RunPlan(p)
		if len(rep.Failures) != 0 {
			t.Fatalf("%d failures", len(rep.Failures))
		}
		out := map[string]map[string]float64{}
		for _, c := range set.Cells() {
			out[c.Key.String()] = c.Values
		}
		return out
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no placement cells produced")
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok {
			t.Fatalf("cell %s missing from second run", k)
		}
		for name, x := range av {
			if bv[name] != x {
				t.Errorf("cell %s value %s: %v vs %v across runs", k, name, x, bv[name])
			}
		}
	}
}
