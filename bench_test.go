// Benchmarks regenerating the paper's evaluation: one benchmark per table
// and figure. Figures 10/11/13 benchmark the scheduling pipeline on the
// paper's synthetic topologies; Figure 12 contrasts the canonical-graph
// scheduler with the CSDF self-timed engine (the source of the paper's
// 2-3 orders-of-magnitude analysis-time gap); Table 2 schedules the ML model
// graphs. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"io"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/buffers"
	"repro/internal/core"
	"repro/internal/csdf"
	"repro/internal/desim"
	"repro/internal/experiments"
	"repro/internal/onnx"
	"repro/internal/schedule"
	"repro/internal/synth"
)

// topologies returns one representative graph per synthetic family, with
// the paper's sizes (Figure 10 captions).
func topologies(cfg synth.Config) map[string]*core.TaskGraph {
	rng := rand.New(rand.NewSource(42))
	return map[string]*core.TaskGraph{
		"Chain":    synth.Chain(8, rng, cfg),
		"FFT":      synth.FFT(32, rng, cfg),
		"Gaussian": synth.Gaussian(16, rng, cfg),
		"Cholesky": synth.Cholesky(8, rng, cfg),
	}
}

// BenchmarkFig10Streaming measures the full streaming pipeline (partition +
// schedule) per topology at the largest PE count of Figure 10.
func BenchmarkFig10Streaming(b *testing.B) {
	for name, tg := range topologies(synth.DefaultConfig()) {
		p := 128
		if name == "Chain" {
			p = 8
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				part, err := schedule.PartitionRLX(tg, p)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := schedule.Schedule(tg, part, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10Baseline measures the non-streaming CP/MISF list scheduler
// on the same inputs.
func BenchmarkFig10Baseline(b *testing.B) {
	for name, tg := range topologies(synth.DefaultConfig()) {
		p := 128
		if name == "Chain" {
			p = 8
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.Schedule(tg, p, baseline.Options{Insertion: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11StreamingDepth measures the T_s-infinity computation that
// normalizes the SSLR metric.
func BenchmarkFig11StreamingDepth(b *testing.B) {
	for name, tg := range topologies(synth.DefaultConfig()) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = schedule.StreamingDepth(tg)
			}
		})
	}
}

// BenchmarkFig12 contrasts the two analyses of Section 7.2 on identical
// graphs: STR-SCHD is the canonical-graph heuristic with P = #tasks; CSDF is
// the self-timed optimal-throughput engine. The per-op gap reproduces the
// scheduling-time plot.
func BenchmarkFig12(b *testing.B) {
	for name, tg := range topologies(synth.DefaultConfig()) {
		b.Run("STRSCHD/"+name, func(b *testing.B) {
			p := tg.NumComputeNodes()
			for i := 0; i < b.N; i++ {
				part, err := schedule.PartitionRLX(tg, p)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := schedule.Schedule(tg, part, p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("CSDF/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := csdf.FromCanonical(tg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := g.SelfTimedMakespan(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig13Simulation measures the Appendix B discrete-event
// validation of one scheduled graph on both desim engines: Leap is the
// event-leaping fast path the sweeps default to, Reference is the
// unit-stepping oracle loop kept as the executable specification. Each
// sub-benchmark reuses one Scratch, exactly like the sweep workers do
// (after warm-up the simulation allocates nothing). Both engines' Stats are
// byte-identical; only their speed differs, and the committed BENCH_*.json
// baseline records the gap as part of the repository's performance
// trajectory.
func BenchmarkFig13Simulation(b *testing.B) {
	for name, tg := range topologies(synth.SmallConfig()) {
		p := 32
		if name == "Chain" {
			p = 8
		}
		part, err := schedule.PartitionLTS(tg, p)
		if err != nil {
			b.Fatal(err)
		}
		res, err := schedule.Schedule(tg, part, p)
		if err != nil {
			b.Fatal(err)
		}
		caps := buffers.Sizes(tg, res)
		for _, eng := range []struct {
			name   string
			engine desim.Engine
		}{{"Leap", desim.EngineLeap}, {"Reference", desim.EngineReference}} {
			b.Run(name+"/"+eng.name, func(b *testing.B) {
				s := desim.NewScratch()
				cfg := desim.Config{FIFOCap: caps, Engine: eng.engine}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					st, err := s.Simulate(tg, res, cfg)
					if err != nil {
						b.Fatal(err)
					}
					if st.Deadlocked {
						b.Fatal("unexpected deadlock")
					}
				}
			})
		}
	}
}

// BenchmarkTable2 schedules the ML model graphs: the tiny variants per
// iteration, and the full-size graphs once under -benchtime=1x if desired.
func BenchmarkTable2(b *testing.B) {
	resnet, err := onnx.ResNet50(onnx.TinyResNet50())
	if err != nil {
		b.Fatal(err)
	}
	encoder, err := onnx.TransformerEncoder(onnx.BaseEncoder())
	if err != nil {
		b.Fatal(err)
	}
	models := map[string]struct {
		tg *core.TaskGraph
		p  int
	}{
		"ResnetTiny":  {resnet, 256},
		"EncoderFull": {encoder, 1024},
	}
	for name, m := range models {
		b.Run(name+"/STR", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				part, err := schedule.PartitionLTS(m.tg, m.p)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := schedule.Schedule(m.tg, part, m.p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/NSTR", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.Schedule(m.tg, m.p, baseline.Options{Insertion: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBufferSizing isolates the Section 6 analysis (undirected-cycle
// detection plus Equation 5) from the rest of the pipeline.
func BenchmarkBufferSizing(b *testing.B) {
	tg := topologies(synth.DefaultConfig())["Cholesky"]
	part, err := schedule.PartitionLTS(tg, 64)
	if err != nil {
		b.Fatal(err)
	}
	res, err := schedule.Schedule(tg, part, 64)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = buffers.Sizes(tg, res)
	}
}

// BenchmarkPartitionVariants is the ablation between the Algorithm 1
// variants and the Appendix A partitioners on one graph.
func BenchmarkPartitionVariants(b *testing.B) {
	tg := topologies(synth.DefaultConfig())["Gaussian"]
	b.Run("SB-LTS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := schedule.PartitionLTS(tg, 64); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SB-RLX", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := schedule.PartitionRLX(tg, 64); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ByWork", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := schedule.PartitionByWork(tg, 64); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("LevelOrder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := schedule.PartitionLevelOrder(tg, 64); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestExperimentHarness smoke-runs every experiment end to end at reduced
// size, so the cmd/experiments paths stay green.
func TestExperimentHarness(t *testing.T) {
	opt := experiments.Quick()
	opt.Graphs = 3
	var specs []experiments.Spec
	for _, name := range []string{"fig10", "fig11", "fig12", "fig13"} {
		specs = append(specs, experiments.Spec{Name: name, Opt: opt})
	}
	p, err := experiments.Compile(append(specs, experiments.Spec{Name: "table2"}))
	if err != nil {
		t.Fatal(err)
	}
	set, rep := experiments.Runner{}.RunPlan(p)
	if len(rep.Failures) != 0 {
		t.Fatalf("%d failed jobs: %v", len(rep.Failures), rep.Failures[0])
	}
	experiments.Render(io.Discard, p, set)
}
