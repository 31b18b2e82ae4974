// Benchmarks for the extension subsystems (the Section 9 future-work
// directions implemented in this repo) and ablations of design choices
// called out in DESIGN.md.
package repro_test

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/csdf"
	"repro/internal/noc"
	"repro/internal/schedule"
	"repro/internal/synth"
)

func baselineSchedule(tg *core.TaskGraph, p int, insertion bool) (*baseline.Result, error) {
	return baseline.Schedule(tg, p, baseline.Options{Insertion: insertion})
}

// BenchmarkPlacementGreedy measures the BFS block placement on a 16x16
// mesh.
func BenchmarkPlacementGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tg := synth.Cholesky(8, rng, synth.DefaultConfig())
	part, err := schedule.PartitionLTS(tg, 64)
	if err != nil {
		b.Fatal(err)
	}
	res, err := schedule.Schedule(tg, part, 64)
	if err != nil {
		b.Fatal(err)
	}
	mesh := noc.NewMesh(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := noc.PlaceGreedy(tg, res, mesh, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacementAnneal measures 1000 annealing steps on one block.
// Every iteration reseeds one source with the same seed, so every
// iteration anneals along the same path and allocates the same number of
// times.
func BenchmarkPlacementAnneal(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tg := synth.Cholesky(8, rng, synth.DefaultConfig())
	part, err := schedule.PartitionLTS(tg, 64)
	if err != nil {
		b.Fatal(err)
	}
	res, err := schedule.Schedule(tg, part, 64)
	if err != nil {
		b.Fatal(err)
	}
	mesh := noc.NewMesh(64)
	base, err := noc.PlaceGreedy(tg, res, mesh, 0)
	if err != nil {
		b.Fatal(err)
	}
	annealRng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := base
		p.PEOf = append([]int(nil), base.PEOf...)
		annealRng.Seed(1)
		noc.Anneal(tg, res, p, 1000, annealRng)
	}
}

// BenchmarkCSDFBounded contrasts bounded against unbounded self-timed
// execution (the cost of modeling backpressure).
func BenchmarkCSDFBounded(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tg := synth.Gaussian(8, rng, synth.SmallConfig())
	g, err := csdf.FromCanonical(tg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Unbounded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.SelfTimedMakespan(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Bounded64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.BoundedSelfTimed(64); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPipelineAnalysis measures the macro-pipeline derivation.
func BenchmarkPipelineAnalysis(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tg := synth.FFT(32, rng, synth.DefaultConfig())
	part, err := schedule.PartitionLTS(tg, 64)
	if err != nil {
		b.Fatal(err)
	}
	res, err := schedule.Schedule(tg, part, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = schedule.AnalyzePipeline(tg, res)
	}
}

// BenchmarkBaselineInsertionAblation quantifies the insertion-slot policy
// of the non-streaming baseline.
func BenchmarkBaselineInsertionAblation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tg := synth.Cholesky(8, rng, synth.DefaultConfig())
	for _, ins := range []bool{true, false} {
		name := "NoInsertion"
		if ins {
			name = "Insertion"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baselineSchedule(tg, 64, ins); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
