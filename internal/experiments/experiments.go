// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7 and Appendix B) on the Go reimplementation:
//
//	Figure 10  speedup distributions, streaming vs non-streaming
//	Figure 11  streaming SLR distributions
//	Figure 12  scheduling time and makespan ratio vs the CSDF engine
//	Figure 13  relative error of the discrete-event validation
//	Table 2    ResNet-50 and transformer-encoder speedups
//	Ablation   Equation 5 buffer sizing vs unit FIFOs
//
// plus three pipeline-native extensions beyond the paper:
//
//	Placement  SB-LTS blocks on a 2D-mesh NoC: congestion and slowdown
//	HEFT       the classical buffered list scheduler vs SB-LTS
//	Pipeline   steady-state macro-pipelining of repeated iterations
//
// The package is organized around three static tables, read through name
// lookups: the variant table (the evaluation procedures cells are named
// after), the workload table (the graph sources: synthetic families, ONNX
// models), and the experiment table, whose rows pair a job grid with a
// table renderer. There is one run path, Compile → Runner.RunPlan →
// Render. Compile expands every experiment through one enumerator, grid
// (workload × instance × PE count × variant), into cell jobs: one job
// evaluates one (graph, PE count, variant) combination and emits a
// results.Cell, addressed by the one key function the renderers also look
// cells up with. Jobs spread across worker goroutines, a run's cells
// serialize to a versioned JSON artifact, and a persistent results.Cache
// keyed by graph content lets repeated runs skip already-computed cells.
// Tables render (Render) from the cell set and are byte-identical however
// the cells were produced. Randomness is seeded, so every run is
// reproducible; box-plot summaries stand in for the paper's plots.
//
// Two hooks exist for the distributed layer (internal/distrib), the one
// way to split a run across processes: PlanHash fingerprints a compiled
// plan so separate processes can prove they agree on the job list, and
// Runner.Only executes an explicit set of job indices (the batches a
// coordinator leases).
package experiments

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/synth"
)

// Options bounds an experiment run.
type Options struct {
	// Graphs is the number of random task graphs per topology (the paper
	// uses 100).
	Graphs int
	// Seed makes runs reproducible.
	Seed int64
	// Config bounds the random volumes of the synthetic generators.
	Config synth.Config
}

// Defaults mirrors the paper's setup: 100 random graphs per topology.
func Defaults() Options {
	return Options{Graphs: 100, Seed: 1, Config: synth.DefaultConfig()}
}

// Quick is a reduced setting for smoke tests and benchmarks.
func Quick() Options {
	return Options{Graphs: 15, Seed: 1, Config: synth.SmallConfig()}
}

// Topology is one synthetic workload family of Figure 10.
type Topology struct {
	Name  string
	Tasks int
	PEs   []int
	Build func(rng *rand.Rand, cfg synth.Config) *core.TaskGraph
}

// Topologies returns the four families with the paper's sizes and PE
// sweeps: Chain with 8 tasks on 2-8 PEs; FFT (223 tasks), Gaussian
// elimination (135), and Cholesky factorization (120) on 32-128 PEs.
func Topologies() []Topology {
	return []Topology{
		{
			Name: "Chain", Tasks: 8, PEs: []int{2, 4, 6, 8},
			Build: func(rng *rand.Rand, cfg synth.Config) *core.TaskGraph { return synth.Chain(8, rng, cfg) },
		},
		{
			Name: "FFT", Tasks: 223, PEs: []int{32, 64, 96, 128},
			Build: func(rng *rand.Rand, cfg synth.Config) *core.TaskGraph { return synth.FFT(32, rng, cfg) },
		},
		{
			Name: "Gaussian Elimination", Tasks: 135, PEs: []int{32, 64, 96, 128},
			Build: func(rng *rand.Rand, cfg synth.Config) *core.TaskGraph { return synth.Gaussian(16, rng, cfg) },
		},
		{
			Name: "Cholesky Factorization", Tasks: 120, PEs: []int{32, 64, 96, 128},
			Build: func(rng *rand.Rand, cfg synth.Config) *core.TaskGraph { return synth.Cholesky(8, rng, cfg) },
		},
	}
}

// SweepPoint aggregates one (topology, PE count) cell of Figures 10/11/13.
type SweepPoint struct {
	PEs                        int
	SpeedupLTS, SpeedupRLX     []float64
	SpeedupNSTR                []float64
	SSLRLTS, SSLRRLX           []float64
	UtilLTS, UtilRLX, UtilNSTR []float64
	ErrLTS, ErrRLX             []float64 // desim relative error (Figure 13)
	Deadlocks                  int
}

// newRng returns a seeded random source; kept here so tests and callers
// share one construction point.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
