package experiments

import (
	"fmt"
	"testing"
)

// benchTopo is a multi-graph sweep heavy enough for the pool to matter: the
// Gaussian-elimination family (135 tasks) across its four PE counts.
func benchTopo() (*synthWorkload, Options) {
	opt := Quick()
	opt.Graphs = 8
	return sweepFamilies[2], opt
}

// BenchmarkSweepSequential is the single-goroutine reference sweep.
func BenchmarkSweepSequential(b *testing.B) {
	f, opt := benchTopo()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunSweepSequential(f.topo, opt, false)
	}
}

// BenchmarkSweepParallel runs the same sweep on the engine at increasing
// worker counts; at >= 4 workers it must beat BenchmarkSweepSequential while
// producing identical aggregates (TestParallelSweepMatchesSequential).
func BenchmarkSweepParallel(b *testing.B) {
	f, opt := benchTopo()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runSweep(Runner{Workers: workers}, f, opt, false, nil)
			}
		})
	}
}

// BenchmarkSweepParallelSimulated exercises the desim-scratch path: the
// Chain family with the Appendix B element-level validation per job.
func BenchmarkSweepParallelSimulated(b *testing.B) {
	opt := Quick()
	opt.Graphs = 8
	f := sweepFamilies[0]
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runSweep(Runner{Workers: workers}, f, opt, true, nil)
			}
		})
	}
}
