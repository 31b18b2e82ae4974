package schedule_test

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/buffers"
	"repro/internal/core"
	"repro/internal/desim"
	"repro/internal/results"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/synth"
)

// scaleGraph builds the 10^5-task Gaussian-elimination instance the scale
// benchmarks and the BENCH baseline rows are pinned on.
func scaleGraph(b *testing.B) *core.TaskGraph {
	b.Helper()
	m := synth.GaussianFor(100_000)
	return synth.Gaussian(m, rand.New(rand.NewSource(1)), synth.DefaultConfig())
}

// BenchmarkAlgorithm1Scale is the headline fast-vs-reference comparison on a
// 10^5-task graph: the incremental partitioner must beat the frontier-rescan
// reference by at least an order of magnitude (the PR 8 acceptance bar).
func BenchmarkAlgorithm1Scale(b *testing.B) {
	tg := scaleGraph(b)
	const p = 256
	opt := schedule.Options{Variant: schedule.SBLTS}
	b.Run("gaussian-100k/fast", func(b *testing.B) {
		pt := schedule.NewPartitioner()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pt.Partition(tg, p, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gaussian-100k/reference", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := schedule.PartitionReference(tg, p, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPartitionerSteadyState pins the allocation-free contract where it
// matters: a reused Partitioner in a sweep-style loop (the cmd/bench gate
// checks allocs/op exactly, so any new steady-state allocation fails the
// regression gate).
func BenchmarkPartitionerSteadyState(b *testing.B) {
	m := synth.GaussianFor(10_000)
	tg := synth.Gaussian(m, rand.New(rand.NewSource(1)), synth.DefaultConfig())
	pt := schedule.NewPartitioner()
	opt := schedule.Options{Variant: schedule.SBRLX}
	if _, err := pt.Partition(tg, 64, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pt.Partition(tg, 64, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionReferenceManyBlocks guards the reference path's own
// fixes (index-map removeSource, epoch-stamped block membership): a long
// chain at P=1 closes one block per node, which was quadratic in the number
// of blocks before PR 8.
func BenchmarkPartitionReferenceManyBlocks(b *testing.B) {
	tg := synth.Chain(30_000, rand.New(rand.NewSource(1)), synth.DefaultConfig())
	opt := schedule.Options{Variant: schedule.SBLTS}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schedule.PartitionReference(tg, 1, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleLadder times the batch path stage by stage across graph
// sizes: decode (core.DecodeJSON of the graph's canonical JSON from
// memory) and decode-file (from a file through a bufio.Reader, as the
// batch-xl benchmark reads one: like streamsched -graph's file, a reader
// that hides its length),
// fingerprint (results.Fingerprint, the service's cache and coalescing
// key), partition (a reused Partitioner), schedule (a reused Scheduler)
// and sizes (Equation 5 on a reused buffers.Sizer), each its own row, so a
// regression is pinned on the stage that caused it; up to 10^4 nodes, desim
// adds the Appendix B simulation with those sizes (a reused Sizer and
// desim.Scratch). Three rows time the
// served path's codecs around them: submit (a /v1/submit body to its task
// graph through the handler's one-pass ingest, service.ReadSubmit),
// report (the /v1/result body of the graph's report, service.AppendStatus)
// and client (Client.Submit's body write plus Client.Result's read of
// that report, service.AppendSubmit and service.ReadStatus).
func BenchmarkScaleLadder(b *testing.B) {
	for _, target := range []int{1_000, 10_000, 100_000} {
		m := synth.GaussianFor(target)
		tg := synth.Gaussian(m, rand.New(rand.NewSource(1)), synth.DefaultConfig())
		var doc bytes.Buffer
		if err := tg.EncodeJSON(&doc); err != nil {
			b.Fatal(err)
		}
		const p = 256
		opt := schedule.Options{Variant: schedule.SBLTS}
		part, err := schedule.Algorithm1(tg, p, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("gaussian-%d/decode", target), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.DecodeJSON(bytes.NewReader(doc.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
		path := filepath.Join(b.TempDir(), "graph.json")
		if err := os.WriteFile(path, doc.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("gaussian-%d/decode-file", target), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f, err := os.Open(path)
				if err != nil {
					b.Fatal(err)
				}
				_, err = core.DecodeJSON(bufio.NewReaderSize(f, 1<<20))
				f.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		req := service.SubmitRequest{Tenant: "bulk", Graph: doc.Bytes(), PEs: p}
		body, err := service.AppendSubmit(nil, req)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := service.BuildReport(tg, p, opt.Variant, "lts", false)
		if err != nil {
			b.Fatal(err)
		}
		st := service.JobStatus{ID: "j1", State: service.StateDone, Schedule: rep}
		result, err := service.AppendStatus(nil, st)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("gaussian-%d/submit", target), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, tg, err := service.ReadSubmit(body); err != nil || tg == nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("gaussian-%d/report", target), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := service.AppendStatus(nil, st); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("gaussian-%d/client", target), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := service.AppendSubmit(make([]byte, 0, len(req.Graph)+256), req); err != nil {
					b.Fatal(err)
				}
				if _, err := service.ReadStatus(result); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("gaussian-%d/fingerprint", target), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results.Fingerprint(tg)
			}
		})
		b.Run(fmt.Sprintf("gaussian-%d/partition", target), func(b *testing.B) {
			pt := schedule.NewPartitioner()
			if _, err := pt.Partition(tg, p, opt); err != nil { // grow the scratch
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pt.Partition(tg, p, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("gaussian-%d/schedule", target), func(b *testing.B) {
			sched := schedule.NewScheduler()
			if _, err := sched.Schedule(tg, part, p); err != nil { // grow the scratch
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sched.Schedule(tg, part, p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("gaussian-%d/sizes", target), func(b *testing.B) {
			res, err := schedule.Schedule(tg, part, p)
			if err != nil {
				b.Fatal(err)
			}
			var sz buffers.Sizer
			sz.Sizes(tg, res) // grow the scratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sz.Sizes(tg, res)
			}
		})
		if target > 10_000 {
			continue // ~0.8 s a call at 10^5: beyond the ladder's budget
		}
		b.Run(fmt.Sprintf("gaussian-%d/desim", target), func(b *testing.B) {
			res, err := schedule.Schedule(tg, part, p)
			if err != nil {
				b.Fatal(err)
			}
			var sz buffers.Sizer
			sim := desim.NewScratch()
			if _, err := sim.Simulate(tg, res, desim.Config{FIFOCap: sz.Sizes(tg, res)}); err != nil { // grow the scratch
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Simulate(tg, res, desim.Config{FIFOCap: sz.Sizes(tg, res)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
