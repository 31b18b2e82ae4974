package desim_test

import (
	"testing"

	"repro/internal/buffers"
	"repro/internal/core"
	"repro/internal/desim"
	"repro/internal/schedule"
)

// benchCase schedules one golden graph for the engine benchmarks.
func benchCase(b *testing.B, name string, variant schedule.Variant, p int) (*core.TaskGraph, *schedule.Result) {
	b.Helper()
	tg := goldenGraph(b, name)
	part, err := schedule.Algorithm1(tg, p, schedule.Options{Variant: variant})
	if err != nil {
		b.Fatal(err)
	}
	res, err := schedule.Schedule(tg, part, p)
	if err != nil {
		b.Fatal(err)
	}
	return tg, res
}

// BenchmarkDesimEngines contrasts the unit-stepping reference loop with the
// event-leaping fast path, the default engine, on the golden graphs
// (DefaultConfig volumes, the same shapes the golden simulation table pins).
// The leap engine's advantage grows with the makespan: these graphs stream
// for hundreds to thousands of cycles, most of them inside replayable
// steady-state periods; event-dense cholesky sits at parity.
func BenchmarkDesimEngines(b *testing.B) {
	cases := []struct {
		graph   string
		variant schedule.Variant
		p       int
	}{
		{"chain", schedule.SBLTS, 4},
		{"fft", schedule.SBLTS, 64},
		{"gaussian", schedule.SBRLX, 64},
		{"cholesky", schedule.SBLTS, 64},
	}
	for _, tc := range cases {
		tg, res := benchCase(b, tc.graph, tc.variant, tc.p)
		caps := buffers.SizeMap(tg, res)
		for _, eng := range []struct {
			name   string
			engine desim.Engine
		}{{"Reference", desim.EngineReference}, {"Leap", desim.EngineLeap}} {
			b.Run(tc.graph+"/"+eng.name, func(b *testing.B) {
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

// BenchmarkDesimLongMakespan is the event-leaping engine's best case: a
// rate-matched pipeline moving 100k elements, whose steady state spans
// nearly the whole makespan. The reference loop is O(makespan x tasks); the
// leap engine crosses it in a handful of exact cycles plus one arithmetic
// replay per block regime.
func BenchmarkDesimLongMakespan(b *testing.B) {
	const k = 100_000
	tg := core.New()
	prev := tg.AddElementWise("t0", k)
	for i := 1; i < 8; i++ {
		cur := tg.AddElementWise("t", k)
		tg.MustConnect(prev, cur)
		prev = cur
	}
	if err := tg.Freeze(); err != nil {
		b.Fatal(err)
	}
	part, err := schedule.PartitionLTS(tg, 8)
	if err != nil {
		b.Fatal(err)
	}
	res, err := schedule.Schedule(tg, part, 8)
	if err != nil {
		b.Fatal(err)
	}
	caps := buffers.SizeMap(tg, res)
	for _, eng := range []struct {
		name   string
		engine desim.Engine
	}{{"Reference", desim.EngineReference}, {"Leap", desim.EngineLeap}} {
		b.Run(eng.name, func(b *testing.B) {
			s := desim.NewScratch()
			cfg := desim.Config{FIFOCap: caps, Engine: eng.engine}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := s.Simulate(tg, res, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if st.Deadlocked || st.Makespan != k+7 {
					b.Fatalf("wrong result: deadlock=%v makespan=%g", st.Deadlocked, st.Makespan)
				}
			}
		})
	}
}
