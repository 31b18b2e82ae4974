// Quickstart: build the softmax canonical task graph of Figure 5 by hand,
// schedule it on 4 processing elements, size the FIFO buffers, and validate
// the schedule with the discrete-event simulator.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/buffers"
	"repro/internal/core"
	"repro/internal/desim"
	"repro/internal/schedule"
)

func main() {
	const n = 256 // vector length

	// Softmax over an n-element vector (Figure 5): the max reduction and
	// the exponentials stream; the buffers mark data that must be replayed.
	tg := core.New()
	x := tg.AddSource("x", n)
	dmax := tg.AddCompute("max", n, 1)
	bx := tg.AddBuffer("x.buf", n, n)
	bmax := tg.AddBuffer("max.buf", 1, n)
	sub := tg.AddElementWise("sub", n)
	exp := tg.AddElementWise("exp", n)
	dsum := tg.AddCompute("sum", n, 1)
	bexp := tg.AddBuffer("exp.buf", n, n)
	bsum := tg.AddBuffer("sum.buf", 1, n)
	div := tg.AddElementWise("div", n)
	y := tg.AddSink("y", n)

	tg.MustConnect(x, dmax)
	tg.MustConnect(x, bx)
	tg.MustConnect(dmax, bmax)
	tg.MustConnect(bx, sub)
	tg.MustConnect(bmax, sub)
	tg.MustConnect(sub, exp)
	tg.MustConnect(exp, dsum)
	tg.MustConnect(exp, bexp)
	tg.MustConnect(dsum, bsum)
	tg.MustConnect(bexp, div)
	tg.MustConnect(bsum, div)
	tg.MustConnect(div, y)

	if err := tg.Freeze(); err != nil {
		log.Fatal(err)
	}

	// Steady-state analysis: streaming intervals and depth.
	iv := tg.StreamingIntervals()
	fmt.Printf("softmax(%d): %d nodes in %d streaming components\n", n, tg.Len(), iv.NumComp)
	fmt.Printf("work T1 = %.0f, streaming depth = %.0f, critical path = %.0f\n",
		tg.Work(), schedule.StreamingDepth(tg), tg.CriticalPath())

	// Partition into spatial blocks of at most 4 tasks and schedule.
	const pes = 4
	part, err := schedule.PartitionLTS(tg, pes)
	if err != nil {
		log.Fatal(err)
	}
	res, err := schedule.Schedule(tg, part, pes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nschedule on %d PEs: %d blocks, makespan %.0f, speedup %.2f\n",
		pes, part.NumBlocks(), res.Makespan, res.Speedup(tg))
	for v := 0; v < tg.Len(); v++ {
		fmt.Printf("  %-8s block %d  ST %4.0f  FO %4.0f  LO %4.0f\n",
			tg.Nodes[v].Name, part.BlockOf[v], res.ST[v], res.FO[v], res.LO[v])
	}

	// FIFO sizes for deadlock freedom (Section 6) and validation.
	st, err := desim.Simulate(tg, res, desim.Config{FIFOCap: buffers.Sizes(tg, res)})
	if err != nil {
		log.Fatal(err)
	}
	if st.Deadlocked {
		log.Fatalf("deadlock at cycle %d", st.DeadlockCycle)
	}
	fmt.Printf("\nsimulated makespan %.0f (scheduled %.0f, error %+.1f%%), no deadlock\n",
		st.Makespan, res.Makespan, 100*st.RelativeError(res.Makespan))
}
