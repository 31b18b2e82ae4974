// Deadlock: reproduce Section 6 / Figure 9 — a reconvergent streaming graph
// deadlocks when a FIFO channel is undersized, and the Equation 5 buffer
// space repairs it.
//
//	go run ./examples/deadlock
package main

import (
	"fmt"
	"log"
	"slices"

	"repro/internal/buffers"
	"repro/internal/core"
	"repro/internal/desim"
	"repro/internal/schedule"
)

func main() {
	// Figure 9, graph 1: task 0 fans out to a reducing left path
	// (32 -> 4 -> 2 -> 32) and a direct right edge into task 4.
	tg := core.New()
	t0 := tg.AddElementWise("t0", 32)
	t1 := tg.AddCompute("t1", 32, 4)
	t2 := tg.AddCompute("t2", 4, 2)
	t3 := tg.AddCompute("t3", 2, 32)
	t4 := tg.AddElementWise("t4", 32)
	tg.MustConnect(t0, t1)
	tg.MustConnect(t1, t2)
	tg.MustConnect(t2, t3)
	tg.MustConnect(t3, t4)
	tg.MustConnect(t0, t4)
	if err := tg.Freeze(); err != nil {
		log.Fatal(err)
	}

	res, err := schedule.Schedule(tg, schedule.AllInOneBlock(tg), 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure 9 graph 1 schedule:")
	fmt.Println("task    ST   LO   FO")
	for v := 0; v < tg.Len(); v++ {
		fmt.Printf("%-6s %4.0f %4.0f %4.0f\n", tg.Nodes[v].Name, res.ST[v], res.LO[v], res.FO[v])
	}

	// Equation 5 sizes the (t0, t4) channel to absorb the left path's
	// pipeline fill delay.
	sized := buffers.Sizes(tg, res)
	t0t4 := slices.IndexFunc(sized, func(e buffers.EdgeSpace) bool { return e.From == t0 && e.To == t4 })
	fmt.Printf("\ncomputed FIFO space on (t0,t4): %d elements\n", sized[t0t4].Space)

	run := func(label string, caps []buffers.EdgeSpace) {
		st, err := desim.Simulate(tg, res, desim.Config{FIFOCap: caps})
		if err != nil {
			log.Fatal(err)
		}
		if st.Deadlocked {
			fmt.Printf("%-28s DEADLOCK at cycle %d\n", label, st.DeadlockCycle)
		} else {
			fmt.Printf("%-28s completes at cycle %.0f\n", label, st.Makespan)
		}
	}

	fmt.Println()
	run("with Equation 5 sizes:", sized)

	sized[t0t4].Space = 8
	run("with an 8-slot (t0,t4) FIFO:", sized)
}
