package main

// Example runs the program and pins its output, so a change to the
// scheduler, the buffer sizing or the simulator that moves any number
// here shows up as a failing test.
func Example() {
	main()
	// Output:
	// softmax(256): 11 nodes in 3 streaming components
	// work T1 = 1792, streaming depth = 773, critical path = 1792
	//
	// schedule on 4 PEs: 2 blocks, makespan 1028, speedup 1.74
	//   x        block 0  ST    0  FO    1  LO  256
	//   max      block 0  ST    1  FO  257  LO  257
	//   x.buf    block 0  ST  256  FO  257  LO  512
	//   max.buf  block 0  ST  257  FO  258  LO  513
	//   sub      block 0  ST  258  FO  259  LO  514
	//   exp      block 0  ST  259  FO  260  LO  515
	//   sum      block 0  ST  260  FO  516  LO  516
	//   exp.buf  block 0  ST  515  FO  516  LO  771
	//   sum.buf  block 1  ST  771  FO  772  LO 1027
	//   div      block 1  ST  772  FO  773  LO 1028
	//   y        block 1  ST  773  FO 1028  LO 1028
	//
	// simulated makespan 774 (scheduled 1028, error -24.7%), no deadlock
}
