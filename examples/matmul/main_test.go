package main

// Example runs the program and pins its output, so a change to the
// scheduler, the buffer sizing or the simulator that moves any number
// here shows up as a failing test.
func Example() {
	main()
	// Output:
	// C[32,24] = A[32,16] * B[16,24]
	//
	// impl          tasks     T1      depth   makespan    speedup   blocks
	// inner (1)         1  13952      12801      12801       1.09        1
	// columns (2)      25  14464        897       2433       5.94        4
	// outer (3)        31  25472       1285       3593       7.09        4
	//
	// Implementation choice trades task parallelism (columns, outer)
	// against buffer space and streaming opportunities, as in Section 3.2.
}
