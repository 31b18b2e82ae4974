package main

// Example runs the program and pins its output, so a change to the
// scheduler, the buffer sizing or the simulator that moves any number
// here shows up as a failing test.
func Example() {
	main()
	// Output:
	// Figure 9 graph 1 schedule:
	// task    ST   LO   FO
	// t0        0   32    1
	// t1        1   33    9
	// t2        9   34   18
	// t3       18   50   19
	// t4       19   51   20
	//
	// computed FIFO space on (t0,t4): 18 elements
	//
	// with Equation 5 sizes:       completes at cycle 52
	// with an 8-slot (t0,t4) FIFO: DEADLOCK at cycle 11
}
