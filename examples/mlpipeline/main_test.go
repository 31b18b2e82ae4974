package main

// Example runs the program and pins its output, so a change to the
// scheduler, the buffer sizing or the simulator that moves any number
// here shows up as a failing test.
func Example() {
	main()
	// Output:
	// transformer encoder (seq 16, d 32, 4 heads, ff 64)
	// canonical graph: 472 nodes (46 buffer nodes), 1097 edges, T1 = 162816
	//
	//   #PEs  STR speedup  NSTR speedup      G     SSLR
	//     32         12.3          14.3   0.86     2.64
	//     64         20.7          15.9   1.30     1.57
	//     96         23.4          15.9   1.47     1.39
	//    128         28.7          15.9   1.81     1.13
	//
	// Streaming gains come from pipelining the attention softmax chains and
	// the feed-forward matmul columns within spatial blocks (Section 7.3).
}
