package main

// Example runs the program and pins its output, so a change to the
// scheduler, the buffer sizing or the simulator that moves any number
// here shows up as a failing test.
func Example() {
	main()
	// Output:
	// Cholesky(6): 56 tasks on 16 PEs, 4 blocks, makespan 171, speedup 11.13
	//
	// time 0 .. 171 (one column = 2.4 cycles; glyph = block index)
	// PE0   |00000000000000000000000000011111111111111111111111111112222222.33333333.|
	// PE1   |00000000000000000000000000011111111111111111111111111112222222..3333333.|
	// PE2   |00000000000000000000000000011111111111111111111111111112222222..3333333.|
	// PE3   |00000000000000000000000000011111111111111111111111111112222222.33333333.|
	// PE4   |00000000000000000000000000011111111111111111111111111112222222..3333333.|
	// PE5   |000000000000000000000000000111111111111111111111111111.22222222.33333333|
	// PE6   |000000000000000000000000000011111111111111111111111111.22222222.33333333|
	// PE7   |000000000000000000000000000011111111111111111111111111.22222222..3333333|
	// PE8   |000000000000000000000000000011111111111111111111111111..2222222.........|
	// PE9   |0000000000000000000000000000.1111111111111111111111111112222222.........|
	// PE10  |0000000000000000000000000000111111111111111111111111111.2222222.........|
	// PE11  |0000000000000000000000000000111111111111111111111111111.2222222.........|
	// PE12  |0000000000000000000000000000111111111111111111111111111.2222222.........|
	// PE13  |0000000000000000000000000000111111111111111111111111111.2222222.........|
	// PE14  |0000000000000000000000000000111111111111111111111111111.22222222........|
	// PE15  |0000000000000000000000000000111111111111111111111111111.22222222........|
	//
	// block  0:   16 tasks  [       0,       66]  busiest potrf0 (64 cycles)
	// block  1:   16 tasks  [      66,      131]  busiest upd0.5.1 (64 cycles)
	// block  2:   16 tasks  [     131,      151]  busiest upd1.5.2 (16 cycles)
	// block  3:    8 tasks  [     151,      171]  busiest trsm3.5 (16 cycles)
	//
	// placing blocks on a 4x4 mesh (XY routing):
	//  block greedy hop-vol anneal hop-vol  greedy link  anneal link
	//      0           2240           1984          256          128
	//      1            496            288           64           32
	//      2            704            416           64           32
	//      3            176            144           16           16
	//
	// pipelined execution of repeated iterations:
	//   latency 171, initiation interval 66 (slowest block)
	//     1 iterations:      171 cycles (pipelined speedup 1.00)
	//     4 iterations:      369 cycles (pipelined speedup 1.85)
	//    16 iterations:     1161 cycles (pipelined speedup 2.36)
	//    64 iterations:     4329 cycles (pipelined speedup 2.53)
}
