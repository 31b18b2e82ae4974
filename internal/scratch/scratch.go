// Package scratch provides the grow-and-clear slice helper shared by the
// scratch-reusing hot paths (schedule.Scheduler, schedule.Partitioner,
// buffers.Sizer, desim.Scratch): return a zeroed slice of the requested
// length, reusing capacity when possible.
//
// The entry point is GrowSlice. The contract is exactly "a zeroed slice
// of length n backed, when capacity allows, by the argument's array" —
// callers own the returned slice until their next GrowSlice call, so one
// scratch value must never be shared across goroutines (each engine worker
// owns its own Scheduler/Scratch for this reason).
package scratch

// GrowSlice returns a zeroed slice of length n, reusing s's capacity.
func GrowSlice[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}
