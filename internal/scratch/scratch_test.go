package scratch

import "testing"

// GrowSlice's contract: a zeroed slice of length n, backed by the
// argument's array whenever its capacity suffices. The three cases below
// (grow past capacity, shrink within capacity, exact reuse) pin it for
// int64, and a generic harness for every element type the hot paths use.

func TestGrowIntsAllocatesPastCapacity(t *testing.T) {
	s := GrowSlice[int64](nil, 4)
	if len(s) != 4 {
		t.Fatalf("len = %d, want 4", len(s))
	}
	for i := range s {
		s[i] = int64(i + 1)
	}
	grown := GrowSlice(s, 16)
	if len(grown) != 16 {
		t.Fatalf("len = %d, want 16", len(grown))
	}
	for i, v := range grown {
		if v != 0 {
			t.Fatalf("grown[%d] = %d, want zeroed after reallocation", i, v)
		}
	}
	// The old backing array must be untouched: callers own their slice
	// until THEY call Grow again, not until anyone does.
	for i, v := range s {
		if v != int64(i+1) {
			t.Fatalf("original slice mutated at %d: %d", i, v)
		}
	}
}

func TestGrowIntsReusesCapacityAndClears(t *testing.T) {
	s := GrowSlice[int64](nil, 8)
	for i := range s {
		s[i] = 42
	}
	r := GrowSlice(s, 5)
	if len(r) != 5 {
		t.Fatalf("len = %d, want 5", len(r))
	}
	if &r[0] != &s[0] {
		t.Fatal("shrinking within capacity reallocated instead of reusing the backing array")
	}
	for i, v := range r {
		if v != 0 {
			t.Fatalf("r[%d] = %d, want cleared", i, v)
		}
	}
	// Same length round trip: still the same array, still cleared.
	for i := range r {
		r[i] = -7
	}
	r2 := GrowSlice(r, 5)
	if &r2[0] != &r[0] {
		t.Fatal("same-length Grow reallocated")
	}
	for i, v := range r2 {
		if v != 0 {
			t.Fatalf("r2[%d] = %d, want cleared", i, v)
		}
	}
}

func TestGrowIntsZeroLength(t *testing.T) {
	if s := GrowSlice[int64](nil, 0); len(s) != 0 {
		t.Fatalf("len = %d, want 0", len(s))
	}
	s := GrowSlice([]int64{1, 2, 3}, 0)
	if len(s) != 0 {
		t.Fatalf("len = %d, want 0", len(s))
	}
}

// growContract exercises GrowSlice for one element type: dirty the slice,
// shrink, grow back within capacity, and check zeroing and array identity
// at every step.
func growContract[E comparable](t *testing.T, name string, dirty E) {
	t.Helper()
	var zero E
	s := GrowSlice[E](nil, 6)
	if len(s) != 6 {
		t.Fatalf("%s: len = %d, want 6", name, len(s))
	}
	for i := range s {
		if s[i] != zero {
			t.Fatalf("%s: fresh slice not zeroed at %d", name, i)
		}
		s[i] = dirty
	}
	r := GrowSlice(s, 3)
	if len(r) != 3 || &r[0] != &s[0] {
		t.Fatalf("%s: shrink did not reuse the backing array", name)
	}
	r = GrowSlice(r, 6) // back up within the original capacity
	if len(r) != 6 || &r[0] != &s[0] {
		t.Fatalf("%s: regrow within capacity did not reuse the backing array", name)
	}
	for i := range r {
		if r[i] != zero {
			t.Fatalf("%s: stale value survived at %d: %v", name, i, r[i])
		}
	}
}

func TestGrowHelpersShareContract(t *testing.T) {
	growContract(t, "float64", 3.5)
	growContract(t, "bool", true)
	growContract(t, "int64", int64(-9))
	growContract(t, "uint64", uint64(9))
	growContract(t, "int32", int32(-5))
	growContract(t, "string", "dirty")
}
