package httpapi

import (
	"testing"
	"time"
)

// A seeded backoff is byte-for-byte reproducible, and every wait lies in
// the equal-jitter envelope [ceil/2, ceil] with ceil doubling from base
// to cap.
func TestSeededBackoffIsDeterministicAndBounded(t *testing.T) {
	base, cap := 100*time.Millisecond, time.Second
	a := newBackoff(base, cap, 42)
	b := newBackoff(base, cap, 42)
	ceil := base
	for i := 0; i < 20; i++ {
		wa, wb := a.Next(), b.Next()
		if wa != wb {
			t.Fatalf("step %d: same seed diverged: %v vs %v", i, wa, wb)
		}
		if wa < ceil/2 || wa > ceil {
			t.Fatalf("step %d: wait %v outside [%v, %v]", i, wa, ceil/2, ceil)
		}
		if ceil < cap {
			ceil *= 2
			if ceil > cap {
				ceil = cap
			}
		}
	}
}

// The ceiling saturates at the cap instead of growing (or overflowing)
// forever.
func TestBackoffCapsAndSurvivesOverflow(t *testing.T) {
	b := newBackoff(time.Millisecond, 8*time.Millisecond, 1)
	// Burn through the ramp; after it the ceiling must stay at the cap.
	for i := 0; i < 200; i++ {
		if w := b.Next(); w > 8*time.Millisecond {
			t.Fatalf("step %d: wait %v exceeds the 8ms cap", i, w)
		}
	}
	// A huge base shifted repeatedly would overflow time.Duration; Next
	// must clamp to the cap, never return a negative or zero wait.
	h := newBackoff(time.Hour, 2*time.Hour, 1)
	for i := 0; i < 80; i++ {
		if w := h.Next(); w <= 0 || w > 2*time.Hour {
			t.Fatalf("step %d: wait %v out of range after potential overflow", i, w)
		}
	}
}

func TestBackoffDefaultsAndReset(t *testing.T) {
	b := newBackoff(0, 0, 7)
	if w := b.Next(); w < defaultBase/2 || w > defaultBase {
		t.Fatalf("first default wait %v outside [%v, %v]", w, defaultBase/2, defaultBase)
	}
	for i := 0; i < 50; i++ {
		if w := b.Next(); w > defaultCap {
			t.Fatalf("default wait %v exceeds defaultCap %v", w, defaultCap)
		}
	}
	b.Reset()
	if w := b.Next(); w > defaultBase {
		t.Fatalf("wait %v after Reset, want back on the %v base rung", w, defaultBase)
	}

	// A cap below the base is raised to the base rather than inverted.
	c := newBackoff(time.Second, time.Millisecond, 3)
	if w := c.Next(); w < time.Second/2 || w > time.Second {
		t.Fatalf("wait %v with cap<base, want within [0.5s, 1s]", w)
	}
}
