package httpapi

import (
	"math/rand"
	"time"
)

// The retry loop's backoff is capped exponential with jitter, the standard
// "equal jitter" shape: the wait before the n-th retry is half a
// deterministic exponentially growing ceiling plus a uniformly random half,
// so a fleet of clients that failed together fans back out instead of
// thundering back in lockstep. The random source is seeded explicitly,
// which keeps tests byte-for-byte reproducible — the same discipline the
// rest of the repository applies to every random choice.

// Defaults for newBackoff when a caller passes zero values.
const (
	defaultBase = 200 * time.Millisecond
	defaultCap  = 5 * time.Second
)

// backoff produces the wait durations of one retry session. It is not
// safe for concurrent use; each retrying loop owns one.
type backoff struct {
	base, cap time.Duration
	rng       *rand.Rand
	n         uint
}

// newBackoff builds a backoff policy: waits start around base, double each
// retry, and are capped at cap. base <= 0 means defaultBase, cap <= 0
// means defaultCap (a cap below base is raised to base). seed 0 draws a
// seed from the wall clock; tests pass a fixed nonzero seed.
func newBackoff(base, cap time.Duration, seed int64) *backoff {
	if base <= 0 {
		base = defaultBase
	}
	if cap <= 0 {
		cap = defaultCap
	}
	if cap < base {
		cap = base
	}
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &backoff{base: base, cap: cap, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the wait before the next retry and advances the session:
// uniformly random in [ceil/2, ceil], where ceil doubles from base up to
// the cap.
func (b *backoff) Next() time.Duration {
	ceil := b.base << b.n
	if ceil <= 0 || ceil > b.cap { // <= 0: the shift overflowed
		ceil = b.cap
	} else {
		b.n++
	}
	half := ceil / 2
	return half + time.Duration(b.rng.Int63n(int64(half)+1))
}

// Reset restarts the exponential ramp (after a success, say).
func (b *backoff) Reset() { b.n = 0 }
