// Package retry provides capped exponential backoff with jitter for the
// retry loop of internal/httpapi, which the HTTP clients of
// internal/distrib and internal/service share. The policy is
// the standard "equal jitter" shape: the wait before the n-th retry is
// half a deterministic exponentially growing ceiling plus a uniformly
// random half, so a fleet of clients that failed together fans back out
// instead of thundering back in lockstep. The random source is seeded
// explicitly, which keeps tests byte-for-byte reproducible — the same
// discipline the rest of the repository applies to every random choice.
package retry

import (
	"math/rand"
	"time"
)

// Defaults for New when a caller passes zero values.
const (
	DefaultBase = 200 * time.Millisecond
	DefaultCap  = 5 * time.Second
)

// Backoff produces the wait durations of one retry session. It is not
// safe for concurrent use; each retrying loop owns one.
type Backoff struct {
	base, cap time.Duration
	rng       *rand.Rand
	n         uint
}

// New builds a backoff policy: waits start around base, double each
// retry, and are capped at cap. base <= 0 means DefaultBase, cap <= 0
// means DefaultCap (a cap below base is raised to base). seed 0 draws a
// seed from the wall clock; tests pass a fixed nonzero seed.
func New(base, cap time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = DefaultBase
	}
	if cap <= 0 {
		cap = DefaultCap
	}
	if cap < base {
		cap = base
	}
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Backoff{base: base, cap: cap, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the wait before the next retry and advances the session:
// uniformly random in [ceil/2, ceil], where ceil doubles from base up to
// the cap.
func (b *Backoff) Next() time.Duration {
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
func (b *Backoff) Reset() { b.n = 0 }
