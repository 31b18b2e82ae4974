package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// clock is the generator's time source; tests substitute a fake one.
type clock interface {
	Now() time.Time
	// SleepUntil returns at t or later, or early with ctx's error.
	SleepUntil(ctx context.Context, t time.Time) error
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// sample is one open-loop operation. Latency runs from when the operation
// was due, not from when it was issued, so a stall that delays issuing
// counts against the operations it delays; lag is how late the generator
// issued it.
type sample struct {
	Due, Issued, Done time.Time
	Err               error
}

func (s sample) latency() time.Duration { return s.Done.Sub(s.Due) }
func (s sample) lag() time.Duration     { return s.Issued.Sub(s.Due) }

// poissonDues draws the due offsets of a Poisson process at rate per
// second over d, conditioned on its expected count: that many arrivals at
// independent uniform times. Fixing the count keeps the work of a run
// from varying with the seed while the arrivals keep Poisson burstiness.
func poissonDues(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	dues := make([]time.Duration, int(math.Round(rate*d.Seconds())))
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	return dues
}

// evenDues spaces arrivals at rate per second evenly over d, starting at a
// seeded offset within the first interval.
func evenDues(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	dues := make([]time.Duration, int(math.Round(rate*d.Seconds())))
	gap := float64(d) / float64(len(dues))
	off := rng.Float64() * gap
	for i := range dues {
		dues[i] = time.Duration(off + float64(i)*gap)
	}
	return dues
}

// openLoop issues op(i) at start+dues[i] whether or not earlier
// operations have finished, then waits for all of them. Operations not
// issued because ctx ended carry its error.
func openLoop(ctx context.Context, clk clock, start time.Time, dues []time.Duration, op func(ctx context.Context, i int) error) []sample {
	out := make([]sample, len(dues))
	var wg sync.WaitGroup
	for i, d := range dues {
		out[i].Due = start.Add(d)
		if err := clk.SleepUntil(ctx, out[i].Due); err != nil {
			for j := i; j < len(dues); j++ {
				out[j].Due = start.Add(dues[j])
				out[j].Issued, out[j].Done, out[j].Err = out[j].Due, out[j].Due, err
			}
			break
		}
		out[i].Issued = clk.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := op(ctx, i)
			out[i].Done, out[i].Err = clk.Now(), err
		}(i)
	}
	wg.Wait()
	return out
}
