package main

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when told to; late[i] makes the i-th
// SleepUntil wake that much after its target, like a stalled generator.
type fakeClock struct {
	mu    sync.Mutex
	now   time.Time
	late  map[int]time.Duration
	calls int
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(_ context.Context, t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
	c.now = c.now.Add(c.late[c.calls])
	c.calls++
	return nil
}

func (c *fakeClock) set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = t
}

// TestOpenLoopTimesFromDue checks that latency counts from when an
// operation was due, so a generator stall counts against the operations
// it delays, and that the stall shows as lag.
func TestOpenLoopTimesFromDue(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start, late: map[int]time.Duration{1: 15 * time.Millisecond}}
	dues := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	started := make(chan struct{}, len(dues))
	release := make(chan struct{})
	var got []sample
	done := make(chan struct{})
	go func() {
		defer close(done)
		got = openLoop(context.Background(), clk, start, dues, func(ctx context.Context, i int) error {
			started <- struct{}{}
			<-release
			return nil
		})
	}()
	for range dues {
		<-started
	}
	clk.set(start.Add(100 * time.Millisecond))
	close(release)
	<-done

	wantLag := []time.Duration{0, 15 * time.Millisecond, 5 * time.Millisecond}
	wantLat := []time.Duration{100 * time.Millisecond, 90 * time.Millisecond, 80 * time.Millisecond}
	for i, s := range got {
		if s.lag() != wantLag[i] {
			t.Errorf("op %d: lag %v, want %v", i, s.lag(), wantLag[i])
		}
		if s.latency() != wantLat[i] {
			t.Errorf("op %d: latency %v, want %v (from due, not from issue)", i, s.latency(), wantLat[i])
		}
	}
}

func TestOpenLoopCancelledMarksTheRest(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got := openLoop(ctx, wallClock{}, time.Now().Add(time.Hour), []time.Duration{0, time.Second}, func(context.Context, int) error {
		t.Error("an operation ran after cancellation")
		return nil
	})
	for i, s := range got {
		if s.Err == nil {
			t.Errorf("op %d: no error after cancellation", i)
		}
	}
}

func TestArrivalsAreSeededAndCounted(t *testing.T) {
	a := poissonDues(rand.New(rand.NewSource(7)), 250, 2*time.Second)
	b := poissonDues(rand.New(rand.NewSource(7)), 250, 2*time.Second)
	if len(a) != 500 {
		t.Fatalf("%d arrivals, want rate x window = 500", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different arrival %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= 2*time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or range", i, a[i])
		}
	}
	even := evenDues(rand.New(rand.NewSource(7)), 4, 10*time.Second)
	if len(even) != 40 || even[1]-even[0] != 250*time.Millisecond {
		t.Errorf("even arrivals: %d, gap %v", len(even), even[1]-even[0])
	}
}
