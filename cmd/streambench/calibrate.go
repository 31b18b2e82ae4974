package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// calibrateWindow is how long -calibrate drives each request mix.
const calibrateWindow = 20 * time.Second

// runCalibrate measures the closed-loop capacity of the two service
// workloads' request mixes — requests completed per second with four
// requests in flight per CPU — which the pinned offered loads in svc.go
// are shares of.
func runCalibrate(w io.Writer) error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(workDir, "calibrate-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	ctx := context.Background()
	// Set up for four windows' worth of arrivals, so that svc-small's
	// closed loop runs out of fresh identities no sooner than its open
	// loop would and its cache hits stay those of the workload's mix.
	e := &env{seed: 1, window: 4 * calibrateWindow, work: work, workers: nproc()}
	for _, c := range []struct {
		workload, class string
	}{{"svc-small", ""}, {"svc-mixed", "interactive"}, {"svc-mixed", "bulk"}} {
		wl, err := lookupWorkload(c.workload)
		if err != nil {
			return err
		}
		inst, err := wl.setup(ctx, e)
		if err != nil {
			return err
		}
		b := inst.(*svcBench)
		rate, err := b.capacity(ctx, c.class, calibrateWindow)
		b.close()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "capacity %s %s %.1f req/s\n", c.workload, c.class, rate)
	}
	return nil
}

// capacity drives the requests of the named class (every class when
// empty) through the service in a closed loop for d and returns
// completions per second.
func (b *svcBench) capacity(ctx context.Context, class string, d time.Duration) (float64, error) {
	var arr []arrival
	for _, a := range b.arr {
		if class == "" || b.classes[a.class].name == class {
			arr = append(arr, a)
		}
	}
	if len(arr) == 0 {
		return 0, fmt.Errorf("no %s requests to calibrate with", class)
	}
	var next, done atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, 4*b.e.workers)
	deadline := time.Now().Add(d)
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				a := arr[int(next.Add(1)-1)%len(arr)]
				var r reqResult
				if err := b.request(ctx, a, &r, nil); err != nil {
					errs[c] = err
					return
				}
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(done.Load()) / d.Seconds(), nil
}
