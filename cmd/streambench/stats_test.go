package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.01, 1}, {0.2, 1}, {0.21, 2}, {0.5, 3}, {0.8, 4}, {0.81, 5}, {1, 5}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestFailuresCountAsInfinity(t *testing.T) {
	// 100 requests, 2 of which failed: p99 must land on a failure, and a
	// failure must never make a percentile look better.
	var xs []float64
	for i := 1; i <= 98; i++ {
		xs = append(xs, float64(i))
	}
	xs = append(xs, math.Inf(1), math.Inf(1))
	if got := percentile(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", got)
	}
	if got := percentile(xs, 0.98); got != 98 {
		t.Errorf("p98 = %v, want 98", got)
	}
	if got := percentile(xs, 0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := finite(math.Inf(1)); got != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %v", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{1, 2}, 0.75, 2.25}, // two samples extrapolate
		{[]float64{2, 4, 4, 4, 5, 5, 7, 9, 11}, 4, 8},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSliceMedianSkipsThinSlices(t *testing.T) {
	full := func(v float64) []float64 {
		xs := make([]float64, minSlice)
		for i := range xs {
			xs[i] = v
		}
		return xs
	}
	p50 := func(xs []float64) float64 { return percentile(xs, 0.5) }
	none := make([]float64, 6)
	// One slow slice among five does not move the median over slices.
	got := sliceMedian([][]float64{full(1), full(1), full(100), full(1), full(1), {500}}, none, p50)
	if got != 1 {
		t.Errorf("sliceMedian = %v, want 1", got)
	}
	// With no slice full enough, every value is pooled.
	if got := sliceMedian([][]float64{{1, 2}, {3}}, none, p50); got != 2 {
		t.Errorf("pooled sliceMedian = %v, want 2", got)
	}
}

func TestStealAdjustment(t *testing.T) {
	p50 := func(xs []float64) float64 { return percentile(xs, 0.5) }
	full := func(v float64) []float64 {
		xs := make([]float64, minSlice)
		for i := range xs {
			xs[i] = v
		}
		return xs
	}
	// A slice stretched to twice its length by a hypervisor that withheld
	// half the wanted CPU time reads as the unstretched one.
	got := sliceMedian([][]float64{full(4), full(8), full(4)}, []float64{0, 0.5, 0}, p50)
	if got != 4 {
		t.Errorf("sliceMedian = %v, want 4", got)
	}
	a := mark{at: time.Unix(0, 0), cpu: time.Second, host: hostCPU{busy: 100, stolen: 10}}
	b := mark{at: time.Unix(2, 0), cpu: 3 * time.Second, host: hostCPU{busy: 160, stolen: 30}}
	iv := a.to(b)
	if iv.steal != 0.25 || iv.wallMs() != 1500 || iv.cpuMs() != 1500 {
		t.Errorf("interval %+v: wall %v ms, cpu %v ms; want steal 0.25, 1500 ms each", iv, iv.wallMs(), iv.cpuMs())
	}
	if h := readHostCPU(); h.busy < 0 || h.stolen < 0 {
		t.Errorf("readHostCPU = %+v", h)
	}
}
