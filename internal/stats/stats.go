// Package stats provides the box-plot summaries used to report the
// evaluation distributions (Figures 10, 11, 12, 13 plot medians, quartiles,
// whiskers, and outliers over 100 random task graphs).
//
// The entry point, Summarize, folds a sample slice into a five-number
// Summary with Tukey whiskers. It is a pure function of its input, total
// (it accepts empty and partially filled sample sets, which sharded runs
// produce), and never reorders the caller's slice, so the rendered tables
// are byte-identical however the samples were computed.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary is a five-number box-plot summary with Tukey whiskers.
type Summary struct {
	N                   int
	Min, Max            float64
	Q1, Median, Q3      float64
	WhiskLow, WhiskHigh float64
	Mean                float64
	Outliers            []float64
}

// Summarize computes the box-plot summary of xs. An empty sample — which a
// sharded sweep can legitimately produce for a cell whose jobs all belong to
// other shards — yields N = 0 with every statistic NaN.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{
			Min: nan, Max: nan,
			Q1: nan, Median: nan, Q3: nan,
			WhiskLow: nan, WhiskHigh: nan,
			Mean: nan,
		}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)

	sum := 0.0
	for _, x := range s {
		sum += x
	}
	out := Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.5),
		Q3:     quantile(s, 0.75),
		Mean:   sum / float64(len(s)),
	}

	iqr := out.Q3 - out.Q1
	lo, hi := out.Q1-1.5*iqr, out.Q3+1.5*iqr
	out.WhiskLow, out.WhiskHigh = out.Max, out.Min
	for _, x := range s {
		if x >= lo && x < out.WhiskLow {
			out.WhiskLow = x
		}
		if x <= hi && x > out.WhiskHigh {
			out.WhiskHigh = x
		}
		if x < lo || x > hi {
			out.Outliers = append(out.Outliers, x)
		}
	}
	return out
}

// quantile interpolates the q-th quantile of sorted data (type 7, the
// default of numpy/matplotlib used for the paper's plots).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders the summary as one readable row.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.3g q1=%.3g med=%.3g q3=%.3g max=%.3g mean=%.3g",
		s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean)
}
