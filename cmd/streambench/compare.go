package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// minPairs is the fewest pairs of runs on which a comparison can come to
// any verdict but "unresolved".
const minPairs = 10

// verdict judges a change's runs of one metric against its parent's, given
// as pairs: base[i] and change[i] ran on the same seed. It is "unresolved"
// below minPairs pairs or when the parent's own spread is wider than the
// bound; "better" when the change wins at least nine pairs in ten, ties
// counting for neither, and the medians differ by more than the parent's
// interquartile distance — or when every change run beats every parent
// run; "worse" when the change's median is worse by more than the bound;
// "same" otherwise.
func verdict(d metricDef, base, change []float64) (wins float64, v string) {
	better := func(a, b float64) bool {
		if d.Better == "lower" {
			return a < b
		}
		return a > b
	}
	won := 0
	for i := range base {
		if better(change[i], base[i]) {
			won++
		}
	}
	wins = ratio(float64(won), float64(len(base)))
	bm, cm := median(base), median(change)
	q1, q3 := quartiles(base)
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			allBetter = allBetter && better(c, b)
		}
	}
	worse := cm > bm*(1+d.Bound)
	if d.Better == "higher" {
		worse = cm < bm*(1-d.Bound)
	}
	switch {
	case len(base) < minPairs:
		return wins, "unresolved"
	case better(cm, bm) && wins >= 0.9 && math.Abs(cm-bm) > q3-q1, allBetter:
		return wins, "better"
	case spread(base) > d.Bound:
		return wins, "unresolved"
	case worse:
		return wins, "worse"
	}
	return wins, "same"
}

// compareFiles prints one row per workload and end-to-end metric of two
// sets of -out files, each named by a glob pattern: each side's median and
// quartiles, the share of pairs the change won, and the verdict. A pair is
// a base run and a change run of the same workload and seed; a seed run
// more than once on a side pairs in file order.
func compareFiles(w io.Writer, basePattern, changePattern string) error {
	base, err := readRuns(basePattern)
	if err != nil {
		return err
	}
	change, err := readRuns(changePattern)
	if err != nil {
		return err
	}
	values := func(runs []record, workload, name string) map[int64][]float64 {
		v := make(map[int64][]float64)
		for _, r := range runs {
			if r.Workload == workload && !r.Traced {
				if m, ok := r.Metrics[name]; ok {
					v[r.Seed] = append(v[r.Seed], m.Value)
				}
			}
		}
		return v
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\tchange median [q1, q3]\tchange won\tbound\tverdict")
	for _, wl := range workloadNames() {
		for _, d := range endToEnd {
			bs, cs := values(base, wl, d.Name), values(change, wl, d.Name)
			var b, c []float64
			for seed, bv := range bs {
				for i := 0; i < min(len(bv), len(cs[seed])); i++ {
					b, c = append(b, bv[i]), append(c, cs[seed][i])
				}
			}
			if len(b) == 0 {
				continue
			}
			wins, v := verdict(d, b, c)
			bq1, bq3 := quartiles(b)
			cq1, cq3 := quartiles(c)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%.0f%% of %d\t%.0f%%\t%s\n",
				wl, d.Name, d.Unit, median(b), bq1, bq3, median(c), cq1, cq3, 100*wins, len(b), 100*d.Bound, v)
		}
	}
	return tw.Flush()
}
