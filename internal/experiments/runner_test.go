package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/desim"
)

// sweepOpt is a reduced but non-trivial sweep configuration shared by the
// engine tests.
func sweepOpt(graphs int) Options {
	opt := Quick()
	opt.Graphs = graphs
	return opt
}

// TestParallelSweepMatchesSequential: the engine must reproduce the
// sequential aggregation bit for bit at every worker count, with and without
// the discrete-event validation. Run under -race this also proves the worker
// pool, the shared graph cache, and the per-worker scratch are race-free.
func TestParallelSweepMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		topo     Topology
		simulate bool
	}{
		{Topologies()[0], true},  // Chain, with desim validation
		{Topologies()[2], false}, // Gaussian elimination, schedule only
	} {
		opt := sweepOpt(6)
		want := RunSweepSequential(tc.topo, opt, tc.simulate)
		for _, workers := range []int{1, 2, 4, 8} {
			got, rep := Runner{Workers: workers}.Sweep(tc.topo, opt, tc.simulate)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: parallel sweep diverges from sequential",
					tc.topo.Name, workers)
			}
			wantJobs := opt.Graphs * len(tc.topo.PEs) * numSweepVariants
			if rep.Jobs != wantJobs || rep.Completed != wantJobs || len(rep.Failures) != 0 {
				t.Errorf("%s workers=%d: report %d/%d jobs, %d failures; want %d/%d, 0",
					tc.topo.Name, workers, rep.Completed, rep.Jobs, len(rep.Failures), wantJobs, wantJobs)
			}
			if len(rep.Timings) != wantJobs {
				t.Errorf("%s workers=%d: %d timings, want %d", tc.topo.Name, workers, len(rep.Timings), wantJobs)
			}
			if rep.Work <= 0 {
				t.Errorf("%s workers=%d: non-positive total work %v", tc.topo.Name, workers, rep.Work)
			}
		}
	}
}

// TestFigureWritersIdenticalAcrossWorkerCounts: the rendered figure text —
// the artifact the paper comparison is made on — is byte-identical whether
// the sweep runs on one worker or many.
func TestFigureWritersIdenticalAcrossWorkerCounts(t *testing.T) {
	render := func(workers int) string {
		opt := sweepOpt(3)
		opt.Workers = workers
		var buf bytes.Buffer
		Fig10(&buf, opt)
		Fig11(&buf, opt)
		Fig13(&buf, opt)
		return buf.String()
	}
	want := render(1)
	for _, workers := range []int{4, 8} {
		if got := render(workers); got != want {
			t.Errorf("figure output differs between 1 and %d workers", workers)
		}
	}
}

// TestSweepTimingsOrdered: per-job timings come back in job enumeration
// order (graphs outermost, then PEs, then scheduler kind) regardless of
// completion interleaving.
func TestSweepTimingsOrdered(t *testing.T) {
	topo := Topologies()[0]
	opt := sweepOpt(4)
	_, rep := Runner{Workers: 4}.Sweep(topo, opt, false)
	want := sweepTopoJobs(topo, opt, false)
	if len(rep.Timings) != len(want) {
		t.Fatalf("%d timings, want %d", len(rep.Timings), len(want))
	}
	for i, tm := range rep.Timings {
		if tm.Job != want[i].Job {
			t.Fatalf("timing %d is %v, want %v", i, tm.Job, want[i].Job)
		}
	}
}

// TestSeededFailureCollection: a failing job is reported with its identity
// and error, the rest of the sweep completes, and only the failing cells are
// missing from the aggregate — the sweep is not aborted.
func TestSeededFailureCollection(t *testing.T) {
	topo := Topologies()[0]
	opt := sweepOpt(5)
	injected := errors.New("injected scheduler fault")
	r := Runner{
		Workers: 4,
		failHook: func(j Job) error {
			if j.Graph == 2 && j.Variant == VariantRLX {
				return injected
			}
			return nil
		},
	}
	points, rep := r.Sweep(topo, opt, false)

	wantFailures := len(topo.PEs) // one RLX job per PE count for graph 2
	if len(rep.Failures) != wantFailures {
		t.Fatalf("%d failures, want %d", len(rep.Failures), wantFailures)
	}
	for _, f := range rep.Failures {
		if !errors.Is(f.Err, injected) || f.Job.Graph != 2 || f.Job.Variant != VariantRLX {
			t.Errorf("unexpected failure record %v", f)
		}
	}
	if rep.Completed+len(rep.Failures) != rep.Jobs {
		t.Errorf("completed %d + failed %d != jobs %d", rep.Completed, len(rep.Failures), rep.Jobs)
	}
	for _, pt := range points {
		if len(pt.SpeedupRLX) != opt.Graphs-1 {
			t.Errorf("PE %d: %d RLX samples, want %d", pt.PEs, len(pt.SpeedupRLX), opt.Graphs-1)
		}
		if len(pt.SpeedupLTS) != opt.Graphs || len(pt.SpeedupNSTR) != opt.Graphs {
			t.Errorf("PE %d: LTS/NSTR samples disturbed by unrelated failure", pt.PEs)
		}
	}
}

// TestShardedSweepPartitionsJobs: shards are disjoint, cover every job, and
// their sample counts sum to the full sweep's.
func TestShardedSweepPartitionsJobs(t *testing.T) {
	topo := Topologies()[0]
	opt := sweepOpt(5)
	full, _ := Runner{Workers: 2}.Sweep(topo, opt, false)

	const shards = 3
	totalJobs, totalLTS := 0, 0
	for idx := 0; idx < shards; idx++ {
		points, rep := Runner{Workers: 2, ShardIndex: idx, ShardCount: shards}.Sweep(topo, opt, false)
		totalJobs += rep.Jobs
		if rep.Jobs+rep.Skipped != opt.Graphs*len(topo.PEs)*numSweepVariants {
			t.Errorf("shard %d: jobs %d + skipped %d != total", idx, rep.Jobs, rep.Skipped)
		}
		for _, pt := range points {
			totalLTS += len(pt.SpeedupLTS)
		}
	}
	if want := opt.Graphs * len(topo.PEs) * numSweepVariants; totalJobs != want {
		t.Errorf("shards ran %d jobs total, want %d", totalJobs, want)
	}
	wantLTS := 0
	for _, pt := range full {
		wantLTS += len(pt.SpeedupLTS)
	}
	if totalLTS != wantLTS {
		t.Errorf("shards produced %d LTS samples total, want %d", totalLTS, wantLTS)
	}
}

// TestGraphCacheMemoizes: one build per graph index regardless of how many
// (PE, variant) jobs touch it, and shared caches survive across sweeps.
func TestGraphCacheMemoizes(t *testing.T) {
	topo := Topologies()[0]
	opt := sweepOpt(4)
	cache := NewGraphCache()
	Runner{Workers: 4, Cache: cache}.Sweep(topo, opt, false)
	if cache.Builds() != opt.Graphs {
		t.Errorf("cache built %d graphs, want %d", cache.Builds(), opt.Graphs)
	}
	// A second sweep over the same graphs rebuilds nothing.
	Runner{Workers: 4, Cache: cache}.Sweep(topo, opt, false)
	if cache.Builds() != opt.Graphs {
		t.Errorf("shared cache rebuilt graphs: %d builds, want %d", cache.Builds(), opt.Graphs)
	}
}

// TestRunIndexed: results come back in index order with per-index errors,
// at any worker count (including workers > n and workers <= 0).
func TestRunIndexed(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 32} {
		results, errs := RunIndexed(workers, 10, func(i int) (int, error) {
			if i == 7 {
				return 0, fmt.Errorf("boom %d", i)
			}
			return i * i, nil
		})
		for i := 0; i < 10; i++ {
			if i == 7 {
				if errs[i] == nil {
					t.Errorf("workers=%d: missing error at index 7", workers)
				}
				continue
			}
			if errs[i] != nil || results[i] != i*i {
				t.Errorf("workers=%d: results[%d] = %d, %v; want %d, nil",
					workers, i, results[i], errs[i], i*i)
			}
		}
	}
}

// TestParseShardStrict: the i/n parser rejects trailing garbage (a typo'd
// "1/2/4" must not silently run as shard 1 of 2) and out-of-range indices.
func TestParseShardStrict(t *testing.T) {
	for _, good := range []struct {
		in         string
		idx, count int
	}{{"", 0, 0}, {"0/1", 0, 1}, {"2/5", 2, 5}} {
		idx, count, err := ParseShard(good.in)
		if err != nil || idx != good.idx || count != good.count {
			t.Errorf("ParseShard(%q) = %d, %d, %v; want %d, %d, nil",
				good.in, idx, count, err, good.idx, good.count)
		}
	}
	for _, bad := range []string{"1/2/4", "a/b", "1/", "/2", "2/2", "-1/3", "1 /2", "1/2 "} {
		if _, _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}

// TestGraphCacheKeyedByConfig: a cache shared across sweeps with different
// synth configs must not serve one config's graphs to the other.
func TestGraphCacheKeyedByConfig(t *testing.T) {
	topo := Topologies()[0]
	small := sweepOpt(3)
	big := small
	big.Config = Defaults().Config
	cache := NewGraphCache()
	gotSmall, _ := Runner{Workers: 2, Cache: cache}.Sweep(topo, small, false)
	gotBig, _ := Runner{Workers: 2, Cache: cache}.Sweep(topo, big, false)
	if cache.Builds() != small.Graphs+big.Graphs {
		t.Errorf("cache built %d graphs, want %d (configs must not share entries)",
			cache.Builds(), small.Graphs+big.Graphs)
	}
	if wantBig := RunSweepSequential(topo, big, false); !reflect.DeepEqual(gotBig, wantBig) {
		t.Errorf("second sweep served graphs from the first sweep's config")
	}
	if wantSmall := RunSweepSequential(topo, small, false); !reflect.DeepEqual(gotSmall, wantSmall) {
		t.Errorf("first sweep diverges from sequential")
	}
}

// TestSimEnginesRenderIdentically: the fig13 and ablation tables — the
// quick two-graph plans of the experiments that simulate — render byte
// for byte the same on the default engine and on the reference loop, so
// the engine never reaches cells, caches or artifacts.
func TestSimEnginesRenderIdentically(t *testing.T) {
	opt := sweepOpt(2)
	render := func(r Runner) string {
		p, err := Compile([]Spec{{Name: "fig13", Opt: opt}, {Name: "ablation", Opt: opt}})
		if err != nil {
			t.Fatal(err)
		}
		set, rep := r.RunPlan(p)
		if len(rep.Failures) != 0 {
			t.Fatalf("%s: %d failed jobs: %v", r.SimEngine, len(rep.Failures), rep.Failures[0])
		}
		var buf bytes.Buffer
		Render(&buf, p, set)
		return buf.String()
	}
	if got, want := render(Runner{SimEngine: desim.EngineReference}), render(Runner{}); got != want {
		t.Errorf("reference engine tables differ from the default:\n%s\nvs\n%s", got, want)
	}
}
