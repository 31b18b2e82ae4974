package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json carries the same
// names, units, directions and bounds (a test keeps the two in step);
// Bound is the share of the parent's median by which an end-to-end metric
// may worsen before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists the metrics every untraced run reports, on every
// workload. README.md defines what each one measures on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p75_ms", "ms", "lower", 0.25},
	{"alt_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer lists the metrics every traced run reports, on every workload.
// A metric of a layer the workload does not reach is a count, a share or
// a rate, and reads 0 there.
var perLayer = []metricDef{
	{"service.submit_p50_ms", "ms", "lower", 0},
	{"service.submit_p99_ms", "ms", "lower", 0},
	{"service.wait_p50_ms", "ms", "lower", 0},
	{"service.wait_p99_ms", "ms", "lower", 0},
	{"service.fetch_p50_ms", "ms", "lower", 0},
	{"service.report_encode_ms", "ms", "lower", 0},
	{"service.evals_per_completed", "ratio", "lower", 0},
	{"service.cache_hit_ratio", "ratio", "higher", 0},
	{"service.mean_batch", "count", "higher", 0},
	{"service.queue_depth_p99", "count", "lower", 0},
	{"service.rejected", "count", "lower", 0},
	{"service.shed", "count", "lower", 0},
	{"loadgen.lag_p99_ms", "ms", "lower", 0},
	{"core.decode_ms", "ms", "lower", 0},
	{"core.decode_mb_per_s", "MB/s", "higher", 0},
	{"results.fingerprint_ms", "ms", "lower", 0},
	{"results.cache_get_ms", "ms", "lower", 0},
	{"results.cache_put_ms", "ms", "lower", 0},
	{"schedule.partition_ms", "ms", "lower", 0},
	{"schedule.partition_max_ms", "ms", "lower", 0},
	{"schedule.schedule_ms", "ms", "lower", 0},
	{"schedule.schedule_max_ms", "ms", "lower", 0},
	{"schedule.blocks", "count", "lower", 0},
	{"buffers.sizes_ms", "ms", "lower", 0},
	{"buffers.sizes_max_ms", "ms", "lower", 0},
	{"desim.simulate_ms", "ms", "lower", 0},
	{"desim.leap_share", "ratio", "higher", 0},
	{"desim.cycles", "count", "lower", 0},
	{"experiments.compile_ms", "ms", "lower", 0},
	{"experiments.local_cells_per_s", "1/s", "higher", 0},
	{"distrib.lease_p50_ms", "ms", "lower", 0},
	{"distrib.lease_p99_ms", "ms", "lower", 0},
	{"distrib.complete_p50_ms", "ms", "lower", 0},
	{"distrib.complete_p99_ms", "ms", "lower", 0},
	{"distrib.artifact_ms", "ms", "lower", 0},
	{"distrib.overhead_share", "ratio", "lower", 0},
	{"distrib.leases", "count", "lower", 0},
	{"distrib.requeues", "count", "lower", 0},
	{"distrib.duplicates", "count", "lower", 0},
	{"distrib.journal_bytes", "B", "lower", 0},
	{"runtime.alloc_mb_per_op", "MB", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"host.steal_share", "ratio", "lower", 0},
	{"trace.overhead_ms", "ms", "lower", 0},
}

// env is what a workload run is given: its seed, how long to measure,
// where to put files, and the tracer (nil in an untraced run). smoke,
// set only by TestSmoke, shrinks the inputs and the offered load.
type env struct {
	seed    int64
	window  time.Duration
	smoke   bool
	work    string
	workers int
	tr      *tracer
}

// outcome is one workload run's result before set-up time and peak RSS
// are added.
type outcome struct {
	attempted, failed int
	problems          []string
	e2e, layer        map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

// problem records a verification failure; the first few are kept for
// the report.
func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// instance is a workload after set-up, ready to measure.
type instance interface {
	run(ctx context.Context) (*outcome, error)
	close()
}

type workload struct {
	name  string
	why   string
	setup func(ctx context.Context, e *env) (instance, error)
}

var workloads = []workload{
	{"svc-small", "paper-size graphs with simulation in an open loop, one in four a repeat served from the report cache: per-request fixed costs, desim and the cache dominate", setupSvcSmall},
	{"svc-mixed", "two tenants: paper-size interactive graphs beside 10^4-node bulk graphs; decode, fingerprint and schedule at 10^4 and head-of-line blocking", setupSvcMixed},
	{"batch-xl", "graph files of 10^5 to 2*10^5 nodes through the batch path in a closed loop: only here do decode and schedule at scale block", setupBatchXL},
	{"sweep", "the paper's sweep plan through a crash-safe coordinator and one agent: lease and complete RPCs, the journal and merge, beside a local run", setupSweep},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// A run sets its workload up at least minSetupRounds times, and more, up
// to maxSetupRounds, until the set-ups have taken setupBudget: set-up
// time is their median, and the last set-up is the one measured.
const (
	minSetupRounds = 3
	maxSetupRounds = 20
	setupBudget    = time.Second
)

// runWorkload sets w up, measures the last set-up, and returns every
// metric but peak RSS, which the parent process reads.
func runWorkload(ctx context.Context, w workload, e *env) (*outcome, error) {
	var inst instance
	var setups []float64
	for spent := time.Duration(0); len(setups) < minSetupRounds || (spent < setupBudget && len(setups) < maxSetupRounds); {
		if inst != nil {
			inst.close()
		}
		m := now()
		var err error
		inst, err = w.setup(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		iv := m.to(now())
		spent += iv.wall
		setups = append(setups, iv.wallMs()/1e3)
	}
	defer inst.close()
	out, err := inst.run(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	out.e2e["setup_s"] = median(setups)
	for _, m := range []map[string]float64{out.e2e, out.layer} {
		for k, v := range m {
			if math.IsNaN(v) {
				m[k] = 0 // an empty sample: nothing of the kind happened
			}
		}
	}
	for _, d := range perLayer {
		if _, ok := out.layer[d.Name]; !ok {
			out.layer[d.Name] = 0
		}
	}
	for _, d := range endToEnd {
		if _, ok := out.e2e[d.Name]; !ok && d.Name != "peak_rss_mb" {
			return nil, fmt.Errorf("%s: reported no %s", w.name, d.Name)
		}
	}
	return out, nil
}

// usage is what a measured window cost the process.
type usage struct {
	allocMB float64
	gcShare float64
}

// measure runs f and reports the heap allocation and the GC share of CPU
// it took.
func measure(f func()) usage {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	gc0, tot0, alloc0 := samples[0].Value.Float64(), samples[1].Value.Float64(), float64(samples[2].Value.Uint64())
	f()
	metrics.Read(samples)
	return usage{
		allocMB: (float64(samples[2].Value.Uint64()) - alloc0) / 1e6,
		gcShare: ratio(samples[0].Value.Float64()-gc0, samples[1].Value.Float64()-tot0),
	}
}

// layers fills the runtime's per-layer metrics for ops operations.
func (u usage) layers(o *outcome, ops int) {
	o.layer["runtime.alloc_mb_per_op"] = ratio(u.allocMB, float64(ops))
	o.layer["runtime.gc_cpu_share"] = u.gcShare
}

// mark is one reading of the clocks a measurement takes: wall time, the
// process's CPU time, and the machine's CPU accounting.
type mark struct {
	at   time.Time
	cpu  time.Duration
	host hostCPU
}

func now() mark { return mark{time.Now(), cpuTime(), readHostCPU()} }

// interval is what passed between two marks. steal is the share of the
// CPU time the machine's CPUs wanted in it that the hypervisor withheld
// to run other guests.
type interval struct {
	wall, cpu time.Duration
	steal     float64
}

func (a mark) to(b mark) interval {
	return interval{
		wall:  b.at.Sub(a.at),
		cpu:   b.cpu - a.cpu,
		steal: ratio(b.host.stolen-a.host.stolen, b.host.stolen-a.host.stolen+b.host.busy-a.host.busy),
	}
}

// Every timing the benchmark reports end to end is steal-adjusted: scaled
// by 1 - steal, to the time it would have taken had the hypervisor never
// withheld the CPUs. On a shared virtual machine the withheld share of a
// run ranges from none to half, and it stretches wall and process CPU
// time alike (README.md, "Steal").

// wallMs is the interval's steal-adjusted wall time in milliseconds.
func (iv interval) wallMs() float64 { return ms(iv.wall) * (1 - iv.steal) }

// cpuMs is the interval's steal-adjusted process CPU time in milliseconds.
func (iv interval) cpuMs() float64 { return ms(iv.cpu) * (1 - iv.steal) }

// hostCPU is the kernel's account of the machine's CPU time, summed over
// its CPUs, in clock ticks: busy is time spent running anything, stolen
// time a CPU had work but the hypervisor ran another guest instead.
type hostCPU struct{ busy, stolen float64 }

// readHostCPU reads the first line of /proc/stat ("cpu user nice system
// idle iowait irq softirq steal ..."). Where it cannot be read, it
// returns zeros, and no time counts as stolen.
func readHostCPU() hostCPU {
	var h hostCPU
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return h
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return hostCPU{}
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			h.stolen = v
		default:
			h.busy += v
		}
	}
	return h
}

// sliceMarks reads the clocks in the background at the start of each of n
// slices of length d from start. The returned end waits for the last of
// those readings, reads the clocks once more, and returns the n+1 marks:
// slice k runs from marks[k] to marks[k+1], the last one up to the call.
func sliceMarks(start time.Time, d time.Duration, n int) (end func() []mark) {
	marks := make([]mark, 0, n+1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < n; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * d)))
			marks = append(marks, now())
		}
	}()
	return func() []mark {
		<-done
		return append(marks, now())
	}
}

// cpuTime is the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mkWork creates a fresh directory for a set-up's files under the run's
// work directory, which is inside the checkout.
func (e *env) mkWork(prefix string) (string, error) {
	return os.MkdirTemp(e.work, prefix)
}

func nproc() int { return runtime.NumCPU() }
