package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// manualClock is the injected test clock: Now never consults the wall,
// Sleep advances virtual time exactly. With LoadConfig.Sync the whole
// measured path is single-threaded on this clock, so a replay is
// bit-for-bit identical.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now = c.now.Add(d)
	}
}

// stubTarget is a deterministic system-under-test: it models a fixed
// per-request service time by advancing the injected clock, and rejects
// every rejectEvery-th submission to exercise the rejection path.
type stubTarget struct {
	clk         Clock
	seq         int
	rejectEvery int
}

func (t *stubTarget) Submit(ctx context.Context, tenant, workload string) (string, int, bool, error) {
	t.seq++
	if t.rejectEvery > 0 && t.seq%t.rejectEvery == 0 {
		return "", t.seq % 7, false, nil
	}
	return fmt.Sprintf("s%d", t.seq), t.seq % 5, true, nil
}

func (t *stubTarget) Await(ctx context.Context, id string) error {
	// Deterministic service time: 1ms + (seq mod 4) ms, advanced on the
	// injected clock — the only "time" the measured path ever sees.
	var n int
	fmt.Sscanf(id, "s%d", &n)
	t.clk.Sleep(time.Duration(1+n%4) * time.Millisecond)
	return nil
}

// TestLoadReplayDeterministic is the fixed-seed replay satellite: two runs
// of the same seed produce identical request traces and identical
// latency-histogram buckets — byte-identical reports, in fact — because
// no wall clock enters the measured path.
func TestLoadReplayDeterministic(t *testing.T) {
	run := func() *LoadReport {
		clk := &manualClock{now: time.Unix(0, 0)}
		rep, err := RunLoad(context.Background(), LoadConfig{
			Requests: 200,
			Rate:     500,
			Dist:     DistPoisson,
			Seed:     42,
			Sync:     true,
		}, &stubTarget{clk: clk, rejectEvery: 9}, clk)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("fixed-seed replay diverged:\n a: %s\n b: %s", ja, jb)
	}
	// And the run actually exercised every path.
	if a.Accepted == 0 || a.Rejected == 0 || a.Completed != a.Accepted {
		t.Errorf("replay run shape: %+v", a)
	}
	if len(a.Trace) != a.Requests || len(a.QueueDepth) != a.Requests {
		t.Errorf("trace %d, queue %d, want %d each", len(a.Trace), len(a.QueueDepth), a.Requests)
	}
	if a.Latency.P50Ms <= 0 || a.Latency.P99Ms < a.Latency.P50Ms || a.Latency.MaxMs < a.Latency.P99Ms {
		t.Errorf("latency summary not ordered: %+v", a.Latency)
	}
	total := 0
	for _, b := range a.Histogram {
		total += b.Count
	}
	if total != a.Completed {
		t.Errorf("histogram holds %d latencies, want %d", total, a.Completed)
	}
}

// TestArrivalsDeterministic: the arrival schedule is a pure function of
// its arguments, monotone, and distribution-shaped.
func TestArrivalsDeterministic(t *testing.T) {
	a, err := Arrivals(DistPoisson, 100, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Arrivals(DistPoisson, 100, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Arrivals(DistPoisson, 100, 1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical Poisson arrivals")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrivals not monotone at %d", i)
		}
	}
	// Poisson arrivals at rate 100/s: the 1000th arrival lands near 10s
	// (law of large numbers; 3 sigma of the mean is ~1s).
	if got := a[len(a)-1].Seconds(); math.Abs(got-10) > 1.5 {
		t.Errorf("1000 Poisson arrivals at 100/s span %.2fs, want ~10s", got)
	}
}

func TestArrivalsUniform(t *testing.T) {
	a, err := Arrivals(DistUniform, 200, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond, 20 * time.Millisecond} {
		if a[i] != want {
			t.Errorf("uniform arrival %d: %v, want %v", i, a[i], want)
		}
	}
}

func TestArrivalsBadInputs(t *testing.T) {
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Arrivals(DistPoisson, rate, 10, 1); err == nil {
			t.Errorf("rate %g accepted", rate)
		}
	}
	if _, err := Arrivals("normal", 10, 10, 1); err == nil {
		t.Error("unknown distribution accepted")
	}
	if _, err := Arrivals(DistUniform, 10, -1, 1); err == nil {
		t.Error("negative request count accepted")
	}
}

// TestHistogramBuckets pins the bucketing rule: latencies land in the
// first bucket whose bound is >= the value, and overflow clamps into the
// last bucket.
func TestHistogramBuckets(t *testing.T) {
	h := latencyHistogram([]time.Duration{
		100 * time.Microsecond, // 0.1ms -> bucket 0 (0.25ms)
		250 * time.Microsecond, // exactly 0.25ms -> bucket 0
		300 * time.Microsecond, // -> bucket 1 (0.5ms)
		time.Millisecond,       // exactly 1ms -> bucket 2
		90 * time.Second,       // beyond every bound -> last bucket
	})
	if h[0].Count != 2 || h[1].Count != 1 || h[2].Count != 1 {
		t.Errorf("low buckets: %+v", h[:4])
	}
	if h[len(h)-1].Count != 1 {
		t.Errorf("overflow not clamped into last bucket: %+v", h[len(h)-1])
	}
	if h[0].UpToMs != 0.25 {
		t.Errorf("first bound %v", h[0].UpToMs)
	}
}

func TestSummarizeLatency(t *testing.T) {
	if s := summarizeLatency(nil); s != (LatencySummary{}) {
		t.Errorf("empty summary %+v", s)
	}
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	s := summarizeLatency(lat)
	if s.P50Ms != 50 || s.P95Ms != 95 || s.P99Ms != 99 || s.MaxMs != 100 {
		t.Errorf("percentiles %+v", s)
	}
}

// mixTarget is a deterministic multi-tenant system-under-test: per-tenant
// fixed service times, a recorded (tenant, workload) stream, and a shed
// for every shedEvery-th submission of the tenant named shedTenant.
type mixTarget struct {
	clk       Clock
	latency   map[string]time.Duration
	shedNth   int // shed the Nth submission (1-based) of shedTenant
	shedSeq   int
	seq       int
	submitted []string // "tenant|workload" per call, in order
	tenantOf  map[string]string
	shedIDs   map[string]bool

	shedTenant string
}

func (t *mixTarget) Submit(ctx context.Context, tenant, workload string) (string, int, bool, error) {
	t.seq++
	id := fmt.Sprintf("m%d", t.seq)
	t.submitted = append(t.submitted, tenant+"|"+workload)
	if t.tenantOf == nil {
		t.tenantOf = map[string]string{}
		t.shedIDs = map[string]bool{}
	}
	t.tenantOf[id] = tenant
	if tenant == t.shedTenant {
		t.shedSeq++
		if t.shedSeq == t.shedNth {
			t.shedIDs[id] = true
		}
	}
	return id, t.seq % 3, true, nil
}

func (t *mixTarget) Await(ctx context.Context, id string) error {
	if t.shedIDs[id] {
		return ErrShed
	}
	t.clk.Sleep(t.latency[t.tenantOf[id]])
	return nil
}

// TestLoadTenantMixReport: a tenant mix splits the request stream in
// exact share proportion, routes per-tenant workload overrides to the
// target, scores each tenant's completed requests against its own SLO
// bound, and books sheds per tenant — and the mixed run replays
// byte-identically on a fixed seed.
func TestLoadTenantMixReport(t *testing.T) {
	mix := []TenantShare{
		{Name: "interactive", Share: 3, SLOMs: 2},
		{Name: "batch", Share: 1, SLOMs: 1, Workload: "synth:cholesky"},
	}
	run := func() (*LoadReport, *mixTarget) {
		clk := &manualClock{now: time.Unix(0, 0)}
		tgt := &mixTarget{
			clk: clk,
			latency: map[string]time.Duration{
				"interactive": time.Millisecond,     // within its 2ms SLO
				"batch":       3 * time.Millisecond, // over its 1ms SLO
			},
			shedTenant: "batch",
			shedNth:    2,
		}
		rep, err := RunLoad(context.Background(), LoadConfig{
			Requests: 40,
			Rate:     1000,
			Dist:     DistUniform,
			Seed:     5,
			Sync:     true,
			Tenants:  mix,
		}, tgt, clk)
		if err != nil {
			t.Fatal(err)
		}
		return rep, tgt
	}
	rep, tgt := run()

	if len(rep.Tenants) != 2 {
		t.Fatalf("tenant rows: %+v", rep.Tenants)
	}
	inter, batch := rep.Tenants[0], rep.Tenants[1]
	// Shares 3:1 over 40 requests split exactly 30:10.
	if inter.Requests != 30 || batch.Requests != 10 {
		t.Errorf("request split %d:%d, want 30:10", inter.Requests, batch.Requests)
	}
	// Workload overrides reach the target verbatim; the majority tenant
	// submits the base request (empty override).
	interSubs, batchSubs := 0, 0
	for _, s := range tgt.submitted {
		switch s {
		case "interactive|":
			interSubs++
		case "batch|synth:cholesky":
			batchSubs++
		default:
			t.Fatalf("unexpected submission %q", s)
		}
	}
	if interSubs != 30 || batchSubs != 10 {
		t.Errorf("submitted split %d:%d, want 30:10", interSubs, batchSubs)
	}
	// SLO scoring is per tenant bound: interactive (1ms <= 2ms) clean,
	// batch (3ms > 1ms) misses on every completed request.
	if inter.SLOMisses != 0 || inter.Completed != 30 {
		t.Errorf("interactive: %+v", inter)
	}
	if batch.Shed != 1 || batch.Completed != 9 || batch.SLOMisses != 9 {
		t.Errorf("batch: %+v", batch)
	}
	if rep.Shed != 1 || rep.Completed != 39 || rep.Dropped() != 0 {
		t.Errorf("global: shed %d completed %d dropped %d", rep.Shed, rep.Completed, rep.Dropped())
	}
	if inter.Latency.P50Ms != 1 || batch.Latency.P50Ms != 3 {
		t.Errorf("per-tenant latency: %+v / %+v", inter.Latency, batch.Latency)
	}

	// Fixed-seed mixed replay is byte-identical.
	rep2, _ := run()
	ja, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(rep2)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatal("mixed fixed-seed replay diverged")
	}
}

// TestRunLoadRejectsBadMix: malformed tenant mixes fail up front, before
// any load is offered.
func TestRunLoadRejectsBadMix(t *testing.T) {
	clk := &manualClock{now: time.Unix(0, 0)}
	for _, mix := range [][]TenantShare{
		{{Name: " ", Share: 1}},
		{{Name: "a", Share: 0}},
		{{Name: "a", Share: -2}},
		{{Name: "a", Share: math.Inf(1)}},
	} {
		_, err := RunLoad(context.Background(), LoadConfig{
			Requests: 1, Rate: 100, Dist: DistUniform, Sync: true, Tenants: mix,
		}, &stubTarget{clk: clk}, clk)
		if err == nil {
			t.Errorf("mix %+v accepted", mix)
		}
	}
}

// TestLoadAgainstLiveService is the integration smoke: a real (local)
// service under a short open-loop run at a sustainable rate completes
// every accepted job with zero drops.
func TestLoadAgainstLiveService(t *testing.T) {
	s := New(Options{QueueCap: 64, Workers: 4})
	s.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := RunLoad(ctx, LoadConfig{
		Requests: 60,
		Rate:     300,
		Dist:     DistPoisson,
		Seed:     1,
		Timeout:  30 * time.Second,
	}, &LocalTarget{Service: s, Req: SubmitRequest{Workload: "synth:fft", Seed: 1, PEs: 8}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors > 0 {
		t.Errorf("%d errors", rep.Errors)
	}
	if rep.Dropped() != 0 {
		t.Errorf("%d accepted jobs dropped", rep.Dropped())
	}
	if rep.Completed == 0 || rep.Latency.P50Ms <= 0 || rep.ThroughputPerSec <= 0 {
		t.Errorf("degenerate report: %+v", rep)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestParseTenantMix(t *testing.T) {
	mix, err := ParseTenantMix(" interactive=3@50, batch=1/synth:cholesky ,bg=0.5@10/onnx:mlp")
	if err != nil {
		t.Fatal(err)
	}
	want := []TenantShare{
		{Name: "interactive", Share: 3, SLOMs: 50},
		{Name: "batch", Share: 1, Workload: "synth:cholesky"},
		{Name: "bg", Share: 0.5, SLOMs: 10, Workload: "onnx:mlp"},
	}
	if len(mix) != len(want) {
		t.Fatalf("parsed %d entries, want %d: %+v", len(mix), len(want), mix)
	}
	for i := range want {
		if mix[i] != want[i] {
			t.Errorf("entry %d: %+v, want %+v", i, mix[i], want[i])
		}
	}

	if mix, err := ParseTenantMix(""); err != nil || mix != nil {
		t.Errorf("empty mix: %+v, %v", mix, err)
	}

	for _, bad := range []string{
		"noshare",  // not name=share
		"=3",       // empty name
		"a=3,a=1",  // duplicate tenant
		"a=0",      // zero share
		"a=-1",     // negative share
		"a=x",      // non-numeric share
		"a=1@0",    // non-positive slo
		"a=1@x",    // non-numeric slo
		"a=1/",     // empty workload override
		"a=1,,b=2", // empty entry
	} {
		if _, err := ParseTenantMix(bad); err == nil {
			t.Errorf("mix %q accepted", bad)
		}
	}
}
