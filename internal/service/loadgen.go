package service

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the open-loop load generator for the scheduling service:
// a fixed-seed arrival process (Poisson or uniform) drives submissions at
// a configured rate regardless of how fast the service answers — the
// defining property of an open-loop test: a slow service accumulates
// backlog instead of slowing the offered load — and the generator reports
// scheduling latency percentiles, throughput, the admission-rejection
// rate, and a queue-depth series as a versioned JSON artifact
// (LoadSchema), committed alongside the BENCH_<N>.json family.
//
// Determinism: the arrival trace is a pure function of (dist, rate, n,
// seed), and every time measurement goes through an injected Clock, so a
// replay against a deterministic target — the fixed-latency stub in the
// tests — produces byte-identical reports. Against a live service the
// latencies are real wall-clock measurements; the trace is still the
// same requests at the same offsets.

// LoadSchema versions the load-test artifact format. v2 added the shed
// counter and the per-tenant summary table (tenant mixes).
const LoadSchema = "streamsched-load/v2"

// Arrival distributions.
const (
	DistPoisson = "poisson"
	DistUniform = "uniform"
)

// Clock abstracts time for the load generator's measured path. Tests
// inject a manual clock so replayed runs measure identical latencies;
// real runs use WallClock.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// WallClock returns the real-time clock.
func WallClock() Clock { return wallClock{} }

// Arrivals generates the deterministic arrival schedule: n offsets from
// the run's start, strictly non-decreasing. DistUniform spaces arrivals
// exactly 1/rate apart; DistPoisson draws exponential inter-arrival gaps
// with mean 1/rate from a fixed-seed source.
func Arrivals(dist string, rate float64, n int, seed int64) ([]time.Duration, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("loadgen: rate must be positive, got %g", rate)
	}
	if n < 0 {
		return nil, fmt.Errorf("loadgen: negative request count %d", n)
	}
	gap := float64(time.Second) / rate
	out := make([]time.Duration, n)
	switch dist {
	case DistUniform:
		for i := range out {
			out[i] = time.Duration(float64(i) * gap)
		}
	case DistPoisson:
		rng := rand.New(rand.NewSource(seed))
		at := 0.0
		for i := range out {
			at += rng.ExpFloat64() * gap
			out[i] = time.Duration(at)
		}
	default:
		return nil, fmt.Errorf("loadgen: unknown distribution %q (want %s or %s)", dist, DistPoisson, DistUniform)
	}
	return out, nil
}

// Target is the system under test: one Submit per arrival, and for
// accepted submissions one Await until the result is ready. HTTPTarget
// and LocalTarget (client.go) drive a real service; tests use stubs.
type Target interface {
	// Submit issues one request as tenant (empty means the target's base
	// request) for workload (empty means the base workload/graph). ok
	// reports admission; a rejection is not an error. depth is the
	// service queue depth the response carried.
	Submit(ctx context.Context, tenant, workload string) (id string, depth int, ok bool, err error)
	// Await blocks until the accepted job resolves: nil once done,
	// ErrShed if the service's load-shed policy evicted it.
	Await(ctx context.Context, id string) error
}

// TenantShare is one tenant's slice of a load-test mix.
type TenantShare struct {
	// Name is the tenant submitted as; Share is its fraction of the
	// request stream (shares are normalized over the mix).
	Name  string  `json:"name"`
	Share float64 `json:"share"`
	// SLOMs, when positive, is the latency bound this tenant's completed
	// requests are scored against in the per-tenant report.
	SLOMs float64 `json:"slo_ms,omitempty"`
	// Workload, when set, overrides the base request's workload for this
	// tenant's submissions (how a mix models one tenant submitting
	// larger graphs than another).
	Workload string `json:"workload,omitempty"`
}

// ParseTenantMix parses the -tenant-mix flag: comma-separated
// name=share[@slo_ms][/workload] entries, e.g.
//
//	interactive=3@50,batch=1/synth:cholesky
//
// Shares are relative weights (normalized over the mix); @slo_ms scores
// the tenant's completed requests against a latency bound in the load
// report; /workload overrides the base workload for that tenant's
// submissions. "" means no mix.
func ParseTenantMix(s string) ([]TenantShare, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var mix []TenantShare
	seen := make(map[string]bool)
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("tenant mix: empty entry")
		}
		name, val, ok := strings.Cut(entry, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("tenant mix: entry %q is not name=share[@slo_ms][/workload]", entry)
		}
		if seen[name] {
			return nil, fmt.Errorf("tenant mix: tenant %q listed twice", name)
		}
		seen[name] = true
		ts := TenantShare{Name: name}
		if val, ts.Workload, ok = strings.Cut(val, "/"); ok && ts.Workload == "" {
			return nil, fmt.Errorf("tenant mix: tenant %q has an empty workload override", name)
		}
		shareStr, sloStr, hasSLO := strings.Cut(val, "@")
		share, err := strconv.ParseFloat(strings.TrimSpace(shareStr), 64)
		if err != nil || share <= 0 {
			return nil, fmt.Errorf("tenant mix: tenant %q: share %q must be a positive number", name, shareStr)
		}
		ts.Share = share
		if hasSLO {
			slo, err := strconv.ParseFloat(strings.TrimSpace(sloStr), 64)
			if err != nil || slo <= 0 {
				return nil, fmt.Errorf("tenant mix: tenant %q: slo_ms %q must be a positive number", name, sloStr)
			}
			ts.SLOMs = slo
		}
		mix = append(mix, ts)
	}
	return mix, nil
}

// AssignTenants maps each of n request indices to a tenant of the mix,
// deterministically and in exact proportion to the shares: request i
// goes to the tenant minimizing (assigned+1)/share — the same virtual-
// finish-time rule as the service's fair queue, with mix order breaking
// ties. An empty mix assigns every request to the base tenant (-1).
func AssignTenants(mix []TenantShare, n int) []int {
	out := make([]int, n)
	if len(mix) == 0 {
		for i := range out {
			out[i] = -1
		}
		return out
	}
	counts := make([]float64, len(mix))
	for i := range out {
		best := -1
		bestFin := math.Inf(1)
		for t, ts := range mix {
			if ts.Share <= 0 {
				continue
			}
			if fin := (counts[t] + 1) / ts.Share; fin < bestFin {
				best, bestFin = t, fin
			}
		}
		if best < 0 {
			best = 0
		}
		counts[best]++
		out[i] = best
	}
	return out
}

// LoadConfig parameterizes one load-test run.
type LoadConfig struct {
	// Requests is the number of submissions to issue.
	Requests int
	// Rate is the mean arrival rate, requests per second.
	Rate float64
	// Dist is the arrival process, DistPoisson (default) or DistUniform.
	Dist string
	// Seed fixes the arrival trace (and nothing else).
	Seed int64
	// Timeout bounds each request's submit+await; 0 means no bound beyond
	// the run context.
	Timeout time.Duration
	// Sync issues each request inline instead of in its own goroutine:
	// closed-loop, single-threaded, fully deterministic with a manual
	// clock. Replay tests use it; real load tests must leave it false
	// (open-loop).
	Sync bool
	// Tenants is the multi-tenant mix (-tenant-mix); empty means every
	// request is the base request's tenant. Assignment is AssignTenants,
	// a pure function of (mix, Requests).
	Tenants []TenantShare
}

// sample is one request's measured outcome, indexed by arrival.
type sample struct {
	at        time.Duration
	tenant    int // mix index, -1 for the base tenant
	depth     int
	accepted  bool
	completed bool
	shed      bool
	errored   bool
	latency   time.Duration
}

// TraceEvent is one request in the report's trace.
type TraceEvent struct {
	Request int `json:"request"`
	// Tenant is the mix tenant the request was submitted as (absent
	// without a mix).
	Tenant string `json:"tenant,omitempty"`
	// AtMs is the planned arrival offset from the run start.
	AtMs     float64 `json:"at_ms"`
	Accepted bool    `json:"accepted"`
	// Shed marks accepted requests the service evicted under load.
	Shed bool `json:"shed,omitempty"`
	// LatencyMs is submit-to-result scheduling latency for completed
	// requests.
	LatencyMs float64 `json:"latency_ms,omitempty"`
	Error     bool    `json:"error,omitempty"`
}

// QueueSample pairs a request index with the service queue depth its
// submit response observed.
type QueueSample struct {
	Request int `json:"request"`
	Depth   int `json:"depth"`
}

// HistBucket is one latency-histogram bucket: latencies <= UpToMs (and
// greater than the previous bucket's bound).
type HistBucket struct {
	UpToMs float64 `json:"up_to_ms"`
	Count  int     `json:"count"`
}

// LatencySummary is the latency percentile row of a report.
type LatencySummary struct {
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// TenantLoadSummary is one tenant's row of a mixed load report.
type TenantLoadSummary struct {
	Name     string  `json:"name"`
	Share    float64 `json:"share"`
	Workload string  `json:"workload,omitempty"`
	// SLOTargetMs is the mix's latency bound for this tenant; SLOMisses
	// counts completed requests over it (0 target disables scoring).
	SLOTargetMs float64 `json:"slo_target_ms,omitempty"`
	SLOMisses   int     `json:"slo_misses"`

	Requests  int `json:"requests"`
	Accepted  int `json:"accepted"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`
	Shed      int `json:"shed"`
	Errors    int `json:"errors"`

	Latency LatencySummary `json:"latency"`
}

// LoadReport is the JSON artifact of one load-test run.
type LoadReport struct {
	Schema     string  `json:"schema"`
	Dist       string  `json:"dist"`
	RatePerSec float64 `json:"rate_per_sec"`
	Seed       int64   `json:"seed"`

	Requests  int `json:"requests"`
	Accepted  int `json:"accepted"`
	Rejected  int `json:"rejected"`
	Completed int `json:"completed"`
	// Shed counts accepted requests the service's load-shed policy
	// evicted — resolved, but never evaluated.
	Shed   int `json:"shed"`
	Errors int `json:"errors"`

	ElapsedMs float64 `json:"elapsed_ms"`
	// ThroughputPerSec is completed requests per second of elapsed time.
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	// RejectionRate is rejected / requests.
	RejectionRate float64 `json:"rejection_rate"`

	Latency    LatencySummary `json:"latency"`
	Histogram  []HistBucket   `json:"histogram"`
	QueueDepth []QueueSample  `json:"queue_depth"`
	// Tenants is the per-tenant breakdown of a mixed run, in mix order.
	Tenants []TenantLoadSummary `json:"tenants,omitempty"`
	Trace   []TraceEvent        `json:"trace,omitempty"`
}

// Dropped reports accepted jobs that never resolved — the zero-drop
// acceptance condition of a sustainable-rate run. Shed jobs resolved
// (deliberately, by policy), so they are not drops.
func (r *LoadReport) Dropped() int { return r.Accepted - r.Completed - r.Shed }

// RunLoad drives one open-loop load test: sleep to each arrival offset,
// submit, and (for accepted jobs) await the result, measuring
// submit-to-result latency on the injected clock. The per-request records
// are stored by arrival index, so the report is independent of goroutine
// interleaving wherever the measured values are.
func RunLoad(ctx context.Context, cfg LoadConfig, t Target, clk Clock) (*LoadReport, error) {
	if cfg.Dist == "" {
		cfg.Dist = DistPoisson
	}
	if clk == nil {
		clk = WallClock()
	}
	arrivals, err := Arrivals(cfg.Dist, cfg.Rate, cfg.Requests, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for i, ts := range cfg.Tenants {
		if strings.TrimSpace(ts.Name) == "" {
			return nil, fmt.Errorf("loadgen: tenant mix entry %d has no name", i)
		}
		if ts.Share <= 0 || math.IsNaN(ts.Share) || math.IsInf(ts.Share, 0) {
			return nil, fmt.Errorf("loadgen: tenant %q: share must be positive, got %g", ts.Name, ts.Share)
		}
	}
	assign := AssignTenants(cfg.Tenants, len(arrivals))
	start := clk.Now()
	samples := make([]sample, len(arrivals))
	var wg sync.WaitGroup
	for i, at := range arrivals {
		if d := at - clk.Now().Sub(start); d > 0 {
			clk.Sleep(d)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		issue := func(i int, at time.Duration) {
			rctx := ctx
			if cfg.Timeout > 0 {
				var cancel context.CancelFunc
				rctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
				defer cancel()
			}
			sm := &samples[i]
			sm.at = at
			sm.tenant = assign[i]
			tenant, workload := "", ""
			if sm.tenant >= 0 {
				tenant = cfg.Tenants[sm.tenant].Name
				workload = cfg.Tenants[sm.tenant].Workload
			}
			issued := clk.Now()
			id, depth, ok, err := t.Submit(rctx, tenant, workload)
			sm.depth = depth
			if err != nil {
				sm.errored = true
				return
			}
			if !ok {
				return
			}
			sm.accepted = true
			switch err := t.Await(rctx, id); {
			case err == ErrShed:
				sm.shed = true
				return
			case err != nil:
				sm.errored = true
				return
			}
			sm.latency = clk.Now().Sub(issued)
			sm.completed = true
		}
		if cfg.Sync {
			issue(i, at)
		} else {
			wg.Add(1)
			go func(i int, at time.Duration) {
				defer wg.Done()
				issue(i, at)
			}(i, at)
		}
	}
	wg.Wait()
	elapsed := clk.Now().Sub(start)
	return buildLoadReport(cfg, samples, elapsed), nil
}

func buildLoadReport(cfg LoadConfig, samples []sample, elapsed time.Duration) *LoadReport {
	rep := &LoadReport{
		Schema:     LoadSchema,
		Dist:       cfg.Dist,
		RatePerSec: cfg.Rate,
		Seed:       cfg.Seed,
		Requests:   len(samples),
		ElapsedMs:  ms(elapsed),
	}
	perTenant := make([]TenantLoadSummary, len(cfg.Tenants))
	tenantLats := make([][]time.Duration, len(cfg.Tenants))
	for t, ts := range cfg.Tenants {
		perTenant[t] = TenantLoadSummary{
			Name: ts.Name, Share: ts.Share, Workload: ts.Workload, SLOTargetMs: ts.SLOMs,
		}
	}
	var latencies []time.Duration
	for i := range samples {
		sm := &samples[i]
		ev := TraceEvent{Request: i, AtMs: ms(sm.at), Accepted: sm.accepted, Shed: sm.shed, Error: sm.errored}
		var ten *TenantLoadSummary
		if sm.tenant >= 0 && sm.tenant < len(perTenant) {
			ten = &perTenant[sm.tenant]
			ten.Requests++
			ev.Tenant = ten.Name
		}
		switch {
		case sm.errored:
			rep.Errors++
			if ten != nil {
				ten.Errors++
			}
			if sm.accepted {
				rep.Accepted++
				if ten != nil {
					ten.Accepted++
				}
			}
		case sm.accepted:
			rep.Accepted++
			if ten != nil {
				ten.Accepted++
			}
			switch {
			case sm.shed:
				rep.Shed++
				if ten != nil {
					ten.Shed++
				}
			case sm.completed:
				rep.Completed++
				latencies = append(latencies, sm.latency)
				ev.LatencyMs = ms(sm.latency)
				if ten != nil {
					ten.Completed++
					tenantLats[sm.tenant] = append(tenantLats[sm.tenant], sm.latency)
					if ten.SLOTargetMs > 0 && ms(sm.latency) > ten.SLOTargetMs {
						ten.SLOMisses++
					}
				}
			}
		default:
			rep.Rejected++
			if ten != nil {
				ten.Rejected++
			}
		}
		rep.Trace = append(rep.Trace, ev)
		rep.QueueDepth = append(rep.QueueDepth, QueueSample{Request: i, Depth: sm.depth})
	}
	if rep.Requests > 0 {
		rep.RejectionRate = float64(rep.Rejected) / float64(rep.Requests)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.ThroughputPerSec = float64(rep.Completed) / secs
	}
	rep.Latency = summarizeLatency(latencies)
	rep.Histogram = latencyHistogram(latencies)
	for t := range perTenant {
		perTenant[t].Latency = summarizeLatency(tenantLats[t])
	}
	rep.Tenants = perTenant
	return rep
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// summarizeLatency computes nearest-rank percentiles over the completed
// latencies; all zeros when nothing completed.
func summarizeLatency(lat []time.Duration) LatencySummary {
	if len(lat) == 0 {
		return LatencySummary{}
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := func(q float64) time.Duration {
		i := int(math.Ceil(q*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	return LatencySummary{
		P50Ms: ms(rank(0.50)),
		P95Ms: ms(rank(0.95)),
		P99Ms: ms(rank(0.99)),
		MaxMs: ms(sorted[len(sorted)-1]),
	}
}

// histBounds are the fixed log-spaced histogram bucket bounds in
// milliseconds, 0.25 ms to ~65 s. Fixed bounds keep two reports'
// histograms directly comparable; latencies above the last bound clamp
// into it (a scheduling latency over a minute is a drop in all but name).
var histBounds = func() []float64 {
	var b []float64
	for v := 0.25; v <= 65536; v *= 2 {
		b = append(b, v)
	}
	return b
}()

// latencyHistogram buckets the completed latencies into the fixed
// log-spaced bounds. Every bucket is present, counts included, so the
// shape is identical across runs and diffs line up.
func latencyHistogram(lat []time.Duration) []HistBucket {
	buckets := make([]HistBucket, len(histBounds))
	for i, b := range histBounds {
		buckets[i].UpToMs = b
	}
	for _, l := range lat {
		v := ms(l)
		// SearchFloat64s finds the first bound >= v, which is the bucket
		// "latencies <= UpToMs"; anything beyond clamps into the last.
		i := sort.SearchFloat64s(histBounds, v)
		if i == len(buckets) {
			i--
		}
		buckets[i].Count++
	}
	return buckets
}
