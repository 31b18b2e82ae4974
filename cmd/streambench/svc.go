package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/results"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/synth"
)

// Offered loads in requests per second, as shares of the capacities
// -calibrate measured on the commit that introduced the benchmark
// (README.md, "Calibration"). They are pinned, not recomputed per run, so
// a faster or a slower commit faces the same traffic. Higher loads let
// the machine's own speed swings through as queueing, which no steal
// adjustment undoes: at 340 req/s svc-small's median moved by up to 2.5x
// between runs.
const (
	smallRate = 170.0 // svc-small: ~17% of its capacity

	mixedInteractiveRate = 60.0 // svc-mixed `interactive`: ~5% of its capacity
	mixedBulkRate        = 2.0  // svc-mixed `bulk`: ~13%
)

const (
	// sloMs is the interactive tenant's latency target in svc-mixed.
	sloMs = 50.0
	// sliceDur is the unit the service workloads take their statistics
	// over: each metric is the median over one-second slices, so a burst
	// of noise from the machine spoils a few slices, not the metric.
	sliceDur = time.Second
	// minSlice is the fewest samples a slice needs to count.
	minSlice = 20
	// replayCap bounds how many distinct inputs a traced service run
	// replays solo, in order of first arrival.
	replayCap = 200
	// pollWait is the long-poll window of one result request.
	pollWait = 10 * time.Second
)

var (
	errRefused = errors.New("submission refused (429)")
	errShed    = errors.New("job shed by the service")

	variantNames = [2]string{"lts", "rlx"}
	variants     = [2]schedule.Variant{schedule.SBLTS, schedule.SBRLX}
)

// poolGraph is one generated input graph, its core JSON, and the PE
// counts submissions of it draw from.
type poolGraph struct {
	tg   *core.TaskGraph
	data []byte
	pes  []int
}

func newPoolGraph(tg *core.TaskGraph, pes []int) (poolGraph, error) {
	var buf bytes.Buffer
	if err := tg.EncodeJSON(&buf); err != nil {
		return poolGraph{}, err
	}
	return poolGraph{tg: tg, data: buf.Bytes(), pes: pes}, nil
}

// paperGraphs builds n graphs of the four synthetic families at the
// paper's sizes (Chain 8, FFT 32, Gaussian 16, Cholesky 8) with volumes
// drawn under cfg, cycling through the families; each draws its PE
// counts from its family's Figure 10 sweep.
func paperGraphs(rng *rand.Rand, n int, cfg synth.Config) ([]poolGraph, error) {
	topos := experiments.Topologies()
	out := make([]poolGraph, n)
	for i := range out {
		t := topos[i%len(topos)]
		g, err := newPoolGraph(t.Build(rng, cfg), t.PEs)
		if err != nil {
			return nil, err
		}
		out[i] = g
	}
	return out, nil
}

// ident is one submission identity — graph, PE count and variant — which
// the service must serve identically however often it is submitted.
type ident struct{ graph, pes, variant int }

func (id ident) String() string {
	return fmt.Sprintf("g%d/P%d/%s", id.graph, id.pes, variantNames[id.variant])
}

// idents lists every identity of pool[from:to] in shuffled order.
func idents(rng *rand.Rand, pool []poolGraph, from, to int) []ident {
	var out []ident
	for g := from; g < to; g++ {
		for _, p := range pool[g].pes {
			for v := range variants {
				out = append(out, ident{g, p, v})
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// svcClass is one kind of request in a service workload.
type svcClass struct {
	name     string
	tenant   string
	rate     float64 // requests per second
	simulate bool
	// even spaces the class's arrivals evenly over the window instead of
	// drawing them as a Poisson process.
	even bool
}

type arrival struct {
	due   time.Duration
	class int
	id    ident
}

// drawArrivals draws every class's arrivals over slices one-second
// slices, in due order: a Poisson class conditioned on rate arrivals in
// each slice, an even class evenly spaced.
func drawArrivals(rng *rand.Rand, classes []svcClass, slices int) []arrival {
	var arr []arrival
	for ci, c := range classes {
		if c.even {
			for _, d := range evenDues(rng, c.rate, time.Duration(slices)*sliceDur) {
				arr = append(arr, arrival{due: d, class: ci})
			}
			continue
		}
		for k := 0; k < slices; k++ {
			for _, d := range poissonDues(rng, c.rate, sliceDur) {
				arr = append(arr, arrival{due: time.Duration(k)*sliceDur + d, class: ci})
			}
		}
	}
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].due < arr[j].due })
	return arr
}

// smokeLoad scales offered loads down in TestSmoke's runs, so that they
// also keep up under the race detector.
func smokeLoad(e *env, rate float64) float64 {
	if e.smoke {
		return rate / 4
	}
	return rate
}

// slicesOf is how many whole slices cover the window, at least one.
func slicesOf(window time.Duration) int {
	return max(1, int(math.Ceil(float64(window)/float64(sliceDur))))
}

// reqResult is what one request saw.
type reqResult struct {
	root     int64 // its root span in a traced run
	depth    int   // queue depth at admission
	accepted bool
	report   *service.ScheduleReport
}

// svcBench drives a service instance through an in-memory transport with
// one open loop of arrivals. head names the class whose latency is the
// headline (p50_ms, p75_ms), alt the class behind alt_p50_ms.
type svcBench struct {
	e         *env
	graphs    []poolGraph
	warm      []ident
	classes   []svcClass
	arr       []arrival
	slices    int
	svc       *service.Service
	client    *service.Client
	head, alt int
	dir       string
}

// start launches the service and warms it with the warm-up identities,
// submitted as the first class; their results are discarded.
func (b *svcBench) start(ctx context.Context) error {
	b.svc.Start()
	b.client = &service.Client{Base: "http://service", HTTP: &http.Client{Transport: inmem{h: b.svc.Handler()}}}
	var wg sync.WaitGroup
	errs := make([]error, b.e.workers)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(b.warm); i += b.e.workers {
				var r reqResult
				if err := b.request(ctx, arrival{id: b.warm[i]}, &r, nil); err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

func (b *svcBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	b.svc.Close(ctx) //nolint:errcheck // a drain cut short leaves nothing to report
	os.RemoveAll(b.dir)
}

// request submits one arrival and long-polls its result.
func (b *svcBench) request(ctx context.Context, a arrival, r *reqResult, tr *tracer) error {
	cl := b.client
	c := b.classes[a.class]
	r.root = tr.newID()
	ctx = withSpan(ctx, tr, r.root, r.root)
	resp, depth, ok, err := cl.Submit(ctx, service.SubmitRequest{
		Tenant:   c.tenant,
		Graph:    b.graphs[a.id.graph].data,
		PEs:      a.id.pes,
		Variant:  variantNames[a.id.variant],
		Simulate: c.simulate,
	})
	if err != nil {
		return err
	}
	r.depth = depth
	if !ok {
		return errRefused
	}
	r.accepted = true
	for {
		st, err := cl.Result(ctx, resp.ID, pollWait)
		if err != nil {
			return err
		}
		switch st.State {
		case service.StateDone:
			if st.Schedule == nil {
				return fmt.Errorf("job %s done without a schedule", resp.ID)
			}
			r.report = st.Schedule
			return nil
		case service.StateShed:
			return errShed
		case service.StateFailed:
			return fmt.Errorf("job %s failed: %s", resp.ID, st.Error)
		}
	}
}

func (b *svcBench) run(ctx context.Context) (*outcome, error) {
	tr := b.e.tr
	before := b.svc.Status()
	res := make([]reqResult, len(b.arr))
	dues := make([]time.Duration, len(b.arr))
	for i, a := range b.arr {
		dues[i] = a.due
	}
	var samples []sample
	var marks []mark
	start := time.Now().Add(time.Millisecond)
	u := measure(func() {
		end := sliceMarks(start, sliceDur, b.slices)
		samples = openLoop(ctx, wallClock{}, start, dues, func(ctx context.Context, i int) error {
			return b.request(ctx, b.arr[i], &res[i], tr)
		})
		marks = end()
	})
	after := b.svc.Status()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	o := newOutcome()
	wrong := b.verify(o, res, samples)

	lat := make([][][]float64, len(b.classes)) // class, slice, latency
	for c := range lat {
		lat[c] = make([][]float64, b.slices)
	}
	completed := 0
	var lags, depths []float64
	for i, s := range samples {
		a, r := b.arr[i], res[i]
		c := b.classes[a.class]
		k := min(int(s.Due.Sub(start)/sliceDur), b.slices-1)
		o.attempted++
		lags = append(lags, ms(s.lag()))
		if r.accepted {
			depths = append(depths, float64(r.depth))
		}
		tr.add(span{ID: r.root, Name: "request", Cat: c.name, Start: s.Due, End: s.Done})
		if s.Err != nil || wrong[i] {
			lat[a.class][k] = append(lat[a.class][k], math.Inf(1))
			o.failed++
			if s.Err != nil {
				o.problem("%s request %d: %v", c.name, i, s.Err)
			}
			continue
		}
		completed++
		lat[a.class][k] = append(lat[a.class][k], ms(s.latency()))
	}
	p := func(q float64) func([]float64) float64 {
		return func(xs []float64) float64 { return percentile(xs, q) }
	}
	steal := make([]float64, b.slices)
	cpuMs := 0.0
	for k := range steal {
		iv := marks[k].to(marks[k+1]) // the last slice with the drain after the window
		steal[k] = iv.steal
		cpuMs += iv.cpuMs()
	}
	o.e2e["p50_ms"] = sliceMedian(lat[b.head], steal, p(0.5))
	// p75, not a higher percentile: p90 to p99 spread by 15-40% between
	// runs, as bursts of noise from the machine reach the tail first.
	o.e2e["p75_ms"] = sliceMedian(lat[b.head], steal, p(0.75))
	o.e2e["alt_p50_ms"] = sliceMedian(lat[b.alt], steal, p(0.5))
	// CPU per completion over the whole window: a median over slices of
	// each slice's ratio swings with the slices the few bulk requests of
	// svc-mixed complete in.
	o.e2e["cpu_ms_per_op"] = ratio(cpuMs, float64(completed))
	o.layer["host.steal_share"] = median(steal)
	u.layers(o, completed)

	o.layer["loadgen.lag_p99_ms"] = percentile(lags, 0.99)
	o.layer["service.queue_depth_p99"] = percentile(depths, 0.99)
	o.layer["service.evals_per_completed"] = ratio(float64(after.Evaluations-before.Evaluations), float64(after.Completed-before.Completed))
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	o.layer["service.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	o.layer["service.mean_batch"] = ratio(float64(after.Completed+after.Failed-before.Completed-before.Failed), float64(after.Batches-before.Batches))
	o.layer["service.rejected"] = float64(after.Rejected - before.Rejected)
	o.layer["service.shed"] = float64(after.Shed - before.Shed)

	if tr != nil {
		if err := b.traceLayers(o, res); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// sliceMedian is the median over slices of stat of each slice's values,
// steal-adjusted by the slice's steal share, counting slices of at least
// minSlice values; when none has that many, it is stat of every value
// pooled, each adjusted by its slice's share.
func sliceMedian(slices [][]float64, steal []float64, stat func([]float64) float64) float64 {
	var per, all []float64
	for k, s := range slices {
		for _, x := range s {
			all = append(all, x*(1-steal[k]))
		}
		if len(s) >= minSlice {
			per = append(per, stat(s)*(1-steal[k]))
		}
	}
	if len(per) == 0 {
		return stat(all)
	}
	return median(per)
}

// verify checks every served report: each identity's first report must
// be a valid schedule equal to the direct layer-function path, and every
// later report of the identity — repeated, coalesced or cached — must
// encode byte-equal to it. It returns the requests that got a wrong one.
func (b *svcBench) verify(o *outcome, res []reqResult, samples []sample) map[int]bool {
	first := make(map[ident]int)
	for i, r := range res {
		if r.report == nil {
			continue
		}
		id := b.arr[i].id
		if f, ok := first[id]; !ok || samples[i].Done.Before(samples[f].Done) {
			first[id] = i
		}
	}
	bad := make(map[ident]bool)
	firstBytes := make(map[ident][]byte, len(first))
	for id, i := range first {
		rep := res[i].report
		if err := checkServed(b.graphs[id.graph].tg, id.pes, variants[id.variant], rep); err != nil {
			o.problem("%s: %v", id, err)
			bad[id] = true
		}
		data, err := json.Marshal(rep)
		if err != nil {
			o.problem("%s: encoding report: %v", id, err)
			bad[id] = true
		}
		firstBytes[id] = data
	}
	wrong := make(map[int]bool)
	for i, r := range res {
		if r.report == nil {
			continue
		}
		id := b.arr[i].id
		data, err := json.Marshal(r.report)
		if bad[id] || err != nil || !bytes.Equal(data, firstBytes[id]) {
			if !bad[id] {
				o.problem("%s: request %d served a report that differs from the identity's first", id, i)
			}
			wrong[i] = true
		}
	}
	return wrong
}

// traceLayers replays the first distinct inputs solo and splits each
// request's latency into its submit round trip, its wait (the result
// calls' server time beyond the input's solo evaluation) and its fetch
// (the client side of the result calls).
func (b *svcBench) traceLayers(o *outcome, res []reqResult) error {
	dir, err := b.e.mkWork("replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rp, err := newReplayer(b.e.tr, dir)
	if err != nil {
		return err
	}
	seen := make(map[ident]bool)
	for _, a := range b.arr {
		if seen[a.id] || len(seen) == replayCap {
			continue
		}
		seen[a.id] = true
		g := b.graphs[a.id.graph]
		if err := rp.replay(replayInput{
			id: a.id.String(), tg: g.tg, data: g.data, pes: a.id.pes,
			variant: variants[a.id.variant], varName: variantNames[a.id.variant],
			simulate: b.classes[a.class].simulate,
		}); err != nil {
			return err
		}
	}
	rp.st.layers(o.layer)

	spans := b.e.tr.snapshot()
	self := selfTimes(spans)
	kids := make(map[int64][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	var submit, wait, fetch []float64
	for i, r := range res {
		eval, ok := rp.st.evalMs[b.arr[i].id.String()]
		if r.report == nil || !ok {
			continue
		}
		server, client := 0.0, 0.0
		for _, c := range kids[r.root] {
			switch c.Name {
			case "POST /v1/submit":
				submit = append(submit, ms(c.dur()))
			case "GET /v1/result":
				client += ms(self[c.ID])
				for _, s := range kids[c.ID] {
					server += ms(s.dur())
				}
			}
		}
		fetch = append(fetch, client)
		wait = append(wait, math.Max(0, server-eval))
	}
	o.layer["service.submit_p50_ms"] = percentile(submit, 0.5)
	o.layer["service.submit_p99_ms"] = percentile(submit, 0.99)
	o.layer["service.wait_p50_ms"] = percentile(wait, 0.5)
	o.layer["service.wait_p99_ms"] = percentile(wait, 0.99)
	o.layer["service.fetch_p50_ms"] = percentile(fetch, 0.5)
	return nil
}

// setupSvcSmall prepares svc-small: inline paper-size graphs, PE counts
// from each family's sweep, lts and rlx alike, simulate on, one
// submission in four repeating an earlier identity, and a report cache
// that starts empty. The volumes are those of the quick configuration,
// which the repository's own simulation experiments use: under the
// default one a few Gaussian graphs simulate for tens of milliseconds and
// set the tail on their own.
//
// A fresh identity is evaluated; a repeat is served from the report cache
// (or joins the evaluation of its first submission, if that is still
// running). The two are the headline and the alternative class.
func setupSvcSmall(ctx context.Context, e *env) (instance, error) {
	rng := rand.New(rand.NewSource(e.seed))
	classes := []svcClass{
		{name: "fresh", rate: smokeLoad(e, smallRate), simulate: true},
		// Repeats are not drawn on their own: one arrival in four of the
		// stream above becomes one below.
		{name: "repeat", simulate: true},
	}
	slices := slicesOf(e.window)
	arr := drawArrivals(rng, classes, slices)

	// Every identity has 8 forms (4 PE counts x 2 variants), so
	// len(arr)/8+1 graphs cover a run of only fresh identities; 8 more
	// warm the service up without touching the measured identities.
	measured := len(arr)/8 + 1
	pool, err := paperGraphs(rng, measured+8, synth.SmallConfig())
	if err != nil {
		return nil, err
	}
	fresh := idents(rng, pool, 0, measured)
	var seen []ident
	for i := range arr {
		if len(seen) > 0 && rng.Intn(4) == 0 {
			arr[i].class = 1
			arr[i].id = seen[rng.Intn(len(seen))]
			continue
		}
		arr[i].id = fresh[len(seen)]
		seen = append(seen, arr[i].id)
	}

	dir, err := e.mkWork("svc-small-")
	if err != nil {
		return nil, err
	}
	cache, err := results.OpenCache(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	b := &svcBench{
		e: e, graphs: pool, warm: idents(rng, pool, measured, len(pool))[:64],
		classes: classes, arr: arr, slices: slices, head: 0, alt: 1, dir: dir,
		svc: service.New(service.Options{QueueCap: 256, Workers: e.workers, Cache: cache}),
	}
	if err := b.start(ctx); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// setupSvcMixed prepares svc-mixed: an `interactive` tenant (weight 3,
// 50 ms SLO) sending fresh paper-size identities as a Poisson stream,
// and a `bulk` tenant (weight 1) sending 10^4-node Gaussian, Cholesky and
// FFT graphs at P=256 in a fixed rotation, evenly spaced so every run
// puts the same bulk work beside the interactive stream. Neither
// simulates. One instance serves both, dispatching at most 4 jobs a tick
// and shedding the largest graph first; its 64-job queue leaves room
// for the backlog a bulk request's decode and fingerprint build up.
func setupSvcMixed(ctx context.Context, e *env) (instance, error) {
	rng := rand.New(rand.NewSource(e.seed))
	classes := []svcClass{
		{name: "interactive", tenant: "interactive", rate: smokeLoad(e, mixedInteractiveRate)},
		{name: "bulk", tenant: "bulk", rate: smokeLoad(e, mixedBulkRate), even: true},
	}
	slices := slicesOf(e.window)
	arr := drawArrivals(rng, classes, slices)

	nInter := 0
	for _, a := range arr {
		if a.class == 0 {
			nInter++
		}
	}
	small := nInter/8 + 1
	pool, err := paperGraphs(rng, small+8, synth.DefaultConfig())
	if err != nil {
		return nil, err
	}
	bulkNodes, bulkGraphs := 10_000, 12
	if e.smoke {
		bulkNodes, bulkGraphs = 2_000, 3
	}
	cfg := synth.DefaultConfig()
	for i := 0; i <= bulkGraphs; i++ { // the last one is for warm-up
		var tg *core.TaskGraph
		switch i % 3 {
		case 0:
			tg = synth.Gaussian(synth.GaussianFor(bulkNodes), rng, cfg)
		case 1:
			tg = synth.Cholesky(synth.CholeskyFor(bulkNodes), rng, cfg)
		default:
			tg = synth.FFT(synth.FFTPointsFor(bulkNodes), rng, cfg)
		}
		g, err := newPoolGraph(tg, []int{256})
		if err != nil {
			return nil, err
		}
		pool = append(pool, g)
	}
	inter := idents(rng, pool, 0, small)
	var bulk []ident
	for v := range variants {
		for g := small + 8; g < small+8+bulkGraphs; g++ {
			bulk = append(bulk, ident{g, 256, v})
		}
	}
	ni, nb := 0, 0
	for i := range arr {
		if arr[i].class == 0 {
			arr[i].id = inter[ni]
			ni++
		} else {
			arr[i].id = bulk[nb%len(bulk)]
			nb++
		}
	}
	warm := idents(rng, pool, small, small+8)[:16]
	warm = append(warm, ident{graph: len(pool) - 1, pes: 256})

	tenants := service.TenantsConfig{
		Default: service.TenantConfig{Weight: 1},
		Tenants: map[string]service.TenantConfig{
			"interactive": {Weight: 3, SLOMs: sloMs},
			"bulk":        {Weight: 1},
		},
	}
	b := &svcBench{
		e: e, graphs: pool, warm: warm, classes: classes, arr: arr, slices: slices,
		head: 0, alt: 1,
		svc: service.New(service.Options{
			QueueCap: 64, BatchCap: 4, Workers: e.workers, Tenants: tenants,
			ShedPolicy: service.ShedLargestGraphFirst,
		}),
	}
	if err := b.start(ctx); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}
