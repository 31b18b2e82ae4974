package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/schedule"
)

// pickHistory records the per-pick served/backlog snapshots the
// testHookPick hook emits, for fairness analysis after the run.
type pickHistory struct {
	mu     sync.Mutex
	served []map[string]int64
	backl  []map[string]bool
}

func (h *pickHistory) record(served map[string]int64, backlogged map[string]bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.served = append(h.served, served)
	h.backl = append(h.backl, backlogged)
}

// checkWindows checks every window of n consecutive picks in the leading
// stretch of picks that each left every tenant of want backlogged: each
// tenant's picks in the window must be its share in want within one job,
// and the shares must add up to n. It returns the number of windows.
func (h *pickHistory) checkWindows(t *testing.T, n int, want map[string]int64) int {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	series := []map[string]int64{{}}
	for i := range h.backl {
		all := true
		for name := range want {
			all = all && h.backl[i][name]
		}
		if !all {
			break
		}
		series = append(series, h.served[i])
	}
	windows := 0
	for lo := 0; lo+n < len(series); lo++ {
		var total int64
		for name, w := range want {
			d := series[lo+n][name] - series[lo][name]
			total += d
			if d < w-1 || d > w+1 {
				t.Errorf("picks [%d,%d): tenant %s served %d, want %d±1", lo, lo+n, name, d, w)
			}
		}
		if total != int64(n) {
			t.Errorf("picks [%d,%d): tenants served %d, want %d", lo, lo+n, total, n)
		}
		windows++
	}
	return windows
}

// referenceBytes computes the batch-mode reference report bytes for a
// submission, directly via BuildReport without the service.
func referenceBytes(t *testing.T, req SubmitRequest) []byte {
	t.Helper()
	tg, err := buildGraph(req)
	if err != nil {
		t.Fatal(err)
	}
	varName := req.Variant
	if varName == "" {
		varName = "lts"
	}
	v, err := schedule.ParseVariant(varName)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BuildReport(tg, req.PEs, v, varName, req.Simulate)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestConcurrentSubmittersByteIdentical is the race e2e: concurrent
// submitters from three tenants with unequal weights fire a mix of
// workloads, PE counts, and variants at one service instance over HTTP,
// and every accepted job's schedule report must be byte-identical to a
// direct batch-mode evaluation (the same schedule.Algorithm1 +
// schedule.Schedule call sequence, via BuildReport) of the same
// submission. Concurrency, tenancy, fair-queueing order, batching, and
// coalescing must not be observable in the results — and while all three
// tenants are backlogged, every six consecutive picks serve them in
// proportion to their weights within one job. Run with -race in CI.
func TestConcurrentSubmittersByteIdentical(t *testing.T) {
	cfg, err := ParseTenantsConfig([]byte(
		`{"default":{"weight":1},"tenants":{"gold":{"weight":3},"silver":{"weight":2},"bronze":{"weight":1}}}`))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{QueueCap: 256, Workers: 4, Tenants: cfg})
	var hist pickHistory
	s.testHookPick = hist.record
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// The submission mix: every submitter rotates through these, so
	// identical submissions from different submitters coalesce while
	// different ones must not bleed into each other.
	reqs := []SubmitRequest{
		{Workload: "synth:fft", Seed: 1, PEs: 8},
		{Workload: "synth:fft", Seed: 2, PEs: 16, Variant: "rlx"},
		{Workload: "synth:chain", Seed: 3, PEs: 4, Simulate: true},
		{Workload: "synth:gaussian", Seed: 4, PEs: 8},
		{Workload: "onnx:mlp", PEs: 16},
		{Workload: "synth:cholesky", Seed: 5, PEs: 8, Variant: "rlx"},
	}
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		want[i] = referenceBytes(t, req)
	}

	// Submitter count per tenant is proportional to its weight, so under
	// backlog every tenant drains at the same relative rate and the fair
	// queue is exercised end to end.
	tenantOf := []string{"gold", "gold", "gold", "silver", "silver", "bronze"}
	const perSubmitter = 12
	// Phase 1: every submitter races its full stream in while the service
	// is accepting but has no workers yet, so dispatch runs against a real
	// sustained backlog. Per-tenant demand stays proportional to weight
	// (36:24:12 at weights 3:2:1), so all three tenants drain together.
	ids := make([][]string, len(tenantOf))
	var wg sync.WaitGroup
	errs := make(chan error, len(tenantOf)*perSubmitter)
	for w := range tenantOf {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := &Client{Base: srv.URL}
			for k := 0; k < perSubmitter; k++ {
				which := (w + k) % len(reqs)
				req := reqs[which]
				req.Tenant = tenantOf[w]
				resp, _, ok, err := cl.Submit(ctx, req)
				if err != nil || !ok {
					errs <- fmt.Errorf("submitter %d: submit %d: ok=%v err=%v", w, k, ok, err)
					return
				}
				ids[w] = append(ids[w], resp.ID)
			}
		}(w)
	}
	wg.Wait()
	s.Start()
	// Phase 2: fetch every result (racing the workers) and compare against
	// batch mode.
	for w := range tenantOf {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k, id := range ids[w] {
				which := (w + k) % len(reqs)
				got, err := fetchScheduleBytes(ctx, srv.URL, id)
				if err != nil {
					errs <- fmt.Errorf("submitter %d: job %s: %v", w, id, err)
					return
				}
				if !bytes.Equal(got, want[which]) {
					errs <- fmt.Errorf("submitter %d: job %s (req %d): schedule differs from batch mode\n got: %s\nwant: %s",
						w, id, which, got, want[which])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Status()
	if st.Accepted != int64(len(tenantOf)*perSubmitter) {
		t.Errorf("accepted %d of %d submissions", st.Accepted, len(tenantOf)*perSubmitter)
	}
	if st.Failed != 0 {
		t.Errorf("%d jobs failed", st.Failed)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Fairness: every six consecutive picks made while all three tenants
	// were backlogged serve them 3:2:1, each within one job.
	if hist.checkWindows(t, 6, map[string]int64{"gold": 3, "silver": 2, "bronze": 1}) == 0 {
		t.Error("no fully-backlogged pick windows observed; fairness property unexercised")
	}
}

// TestFairShareWindowsE2E is the fairness acceptance e2e: two tenants at
// weights 3:1 submit identical sustained load over HTTP (racing
// goroutines; run with -race in CI), and over any window of 40 picks of
// the backlogged stretch the served shares are 30:10 within one job —
// while every served schedule stays byte-identical to batch mode.
func TestFairShareWindowsE2E(t *testing.T) {
	cfg, err := ParseTenantsConfig([]byte(
		`{"default":{"weight":1},"tenants":{"gold":{"weight":3},"econ":{"weight":1}}}`))
	if err != nil {
		t.Fatal(err)
	}
	const perTenant = 160
	s := New(Options{QueueCap: 2 * perTenant, Workers: 4, Tenants: cfg})
	var hist pickHistory
	s.testHookPick = hist.record
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Identical load: both tenants cycle the same four submission
	// contents. Reference bytes come straight from batch mode.
	seeds := []int64{1, 2, 3, 4}
	want := make(map[int64][]byte, len(seeds))
	for _, seed := range seeds {
		want[seed] = referenceBytes(t, fftReq(seed))
	}

	// Preload racing over HTTP: both tenants' submitters run concurrently
	// while the service is accepting but has no workers yet, so the whole
	// run is a sustained-backlog regime with exact window accounting.
	type jobRef struct {
		id   string
		seed int64
	}
	refs := make([][]jobRef, 2)
	var wg sync.WaitGroup
	errs := make(chan error, 2*perTenant)
	for w, tenant := range []string{"gold", "econ"} {
		wg.Add(1)
		go func(w int, tenant string) {
			defer wg.Done()
			cl := &Client{Base: srv.URL}
			for k := 0; k < perTenant; k++ {
				seed := seeds[k%len(seeds)]
				req := fftReq(seed)
				req.Tenant = tenant
				resp, _, ok, err := cl.Submit(ctx, req)
				if err != nil || !ok {
					errs <- fmt.Errorf("%s submit %d: ok=%v err=%v", tenant, k, ok, err)
					return
				}
				refs[w] = append(refs[w], jobRef{resp.ID, seed})
			}
		}(w, tenant)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s.Start()

	// Fetch every result (racing the workers) and verify byte-identity.
	errs = make(chan error, 2*perTenant)
	for w := range refs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, ref := range refs[w] {
				got, err := fetchScheduleBytes(ctx, srv.URL, ref.id)
				if err != nil {
					errs <- fmt.Errorf("job %s: %v", ref.id, err)
					return
				}
				if !bytes.Equal(got, want[ref.seed]) {
					errs <- fmt.Errorf("job %s (seed %d): schedule differs from batch mode", ref.id, ref.seed)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Window analysis over the stretch where both tenants stayed
	// backlogged: every 40 picks split 30:10 ±1. gold's 160 jobs at three
	// picks in four last ~213 backlogged picks: the analysis must have had
	// a real sustained stretch to chew on.
	if windows := hist.checkWindows(t, 40, map[string]int64{"gold": 30, "econ": 10}); windows < 100 {
		t.Errorf("only %d 40-pick windows under full backlog; load did not sustain", windows)
	}
}

// fetchScheduleBytes long-polls one result and returns the schedule
// report's raw JSON, compacted, so it can be compared byte for byte with
// a json.Marshal of the batch-mode report.
func fetchScheduleBytes(ctx context.Context, base, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/result/"+id+"?wait=30s", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	// The hand-written result writer must write what WriteJSON wrote:
	// json.MarshalIndent of the status it decodes to, and a newline.
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}
	if want, err := json.MarshalIndent(st, "", "  "); err != nil || !bytes.Equal(data, append(want, '\n')) {
		return nil, fmt.Errorf("result body is not json.MarshalIndent's (%v):\n%s", err, data)
	}
	var body struct {
		State    string          `json:"state"`
		Error    string          `json:"error"`
		Schedule json.RawMessage `json:"schedule"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		return nil, err
	}
	if body.State != StateDone {
		return nil, fmt.Errorf("state %s (error %q)", body.State, body.Error)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, body.Schedule); err != nil {
		return nil, err
	}
	return compact.Bytes(), nil
}
