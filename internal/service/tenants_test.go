package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

func tenantReq(tenant string, seed int64) SubmitRequest {
	return SubmitRequest{Tenant: tenant, Workload: "synth:fft", Seed: seed, PEs: 8}
}

// pickOne takes the next queued job the way a worker does and, when it
// leads, runs it to completion, so a test steps the fair queue one pick
// at a time without starting the workers.
func pickOne(s *Service, ec *experiments.EvalContext) {
	s.mu.Lock()
	j := s.pickLocked()
	s.mu.Unlock()
	if j != nil {
		s.run(j, ec)
	}
}

// TestParseTenantsConfig is the table-driven config gate: valid contracts
// load, malformed ones are rejected with errors naming the defect.
func TestParseTenantsConfig(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		wantErr string // substring; empty means the config must load
	}{
		{"minimal", `{"default":{"weight":1}}`, ""},
		{"full", `{"default":{"weight":1},"tenants":{"a":{"weight":3,"max_open":8,"slo_ms":50},"bg":{"weight":0}}}`, ""},
		{"empty object defaults", `{}`, ""},
		{"bad json", `{"default":`, "tenants config"},
		{"unknown field", `{"default":{"weight":1},"tenants":{"a":{"wieght":3}}}`, "unknown field"},
		{"negative weight", `{"default":{"weight":1},"tenants":{"a":{"weight":-1}}}`, `tenant "a": negative weight`},
		{"oversized weight", `{"default":{"weight":1},"tenants":{"a":{"weight":2097152}}}`, "exceeds the maximum"},
		{"negative max_open", `{"default":{"weight":1},"tenants":{"a":{"weight":1,"max_open":-2}}}`, "negative max_open"},
		{"negative slo", `{"default":{"weight":1},"tenants":{"a":{"weight":1,"slo_ms":-5}}}`, "bad slo_ms"},
		{"zero-weight default", `{"default":{"weight":0,"max_open":4}}`, "default tenant must have a positive weight"},
		{"empty tenant name", `{"default":{"weight":1},"tenants":{"  ":{"weight":1}}}`, "empty tenant name"},
		{"name with pipe", `{"default":{"weight":1},"tenants":{"a|b":{"weight":1}}}`, "whitespace or '|'"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg, err := ParseTenantsConfig([]byte(c.in))
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				if cfg.Default.Weight <= 0 {
					t.Errorf("normalized default weight %d", cfg.Default.Weight)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err %v, want substring %q", err, c.wantErr)
			}
		})
	}
}

// TestTenantQuotas is the table-driven admission battery: a tenant at its
// max_open cap gets a 429 whose Retry-After is that tenant's own recent
// median latency, unknown tenants fall back to the default contract, and
// legacy clients (no tenant at all) are the default tenant.
func TestTenantQuotas(t *testing.T) {
	cfg, err := ParseTenantsConfig([]byte(
		`{"default":{"weight":1},"tenants":{"alice":{"weight":1,"max_open":5},"heavy":{"weight":3}}}`))
	if err != nil {
		t.Fatal(err)
	}
	// Not started: the queue cannot drain, so admission state is exact.
	s := New(Options{QueueCap: 64, Workers: 1, Tenants: cfg})

	// alice fills her quota; submission 6 is a per-tenant 429.
	for i := 0; i < 5; i++ {
		if _, err := s.Submit(tenantReq("alice", int64(i+1))); err != nil {
			t.Fatalf("alice submission %d: %v", i+1, err)
		}
	}
	_, err = s.Submit(tenantReq("alice", 99))
	ae, ok := err.(*admissionError)
	if !ok || !ae.quota || ae.tenant != "alice" {
		t.Fatalf("over-quota: got %#v, want alice quota admissionError", err)
	}
	// alice has completed nothing yet, so she is told 1 s.
	if ae.retryAfter != time.Second {
		t.Errorf("quota Retry-After %v with no completed job, want 1s", ae.retryAfter)
	}
	// Per-tenant Retry-After: the median of alice's recent latencies,
	// clamped to [1 ms, maxWait].
	for _, c := range []struct {
		lat  []time.Duration
		want time.Duration
	}{
		{[]time.Duration{3 * time.Millisecond, 500 * time.Millisecond, 7 * time.Millisecond}, 7 * time.Millisecond},
		{[]time.Duration{40 * time.Millisecond, 10 * time.Millisecond}, 10 * time.Millisecond},
		{[]time.Duration{100 * time.Microsecond}, time.Millisecond},
		{[]time.Duration{5 * time.Minute}, maxWait},
	} {
		s.mu.Lock()
		s.tenants["alice"].lat = latencyRing{}
		for _, d := range c.lat {
			s.tenants["alice"].lat.add(d)
		}
		s.mu.Unlock()
		_, err = s.Submit(tenantReq("alice", 99))
		if ae, ok := err.(*admissionError); !ok || ae.retryAfter != c.want {
			t.Errorf("latencies %v: got %v, want a quota 429 hinting %v", c.lat, err, c.want)
		}
	}

	// Unknown tenant: default contract, no per-tenant cap.
	for i := 0; i < 8; i++ {
		if _, err := s.Submit(tenantReq("mystery", int64(i+1))); err != nil {
			t.Fatalf("unknown tenant submission %d: %v", i+1, err)
		}
	}
	// Legacy submission without a tenant: accounted to DefaultTenant.
	if _, err := s.Submit(fftReq(1)); err != nil {
		t.Fatal(err)
	}

	st := s.Status()
	byName := make(map[string]TenantStatus)
	for _, ts := range st.Tenants {
		byName[ts.Name] = ts
	}
	if a := byName["alice"]; a.Accepted != 5 || a.Rejected != 5 || a.Open != 5 || a.MaxOpen != 5 {
		t.Errorf("alice row: %+v", a)
	}
	if m := byName["mystery"]; m.Accepted != 8 || m.Weight != 1 || m.MaxOpen != 0 {
		t.Errorf("mystery row: %+v", m)
	}
	if d := byName[DefaultTenant]; d.Accepted != 1 {
		t.Errorf("default row: %+v", d)
	}
	if st.Rejected != 5 || st.Accepted != 14 {
		t.Errorf("global counters: %+v", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestTenantQuotaHTTP: the per-tenant 429 carries the tenant name in the
// body and the X-Tenant header routes identity (JSON field wins).
func TestTenantQuotaHTTP(t *testing.T) {
	cfg, err := ParseTenantsConfig([]byte(`{"default":{"weight":1},"tenants":{"a":{"weight":1,"max_open":1}}}`))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{QueueCap: 8, Workers: 1, Tenants: cfg})
	mux := s.Handler()

	do := func(body, header string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, "http://svc/v1/submit", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if header != "" {
			req.Header.Set("X-Tenant", header)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec.Result()
	}
	// Header-only identity.
	resp := do(`{"workload":"synth:fft","seed":1}`, "a")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("header-tenant submission: %d", resp.StatusCode)
	}
	// At cap now; JSON field wins over a contradicting header.
	resp = do(`{"workload":"synth:fft","seed":2,"tenant":"a"}`, "b")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var rej rejection
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	if rej.Tenant != "a" || !strings.Contains(rej.Error, "max_open") {
		t.Errorf("rejection body %+v", rej)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestReloadTenants: a runtime reload applies new quotas to existing
// tenants; a malformed file is rejected with a descriptive error and the
// running contract survives.
func TestReloadTenants(t *testing.T) {
	cfg, err := ParseTenantsConfig([]byte(`{"default":{"weight":1},"tenants":{"a":{"weight":1,"max_open":1}}}`))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{QueueCap: 16, Workers: 1, Tenants: cfg})
	if _, err := s.Submit(tenantReq("a", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(tenantReq("a", 2)); err == nil {
		t.Fatal("submission over the pre-reload quota accepted")
	}

	// Raise the quota via a config file reload.
	dir := t.TempDir()
	good := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(good, []byte(`{"default":{"weight":1},"tenants":{"a":{"weight":2,"max_open":4}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ReloadTenantsFile(good); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(tenantReq("a", 2)); err != nil {
		t.Fatalf("post-reload submission rejected: %v", err)
	}

	// Malformed reloads name the file and the defect, and change nothing.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"default":{"weight":1},"tenants":{"a":{"weight":-3}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = s.ReloadTenantsFile(bad)
	if err == nil || !strings.Contains(err.Error(), "bad.json") || !strings.Contains(err.Error(), "negative weight") {
		t.Fatalf("malformed reload error %v, want file and defect named", err)
	}
	if err := s.ReloadTenantsFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file reload succeeded")
	}
	// The good contract is still in force: submissions 3 and 4 fit.
	for i := int64(3); i <= 4; i++ {
		if _, err := s.Submit(tenantReq("a", i)); err != nil {
			t.Fatalf("submission %d after failed reload: %v", i, err)
		}
	}
	if _, err := s.Submit(tenantReq("a", 5)); err == nil {
		t.Fatal("submission over the reloaded quota accepted")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestZeroWeightTenantOnlyWhenIdle: a weight-0 background tenant is
// picked only once every positive-weight tenant's queue is exhausted —
// never while foreground demand is waiting.
func TestZeroWeightTenantOnlyWhenIdle(t *testing.T) {
	cfg, err := ParseTenantsConfig([]byte(`{"default":{"weight":1},"tenants":{"bg":{"weight":0}}}`))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{QueueCap: 64, Workers: 2, Tenants: cfg})
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(tenantReq("bg", int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(tenantReq("fg", int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	served := func(name string) int64 {
		for _, ts := range s.Status().Tenants {
			if ts.Name == name {
				return ts.Served
			}
		}
		return 0
	}
	// Picks 1-4 drain fg entirely; bg must not be touched while fg waits.
	// Then fg is idle, and picks 5-6 go to the background tenant.
	ec := experiments.NewEvalContext()
	for pick := int64(1); pick <= 6; pick++ {
		pickOne(s, ec)
		wantFg, wantBg := min(pick, 4), max(pick-4, 0)
		if fg, bg := served("fg"), served("bg"); fg != wantFg || bg != wantBg {
			t.Fatalf("pick %d: fg %d bg %d, want %d %d", pick, fg, bg, wantFg, wantBg)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestFairPickDeterministic is the property/differential test of the
// dispatch order: the picked sequence is byte-identical across replays
// and independent of arrival interleaving — permuting the queue (and the
// seq numbers arrival order would assign) never changes which submission
// contents are served in which slot.
func TestFairPickDeterministic(t *testing.T) {
	type spec struct {
		tenant string
		tasks  int
		key    string
	}
	// Three tenants, duplicate keys (coalescable arrivals), mixed sizes.
	specs := []spec{
		{"a", 8, "k8"}, {"a", 8, "k8"}, {"a", 4, "k4"}, {"a", 16, "k16"},
		{"b", 8, "k8"}, {"b", 2, "k2b"}, {"b", 2, "k2b"},
		{"c", 5, "k5"}, {"c", 5, "k5c"}, {"c", 9, "k9"},
	}
	weights := map[string]int{"a": 3, "b": 2, "c": 1}

	// run builds the queue in the given arrival order (seq = arrival
	// index), then drains it through fairPick in rounds of four picks with
	// fresh fair-queue state, recording the picked (tenant, key) trace.
	run := func(order []int) []string {
		queue := make([]*job, 0, len(specs))
		for arrival, idx := range order {
			sp := specs[idx]
			queue = append(queue, &job{
				seq: int64(arrival + 1), tenant: sp.tenant, tasks: sp.tasks, key: sp.key,
			})
		}
		states := make(map[string]*tenantState)
		state := func(name string) *tenantState {
			st, ok := states[name]
			if !ok {
				st = &tenantState{cfg: TenantConfig{Weight: weights[name]}}
				states[name] = st
			}
			return st
		}
		var vtime float64
		var trace []string
		for len(queue) > 0 {
			var picked []*job
			picked, queue = fairPick(queue, state, 4, &vtime)
			for _, j := range picked {
				trace = append(trace, j.tenant+"/"+j.key)
			}
		}
		return trace
	}

	base := make([]int, len(specs))
	for i := range base {
		base[i] = i
	}
	want := run(base)
	if got := run(base); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("replay diverged:\n got %v\nwant %v", got, want)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		perm := rng.Perm(len(specs))
		if got := run(perm); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("arrival interleaving %v changed dispatch order:\n got %v\nwant %v", perm, got, want)
		}
	}
}

// TestFairShareWindows drives two tenants at weights 3:1 with sustained
// identical backlog through manual picks and asserts the served shares
// of every window of 40 picks are 3:1 within one job — the deterministic
// core of the fairness acceptance criterion (the race e2e covers the
// same property through HTTP).
func TestFairShareWindows(t *testing.T) {
	cfg, err := ParseTenantsConfig([]byte(`{"default":{"weight":1},"tenants":{"gold":{"weight":3},"econ":{"weight":1}}}`))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{QueueCap: 256, Workers: 4, Tenants: cfg})
	// Identical sustained load: the same 100 submissions per tenant.
	for i := 0; i < 100; i++ {
		for _, tenant := range []string{"gold", "econ"} {
			if _, err := s.Submit(tenantReq(tenant, int64(i%4+1))); err != nil {
				t.Fatal(err)
			}
		}
	}
	served := func() (gold, econ int64) {
		for _, ts := range s.Status().Tenants {
			switch ts.Name {
			case "gold":
				gold = ts.Served
			case "econ":
				econ = ts.Served
			}
		}
		return
	}
	type point struct{ gold, econ int64 }
	history := []point{{0, 0}}
	// 100 picks: gold (75 of 100 queued) and econ (25 of 100) both stay
	// backlogged throughout.
	ec := experiments.NewEvalContext()
	for pick := 0; pick < 100; pick++ {
		pickOne(s, ec)
		g, e := served()
		history = append(history, point{g, e})
	}
	for lo := 0; lo+40 < len(history); lo++ {
		dg := history[lo+40].gold - history[lo].gold
		de := history[lo+40].econ - history[lo].econ
		// 40 picks at 3:1 ±1 means 30/10.
		if dg < 29 || dg > 31 || de < 9 || de > 11 || dg+de != 40 {
			t.Errorf("window [%d,%d): gold %d econ %d, want 30:10 within 1", lo, lo+40, dg, de)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Everything still completes: fairness reorders, never drops.
	if st := s.Status(); st.Completed != 200 || st.Open != 0 {
		t.Errorf("after drain: completed %d open %d", st.Completed, st.Open)
	}
}

// TestShedLargestGraphFirst: at a full queue, the policy evicts the
// largest queued graph to admit a smaller newcomer, resolves the victim
// as shed (not failed), and tail-drops a newcomer that is itself the
// largest.
func TestShedLargestGraphFirst(t *testing.T) {
	s := New(Options{QueueCap: 3, Workers: 1, ShedPolicy: ShedLargestGraphFirst})
	small := SubmitRequest{Tenant: "a", Workload: "synth:chain", Seed: 1, PEs: 4}  // few tasks
	big := SubmitRequest{Tenant: "b", Workload: "synth:cholesky", Seed: 1, PEs: 4} // many tasks
	if _, err := s.Submit(small); err != nil {
		t.Fatal(err)
	}
	bigResp, err := s.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(SubmitRequest{Tenant: "a", Workload: "synth:chain", Seed: 2, PEs: 4}); err != nil {
		t.Fatal(err)
	}
	// Queue full. A small newcomer evicts the big job.
	if _, err := s.Submit(SubmitRequest{Tenant: "a", Workload: "synth:chain", Seed: 3, PEs: 4}); err != nil {
		t.Fatalf("newcomer not admitted under largest-graph-first: %v", err)
	}
	st, err := s.Result(bigResp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateShed || !strings.Contains(st.Error, "shed") {
		t.Fatalf("victim state %+v, want shed", st)
	}
	// Full again. A newcomer at least as large as everything queued is
	// tail-dropped, not churned in.
	if _, err := s.Submit(SubmitRequest{Tenant: "b", Workload: "synth:cholesky", Seed: 2, PEs: 4}); err == nil {
		t.Fatal("largest newcomer admitted by eviction churn")
	}
	hz := s.Status()
	if hz.Shed != 1 || hz.Open != 3 {
		t.Errorf("statusz after shed: %+v", hz)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Shed jobs are not failures and do not block the drain accounting.
	if st := s.Status(); st.Failed != 0 || st.Open != 0 || st.Completed != 3 {
		t.Errorf("after drain: %+v", st)
	}
}

// TestShedOverQuotaFirst: the victim comes from the tenant furthest over
// its weighted share of the queue, and a newcomer from the hog tenant
// itself is tail-dropped.
func TestShedOverQuotaFirst(t *testing.T) {
	cfg, err := ParseTenantsConfig([]byte(`{"default":{"weight":1},"tenants":{"hog":{"weight":1},"meek":{"weight":1}}}`))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{QueueCap: 4, Workers: 1, ShedPolicy: ShedOverQuotaFirst, Tenants: cfg})
	var hogIDs []string
	for i := 0; i < 3; i++ {
		resp, err := s.Submit(tenantReq("hog", int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		hogIDs = append(hogIDs, resp.ID)
	}
	if _, err := s.Submit(tenantReq("meek", 1)); err != nil {
		t.Fatal(err)
	}
	// Full: 3 hog + 1 meek. A meek newcomer evicts the newest hog job.
	if _, err := s.Submit(tenantReq("meek", 2)); err != nil {
		t.Fatalf("meek newcomer not admitted: %v", err)
	}
	st, err := s.Result(hogIDs[2])
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateShed {
		t.Fatalf("newest hog job state %s, want shed", st.State)
	}
	// Full again (2 hog + 2 meek): a hog newcomer is its own worst
	// offender and is tail-dropped.
	if _, err := s.Submit(tenantReq("hog", 9)); err == nil {
		t.Fatal("hog newcomer admitted while hog is the most over-share tenant")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestAssignTenantsProportional: the mix assignment is deterministic and
// tracks shares exactly (within one request at every prefix).
func TestAssignTenantsProportional(t *testing.T) {
	mix := []TenantShare{{Name: "a", Share: 3}, {Name: "b", Share: 1}}
	got := AssignTenants(mix, 40)
	if fmt.Sprint(got) != fmt.Sprint(AssignTenants(mix, 40)) {
		t.Fatal("assignment not deterministic")
	}
	counts := []int{0, 0}
	for i, idx := range got {
		counts[idx]++
		// At every prefix the realized split tracks 3:1 within one job.
		n := float64(i + 1)
		if diff := float64(counts[0]) - 0.75*n; diff < -1 || diff > 1 {
			t.Fatalf("prefix %d: a has %d of %d", i+1, counts[0], i+1)
		}
	}
	if counts[0] != 30 || counts[1] != 10 {
		t.Errorf("final split %v, want [30 10]", counts)
	}
	// Empty mix: every request is the base (-1) tenant.
	for _, idx := range AssignTenants(nil, 5) {
		if idx != -1 {
			t.Fatal("empty mix assigned a tenant")
		}
	}
}

func TestParseTenantsArg(t *testing.T) {
	// Empty means the single-tenant default contract.
	cfg, err := ParseTenantsArg("")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Default.Weight != 1 || len(cfg.Tenants) != 0 {
		t.Fatalf("empty arg: %+v", cfg)
	}

	// Inline JSON (leading '{') parses without touching the filesystem.
	cfg, err = ParseTenantsArg(` {"default":{"weight":2},"tenants":{"gold":{"weight":3,"max_open":8}}}`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Default.Weight != 2 || cfg.Tenants["gold"].MaxOpen != 8 {
		t.Fatalf("inline arg: %+v", cfg)
	}

	// Anything else is a file path, validated the same way.
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(`{"tenants":{"bronze":{"weight":1,"slo_ms":50}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err = ParseTenantsArg(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tenants["bronze"].SLOMs != 50 {
		t.Fatalf("file arg: %+v", cfg)
	}

	// Errors surface from both paths: invalid inline config, missing file.
	if _, err := ParseTenantsArg(`{"tenants":{"bad":{"weight":-1}}}`); err == nil {
		t.Error("invalid inline config accepted")
	}
	if _, err := ParseTenantsArg(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestQuotaRefusalBuildsNoGraph: a tenant at its quota is refused before
// its named workload is built or hashed, so the 429 allocates a small
// fraction of what one build of the graph does, and still carries the
// tenant, queue depth and Retry-After hint of the full admission check.
func TestQuotaRefusalBuildsNoGraph(t *testing.T) {
	cfg, err := ParseTenantsConfig([]byte(`{"tenants":{"alice":{"weight":1,"max_open":1}}}`))
	if err != nil {
		t.Fatal(err)
	}
	// Not started: alice's one job stays open.
	s := New(Options{QueueCap: 64, Workers: 1, Tenants: cfg})
	if _, err := s.Submit(tenantReq("alice", 1)); err != nil {
		t.Fatal(err)
	}
	vgg := SubmitRequest{Tenant: "alice", Workload: "onnx:vgg", PEs: 8}
	build := testing.AllocsPerRun(1, func() {
		if _, err := buildGraph(vgg); err != nil {
			t.Fatal(err)
		}
	})
	var refusal error
	refused := testing.AllocsPerRun(10, func() { _, refusal = s.Submit(vgg) })
	t.Logf("onnx:vgg: %.0f allocations to build, %.0f to refuse", build, refused)
	ae, ok := refusal.(*admissionError)
	if !ok || !ae.quota || ae.tenant != "alice" || ae.depth != 1 || ae.retryAfter != time.Second {
		t.Fatalf("got %#v, want alice's quota 429 at depth 1 hinting 1s", refusal)
	}
	if refused*100 > build {
		t.Errorf("a quota 429 allocated %.0f times, over 1%% of the %.0f a build of its graph does", refused, build)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}
