package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/httpapi"
)

func fftReq(seed int64) SubmitRequest {
	return SubmitRequest{Workload: "synth:fft", Seed: seed, PEs: 8}
}

// TestAdmissionBoundary pins the admission-control boundary: exactly-at-cap
// accepts, one-over rejects with a Retry-After hint, and rejections do not
// consume queue space. The service is deliberately not started, so the
// queue cannot drain between submissions.
func TestAdmissionBoundary(t *testing.T) {
	cases := []struct {
		name string
		cap  int
	}{
		{"cap 1", 1},
		{"cap 3", 3},
		{"cap 8", 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(Options{QueueCap: c.cap, Workers: 1})
			for i := 0; i < c.cap; i++ {
				resp, err := s.Submit(fftReq(int64(i + 1)))
				if err != nil {
					t.Fatalf("submission %d of %d rejected: %v", i+1, c.cap, err)
				}
				if resp.QueueDepth != i+1 {
					t.Fatalf("submission %d: queue depth %d", i+1, resp.QueueDepth)
				}
			}
			// One over the cap must reject with the admission error.
			_, err := s.Submit(fftReq(99))
			ae, ok := err.(*admissionError)
			if !ok {
				t.Fatalf("over-cap submission: got %v, want admissionError", err)
			}
			if ae.depth != c.cap {
				t.Errorf("rejection depth %d, want %d", ae.depth, c.cap)
			}
			if ae.retryAfter <= 0 {
				t.Errorf("rejection carries no Retry-After hint")
			}
			// The rejection consumed nothing: the queue still drains cleanly.
			st := s.Status()
			if st.Queued != c.cap || st.Rejected != 1 || st.Accepted != int64(c.cap) {
				t.Errorf("status after rejection: %+v", st)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Close(ctx); err != nil {
				t.Fatalf("drain: %v", err)
			}
		})
	}
}

// TestAdmissionHTTP checks the boundary through the HTTP layer: 429 status,
// Retry-After header, and a JSON body carrying the queue depth.
func TestAdmissionHTTP(t *testing.T) {
	s := New(Options{QueueCap: 2, Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(srv.URL+"/v1/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for i := 0; i < 2; i++ {
		resp := post(fmt.Sprintf(`{"workload":"synth:fft","seed":%d}`, i+1))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submission %d: status %d", i+1, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := post(`{"workload":"synth:fft","seed":3}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	var rej rejection
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	if rej.QueueDepth != 2 || rej.RetryAfterMs <= 0 {
		t.Errorf("rejection body %+v", rej)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitBodyRules: the submit endpoint refuses a body past its 8 MiB
// ceiling with 413 and a non-JSON media type with 415, before either can
// reach admission.
func TestSubmitBodyRules(t *testing.T) {
	s := New(Options{QueueCap: 1})
	h := s.Handler()
	post := func(contentType, body string) *http.Response {
		req := httptest.NewRequest(http.MethodPost, "/v1/submit", strings.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Result()
	}
	big := `{"workload":"synth:fft","graph":"` + strings.Repeat("a", maxSubmitBody) + `"}`
	for _, c := range []struct {
		name, contentType, body string
		want                    int
	}{
		{"over 8 MiB", "application/json", big, http.StatusRequestEntityTooLarge},
		{"text/plain", "text/plain", `{"workload":"synth:fft"}`, http.StatusUnsupportedMediaType},
	} {
		resp := post(c.contentType, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
		var rej rejection
		if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil || rej.Error == "" {
			t.Errorf("%s: body is not a JSON error (%+v, %v)", c.name, rej, err)
		}
	}
	if st := s.Status(); st.Accepted != 0 || st.Rejected != 0 {
		t.Errorf("refused bodies reached admission: %+v", st)
	}
}

// TestSubmitBadInputs: malformed submissions are 400s and never occupy
// queue space.
func TestSubmitBadInputs(t *testing.T) {
	s := New(Options{QueueCap: 1})
	cases := []struct {
		name string
		req  SubmitRequest
	}{
		{"no source", SubmitRequest{}},
		{"both sources", SubmitRequest{Workload: "synth:fft", Graph: json.RawMessage(`{}`)}},
		{"unknown workload", SubmitRequest{Workload: "synth:nope"}},
		{"bad inline graph", SubmitRequest{Graph: json.RawMessage(`{"nodes": "what"}`)}},
		{"bad variant", SubmitRequest{Workload: "synth:fft", Variant: "heft"}},
	}
	for _, c := range cases {
		_, err := s.Submit(c.req)
		he, ok := err.(*httpapi.Error)
		if !ok || he.Code != http.StatusBadRequest {
			t.Errorf("%s: got %v, want 400 httpapi.Error", c.name, err)
		}
	}
	if st := s.Status(); st.Queued != 0 || st.Accepted != 0 {
		t.Errorf("bad submissions occupied the queue: %+v", st)
	}
}

// TestDrainOnShutdown: Close completes every accepted job — queued and
// in-flight — before returning, and a draining service rejects new
// submissions with 503.
func TestDrainOnShutdown(t *testing.T) {
	s := New(Options{QueueCap: 32, Workers: 2})
	s.Start()
	var ids []string
	for i := 0; i < 10; i++ {
		resp, err := s.Submit(fftReq(int64(i + 1)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, resp.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		st, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone || st.Schedule == nil {
			t.Errorf("job %s after drain: state %s", id, st.State)
		}
	}
	if _, err := s.Submit(fftReq(1)); err == nil {
		t.Error("draining service accepted a submission")
	} else if he, ok := err.(*httpapi.Error); !ok || he.Code != http.StatusServiceUnavailable {
		t.Errorf("draining rejection: %v, want 503", err)
	}
}

// TestCloseRespectsContext: like internal/distrib's prompt-shutdown tests,
// Close must give up when its context expires while jobs are still in
// flight — and a later Close with a live context still completes the
// drain.
func TestCloseRespectsContext(t *testing.T) {
	s := New(Options{QueueCap: 4, Workers: 1})
	block := make(chan struct{})
	entered := make(chan struct{}, 4)
	s.testHookRun = func() {
		entered <- struct{}{}
		<-block
	}
	s.Start()
	if _, err := s.Submit(fftReq(1)); err != nil {
		t.Fatal(err)
	}
	<-entered // a worker is now wedged inside the job

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Close(ctx); err != context.Canceled {
		t.Fatalf("Close with cancelled context: %v, want context.Canceled", err)
	}

	close(block)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := s.Close(ctx2); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	st := s.Status()
	if st.Completed != 1 || st.Open != 0 {
		t.Errorf("after drain: %+v", st)
	}
}

// TestCoalescing: identical queued submissions share a single
// evaluation, and every submitter still gets a complete report.
func TestCoalescing(t *testing.T) {
	s := New(Options{QueueCap: 32, Workers: 2})
	var ids []string
	for i := 0; i < 6; i++ {
		resp, err := s.Submit(fftReq(7)) // identical graph, PEs, variant
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.ID)
	}
	// Drain without Start: Close starts the workers.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if st.Coalesced != 5 || st.Evaluations != 1 {
		t.Errorf("coalesced %d of 6 identical submissions in %d evaluations, want 5 in 1", st.Coalesced, st.Evaluations)
	}
	var first *ScheduleReport
	for _, id := range ids {
		js, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if js.State != StateDone || js.Schedule == nil {
			t.Fatalf("job %s: %+v", id, js)
		}
		if first == nil {
			first = js.Schedule
		} else if js.Schedule != first {
			// Same pointer: one evaluation served all six.
			t.Error("coalesced submissions did not share the evaluation")
		}
	}
}

// parkBacklog starts s with its worker held inside a small job of tenant
// "hold", admits reqs behind it, and leaves time for any dispatcher that
// acts on its own clock to move them: afterwards they wait for a worker.
// onRun, if set, runs at the start of every later evaluation. It returns
// the IDs of reqs and the function that lets the held worker go on.
func parkBacklog(t *testing.T, s *Service, onRun func(), reqs ...SubmitRequest) ([]string, func()) {
	t.Helper()
	entered, release := make(chan struct{}), make(chan struct{})
	var held sync.Once
	s.testHookRun = func() {
		first := false
		held.Do(func() { first = true })
		if first {
			close(entered)
			<-release
		} else if onRun != nil {
			onRun()
		}
	}
	s.Start()
	if _, err := s.Submit(SubmitRequest{Tenant: "hold", Workload: "synth:chain", Seed: 100, PEs: 4}); err != nil {
		t.Fatal(err)
	}
	<-entered
	var ids []string
	for _, req := range reqs {
		resp, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.ID)
	}
	time.Sleep(20 * time.Millisecond)
	return ids, func() { close(release) }
}

// drain closes s and fails the test if the drain does not finish.
func drain(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestParkedBacklogServedInFairOrder: eight econ (weight 1) jobs and then
// eight gold (weight 3) jobs wait behind a busy worker. Once it is free,
// the worker takes them in weighted-fair order, three gold to one econ,
// not in arrival order.
func TestParkedBacklogServedInFairOrder(t *testing.T) {
	cfg, err := ParseTenantsConfig([]byte(`{"tenants":{"gold":{"weight":3},"econ":{"weight":1}}}`))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, Tenants: cfg})
	var order []byte
	var gold, econ int64
	onRun := func() {
		g, e := gold, econ
		for _, ts := range s.Status().Tenants {
			switch ts.Name {
			case "gold":
				g = ts.Served
			case "econ":
				e = ts.Served
			}
		}
		switch {
		case g == gold+1 && e == econ:
			order = append(order, 'g')
		case e == econ+1 && g == gold:
			order = append(order, 'e')
		default:
			order = append(order, '?')
		}
		gold, econ = g, e
	}
	var reqs []SubmitRequest
	for i := int64(1); i <= 8; i++ {
		reqs = append(reqs, tenantReq("econ", i))
	}
	for i := int64(11); i <= 18; i++ {
		reqs = append(reqs, tenantReq("gold", i))
	}
	_, release := parkBacklog(t, s, onRun, reqs...)
	release()
	drain(t, s)
	// The hold job moved the virtual clock to 1, so econ enters at
	// progress 1 and gold at 3; ties go to the name first in order.
	if want := "ggegggegggeeeeee"; string(order) != want {
		t.Errorf("picks %q, want %q", order, want)
	}
}

// TestRunningNeverExceedsWorkers: statusz counts a job running only once
// a worker has it, so jobs waiting for the one worker read as queued.
func TestRunningNeverExceedsWorkers(t *testing.T) {
	s := New(Options{Workers: 1})
	var maxRunning int
	onRun := func() { maxRunning = max(maxRunning, s.Status().Running) }
	var reqs []SubmitRequest
	for i := int64(1); i <= 8; i++ {
		reqs = append(reqs, fftReq(i))
	}
	_, release := parkBacklog(t, s, onRun, reqs...)
	if st := s.Status(); st.Running != 1 || st.Queued != 8 {
		t.Errorf("parked backlog: running %d queued %d, want 1 and 8", st.Running, st.Queued)
	}
	release()
	drain(t, s)
	if maxRunning > 1 {
		t.Errorf("statusz read %d running with 1 worker", maxRunning)
	}
}

// TestShedReachesParkedJobs: largest-graph-first evicts a large job that
// is waiting for a worker to admit a small newcomer at a full queue.
func TestShedReachesParkedJobs(t *testing.T) {
	s := New(Options{QueueCap: 5, Workers: 1, ShedPolicy: ShedLargestGraphFirst})
	var big []SubmitRequest
	for i := int64(1); i <= 4; i++ {
		big = append(big, SubmitRequest{Tenant: "bulk", Workload: "synth:cholesky", Seed: i, PEs: 4})
	}
	ids, release := parkBacklog(t, s, nil, big...)
	if _, err := s.Submit(SubmitRequest{Tenant: "interactive", Workload: "synth:chain", Seed: 1, PEs: 4}); err != nil {
		t.Errorf("small newcomer at a full queue of parked large jobs: %v, want one of them shed", err)
	}
	// Equal sizes: the newest large job is the victim.
	if st, err := s.Result(ids[3]); err != nil || st.State != StateShed {
		t.Errorf("newest large job: %+v, %v; want shed", st, err)
	}
	release()
	drain(t, s)
	if st := s.Status(); st.Shed != 1 || st.Completed != 5 || st.Open != 0 {
		t.Errorf("after drain: shed %d completed %d open %d, want 1, 5, 0", st.Shed, st.Completed, st.Open)
	}
}

// TestPickedDuplicateJoinsRunningLeader: a job identical to one a worker
// is evaluating is picked by an idle worker, joins that evaluation, and
// costs no evaluation of its own.
func TestPickedDuplicateJoinsRunningLeader(t *testing.T) {
	s := New(Options{Workers: 2})
	entered, release := make(chan struct{}, 2), make(chan struct{})
	s.testHookRun = func() {
		entered <- struct{}{}
		<-release
	}
	s.Start()
	a, err := s.Submit(fftReq(7))
	if err != nil {
		t.Fatal(err)
	}
	<-entered // a's evaluation is running
	b, err := s.Submit(fftReq(7))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); s.Status().Coalesced == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(release)
	drain(t, s)
	st := s.Status()
	if st.Coalesced != 1 || st.Evaluations != 1 || st.Completed != 2 {
		t.Errorf("coalesced %d evaluations %d completed %d, want 1, 1, 2", st.Coalesced, st.Evaluations, st.Completed)
	}
	ra, _ := s.Result(a.ID)
	rb, _ := s.Result(b.ID)
	if ra.Schedule == nil || ra.Schedule != rb.Schedule {
		t.Error("the joined job did not receive its leader's report")
	}
}

// TestParkedDuplicatesShareOneEvaluation: identical jobs waiting behind
// the one busy worker cost a single evaluation between them. The first
// one picked leads; the copies picked after it finished take its report.
func TestParkedDuplicatesShareOneEvaluation(t *testing.T) {
	s := New(Options{Workers: 1})
	reqs := []SubmitRequest{fftReq(7), fftReq(7), fftReq(7), fftReq(7), fftReq(7)}
	ids, release := parkBacklog(t, s, nil, reqs...)
	release()
	drain(t, s)
	st := s.Status()
	// Two evaluations: the hold job's and one for the five copies.
	if st.Evaluations != 2 || st.Coalesced != 4 || st.Completed != 6 || st.Open != 0 {
		t.Errorf("evaluations %d coalesced %d completed %d open %d, want 2, 4, 6, 0",
			st.Evaluations, st.Coalesced, st.Completed, st.Open)
	}
	first, _ := s.Result(ids[0])
	for _, id := range ids {
		if r, _ := s.Result(id); r.Schedule == nil || r.Schedule != first.Schedule {
			t.Errorf("job %s did not receive the shared report", id)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.leaders) != 0 || len(s.queuedKeys) != 0 {
		t.Errorf("after drain: %d leaders and %d queued keys remembered, want none", len(s.leaders), len(s.queuedKeys))
	}
}

// TestResultEndpoints: unknown IDs 404, long-poll returns promptly once
// the job resolves, statusz counts add up.
func TestResultEndpoints(t *testing.T) {
	s := New(Options{QueueCap: 8, Workers: 2})
	s.Start()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	cl := &Client{Base: srv.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := cl.Result(ctx, "j999", 0); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown job: %v, want 404", err)
	}

	resp, _, ok, err := cl.Submit(ctx, fftReq(3))
	if err != nil || !ok {
		t.Fatalf("submit: ok=%v err=%v", ok, err)
	}
	st, err := cl.Result(ctx, resp.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Schedule == nil || st.Schedule.PEs != 8 {
		t.Fatalf("long-polled result: %+v", st)
	}

	hz, err := cl.Statusz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hz.Accepted != 1 || hz.Completed != 1 || hz.QueueCap != 8 {
		t.Errorf("statusz: %+v", hz)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestInlineGraphSubmission: an inline core-JSON graph schedules like a
// workload submission.
// TestInlineGraphInputlessSinkRejected: an inline graph whose sink has
// no predecessor is not canonical — the simulator would wait on it
// forever — and is answered 400 before it occupies the queue.
func TestInlineGraphInputlessSinkRejected(t *testing.T) {
	s := New(Options{QueueCap: 1})
	body := `{"graph": {"nodes": [
		{"name": "src", "kind": "source", "out": 8},
		{"name": "a", "kind": "compute", "in": 8, "out": 8},
		{"name": "out", "kind": "sink", "in": 8},
		{"name": "orphan", "kind": "sink", "in": 8}
	], "edges": [[0, 1], [1, 2]]}}`
	req := httptest.NewRequest(http.MethodPost, "/v1/submit", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var rej rejection
	if err := json.NewDecoder(rec.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusBadRequest || !strings.Contains(rej.Error, "sink 3 (orphan) has no inputs") {
		t.Errorf("status %d, error %q; want 400 naming the input-less sink", rec.Code, rej.Error)
	}
	if st := s.Status(); st.Queued != 0 || st.Accepted != 0 {
		t.Errorf("the rejected graph occupied the queue: %+v", st)
	}
}

func TestInlineGraphSubmission(t *testing.T) {
	tg, err := buildGraph(fftReq(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tg.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s := New(Options{QueueCap: 4, Workers: 1})
	s.Start()
	resp, err := s.Submit(SubmitRequest{Graph: buf.Bytes(), PEs: 8, Simulate: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, resp.ID, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("inline graph job: %+v", st)
	}
	if st.Schedule.Sim == nil || st.Schedule.Sim.Deadlocked {
		t.Errorf("simulate report: %+v", st.Schedule.Sim)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}
