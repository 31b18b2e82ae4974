package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/httpapi"
	"repro/internal/results"
)

// localArtifact runs the specs unsharded in-process and writes the
// artifact exactly as `cmd/experiments -out` does — the byte-level oracle
// for every distributed run.
func localArtifact(t *testing.T, specs []experiments.Spec, path string) {
	t.Helper()
	plan, err := experiments.Compile(specs)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	set, rep := experiments.Runner{}.RunPlan(plan)
	if len(rep.Failures) > 0 {
		t.Fatalf("local reference run failed jobs: %v", rep.Failures)
	}
	art := &results.Artifact{Meta: experiments.MetaFromSpecs(specs, 0, 1), Cells: set.Cells()}
	if err := art.WriteFile(path); err != nil {
		t.Fatalf("writing local artifact: %v", err)
	}
}

// Two agents pull batches from one coordinator over real HTTP; the merged
// artifact must be byte-identical to the local unsharded run.
func TestTwoAgentsByteIdenticalArtifact(t *testing.T) {
	// placement, heft, and pipeline carry no measured wall-clock cells, so
	// byte-identity needs no shared warm cache (heft also exercises
	// cross-experiment cell sharing with the SB-LTS sweep cells).
	specs := testSpecs("placement", "heft", "pipeline")
	dir := t.TempDir()
	seq := filepath.Join(dir, "seq.json")
	localArtifact(t, specs, seq)

	coord, err := NewCoordinator(specs, CoordinatorOptions{
		LeaseTimeout: time.Minute,
		BatchSize:    7, // odd on purpose: batches straddle experiment boundaries
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	reports := make([]AgentReport, 2)
	errs := make([]error, 2)
	for i, name := range []string{"agent-1", "agent-2"} {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			a := &Agent{URL: srv.URL, Worker: name, Workers: 2, Log: io.Discard}
			reports[i], errs[i] = a.Run(context.Background())
		}(i, name)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("agent %d: %v", i+1, err)
		}
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("agents returned but the run is not done")
	}
	if got := reports[0].Jobs + reports[1].Jobs; got != len(coord.Plan().Jobs) {
		t.Fatalf("agents ran %d jobs total, plan has %d", got, len(coord.Plan().Jobs))
	}

	dist := filepath.Join(dir, "dist.json")
	if err := coord.Artifact().WriteFile(dist); err != nil {
		t.Fatalf("writing merged artifact: %v", err)
	}
	wantBytes, err := os.ReadFile(seq)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := os.ReadFile(dist)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBytes, gotBytes) {
		t.Fatalf("distributed artifact differs from the local unsharded run\nlocal:       %d bytes\ndistributed: %d bytes", len(wantBytes), len(gotBytes))
	}
}

// A worker that leases a batch and dies never completes it; the lease
// expires, the jobs requeue, and a surviving agent finishes the run.
func TestAgentDeathMidRunStillCompletes(t *testing.T) {
	specs := testSpecs("pipeline")
	coord, err := NewCoordinator(specs, CoordinatorOptions{
		LeaseTimeout: 300 * time.Millisecond,
		BatchSize:    8,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	// The doomed worker takes a batch straight off the queue and vanishes.
	doomed, err := coord.Lease(LeaseRequest{Worker: "doomed", PlanHash: coord.planHash})
	if err != nil {
		t.Fatalf("doomed lease: %v", err)
	}
	if len(doomed.Jobs) == 0 {
		t.Fatal("doomed worker leased no jobs")
	}

	a := &Agent{URL: srv.URL, Worker: "survivor", Workers: 2, Log: io.Discard}
	rep, err := a.Run(context.Background())
	if err != nil {
		t.Fatalf("surviving agent: %v", err)
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("run not done after the surviving agent returned")
	}
	st := coord.Status()
	if st.Requeues < len(doomed.Jobs) {
		t.Fatalf("status requeues = %d, want at least the doomed worker's %d jobs", st.Requeues, len(doomed.Jobs))
	}
	if rep.Jobs != len(coord.Plan().Jobs) {
		t.Fatalf("survivor ran %d jobs, want all %d (including the requeued batch)", rep.Jobs, len(coord.Plan().Jobs))
	}
	if got := len(coord.Artifact().Cells); got != len(coord.Plan().Jobs) {
		t.Fatalf("artifact has %d cells, want %d", got, len(coord.Plan().Jobs))
	}
}

// Agents consulting a shared persistent results cache serve warm cells
// without recomputing them.
func TestAgentUsesResultsCache(t *testing.T) {
	specs := testSpecs("pipeline")
	cache, err := results.OpenCache(t.TempDir())
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}

	// Warm the cache with a local run, as a previous sweep would have.
	plan, err := experiments.Compile(specs)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if _, rep := (experiments.Runner{Results: cache}).RunPlan(plan); len(rep.Failures) > 0 {
		t.Fatalf("warming run failed: %v", rep.Failures)
	}

	coord, err := NewCoordinator(specs, CoordinatorOptions{LeaseTimeout: time.Minute, BatchSize: 16})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	a := &Agent{URL: srv.URL, Worker: "warm", Workers: 2, Cache: cache, Log: io.Discard}
	rep, err := a.Run(context.Background())
	if err != nil {
		t.Fatalf("agent: %v", err)
	}
	if rep.CacheHits != rep.Jobs || rep.Jobs != len(coord.Plan().Jobs) {
		t.Fatalf("agent report %+v: want every one of the %d jobs served from cache", rep, len(coord.Plan().Jobs))
	}
}

// The status endpoint reports progress over HTTP, including per-worker
// stats, and FetchStatus (behind `cmd/experiments -status`) reads it.
func TestStatusEndpoint(t *testing.T) {
	specs := testSpecs("pipeline")
	coord, err := NewCoordinator(specs, CoordinatorOptions{LeaseTimeout: time.Minute, BatchSize: 4, Run: "testrun"})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	l, err := coord.Lease(LeaseRequest{Worker: "w", PlanHash: coord.planHash})
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	if _, err := coord.Complete(completeReq(coord, "w", l.Lease, l.Jobs)); err != nil {
		t.Fatalf("complete: %v", err)
	}

	st, err := FetchStatus(context.Background(), nil, srv.URL, "")
	if err != nil {
		t.Fatalf("FetchStatus: %v", err)
	}
	if st.Run != "testrun" || st.Jobs != len(coord.Plan().Jobs) || st.Completed != len(l.Jobs) {
		t.Fatalf("status = %+v, want run testrun with %d completed of %d", st, len(l.Jobs), len(coord.Plan().Jobs))
	}
	w, ok := st.Workers["w"]
	if !ok || w.Leases != 1 || w.Completed != len(l.Jobs) {
		t.Fatalf("worker stats = %+v, want one lease with %d completions", st.Workers, len(l.Jobs))
	}
}

// A canceled context must end an agent promptly even while it is parked in
// the empty-lease backoff: the wait runs on a reused timer that observes
// cancelation, it does not sleep out the coordinator's RetryAfter.
func TestAgentShutdownPromptDuringBackoff(t *testing.T) {
	specs := testSpecs("pipeline")
	coord, err := NewCoordinator(specs, CoordinatorOptions{LeaseTimeout: time.Minute})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	// Pass join traffic through to the real coordinator, but answer every
	// lease request with "nothing available, retry in an hour".
	real := coord.Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(LeaseResponse{RetryAfter: time.Hour})
	})
	mux.Handle("/", real)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	a := &Agent{URL: srv.URL, Worker: "backoff", Workers: 1, Log: io.Discard}
	go func() {
		_, err := a.Run(ctx)
		done <- err
	}()

	time.Sleep(200 * time.Millisecond) // let the agent join and park in backoff
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
		if waited := time.Since(start); waited > 2*time.Second {
			t.Fatalf("agent took %v to observe cancelation mid-backoff", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("agent still running 5s after cancelation; backoff ignored the context")
	}
}

// A journaled coordinator is SIGKILL'd (abrupt listener + journal close)
// mid-run while an agent is working; a successor restarts from the state
// directory on the same address. The agent rides the outage on its retry
// budget — connect-refused, backoff, resume — and the merged artifact is
// byte-identical to the local unsharded run.
func TestAgentRidesCoordinatorRestart(t *testing.T) {
	specs := testSpecs("pipeline")
	state := t.TempDir()
	golden := filepath.Join(t.TempDir(), "seq.json")
	localArtifact(t, specs, golden)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	opt := CoordinatorOptions{LeaseTimeout: 30 * time.Second, BatchSize: 1, StateDir: state}
	c1, err := NewCoordinator(specs, opt)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv1 := &http.Server{Handler: c1.Handler()}
	go srv1.Serve(ln)

	a := &Agent{URL: "http://" + addr, Worker: "rider", Workers: 2, Log: io.Discard,
		ConnectWait: 30 * time.Second, RequestTimeout: 10 * time.Second,
		RetryWait: 2 * time.Minute, RetrySeed: 1}
	agentDone := make(chan error, 1)
	go func() {
		_, err := a.Run(context.Background())
		agentDone <- err
	}()

	// Let the agent land a couple of batches, then yank the coordinator
	// out from under it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := c1.Status()
		if st.Completed >= 2 || st.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("agent made no progress before the kill window: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	srv1.Close()
	c1.Close()

	// Restart from the journal on the same address. The port may linger
	// briefly after the abrupt close, so re-binding retries.
	c2, err := NewCoordinator(specs, opt)
	if err != nil {
		t.Fatalf("restarting coordinator from %s: %v", state, err)
	}
	if ri := c2.Recovery(); ri == nil || !ri.Resumed {
		t.Fatalf("restarted coordinator did not resume: %+v", c2.Recovery())
	}
	var ln2 net.Listener
	for i := 0; ; i++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i >= 200 {
			t.Fatalf("re-binding %s after restart: %v", addr, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	srv2 := &http.Server{Handler: c2.Handler()}
	defer srv2.Close()
	go srv2.Serve(ln2)

	if err := <-agentDone; err != nil {
		t.Fatalf("agent across the restart: %v", err)
	}
	select {
	case <-c2.Done():
	default:
		t.Fatal("agent returned but the resumed run is not done")
	}
	if st := c2.Status(); !st.Recovered {
		t.Fatal("resumed coordinator's status does not report recovery")
	}

	dist := filepath.Join(t.TempDir(), "dist.json")
	if err := c2.Artifact().WriteFile(dist); err != nil {
		t.Fatalf("writing merged artifact: %v", err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dist)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("artifact after the restart differs from the local unsharded run\nlocal:    %d bytes\nrestarted: %d bytes", len(want), len(got))
	}
}

// TestAgentJoinRaceEndsCleanly: an agent whose join reached the
// coordinator — here, one 503 from the recovery gate — and then saw only
// refused dials ends the way a mid-session refusal does, assuming the run
// ended, while an agent that never reached anything still errors.
func TestAgentJoinRaceEndsCleanly(t *testing.T) {
	answered := make(chan struct{})
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(answered) })
		httpapi.Reject(w, httpapi.Errorf(http.StatusServiceUnavailable, "recovering"))
	}))
	var log bytes.Buffer
	a := &Agent{URL: srv.URL, Worker: "late", Log: &log, ConnectWait: 300 * time.Millisecond, RetrySeed: 1}
	done := make(chan error, 1)
	go func() {
		_, err := a.Run(context.Background())
		done <- err
	}()
	<-answered
	srv.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("agent that reached the coordinator: %v, want a clean end", err)
		}
		if !strings.Contains(log.String(), "assuming the run ended") {
			t.Errorf("log %q does not say the run ended", log.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("agent still retrying 10s after the coordinator went away")
	}

	// The same closed address, never reached: joining fails.
	never := &Agent{URL: srv.URL, Worker: "never", Log: io.Discard, ConnectWait: 300 * time.Millisecond, RetrySeed: 1}
	if _, err := never.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("agent that never reached the coordinator: %v, want an unreachable error", err)
	}
}

// Cancelation is equally prompt while the agent is still retrying the
// initial join against an unreachable coordinator.
func TestAgentShutdownPromptDuringConnectRetry(t *testing.T) {
	a := &Agent{URL: "http://127.0.0.1:1", Worker: "joining", Log: io.Discard,
		ConnectWait: time.Minute, Client: &http.Client{Timeout: 100 * time.Millisecond}}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Run(ctx)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
		if waited := time.Since(start); waited > 2*time.Second {
			t.Fatalf("agent took %v to observe cancelation during connect retries", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("agent still retrying 5s after cancelation")
	}
}
