package distrib

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"time"

	"repro/internal/distrib/faultpoint"
	"repro/internal/experiments"
	"repro/internal/httpapi"
	"repro/internal/results"
)

// Agent is a pull-based distributed-sweep worker: it fetches the run
// descriptor from a coordinator, recompiles the identical plan from the
// run's artifact metadata, and then loops — lease a batch of job indices,
// evaluate them on the local experiments.Runner worker pool (consulting
// the persistent results cache, when configured, so warm cells never
// recompute), upload the cells — until the coordinator reports the run
// done.
type Agent struct {
	// URL is the coordinator's base URL, e.g. "http://host:8077".
	URL string
	// Worker names this agent in leases, status, and batch provenance;
	// empty derives "host-pid".
	Worker string
	// Workers sizes the local evaluation pool; <= 0 means GOMAXPROCS.
	Workers int
	// Cache, when set, is the persistent results cache consulted before
	// evaluating any job (the same -cache directory a local run uses).
	Cache *results.Cache
	// Log receives progress notes; nil means os.Stderr.
	Log io.Writer
	// Client issues the HTTP requests; nil means a default client.
	Client *http.Client
	// ConnectWait bounds how long the agent keeps retrying the initial
	// run-descriptor fetch while the coordinator comes up; 0 means 30s.
	ConnectWait time.Duration
	// Token is sent as `Authorization: Bearer <Token>` on every request
	// when the coordinator runs with -token.
	Token string
	// RequestTimeout bounds each individual HTTP request; 0 means 2m. A
	// timed-out request counts as a transport failure and is retried —
	// safely, because every endpoint is idempotent: re-leasing returns
	// fresh work and re-uploading a completion dedups first-write-wins.
	RequestTimeout time.Duration
	// RetryWait bounds how long a mid-session request keeps retrying
	// (with capped jittered exponential backoff) through transport
	// failures and 429/502/503/504 answers before giving up; 0 means 2m,
	// negative disables retries. This is what carries an agent across a
	// coordinator crash + restart: requests fail or see the recovery
	// gate's 503 until replay finishes, then succeed.
	RetryWait time.Duration
	// RetrySeed seeds the backoff jitter; 0 draws from the clock. Tests
	// pin it for reproducible schedules.
	RetrySeed int64
}

// AgentReport summarizes one agent session.
type AgentReport struct {
	// Batches is how many leases the agent fulfilled; Jobs how many cell
	// jobs it ran, of which Failed errored and CacheHits came from the
	// persistent results cache.
	Batches   int
	Jobs      int
	Failed    int
	CacheHits int
	Elapsed   time.Duration
}

func (a *Agent) log() io.Writer {
	if a.Log != nil {
		return a.Log
	}
	return os.Stderr
}

func (a *Agent) worker() string {
	if a.Worker != "" {
		return a.Worker
	}
	host, err := os.Hostname()
	if err != nil {
		host = "agent"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// Run executes the agent loop until the run completes, the context is
// canceled, or the coordinator becomes unreachable after the session
// started (a vanished coordinator ends the session cleanly: whatever this
// agent had leased will be requeued elsewhere once its leases expire, and
// a coordinator that already finished has no more work to hand out).
func (a *Agent) Run(ctx context.Context) (AgentReport, error) {
	start := time.Now()
	worker := a.worker()
	var rep AgentReport

	info, reached, err := a.fetchRunInfo(ctx)
	if err != nil {
		if reached && ctx.Err() == nil {
			// The coordinator answered, then went away before the join
			// completed: it most likely finished the run and exited.
			return a.sessionEnd(rep, start, err)
		}
		return rep, err
	}
	specs, err := experiments.SpecsFromMeta(info.Meta)
	if err != nil {
		return rep, fmt.Errorf("distrib: agent: rebuilding specs from run metadata: %w", err)
	}
	plan, err := experiments.Compile(specs)
	if err != nil {
		return rep, fmt.Errorf("distrib: agent: recompiling plan: %w", err)
	}
	if h := experiments.PlanHash(plan); h != info.PlanHash {
		return rep, fmt.Errorf("distrib: agent: local plan hash %s does not match the coordinator's %s; coordinator and agent must run the same build with compatible tables", h, info.PlanHash)
	}
	fmt.Fprintf(a.log(), "distrib: agent %s joined run %s: %d jobs total, batches of %d\n",
		worker, info.Run, info.Jobs, info.BatchSize)

	// One timer serves every idle wait; it starts stopped, so each Reset
	// below arms a timer with an empty channel.
	idle := time.NewTimer(time.Hour)
	idle.Stop()
	for {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		var lease LeaseResponse
		err := a.postJSON(ctx, "/v1/lease", LeaseRequest{Worker: worker, PlanHash: info.PlanHash}, &lease)
		if err != nil {
			return a.sessionEnd(rep, start, err)
		}
		if lease.Done {
			return a.sessionDone(rep, start)
		}
		if len(lease.Jobs) == 0 {
			wait := lease.RetryAfter
			if wait <= 0 {
				wait = time.Second
			}
			idle.Reset(wait)
			select {
			case <-ctx.Done():
				idle.Stop()
				return rep, ctx.Err()
			case <-idle.C:
			}
			continue
		}

		runner := experiments.Runner{Workers: a.Workers, Only: lease.Jobs, Results: a.Cache}
		set, runRep := runner.RunPlan(plan)
		rep.Batches++
		rep.Jobs += runRep.Jobs
		rep.Failed += len(runRep.Failures)
		rep.CacheHits += runRep.CacheHits

		meta := info.Meta
		meta.Distrib = &results.DistribMeta{
			Run:    info.Run,
			Worker: worker,
			Lease:  lease.Lease,
			Batch:  rep.Batches,
		}
		batch := results.Artifact{Schema: results.SchemaVersion, Meta: meta, Cells: set.Cells()}
		for _, f := range runRep.Failures {
			batch.Failures = append(batch.Failures, results.Failure{Label: f.Job.String(), Err: f.Err.Error()})
		}
		var ack CompleteResponse
		err = a.postJSON(ctx, "/v1/complete", CompleteRequest{
			Worker: worker, Lease: lease.Lease, PlanHash: info.PlanHash, Artifact: batch,
		}, &ack)
		if err != nil {
			return a.sessionEnd(rep, start, err)
		}
		fmt.Fprintf(a.log(), "distrib: agent %s batch %d: %d jobs, %d accepted, %d duplicates\n",
			worker, rep.Batches, runRep.Jobs, ack.Accepted, ack.Duplicates)
		// The ack says whether this upload resolved the run's last open
		// job. Exiting on it (rather than polling for another lease)
		// matters because the coordinator shuts down the moment the run
		// completes: one more poll would race the shutdown and burn the
		// refused-dial budget against an address that is gone for good.
		if ack.Done {
			return a.sessionDone(rep, start)
		}
	}
}

// sessionDone ends a session whose run completed.
func (a *Agent) sessionDone(rep AgentReport, start time.Time) (AgentReport, error) {
	rep.Elapsed = time.Since(start)
	fmt.Fprintf(a.log(), "distrib: agent %s done: %d batches, %d jobs (%d failed, %d cached) in %v\n",
		a.worker(), rep.Batches, rep.Jobs, rep.Failed, rep.CacheHits, rep.Elapsed.Round(time.Millisecond))
	return rep, nil
}

// sessionEnd classifies a mid-session request error. Protocol rejections
// (the coordinator answered, and said no) abort the agent; transport
// errors after a successful join mean the coordinator is gone — most
// likely it finished the run and exited between two of our polls — so the
// session ends cleanly.
func (a *Agent) sessionEnd(rep AgentReport, start time.Time, err error) (AgentReport, error) {
	rep.Elapsed = time.Since(start)
	if httpapi.Code(err) != 0 {
		return rep, err
	}
	fmt.Fprintf(a.log(), "distrib: agent %s: coordinator unreachable (%v); assuming the run ended\n", a.worker(), err)
	return rep, nil
}

// connectWait is ConnectWait with its default applied.
func (a *Agent) connectWait() time.Duration {
	if a.ConnectWait <= 0 {
		return 30 * time.Second
	}
	return a.ConnectWait
}

// fetchRunInfo retries the initial GET /v1/run until the coordinator is
// reachable, so agents can be started before (or while) the coordinator
// comes up. Its own retry policy (not postJSON's RetryWait budget) lets
// ConnectWait alone govern how long joining may take. A 503 is retried
// like a transport failure — that is the recovery gate saying the
// coordinator is up but still replaying its journal; any other rejection
// is fatal. reached reports whether any attempt got an HTTP answer.
func (a *Agent) fetchRunInfo(ctx context.Context) (info RunInfo, reached bool, err error) {
	wait := a.connectWait()
	policy := httpapi.Retry{Budget: wait, Base: 150 * time.Millisecond, Cap: 2 * time.Second, Seed: a.RetrySeed, Retryable: retryableErr}
	err = policy.Do(ctx, func() error {
		err := a.once(ctx, http.MethodGet, "/v1/run", nil, &info)
		reached = reached || err == nil || httpapi.Code(err) != 0
		return err
	})
	switch {
	case err == nil:
		return info, true, nil
	case ctx.Err() != nil:
		return RunInfo{}, reached, ctx.Err()
	case !retryableErr(err):
		return RunInfo{}, reached, fmt.Errorf("distrib: agent: joining run: %w", err)
	}
	return RunInfo{}, reached, fmt.Errorf("distrib: agent: coordinator at %s unreachable after %v: %w", a.URL, wait, err)
}

// postJSON issues one logical POST, retrying transient failures —
// transport errors, per-request timeouts, and 429/502/503/504 answers —
// with capped jittered exponential backoff for up to RetryWait. A
// Retry-After the server sent (the recovery gate does, and so does
// admission control) raises that attempt's wait. Retrying is safe
// because the protocol is idempotent end to end: a duplicate lease
// request just leases whatever is pending now, and a duplicate
// completion dedups first-write-wins — across coordinator restarts too,
// since completions are journaled before they are acknowledged.
//
// Refused dials get the shorter ConnectWait budget: no process is
// listening at all, which is either the window between a crash and a
// restart or a coordinator that finished the run and exited for good —
// and only the first is worth ConnectWait's patience. Failures from a
// live coordinator (timeouts, the recovery gate's 503s, a broken
// journal) keep the full RetryWait.
func (a *Agent) postJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	budget := a.RetryWait
	if budget == 0 {
		budget = 2 * time.Minute
	}
	refusedDeadline := time.Now().Add(min(a.connectWait(), budget))
	policy := httpapi.Retry{Budget: budget, Seed: a.RetrySeed, Retryable: func(err error) bool {
		return retryableErr(err) && !(errors.Is(err, syscall.ECONNREFUSED) && time.Now().After(refusedDeadline))
	}}
	return policy.Do(ctx, func() error { return a.once(ctx, http.MethodPost, path, body, out) })
}

// once issues a single attempt under the per-request timeout.
func (a *Agent) once(ctx context.Context, method, path string, body []byte, out any) error {
	if err := faultpoint.Hit("distrib.agent.request"); err != nil {
		return err
	}
	if path == "/v1/complete" {
		if err := faultpoint.Hit("distrib.agent.upload"); err != nil {
			return err
		}
	}
	timeout := a.RequestTimeout
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	cl := httpapi.Client{HTTP: a.Client, Base: strings.TrimSuffix(a.URL, "/"), Token: a.Token, Timeout: timeout}
	return cl.Call(ctx, method, path, body, out)
}

// retryableErr reports whether an attempt's failure is worth retrying:
// any transport-level failure (including a per-request timeout), or a
// response that says "not right now" — 429 from admission control,
// 502/504 from an intermediary, 503 from the recovery gate or a
// coordinator whose journal is catching its breath.
func retryableErr(err error) bool {
	switch httpapi.Code(err) {
	case 0, http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// FetchStatus retrieves a coordinator's /v1/status report; it backs
// `cmd/experiments -status`. token may be empty for an unauthenticated
// coordinator. One attempt, no retry loop: a status probe should report
// an unreachable coordinator, not paper over it.
func FetchStatus(ctx context.Context, client *http.Client, url, token string) (Status, error) {
	a := &Agent{URL: url, Client: client, Token: token}
	var st Status
	if err := a.once(ctx, http.MethodGet, "/v1/status", nil, &st); err != nil {
		return Status{}, fmt.Errorf("distrib: fetching status from %s: %w", url, err)
	}
	return st, nil
}
