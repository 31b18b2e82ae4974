package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"syscall"
	"time"

	"repro/internal/httpapi"
)

// Client speaks the service's JSON protocol to a remote instance.
type Client struct {
	// Base is the service root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// RequestTimeout bounds each individual HTTP attempt; 0 leaves the
	// transport's own limits in charge. It must comfortably exceed the
	// long-poll window passed to Result, or every poll times out.
	RequestTimeout time.Duration
	// RetryWait, when positive, retries failed requests with capped
	// jittered exponential backoff for up to this total duration. GETs
	// (Result, Statusz) are idempotent and retry through any transport
	// failure or 502/503/504. Submit is NOT idempotent — a retried
	// submit whose first attempt actually landed creates a second job —
	// so it retries only failures that prove the request never reached
	// the service: a refused connection, or a 503 (the service rejects
	// before admitting while draining or coming up). Zero keeps the old
	// fail-fast behavior.
	RetryWait time.Duration
	// RetrySeed seeds the backoff jitter; 0 draws from the clock.
	RetrySeed int64
}

// call issues one logical request: attempts bounded by RequestTimeout,
// failures that retryable approves retried for up to RetryWait.
func (c *Client) call(ctx context.Context, retryable func(error) bool, method, path string, body []byte, out any) error {
	cl := httpapi.Client{HTTP: c.HTTP, Base: c.Base, Timeout: c.RequestTimeout}
	policy := httpapi.Retry{Budget: c.RetryWait, Seed: c.RetrySeed, Retryable: retryable}
	return policy.Do(ctx, func() error { return cl.Call(ctx, method, path, body, out) })
}

// retryableGet approves retrying an idempotent request: any transport
// failure, or a gateway/availability status.
func retryableGet(err error) bool {
	switch httpapi.Code(err) {
	case 0, http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// retryableSubmit approves retrying a submission: only failures that
// prove the request was never admitted.
func retryableSubmit(err error) bool {
	code := httpapi.Code(err)
	return code == http.StatusServiceUnavailable || code == 0 && errors.Is(err, syscall.ECONNREFUSED)
}

// Submit posts one submission. A 429 returns accepted=false with the
// rejection's queue depth and no error; other non-2xx statuses are
// errors. See RetryWait for which failures are retried.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (resp SubmitResponse, depth int, accepted bool, err error) {
	body, err := AppendSubmit(make([]byte, 0, len(req.Graph)+256), req)
	if err != nil {
		return SubmitResponse{}, 0, false, err
	}
	err = c.call(ctx, retryableSubmit, http.MethodPost, "/v1/submit", body, &resp)
	var he *httpapi.Error
	if errors.As(err, &he) && he.Code == http.StatusTooManyRequests {
		var rej rejection
		if err := json.Unmarshal(he.Body, &rej); err != nil {
			return SubmitResponse{}, 0, false, err
		}
		return SubmitResponse{}, rej.QueueDepth, false, nil
	}
	if err != nil {
		return SubmitResponse{}, 0, false, err
	}
	return resp, resp.QueueDepth, true, nil
}

// Result fetches a job's status, long-polling up to wait when positive.
func (c *Client) Result(ctx context.Context, id string, wait time.Duration) (JobStatus, error) {
	path := "/v1/result/" + id
	if wait > 0 {
		path += "?wait=" + wait.String()
	}
	var body []byte
	if err := c.call(ctx, retryableGet, http.MethodGet, path, nil, &body); err != nil {
		return JobStatus{}, err
	}
	st, err := ReadStatus(body)
	if err != nil {
		return JobStatus{}, fmt.Errorf("GET %s: %w", path, err)
	}
	return st, nil
}

// Statusz fetches the service health report.
func (c *Client) Statusz(ctx context.Context) (Statusz, error) {
	var st Statusz
	if err := c.call(ctx, retryableGet, http.MethodGet, "/v1/statusz", nil, &st); err != nil {
		return Statusz{}, err
	}
	return st, nil
}

// ErrShed is the Await result of a job the service accepted but then
// evicted under its load-shed policy: the request was neither completed
// nor errored, and the load generator accounts it separately.
var ErrShed = fmt.Errorf("job shed by service load-shed policy")

// overrideReq specializes a target's base submission for one arrival:
// non-empty tenant and workload fields replace the base request's.
func overrideReq(base SubmitRequest, tenant, workload string) SubmitRequest {
	if tenant != "" {
		base.Tenant = tenant
	}
	if workload != "" {
		base.Workload = workload
		base.Graph = nil
	}
	return base
}

// HTTPTarget drives a remote service with one submission per arrival —
// the load generator's Target over the wire. Req is the base request;
// a tenant mix overrides its tenant and workload per arrival.
type HTTPTarget struct {
	Client *Client
	Req    SubmitRequest
	// Wait is the long-poll window per Await round trip; 0 means 10s.
	Wait time.Duration
}

func (t *HTTPTarget) Submit(ctx context.Context, tenant, workload string) (string, int, bool, error) {
	resp, depth, ok, err := t.Client.Submit(ctx, overrideReq(t.Req, tenant, workload))
	return resp.ID, depth, ok, err
}

func (t *HTTPTarget) Await(ctx context.Context, id string) error {
	wait := t.Wait
	if wait <= 0 {
		wait = 10 * time.Second
	}
	return await(ctx, id, func() (JobStatus, error) { return t.Client.Result(ctx, id, wait) })
}

// LocalTarget drives an in-process Service directly — the same admission
// and scheduling path as HTTP minus the socket, used by `streamsched
// -loadtest` and the deterministic tests.
type LocalTarget struct {
	Service *Service
	Req     SubmitRequest
}

func (t *LocalTarget) Submit(ctx context.Context, tenant, workload string) (string, int, bool, error) {
	resp, err := t.Service.Submit(overrideReq(t.Req, tenant, workload))
	if err != nil {
		if ae, ok := err.(*admissionError); ok {
			return "", ae.depth, false, nil
		}
		return "", 0, false, err
	}
	return resp.ID, resp.QueueDepth, true, nil
}

func (t *LocalTarget) Await(ctx context.Context, id string) error {
	return await(ctx, id, func() (JobStatus, error) { return t.Service.Wait(ctx, id, maxWait) })
}

// await long-polls job id until it resolves: nil once done, ErrShed or
// the failure otherwise.
func await(ctx context.Context, id string, poll func() (JobStatus, error)) error {
	for {
		st, err := poll()
		if err != nil {
			return err
		}
		switch st.State {
		case StateDone:
			return nil
		case StateShed:
			return ErrShed
		case StateFailed:
			return fmt.Errorf("job %s failed: %s", id, st.Error)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}
