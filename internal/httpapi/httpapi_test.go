package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

type payload struct {
	Name string `json:"name"`
}

// echo answers a small POST body back.
var echo = Post(64, func(p payload) (payload, error) { return p, nil })

// TestServerAnswers drives the shared server half through httptest: the
// codec's status codes, the rejection body and its Retry-After, and
// bearer auth.
func TestServerAnswers(t *testing.T) {
	rejecting := func(err error) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { Reject(w, err) })
	}
	authed := RequireToken("test", "sesame", echo)
	cases := []struct {
		name        string
		h           http.Handler
		method      string
		contentType string
		auth        string
		body        string
		want        int
		wantError   string // the body's "error" field; "" means a success body
		wantHeaders map[string]string
	}{
		{name: "GET on a POST endpoint", h: echo, method: http.MethodGet, want: 405, wantError: "POST only"},
		{name: "POST on a GET endpoint", h: Get(func() payload { return payload{Name: "a"} }), want: 405, wantError: "GET only"},
		{name: "GET endpoint", h: Get(func() payload { return payload{Name: "a"} }), method: http.MethodGet, want: 200},
		{name: "missing Content-Type", h: echo, body: `{}`, want: 415, wantError: `Content-Type "": POST bodies must be application/json`},
		{name: "text/plain", h: echo, contentType: "text/plain", body: `{}`, want: 415, wantError: `Content-Type "text/plain": POST bodies must be application/json`},
		{name: "JSON with a charset", h: echo, contentType: "application/json; charset=utf-8", body: `{"name":"a"}`, want: 200},
		{name: "oversize", h: echo, contentType: "application/json", body: `{"name":"` + strings.Repeat("a", 64) + `"}`, want: 413, wantError: "request body exceeds the 64 byte limit for this endpoint"},
		{name: "malformed", h: echo, contentType: "application/json", body: `{not json`, want: 400, wantError: "bad request body: invalid character 'n' looking for beginning of object key string"},
		{name: "typed rejection", h: rejecting(&Error{Code: 503, Msg: "busy", RetryAfter: 1500 * time.Millisecond}), want: 503, wantError: "busy",
			wantHeaders: map[string]string{"Retry-After": "2", "Content-Type": "application/json"}},
		{name: "sub-second Retry-After", h: rejecting(&Error{Code: 429, Msg: "full", RetryAfter: time.Millisecond}), want: 429, wantError: "full",
			wantHeaders: map[string]string{"Retry-After": "1"}},
		{name: "untyped error", h: rejecting(errors.New("boom")), want: 500, wantError: "boom", wantHeaders: map[string]string{"Retry-After": ""}},
		{name: "no token", h: authed, contentType: "application/json", body: `{"name":"a"}`, want: 401,
			wantError: "missing or invalid bearer token (pass -token)", wantHeaders: map[string]string{"WWW-Authenticate": `Bearer realm="test"`}},
		{name: "wrong token", h: authed, auth: "Bearer sesame-and-then-some", contentType: "application/json", body: `{"name":"a"}`, want: 401,
			wantError: "missing or invalid bearer token (pass -token)"},
		{name: "not a bearer", h: authed, auth: "Basic sesame", contentType: "application/json", body: `{"name":"a"}`, want: 401,
			wantError: "missing or invalid bearer token (pass -token)"},
		{name: "right token", h: authed, auth: "Bearer sesame", contentType: "application/json", body: `{"name":"a"}`, want: 200},
	}
	for _, c := range cases {
		method := c.method
		if method == "" {
			method = http.MethodPost
		}
		req := httptest.NewRequest(method, "/", strings.NewReader(c.body))
		if c.contentType != "" {
			req.Header.Set("Content-Type", c.contentType)
		}
		if c.auth != "" {
			req.Header.Set("Authorization", c.auth)
		}
		rec := httptest.NewRecorder()
		c.h.ServeHTTP(rec, req)
		if rec.Code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, rec.Code, c.want)
		}
		for k, v := range c.wantHeaders {
			if got := rec.Header().Get(k); got != v {
				t.Errorf("%s: %s = %q, want %q", c.name, k, got, v)
			}
		}
		if c.wantError == "" {
			if got := rec.Body.String(); got != "{\n  \"name\": \"a\"\n}\n" {
				t.Errorf("%s: body %q, want the echoed indented payload", c.name, got)
			}
			continue
		}
		want, _ := json.MarshalIndent(errorBody{Error: c.wantError}, "", "  ")
		if got := rec.Body.String(); got != string(want)+"\n" {
			t.Errorf("%s: body %q, want %q", c.name, got, string(want)+"\n")
		}
	}
}

// A Retry-After longer than the backoff step wins, and a non-2xx answer
// comes back typed with its message taken from the error body.
func TestRetryHonoursRetryAfter(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			Reject(w, &Error{Code: http.StatusServiceUnavailable, Msg: "warming up", RetryAfter: time.Second})
		case 2:
			Reject(w, Errorf(http.StatusConflict, "no such plan"))
		default:
			WriteJSON(w, http.StatusOK, payload{Name: "late"})
		}
	}))
	defer srv.Close()
	cl := Client{Base: srv.URL, Timeout: 10 * time.Second}
	retryable := func(err error) bool { return Code(err) != http.StatusConflict }
	policy := Retry{Budget: time.Minute, Base: time.Millisecond, Cap: time.Millisecond, Seed: 1, Retryable: retryable}

	start := time.Now()
	var got payload
	err := policy.Do(context.Background(), func() error { return cl.Call(context.Background(), http.MethodGet, "/x", nil, &got) })
	if waited := time.Since(start); waited < time.Second {
		t.Errorf("retried after %v, before the 1s Retry-After", waited)
	}
	var he *Error
	if !errors.As(err, &he) || he.Code != http.StatusConflict || he.Msg != "GET /x: 409 Conflict: no such plan" {
		t.Fatalf("non-retryable answer: %#v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d attempts, want 2 (the 409 is final)", n)
	}
	if err := policy.Do(context.Background(), func() error { return cl.Call(context.Background(), http.MethodGet, "/x", nil, &got) }); err != nil || got.Name != "late" {
		t.Fatalf("third call: %v, %+v", err, got)
	}
}

// Serve answers until done closes, then returns nil after a graceful
// shutdown.
func TestServeUntilDone(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	served := make(chan error, 1)
	go func() { served <- Serve(ln, echo, done, 5*time.Second) }()

	var got payload
	cl := Client{Base: "http://" + ln.Addr().String()}
	if err := cl.Call(context.Background(), http.MethodPost, "/", []byte(`{"name":"a"}`), &got); err != nil || got.Name != "a" {
		t.Fatalf("call while serving: %v, %+v", err, got)
	}
	close(done)
	if err := <-served; err != nil {
		t.Fatalf("Serve after done: %v", err)
	}
	if err := cl.Call(context.Background(), http.MethodPost, "/", []byte(`{}`), nil); err == nil {
		t.Fatal("server still answering after shutdown")
	}
}
