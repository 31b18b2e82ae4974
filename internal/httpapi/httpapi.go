// Package httpapi is the JSON-over-HTTP layer shared by the scheduling
// service (internal/service) and the sweep coordinator and its agents
// (internal/distrib): one codec with bounded request bodies, one error
// type, one error-body shape, bearer-token auth, the serve-until-done
// lifecycle, and on the client side one single-attempt call and one
// retry loop with seeded, capped exponential backoff. Every non-2xx answer of either server carries the body
//
//	{"error": "<message>"}
//
// (the service's 429s add admission fields), so a client reads failures
// from both the same way.
package httpapi

import (
	"bytes"
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Error is a non-2xx HTTP answer. A handler returns one to choose the
// status it rejects with; Client.Call returns one for a non-2xx response,
// so retry policies can branch on the code.
type Error struct {
	Code int
	Msg  string
	// RetryAfter is the server's suggested wait: Reject sends it as a
	// Retry-After header, Client.Call parses it back.
	RetryAfter time.Duration
	// Body is the answer's body (client side, at most 4 KiB), for callers
	// that read fields beyond "error".
	Body []byte
}

func (e *Error) Error() string { return e.Msg }

// Errorf builds an *Error with the given status.
func Errorf(code int, format string, args ...any) error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Code returns the status an error carries, or 0 when it is not an
// *Error (a transport failure, say).
func Code(err error) int {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return 0
}

// errorBody is the shared shape of every rejection.
type errorBody struct {
	Error string `json:"error"`
}

// WriteJSON answers code with v as 2-space-indented JSON. Nothing is
// written until v has encoded, so a value that cannot encode is answered
// 500 instead.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		Reject(w, err)
		return
	}
	WriteBody(w, code, append(data, '\n'))
}

// WriteBody answers code with body, a JSON document written by hand.
func WriteBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body) //nolint:errcheck // the client is gone if this fails
}

// Reject answers err with the shared error body. An *Error keeps its
// status and sends its RetryAfter, if any; any other error is a 500.
func Reject(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var e *Error
	if errors.As(err, &e) {
		code = e.Code
		if e.RetryAfter > 0 {
			SetRetryAfter(w, e.RetryAfter)
		}
	}
	WriteJSON(w, code, errorBody{Error: err.Error()})
}

// SetRetryAfter sets the Retry-After header to d in whole seconds,
// rounded up and at least 1.
func SetRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// ReadJSON decodes a POST body of type application/json, at most
// maxBytes long, into v. A request that breaks a rule is answered here —
// 405 for another method, 415 for another media type, 413 past the
// limit, 400 for a body that does not decode — and the error returned,
// so the handler just returns.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any, maxBytes int64) error {
	err := decodeBody(w, r, v, maxBytes)
	if err != nil {
		Reject(w, err)
	}
	return err
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any, maxBytes int64) error {
	if err := checkPost(w, r, maxBytes); err != nil {
		return err
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return bodyErr(err, maxBytes)
	}
	return nil
}

// ReadBody reads a whole POST body under ReadJSON's rules, for a handler
// that decodes it by hand. A request that breaks a rule is answered here
// and the error returned.
func ReadBody(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, error) {
	body, err := readBody(w, r, maxBytes)
	if err != nil {
		Reject(w, err)
	}
	return body, err
}

func readBody(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, error) {
	if err := checkPost(w, r, maxBytes); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxBytes {
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r.Body); err != nil {
		return nil, bodyErr(err, maxBytes)
	}
	return buf.Bytes(), nil
}

// checkPost enforces the method and media type and bounds the body.
func checkPost(w http.ResponseWriter, r *http.Request, maxBytes int64) error {
	if r.Method != http.MethodPost {
		return Errorf(http.StatusMethodNotAllowed, "POST only")
	}
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err != nil || mt != "application/json" {
		return Errorf(http.StatusUnsupportedMediaType, "Content-Type %q: POST bodies must be application/json", ct)
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	return nil
}

// bodyErr is the answer to a body that failed to read or decode.
func bodyErr(err error, maxBytes int64) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return Errorf(http.StatusRequestEntityTooLarge, "request body exceeds the %d byte limit for this endpoint", maxBytes)
	}
	return Errorf(http.StatusBadRequest, "bad request body: %v", err)
}

// Get serves a GET endpoint answering f's value; other methods get 405.
func Get[Out any](f func() Out) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			Reject(w, Errorf(http.StatusMethodNotAllowed, "GET only"))
			return
		}
		WriteJSON(w, http.StatusOK, f())
	}
}

// Post serves a POST endpoint: the body, read under ReadJSON's rules,
// goes to f, whose answer is written or whose error is rejected.
func Post[In, Out any](maxBytes int64, f func(In) (Out, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var in In
		if ReadJSON(w, r, &in, maxBytes) != nil {
			return
		}
		out, err := f(in)
		if err != nil {
			Reject(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, out)
	}
}

// RequireToken demands `Authorization: Bearer <token>` on every request
// to next and answers 401 with a challenge for realm otherwise. Both
// sides are hashed before comparing, so the comparison takes constant
// time even across lengths.
func RequireToken(realm, token string, next http.Handler) http.Handler {
	want := sha256.Sum256([]byte(token))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		sum := sha256.Sum256([]byte(got))
		if !ok || subtle.ConstantTimeCompare(want[:], sum[:]) != 1 {
			w.Header().Set("WWW-Authenticate", fmt.Sprintf("Bearer realm=%q", realm))
			Reject(w, Errorf(http.StatusUnauthorized, "missing or invalid bearer token (pass -token)"))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// Serve serves h on ln until done closes, then shuts the server down,
// giving in-flight requests up to grace to finish. It returns early with
// the server's error if serving fails first.
func Serve(ln net.Listener, h http.Handler, done <-chan struct{}, grace time.Duration) error {
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-done:
	}
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := srv.Shutdown(ctx)
	<-errc // http.ErrServerClosed once Shutdown has begun
	return err
}

// Client issues single JSON requests to one server.
type Client struct {
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// Base is the server root the request paths are appended to.
	Base string
	// Token, when set, is sent as a bearer credential.
	Token string
	// Timeout bounds each call; 0 leaves the context and transport in
	// charge.
	Timeout time.Duration
}

// Call sends one request and decodes a 2xx JSON answer into out (nil
// skips decoding; a *[]byte receives the body undecoded). A non-nil body
// is sent as application/json. Any other status comes back as an *Error
// whose message carries the method, path, status, and the body's "error"
// field (or its leading text).
func (c Client) Call(ctx context.Context, method, path string, body []byte, out any) error {
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return responseError(req, resp)
	}
	switch out := out.(type) {
	case nil:
		return nil
	case *[]byte:
		var buf bytes.Buffer
		_, err := buf.ReadFrom(resp.Body)
		*out = buf.Bytes()
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func responseError(req *http.Request, resp *http.Response) *Error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	msg := string(bytes.TrimSpace(data))
	var eb errorBody
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	e := &Error{
		Code: resp.StatusCode,
		Msg:  fmt.Sprintf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, msg),
		Body: data,
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		e.RetryAfter = time.Duration(secs) * time.Second
	}
	return e
}

// Retry is a retry policy: which failures to retry, for how long, and
// the capped, jittered exponential backoff (backoff.go) between attempts.
type Retry struct {
	// Budget bounds the time from the first attempt after which no retry
	// starts; <= 0 allows a single attempt.
	Budget time.Duration
	// Base, Cap and Seed configure the backoff (newBackoff).
	Base, Cap time.Duration
	Seed      int64
	// Retryable approves retrying an attempt's error.
	Retryable func(error) bool
}

// Do runs attempt until it succeeds, fails with an error the policy does
// not retry, ctx ends, or the budget is spent, and returns the last
// attempt's error (ctx's when ctx ends mid-wait). Each wait is the
// backoff's next step, raised to any longer Retry-After the failure
// carried; one timer serves every wait.
func (p Retry) Do(ctx context.Context, attempt func() error) error {
	deadline := time.Now().Add(p.Budget)
	var bo *backoff
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		err := attempt()
		if err == nil || ctx.Err() != nil || !p.Retryable(err) || !time.Now().Before(deadline) {
			return err
		}
		if bo == nil {
			bo = newBackoff(p.Base, p.Cap, p.Seed)
		}
		wait := bo.Next()
		var e *Error
		if errors.As(err, &e) && e.RetryAfter > wait {
			wait = e.RetryAfter
		}
		if timer == nil {
			timer = time.NewTimer(wait)
		} else {
			timer.Reset(wait)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
	}
}
