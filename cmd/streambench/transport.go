package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"
)

// inmem is an http.RoundTripper that serves each request by calling the
// server's handler directly. It opens no sockets and holds no
// connections, yet the server's JSON codecs, body limits and status codes
// all stay on the measured path, and the client sees an ordinary
// *http.Response.
//
// In a traced run it records the round trip as a span under the span the
// request's context carries, ending when the client closes the response
// body (so the client's decode is inside it), with the handler's own
// time as a child span named "<route> server".
type inmem struct{ h http.Handler }

func (t inmem) RoundTrip(req *http.Request) (*http.Response, error) {
	sreq := req.Clone(req.Context())
	if sreq.Body == nil {
		sreq.Body = http.NoBody
	}
	start := time.Now()
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, sreq)
	handled := time.Now()
	if req.Body != nil {
		req.Body.Close()
	}
	resp := rec.Result()
	resp.Request = req
	if sc, ok := spanFrom(req.Context()); ok {
		name := req.Method + " " + route(req.URL.Path)
		id := sc.tr.newID()
		sc.tr.add(span{Parent: id, Root: sc.root, Name: name + " server", Cat: "server", Start: start, End: handled})
		resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
			sc.tr.add(span{ID: id, Parent: sc.parent, Root: sc.root, Name: name, Cat: "transport", Start: start, End: time.Now()})
		}}
	}
	return resp, nil
}

// route strips the job ID from result paths so spans group by endpoint.
func route(path string) string {
	if strings.HasPrefix(path, "/v1/result/") {
		return "/v1/result"
	}
	return path
}

// spanBody ends a round trip's span when the client closes the body.
type spanBody struct {
	io.ReadCloser
	done func()
}

func (b *spanBody) Close() error {
	if b.done != nil {
		b.done()
		b.done = nil
	}
	return b.ReadCloser.Close()
}
