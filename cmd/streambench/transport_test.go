package main

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/distrib"
	"repro/internal/schedule"
	"repro/internal/service"
)

func TestInMemoryRoundTripToTheService(t *testing.T) {
	ctx := context.Background()
	svc := service.New(service.Options{Workers: 1})
	svc.Start()
	defer svc.Close(ctx) //nolint:errcheck
	hc := &http.Client{Transport: inmem{h: svc.Handler()}}
	cl := &service.Client{Base: "http://service", HTTP: hc}

	tg, p, want := served(t)
	g, err := newPoolGraph(tg, []int{p})
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{}
	root := tr.newID()
	tctx := withSpan(ctx, tr, root, root)
	resp, _, ok, err := cl.Submit(tctx, service.SubmitRequest{Graph: g.data, PEs: p, Variant: "lts"})
	if err != nil || !ok {
		t.Fatalf("submit: accepted %v, %v", ok, err)
	}
	st, err := cl.Result(tctx, resp.ID, 10*time.Second)
	if err != nil || st.State != service.StateDone {
		t.Fatalf("result: %+v, %v", st, err)
	}
	if err := checkServed(tg, p, schedule.SBLTS, st.Schedule); err != nil {
		t.Fatal(err)
	}
	if err := diffSchedule(reportView(st.Schedule), reportView(want)); err != nil {
		t.Fatalf("served schedule differs from BuildReport: %v", err)
	}

	// Each round trip is a span under the request, with the handler's
	// time as its child, and self time excludes that child.
	spans := tr.snapshot()
	byName := make(map[string]span)
	for _, s := range spans {
		byName[s.Name] = s
	}
	submit, server := byName["POST /v1/submit"], byName["POST /v1/submit server"]
	if submit.Parent != root || server.Parent != submit.ID || server.Root != root {
		t.Fatalf("span tree: submit %+v, server %+v", submit, server)
	}
	if _, ok := byName["GET /v1/result"]; !ok {
		t.Fatal("no span for the result call")
	}
	if self := selfTimes(spans)[submit.ID]; self != submit.dur()-server.dur() {
		t.Errorf("self time %v, want %v", self, submit.dur()-server.dur())
	}

	// The server's own checks stay on the path.
	req, err := http.NewRequest(http.MethodPost, "http://service/v1/submit", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	hresp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("text/plain submit: status %d, want 415", hresp.StatusCode)
	}
}

func TestInMemoryRoundTripToTheCoordinator(t *testing.T) {
	specs, err := sweepSpecs(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := distrib.NewCoordinator(specs, distrib.CoordinatorOptions{Run: "test"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := distrib.FetchStatus(context.Background(), &http.Client{Transport: inmem{h: coord.Handler()}}, "http://coordinator", "")
	if err != nil {
		t.Fatal(err)
	}
	if st.Run != "test" || st.Jobs != len(coord.Plan().Jobs) || st.Pending != st.Jobs {
		t.Errorf("status %+v, want run test with %d pending jobs", st, len(coord.Plan().Jobs))
	}
}
