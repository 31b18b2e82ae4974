package distrib

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/httpapi"
	"repro/internal/results"
)

// testSpecs builds small quick-config specs; every process of a test run
// must construct them identically, exactly as the real flag path does.
func testSpecs(names ...string) []experiments.Spec {
	opt := experiments.Quick()
	opt.Graphs = 2
	specs := make([]experiments.Spec, 0, len(names))
	for _, n := range names {
		specs = append(specs, experiments.Spec{Name: n, Opt: opt})
	}
	return specs
}

// testCoordinator returns a coordinator over the pipeline experiment with
// an adjustable fake clock.
func testCoordinator(t *testing.T, opt CoordinatorOptions) (*Coordinator, *time.Time) {
	t.Helper()
	now := time.Unix(1_700_000_000, 0)
	opt.now = func() time.Time { return now }
	c, err := NewCoordinator(testSpecs("pipeline"), opt)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	return c, &now
}

// cellsFor fabricates valid completion cells for the given job indices,
// using each job's first declared metric.
func cellsFor(c *Coordinator, jobs []int) []results.Cell {
	cells := make([]results.Cell, 0, len(jobs))
	for _, idx := range jobs {
		j := c.plan.Jobs[idx]
		metric := c.meta.Variants[j.Key.Variant][0]
		cells = append(cells, results.Cell{
			Key:    j.Key,
			Label:  j.Job.String(),
			Values: map[string]float64{metric: float64(idx)},
		})
	}
	return cells
}

func completeReq(c *Coordinator, worker, lease string, jobs []int) CompleteRequest {
	meta := c.meta
	meta.Distrib = &results.DistribMeta{Run: c.run, Worker: worker, Lease: lease, Batch: 1}
	return CompleteRequest{
		Worker:   worker,
		Lease:    lease,
		PlanHash: c.planHash,
		Artifact: results.Artifact{Schema: results.SchemaVersion, Meta: meta, Cells: cellsFor(c, jobs)},
	}
}

func wantHTTPCode(t *testing.T, err error, code int, context string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: want rejection with HTTP %d, got success", context, code)
	}
	he, ok := err.(*httpapi.Error)
	if !ok {
		t.Fatalf("%s: want *httpapi.Error %d, got %T: %v", context, code, err, err)
	}
	if he.Code != code {
		t.Fatalf("%s: want HTTP %d, got %d (%v)", context, code, he.Code, err)
	}
}

// A worker that dies mid-lease forfeits its batch: once the lease timeout
// lapses, the jobs requeue and another worker picks them up; the dead
// worker's late completion is deduplicated, not double-counted.
func TestLeaseExpiryRequeuesJobs(t *testing.T) {
	c, now := testCoordinator(t, CoordinatorOptions{LeaseTimeout: time.Minute, BatchSize: 1 << 20})
	total := len(c.plan.Jobs)
	if total == 0 {
		t.Fatal("no jobs compiled")
	}

	// Worker a leases everything and dies.
	la, err := c.Lease(LeaseRequest{Worker: "a", PlanHash: c.planHash})
	if err != nil {
		t.Fatalf("lease a: %v", err)
	}
	if len(la.Jobs) != total {
		t.Fatalf("lease a got %d jobs, want all %d", len(la.Jobs), total)
	}

	// Before the timeout, worker b finds the queue empty but the run alive.
	lb, err := c.Lease(LeaseRequest{Worker: "b", PlanHash: c.planHash})
	if err != nil {
		t.Fatalf("lease b (early): %v", err)
	}
	if lb.Done || len(lb.Jobs) != 0 || lb.RetryAfter <= 0 {
		t.Fatalf("lease b before expiry = %+v, want empty retry-later response", lb)
	}

	// After the timeout, the dead worker's jobs requeue to b.
	*now = now.Add(time.Minute + time.Second)
	lb, err = c.Lease(LeaseRequest{Worker: "b", PlanHash: c.planHash})
	if err != nil {
		t.Fatalf("lease b (after expiry): %v", err)
	}
	if len(lb.Jobs) != total {
		t.Fatalf("lease b got %d jobs after expiry, want the %d requeued jobs", len(lb.Jobs), total)
	}
	if st := c.Status(); st.Requeues != total {
		t.Fatalf("status requeues = %d, want %d", st.Requeues, total)
	}

	// b completes the run.
	ack, err := c.Complete(completeReq(c, "b", lb.Lease, lb.Jobs))
	if err != nil {
		t.Fatalf("complete b: %v", err)
	}
	if ack.Accepted != total || ack.Duplicates != 0 || !ack.Done {
		t.Fatalf("complete b ack = %+v, want %d accepted and done", ack, total)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("run not done after full completion")
	}

	// The dead worker comes back and uploads its stale lease: every cell is
	// a duplicate and nothing changes.
	ack, err = c.Complete(completeReq(c, "a", la.Lease, la.Jobs))
	if err != nil {
		t.Fatalf("stale complete a: %v", err)
	}
	if ack.Accepted != 0 || ack.Duplicates != total {
		t.Fatalf("stale complete a ack = %+v, want all %d duplicates", ack, total)
	}
	if got := len(c.Artifact().Cells); got != total {
		t.Fatalf("artifact has %d cells, want %d", got, total)
	}
}

func TestDuplicateCompletionIgnored(t *testing.T) {
	c, _ := testCoordinator(t, CoordinatorOptions{LeaseTimeout: time.Minute, BatchSize: 3})
	l, err := c.Lease(LeaseRequest{Worker: "w", PlanHash: c.planHash})
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	if _, err := c.Complete(completeReq(c, "w", l.Lease, l.Jobs)); err != nil {
		t.Fatalf("first complete: %v", err)
	}
	ack, err := c.Complete(completeReq(c, "w", l.Lease, l.Jobs))
	if err != nil {
		t.Fatalf("second complete: %v", err)
	}
	if ack.Accepted != 0 || ack.Duplicates != len(l.Jobs) {
		t.Fatalf("second complete ack = %+v, want 0 accepted, %d duplicates", ack, len(l.Jobs))
	}
	if st := c.Status(); st.Completed != len(l.Jobs) {
		t.Fatalf("status completed = %d after duplicate upload, want %d", st.Completed, len(l.Jobs))
	}
}

// An agent whose compiled plan or run configuration disagrees with the
// coordinator's must be rejected before it can contribute anything.
func TestMismatchedAgentRejected(t *testing.T) {
	c, _ := testCoordinator(t, CoordinatorOptions{LeaseTimeout: time.Minute, BatchSize: 3})

	_, err := c.Lease(LeaseRequest{Worker: "w", PlanHash: "deadbeef"})
	wantHTTPCode(t, err, http.StatusConflict, "lease with foreign plan hash")

	l, err := c.Lease(LeaseRequest{Worker: "w", PlanHash: c.planHash})
	if err != nil {
		t.Fatalf("lease: %v", err)
	}

	// A batch from a different run configuration (other seed).
	other := testSpecs("pipeline")
	other[0].Opt.Seed = 99
	req := completeReq(c, "w", l.Lease, l.Jobs)
	req.Artifact.Meta = experiments.MetaFromSpecs(other, 0, 1)
	_, err = c.Complete(req)
	wantHTTPCode(t, err, http.StatusConflict, "complete with mismatched run config")
	if !strings.Contains(err.Error(), "configuration") {
		t.Fatalf("mismatch error %q does not mention the configuration", err)
	}

	// A batch written by a different artifact schema.
	req = completeReq(c, "w", l.Lease, l.Jobs)
	req.Artifact.Schema = results.SchemaVersion + 1
	_, err = c.Complete(req)
	wantHTTPCode(t, err, http.StatusConflict, "complete with foreign schema")

	// A completion with the wrong plan hash.
	req = completeReq(c, "w", l.Lease, l.Jobs)
	req.PlanHash = "deadbeef"
	_, err = c.Complete(req)
	wantHTTPCode(t, err, http.StatusConflict, "complete with foreign plan hash")

	// A cell that addresses no job of the plan.
	req = completeReq(c, "w", l.Lease, l.Jobs)
	req.Artifact.Cells[0].Key.Graph = "nonexistent/s1/cffffffff/g0"
	_, err = c.Complete(req)
	wantHTTPCode(t, err, http.StatusBadRequest, "complete with foreign cell")

	// A cell carrying values outside its variant's declared metrics.
	req = completeReq(c, "w", l.Lease, l.Jobs)
	req.Artifact.Cells[0].Values["smuggled"] = 1
	_, err = c.Complete(req)
	wantHTTPCode(t, err, http.StatusBadRequest, "complete with undeclared metric")

	// None of the rejected uploads may have resolved anything.
	if st := c.Status(); st.Completed != 0 || st.Failed != 0 {
		t.Fatalf("status after rejections = %+v, want nothing resolved", st)
	}

	// The honest completion still lands.
	if _, err := c.Complete(completeReq(c, "w", l.Lease, l.Jobs)); err != nil {
		t.Fatalf("honest complete after rejections: %v", err)
	}
}

// A partial completion resolves what it carries and requeues the rest of
// the lease immediately.
func TestPartialCompletionRequeuesRemainder(t *testing.T) {
	c, _ := testCoordinator(t, CoordinatorOptions{LeaseTimeout: time.Hour, BatchSize: 4})
	l, err := c.Lease(LeaseRequest{Worker: "w", PlanHash: c.planHash})
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	if len(l.Jobs) != 4 {
		t.Fatalf("lease got %d jobs, want 4", len(l.Jobs))
	}
	ack, err := c.Complete(completeReq(c, "w", l.Lease, l.Jobs[:2]))
	if err != nil {
		t.Fatalf("partial complete: %v", err)
	}
	if ack.Accepted != 2 {
		t.Fatalf("partial ack = %+v, want 2 accepted", ack)
	}
	// The two unresolved jobs are pending again despite the 1h lease: the
	// queue holds everything except the two completed jobs, and no lease is
	// outstanding.
	st := c.Status()
	if st.Requeues != 2 || st.Pending != len(c.plan.Jobs)-2 || st.Leased != 0 {
		t.Fatalf("status after partial completion = %+v, want 2 requeues, %d pending, 0 leased",
			st, len(c.plan.Jobs)-2)
	}
}

// A late completion of an expired lease resolves jobs whose indices are
// already back in the queue; those stale queue entries must never be
// re-granted, and the run must end exactly when the last distinct job
// resolves — not before.
func TestLateCompletionDoesNotReLeaseOrEndRunEarly(t *testing.T) {
	c, now := testCoordinator(t, CoordinatorOptions{LeaseTimeout: time.Minute, BatchSize: 4})
	total := len(c.plan.Jobs)

	// Worker a leases the first batch and stalls past the deadline.
	la, err := c.Lease(LeaseRequest{Worker: "a", PlanHash: c.planHash})
	if err != nil {
		t.Fatalf("lease a: %v", err)
	}
	*now = now.Add(2 * time.Minute)

	// Worker b's lease triggers the expiry, requeuing a's jobs at the back
	// of the queue, and grants b the next batch.
	lb, err := c.Lease(LeaseRequest{Worker: "b", PlanHash: c.planHash})
	if err != nil {
		t.Fatalf("lease b: %v", err)
	}

	// a's completion finally lands: its jobs are still unresolved (only
	// requeued), so all of them are accepted — but their queue entries are
	// now stale.
	ack, err := c.Complete(completeReq(c, "a", la.Lease, la.Jobs))
	if err != nil {
		t.Fatalf("late complete a: %v", err)
	}
	if ack.Accepted != len(la.Jobs) || ack.Done {
		t.Fatalf("late complete ack = %+v, want %d accepted and not done", ack, len(la.Jobs))
	}

	// Drain the run as worker b. No lease may re-grant one of a's resolved
	// jobs, and Done must fire exactly at the last distinct job.
	granted := map[int]bool{}
	for _, j := range lb.Jobs {
		granted[j] = true
	}
	if _, err := c.Complete(completeReq(c, "b", lb.Lease, lb.Jobs)); err != nil {
		t.Fatalf("complete b: %v", err)
	}
	for {
		l, err := c.Lease(LeaseRequest{Worker: "b", PlanHash: c.planHash})
		if err != nil {
			t.Fatalf("drain lease: %v", err)
		}
		if l.Done {
			break
		}
		if len(l.Jobs) == 0 {
			t.Fatalf("drain lease returned neither jobs nor done: %+v (stale entries kept the queue alive?)", l)
		}
		for _, j := range l.Jobs {
			for _, stale := range la.Jobs {
				if j == stale {
					t.Fatalf("job %d re-granted after its late completion", j)
				}
			}
			if granted[j] {
				t.Fatalf("job %d granted twice", j)
			}
			granted[j] = true
		}
		if _, err := c.Complete(completeReq(c, "b", l.Lease, l.Jobs)); err != nil {
			t.Fatalf("drain complete: %v", err)
		}
	}
	st := c.Status()
	if !st.Done || st.Completed != total {
		t.Fatalf("status = %+v, want done with all %d completed", st, total)
	}
	if got := len(c.Artifact().Cells); got != total {
		t.Fatalf("artifact has %d cells, want %d — run ended early", got, total)
	}
}

// Failures uploaded by a worker are recorded like local job failures: the
// job is resolved (not retried) and surfaces in status and the artifact.
func TestReportedFailureResolvesJob(t *testing.T) {
	c, _ := testCoordinator(t, CoordinatorOptions{LeaseTimeout: time.Hour, BatchSize: 2})
	l, err := c.Lease(LeaseRequest{Worker: "w", PlanHash: c.planHash})
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	req := completeReq(c, "w", l.Lease, l.Jobs[:1])
	req.Artifact.Failures = []results.Failure{{
		Label: c.plan.Jobs[l.Jobs[1]].Job.String(),
		Err:   "synthetic failure",
	}}
	ack, err := c.Complete(req)
	if err != nil {
		t.Fatalf("complete with failure: %v", err)
	}
	if ack.Accepted != 2 {
		t.Fatalf("ack = %+v, want 2 accepted (one cell, one failure)", ack)
	}
	st := c.Status()
	if st.Failed != 1 || len(st.Failures) != 1 || st.Failures[0].Err != "synthetic failure" {
		t.Fatalf("status = %+v, want the recorded failure", st)
	}
	art := c.Artifact()
	if len(art.Failures) != 1 {
		t.Fatalf("artifact failures = %v, want 1", art.Failures)
	}
}
