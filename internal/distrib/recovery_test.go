package distrib

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/distrib/faultpoint"
)

// walT0 is the fake-clock epoch testCoordinator pins, shared so resumed
// coordinators can be placed before or after the journaled deadlines.
var walT0 = time.Unix(1_700_000_000, 0)

// resumeCoordinator reopens the pipeline run persisted in dir, with the
// fake clock starting at `at`.
func resumeCoordinator(t *testing.T, dir string, at time.Time, opt CoordinatorOptions) (*Coordinator, *time.Time) {
	t.Helper()
	now := at
	opt.now = func() time.Time { return now }
	opt.StateDir = dir
	c, err := NewCoordinator(testSpecs("pipeline"), opt)
	if err != nil {
		t.Fatalf("NewCoordinator(StateDir=%s): %v", dir, err)
	}
	return c, &now
}

// drainRun leases and completes batches as one worker until the run is
// done. Resumed runs whose clock sits past the journaled deadlines expire
// any replayed open lease on the first call and requeue its jobs.
func drainRun(t *testing.T, c *Coordinator, worker string) {
	t.Helper()
	for {
		l, err := c.Lease(LeaseRequest{Worker: worker, PlanHash: c.planHash})
		if err != nil {
			t.Fatalf("drain lease: %v", err)
		}
		if l.Done {
			return
		}
		if len(l.Jobs) == 0 {
			t.Fatalf("drain: empty lease with the run not done: %+v", l)
		}
		if _, err := c.Complete(completeReq(c, worker, l.Lease, l.Jobs)); err != nil {
			t.Fatalf("drain complete: %v", err)
		}
	}
}

// artifactBytes writes the merged artifact exactly as `-out` would and
// returns the bytes — the unit of comparison for every differential test.
func artifactBytes(t *testing.T, c *Coordinator) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "artifact.json")
	if err := c.Artifact().WriteFile(path); err != nil {
		t.Fatalf("writing artifact: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// goldenPipelineArtifact is the artifact of an unkilled, unjournaled run
// of the pipeline test specs.
func goldenPipelineArtifact(t *testing.T) []byte {
	t.Helper()
	c, _ := testCoordinator(t, CoordinatorOptions{LeaseTimeout: time.Minute, BatchSize: 3})
	drainRun(t, c, "golden")
	return artifactBytes(t, c)
}

// frameBounds parses a clean journal into the end offset of every frame —
// the exact byte positions a crash between append and the next append
// would truncate the file to.
func frameBounds(t *testing.T, data []byte) []int64 {
	t.Helper()
	var bounds []int64
	var off int64
	for off < int64(len(data)) {
		if int64(len(data))-off < 8 {
			t.Fatalf("trailing garbage in a clean journal at offset %d", off)
		}
		length := binary.LittleEndian.Uint32(data[off : off+4])
		off += int64(8 + length)
		if off > int64(len(data)) {
			t.Fatalf("frame at offset %d overruns the file", off-int64(8+length))
		}
		bounds = append(bounds, off)
	}
	return bounds
}

// The differential crash test: a journaled run is killed at every record
// boundary — and, separately, mid-append with a torn partial frame at
// every boundary — and each time the restarted coordinator must resume
// and finish with a merged artifact byte-identical to an unkilled run's.
func TestCrashAtEveryJournalBoundaryResumesByteIdentical(t *testing.T) {
	golden := goldenPipelineArtifact(t)
	opt := CoordinatorOptions{LeaseTimeout: time.Minute, BatchSize: 3}

	// The clean journaled run: wal.log holds its complete
	// record-by-record history.
	dir := t.TempDir()
	c, _ := testCoordinator(t, CoordinatorOptions{
		LeaseTimeout: opt.LeaseTimeout, BatchSize: opt.BatchSize, StateDir: dir,
	})
	drainRun(t, c, "w1")
	if !bytes.Equal(artifactBytes(t, c), golden) {
		t.Fatal("clean journaled run differs from the unjournaled golden")
	}
	c.Close()
	wal, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBounds(t, wal)
	if len(bounds) < 5 {
		t.Fatalf("journal holds only %d records; the sweep needs a real run", len(bounds))
	}

	resumeAndFinish := func(t *testing.T, prefix []byte, wantDropped int64) {
		t.Helper()
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, walFileName), prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		// An hour past every journaled deadline, so replayed open leases
		// expire immediately and their jobs regrant.
		r, _ := resumeCoordinator(t, sub, walT0.Add(time.Hour), opt)
		defer r.Close()
		ri := r.Recovery()
		if ri.DroppedBytes != wantDropped {
			t.Fatalf("recovery dropped %d bytes, want %d (%s)", ri.DroppedBytes, wantDropped, ri.TornReason)
		}
		drainRun(t, r, "w2")
		if !bytes.Equal(artifactBytes(t, r), golden) {
			t.Fatal("resumed artifact differs from the unkilled run")
		}
	}

	// Crash before the begin record: an empty journal is a fresh start.
	t.Run("boundary-0", func(t *testing.T) { resumeAndFinish(t, nil, 0) })

	for k, end := range bounds {
		k, end := k, end
		// Killed cleanly between record k+1 and the next append.
		t.Run(fmt.Sprintf("boundary-%d", k+1), func(t *testing.T) {
			resumeAndFinish(t, wal[:end], 0)
		})
		// Killed mid-append: the next frame made it only partway to disk.
		if end < int64(len(wal)) {
			tail := int64(5)
			if rest := int64(len(wal)) - end; rest < tail {
				tail = rest
			}
			t.Run(fmt.Sprintf("boundary-%d-torn", k+1), func(t *testing.T) {
				resumeAndFinish(t, wal[:end+tail], tail)
			})
		}
	}

	// A bit-flipped final record is detected by its CRC and dropped like
	// any other tear.
	t.Run("flipped-crc", func(t *testing.T) {
		last := bounds[len(bounds)-2]
		flipped := append([]byte{}, wal...)
		flipped[last+10] ^= 0xff
		resumeAndFinish(t, flipped, int64(len(wal))-last)
	})
}

// A restart resumes the exact pre-crash state: resolved jobs stay
// resolved, the open lease keeps its original deadline (and expires on
// the original schedule), worker stats survive, and the finished
// artifact is byte-identical.
func TestRestartResumesExactState(t *testing.T) {
	golden := goldenPipelineArtifact(t)
	dir := t.TempDir()
	c, _ := testCoordinator(t, CoordinatorOptions{
		LeaseTimeout: time.Minute, BatchSize: 3, StateDir: dir,
	})
	la, err := c.Lease(LeaseRequest{Worker: "a", PlanHash: c.planHash})
	if err != nil {
		t.Fatalf("lease a: %v", err)
	}
	if _, err := c.Complete(completeReq(c, "a", la.Lease, la.Jobs[:2])); err != nil {
		t.Fatalf("partial complete a: %v", err)
	}
	lb, err := c.Lease(LeaseRequest{Worker: "b", PlanHash: c.planHash})
	if err != nil {
		t.Fatalf("lease b: %v", err)
	}
	before := c.Status()
	c.Close()

	r, rnow := resumeCoordinator(t, dir, walT0,
		CoordinatorOptions{LeaseTimeout: time.Minute, BatchSize: 3})
	if ri := r.Recovery(); !ri.Resumed || ri.Records != 4 {
		t.Fatalf("recovery info %+v, want begin, two leases and a completion replayed", ri)
	}
	after := r.Status()
	if !after.Recovered {
		t.Fatal("status does not report the run as recovered")
	}
	if after.Completed != before.Completed || after.Leased != before.Leased ||
		after.Pending != before.Pending || after.Requeues != before.Requeues {
		t.Fatalf("resumed status %+v differs from pre-crash %+v", after, before)
	}
	if w := after.Workers["a"]; w.Completed != 2 || w.Leases != 1 {
		t.Fatalf("worker a stats %+v did not survive the restart", w)
	}
	var found bool
	for _, ls := range after.Leases {
		if ls.Lease == lb.Lease {
			found = true
			if !ls.Deadline.Equal(lb.Deadline) {
				t.Fatalf("resumed lease deadline %v, want the original %v", ls.Deadline, lb.Deadline)
			}
		}
	}
	if !found {
		t.Fatalf("open lease %s lost across the restart (leases: %+v)", lb.Lease, after.Leases)
	}

	// The resumed lease runs on its original clock: one minute after the
	// grant — not one minute after the restart — it expires and requeues.
	*rnow = walT0.Add(time.Minute + time.Second)
	st := r.Status()
	if st.Leased != 0 || st.Pending != after.Pending+len(lb.Jobs) {
		t.Fatalf("status after original deadline = %+v, want lease %s expired and requeued", st, lb.Lease)
	}

	drainRun(t, r, "c")
	if !bytes.Equal(artifactBytes(t, r), golden) {
		t.Fatal("resumed artifact differs from the unkilled run")
	}
	r.Close()
}

// A batch completed (and acknowledged) just before the crash dedups
// cleanly when the agent re-uploads it to the restarted coordinator.
func TestReuploadAfterRestartDedups(t *testing.T) {
	dir := t.TempDir()
	c, _ := testCoordinator(t, CoordinatorOptions{
		LeaseTimeout: time.Minute, BatchSize: 4, StateDir: dir,
	})
	l, err := c.Lease(LeaseRequest{Worker: "w", PlanHash: c.planHash})
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	if _, err := c.Complete(completeReq(c, "w", l.Lease, l.Jobs)); err != nil {
		t.Fatalf("complete: %v", err)
	}
	c.Close()

	r, _ := resumeCoordinator(t, dir, walT0, CoordinatorOptions{LeaseTimeout: time.Minute, BatchSize: 4})
	ack, err := r.Complete(completeReq(r, "w", l.Lease, l.Jobs))
	if err != nil {
		t.Fatalf("re-upload after restart: %v", err)
	}
	if ack.Accepted != 0 || ack.Duplicates != len(l.Jobs) {
		t.Fatalf("re-upload ack = %+v, want all %d duplicates", ack, len(l.Jobs))
	}
	if st := r.Status(); st.Completed != len(l.Jobs) {
		t.Fatalf("status completed = %d after re-upload, want %d", st.Completed, len(l.Jobs))
	}
	r.Close()
}

// A state dir written by an older build that snapshotted and truncated
// its journal is refused — both a leftover snapshot.json and a journal
// that does not open with the begin record at seq 1 — with the way out
// named, and the directory is left untouched.
func TestOlderBuildStateDirRefused(t *testing.T) {
	dir := t.TempDir()
	c, _ := testCoordinator(t, CoordinatorOptions{LeaseTimeout: time.Minute, BatchSize: 3, StateDir: dir})
	if _, err := c.Lease(LeaseRequest{Worker: "w", PlanHash: c.planHash}); err != nil {
		t.Fatalf("lease: %v", err)
	}
	c.Close()
	walPath := filepath.Join(dir, walFileName)

	refused := func(name string) {
		t.Helper()
		before, _ := os.ReadFile(walPath)
		_, err := NewCoordinator(testSpecs("pipeline"), CoordinatorOptions{StateDir: dir})
		if err == nil || !strings.Contains(err.Error(), "older, snapshotting build") ||
			!strings.Contains(err.Error(), "fresh -state dir") {
			t.Fatalf("%s: NewCoordinator = %v, want the older-build refusal naming the fix", name, err)
		}
		if after, _ := os.ReadFile(walPath); !bytes.Equal(after, before) {
			t.Fatalf("%s: the refused journal was modified", name)
		}
	}

	// A leftover snapshot.json, even beside a whole journal.
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	refused("snapshot.json")
	if err := os.Remove(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatal(err)
	}

	// A journal rotated behind a checkpoint: a lone begin record past
	// seq 1.
	scan, err := readWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	begin := scan.records[0]
	begin.Seq = 33
	frame, err := encodeFrame(begin)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	refused("begin record at seq 33")
}

// A state dir belongs to one run: a coordinator compiled from different
// specs must refuse it instead of mixing two runs' state.
func TestForeignStateDirRefused(t *testing.T) {
	dir := t.TempDir()
	c, _ := testCoordinator(t, CoordinatorOptions{LeaseTimeout: time.Minute, StateDir: dir})
	c.Close()
	_, err := NewCoordinator(testSpecs("placement"), CoordinatorOptions{StateDir: dir})
	if err == nil || !strings.Contains(err.Error(), "plan hash") {
		t.Fatalf("NewCoordinator = %v, want a plan-hash refusal", err)
	}
}

// A fault before any journal byte is written is retryable: the refused
// request leaves the queue untouched, and the retry re-selects the same
// work.
func TestJournalAppendFaultIsRetryable(t *testing.T) {
	defer faultpoint.Reset()
	golden := goldenPipelineArtifact(t)
	dir := t.TempDir()
	c, _ := testCoordinator(t, CoordinatorOptions{LeaseTimeout: time.Minute, BatchSize: 3, StateDir: dir})

	faultpoint.Set("distrib.wal.append", faultpoint.ActError, 0)
	_, err := c.Lease(LeaseRequest{Worker: "w", PlanHash: c.planHash})
	wantHTTPCode(t, err, http.StatusServiceUnavailable, "lease during injected append fault")

	// The site fired once and is inert; the retry gets the same first batch.
	l, err := c.Lease(LeaseRequest{Worker: "w", PlanHash: c.planHash})
	if err != nil {
		t.Fatalf("retried lease: %v", err)
	}
	if len(l.Jobs) != 3 || l.Jobs[0] != 0 {
		t.Fatalf("retried lease got %v, want the original first batch", l.Jobs)
	}
	if _, err := c.Complete(completeReq(c, "w", l.Lease, l.Jobs)); err != nil {
		t.Fatalf("complete: %v", err)
	}
	drainRun(t, c, "w")
	if !bytes.Equal(artifactBytes(t, c), golden) {
		t.Fatal("artifact differs after an injected, retried append fault")
	}
	c.Close()
}

// A fault between the journal write and its fsync latches the journal
// broken — every later mutation is refused with 503, because appending
// past a possibly-torn region would corrupt recovery — and a restart
// from the same directory finishes the run byte-identically.
func TestJournalSyncFaultLatchesBrokenUntilRestart(t *testing.T) {
	defer faultpoint.Reset()
	golden := goldenPipelineArtifact(t)
	dir := t.TempDir()
	c, _ := testCoordinator(t, CoordinatorOptions{LeaseTimeout: time.Minute, BatchSize: 3, StateDir: dir})
	l, err := c.Lease(LeaseRequest{Worker: "w", PlanHash: c.planHash})
	if err != nil {
		t.Fatalf("lease: %v", err)
	}

	faultpoint.Set("distrib.wal.sync", faultpoint.ActError, 0)
	_, err = c.Complete(completeReq(c, "w", l.Lease, l.Jobs))
	wantHTTPCode(t, err, http.StatusServiceUnavailable, "complete during injected sync fault")

	// The site is inert now, but the journal stays latched broken: every
	// mutation answers 503 until the process restarts.
	_, err = c.Lease(LeaseRequest{Worker: "w", PlanHash: c.planHash})
	wantHTTPCode(t, err, http.StatusServiceUnavailable, "lease after latched sync fault")
	_, err = c.Complete(completeReq(c, "w", l.Lease, l.Jobs))
	wantHTTPCode(t, err, http.StatusServiceUnavailable, "complete after latched sync fault")
	c.Close()
	faultpoint.Reset()

	// The unacknowledged record may or may not have reached the disk; the
	// restart replays whichever happened and the finished run cannot tell.
	r, _ := resumeCoordinator(t, dir, walT0.Add(time.Hour), CoordinatorOptions{LeaseTimeout: time.Minute, BatchSize: 3})
	drainRun(t, r, "w2")
	if !bytes.Equal(artifactBytes(t, r), golden) {
		t.Fatal("artifact differs after a sync-fault restart")
	}
	r.Close()
}

// The recovery gate answers every request 503 + Retry-After until the
// real handler is installed.
func TestGateAnswers503UntilReady(t *testing.T) {
	g := NewGate()
	srv := httptest.NewServer(g)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gated request answered %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("gated Retry-After = %q, want \"1\"", ra)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["error"] == "" {
		t.Fatalf("gated body not a JSON error (%v, %v)", body, err)
	}

	c, _ := testCoordinator(t, CoordinatorOptions{LeaseTimeout: time.Minute})
	g.Ready(c.Handler())
	resp2, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-Ready request answered %d, want 200", resp2.StatusCode)
	}
}

// With -token set, every endpoint demands the bearer token; an agent
// configured with it completes a run end to end.
func TestTokenAuth(t *testing.T) {
	specs := testSpecs("pipeline")
	coord, err := NewCoordinator(specs, CoordinatorOptions{
		LeaseTimeout: time.Minute, BatchSize: 8, Token: "sesame",
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	check := func(auth string, want int) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/status", nil)
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("status with auth %q = %d, want %d", auth, resp.StatusCode, want)
		}
		if want == http.StatusUnauthorized {
			if h := resp.Header.Get("WWW-Authenticate"); !strings.Contains(h, "Bearer") {
				t.Fatalf("401 without a WWW-Authenticate challenge (got %q)", h)
			}
		}
	}
	check("", http.StatusUnauthorized)
	check("Bearer wrong", http.StatusUnauthorized)
	check("Bearer sesame-and-then-some", http.StatusUnauthorized)
	check("Bearer sesame", http.StatusOK)

	a := &Agent{URL: srv.URL, Worker: "authed", Workers: 2, Token: "sesame", Log: io.Discard, RetrySeed: 1}
	rep, err := a.Run(context.Background())
	if err != nil {
		t.Fatalf("authenticated agent: %v", err)
	}
	if rep.Jobs != len(coord.Plan().Jobs) {
		t.Fatalf("authenticated agent ran %d jobs, want %d", rep.Jobs, len(coord.Plan().Jobs))
	}

	// An agent without the token is turned away at the join (401 is not
	// retryable), not stuck retrying.
	bad := &Agent{URL: srv.URL, Worker: "anon", Log: io.Discard, ConnectWait: 5 * time.Second, RetrySeed: 1}
	if _, err := bad.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("tokenless agent = %v, want a 401 join failure", err)
	}
}

// POST bodies must be application/json and under the endpoint's size
// ceiling; anything else is rejected before it can touch the run.
func TestHandlerRejectsBadPosts(t *testing.T) {
	c, _ := testCoordinator(t, CoordinatorOptions{LeaseTimeout: time.Minute})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	post := func(contentType, body string) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/lease", strings.NewReader(body))
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post("", "{}"); code != http.StatusUnsupportedMediaType {
		t.Fatalf("POST without Content-Type = %d, want 415", code)
	}
	if code := post("text/plain", "{}"); code != http.StatusUnsupportedMediaType {
		t.Fatalf("POST text/plain = %d, want 415", code)
	}
	if code := post("application/json; charset=utf-8", `{"worker":"w","plan_hash":"x"}`); code == http.StatusUnsupportedMediaType {
		t.Fatal("application/json with parameters was rejected as 415")
	}
	big := fmt.Sprintf(`{"worker":%q}`, strings.Repeat("a", maxLeaseBody))
	if code := post("application/json", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST = %d, want 413", code)
	}
	if code := post("application/json", "{not json"); code != http.StatusBadRequest {
		t.Fatalf("malformed JSON POST = %d, want 400", code)
	}

	resp, err := http.Get(srv.URL + "/v1/lease")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/lease = %d, want 405", resp.StatusCode)
	}
}

// An injected transport fault on the agent's upload path is retried
// within the same session — the client-hardening half of the chaos story.
func TestAgentRetriesInjectedUploadFault(t *testing.T) {
	defer faultpoint.Reset()
	specs := testSpecs("pipeline")
	coord, err := NewCoordinator(specs, CoordinatorOptions{LeaseTimeout: time.Minute, BatchSize: 8})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	faultpoint.Set("distrib.agent.upload", faultpoint.ActError, 0)
	a := &Agent{URL: srv.URL, Worker: "chaos", Workers: 2, Log: io.Discard,
		RetrySeed: 1, RetryWait: 30 * time.Second}
	rep, err := a.Run(context.Background())
	if err != nil {
		t.Fatalf("agent through injected upload fault: %v", err)
	}
	if !faultpoint.Fired("distrib.agent.upload") {
		t.Fatal("the upload faultpoint never fired; the test exercised nothing")
	}
	if rep.Jobs != len(coord.Plan().Jobs) {
		t.Fatalf("agent ran %d jobs, want %d", rep.Jobs, len(coord.Plan().Jobs))
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("run not done after the retrying agent returned")
	}
}
