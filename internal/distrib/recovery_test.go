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
// coordinators can restart with the clock unchanged.
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
// done. It fails if the queue runs dry before the run is done, as it
// would if a resumed run still held leases open at the crash.
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
	// One job per lease journals one complete record per job, so every
	// job's completion is a crash boundary.
	opt := CoordinatorOptions{LeaseTimeout: time.Minute, BatchSize: 1}

	// The clean journaled run: wal.log holds its begin record and every
	// completion.
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
		// The clock is unchanged: leases open at the crash were never
		// journaled, so their jobs regrant at once.
		r, _ := resumeCoordinator(t, sub, walT0, opt)
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

// A restart keeps every acknowledged result and forgets every lease: with
// the clock unchanged, the jobs of the lease open at the crash are pending
// at once (no lease-timeout wait), the journaled worker stats survive, and
// the finished artifact is byte-identical.
func TestRestartRequeuesOpenLeases(t *testing.T) {
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
	c.Close()

	r, _ := resumeCoordinator(t, dir, walT0,
		CoordinatorOptions{LeaseTimeout: time.Minute, BatchSize: 3})
	if ri := r.Recovery(); !ri.Resumed || ri.Records != 2 {
		t.Fatalf("recovery info %+v, want begin and one completion replayed", ri)
	}
	st := r.Status()
	if !st.Recovered {
		t.Fatal("status does not report the run as recovered")
	}
	if st.Leased != 0 || len(st.Leases) != 0 || st.Completed != 2 || st.Pending != st.Jobs-2 {
		t.Fatalf("resumed status %+v, want 2 completed, nothing leased, every other job pending", st)
	}
	for _, j := range lb.Jobs {
		if r.state[j] != jobPending {
			t.Fatalf("job %d of the open lease %s is %v after the restart, want pending", j, lb.Lease, r.state[j])
		}
	}
	if w := st.Workers["a"]; w.Completed != 2 {
		t.Fatalf("worker a stats %+v did not survive the restart", w)
	}

	drainRun(t, r, "c")
	if !bytes.Equal(artifactBytes(t, r), golden) {
		t.Fatal("resumed artifact differs from the unkilled run")
	}
	r.Close()
}

// Lease ids restart with the coordinator, so an upload of a pre-crash
// lease can name the id of another worker's live lease. It resolves the
// jobs it carries but does not retire that lease: the live worker keeps
// its remaining jobs instead of seeing them regranted.
func TestStaleLeaseIDDoesNotRetireLiveLease(t *testing.T) {
	golden := goldenPipelineArtifact(t)
	dir := t.TempDir()
	opt := CoordinatorOptions{LeaseTimeout: time.Minute, BatchSize: 3}
	c, _ := testCoordinator(t, CoordinatorOptions{LeaseTimeout: opt.LeaseTimeout, BatchSize: opt.BatchSize, StateDir: dir})
	old, err := c.Lease(LeaseRequest{Worker: "old", PlanHash: c.planHash})
	if err != nil {
		t.Fatalf("lease old: %v", err)
	}
	c.Close()

	r, _ := resumeCoordinator(t, dir, walT0, opt)
	live, err := r.Lease(LeaseRequest{Worker: "new", PlanHash: r.planHash})
	if err != nil {
		t.Fatalf("lease new: %v", err)
	}
	if live.Lease != old.Lease {
		t.Fatalf("restarted coordinator granted %s, want the reused id %s", live.Lease, old.Lease)
	}
	// The old worker uploads part of its pre-crash batch.
	ack, err := r.Complete(completeReq(r, "old", old.Lease, old.Jobs[:1]))
	if err != nil || ack.Accepted != 1 {
		t.Fatalf("stale upload: ack %+v, err %v; want 1 accepted", ack, err)
	}
	st := r.Status()
	if st.Leased != len(live.Jobs)-1 || len(st.Leases) != 1 || st.Leases[0].Worker != "new" {
		t.Fatalf("status after the stale upload %+v: the live lease %s of worker new was retired", st, live.Lease)
	}
	// Another worker finds nothing of the live lease's jobs to take.
	other, err := r.Lease(LeaseRequest{Worker: "other", PlanHash: r.planHash})
	if err != nil {
		t.Fatalf("lease other: %v", err)
	}
	for _, j := range other.Jobs {
		for _, lj := range live.Jobs {
			if j == lj {
				t.Fatalf("job %d of the live lease was regranted to another worker", j)
			}
		}
	}
	if _, err := r.Complete(completeReq(r, "other", other.Lease, other.Jobs)); err != nil {
		t.Fatalf("complete other: %v", err)
	}
	ack, err = r.Complete(completeReq(r, "new", live.Lease, live.Jobs))
	if err != nil || ack.Accepted != len(live.Jobs)-1 || ack.Duplicates != 1 {
		t.Fatalf("live upload: ack %+v, err %v; want %d accepted and 1 duplicate", ack, err, len(live.Jobs)-1)
	}
	drainRun(t, r, "new")
	if !bytes.Equal(artifactBytes(t, r), golden) {
		t.Fatal("artifact differs after a stale-id upload")
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

// A journal written by a version 1 build, which also journaled lease
// grants and expiries, is refused with the version error naming the way
// out, and left untouched.
func TestV1JournalRefused(t *testing.T) {
	dir := t.TempDir()
	c, _ := testCoordinator(t, CoordinatorOptions{LeaseTimeout: time.Minute, BatchSize: 3})
	var v1 []byte
	for _, rec := range []*walRecord{
		{V: 1, Seq: 1, Type: recBegin, Run: c.run, PlanHash: c.planHash, Start: walT0},
		{V: 1, Seq: 2, Type: "lease", Lease: "L1", Worker: "w"},
	} {
		frame, err := encodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		v1 = append(v1, frame...)
	}
	walPath := filepath.Join(dir, walFileName)
	if err := os.WriteFile(walPath, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewCoordinator(testSpecs("pipeline"), CoordinatorOptions{StateDir: dir})
	if err == nil || !strings.Contains(err.Error(), "format version 1, this build speaks 2") ||
		!strings.Contains(err.Error(), "fresh -state dir") {
		t.Fatalf("NewCoordinator over a v1 journal = %v, want the version refusal naming the fix", err)
	}
	if after, _ := os.ReadFile(walPath); !bytes.Equal(after, v1) {
		t.Fatal("the refused v1 journal was modified")
	}
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
// completion applies nothing, and the agent's retried upload lands.
func TestJournalAppendFaultIsRetryable(t *testing.T) {
	defer faultpoint.Reset()
	golden := goldenPipelineArtifact(t)
	dir := t.TempDir()
	c, _ := testCoordinator(t, CoordinatorOptions{LeaseTimeout: time.Minute, BatchSize: 3, StateDir: dir})
	l, err := c.Lease(LeaseRequest{Worker: "w", PlanHash: c.planHash})
	if err != nil {
		t.Fatalf("lease: %v", err)
	}

	faultpoint.Set("distrib.wal.append", faultpoint.ActError, 0)
	_, err = c.Complete(completeReq(c, "w", l.Lease, l.Jobs))
	wantHTTPCode(t, err, http.StatusServiceUnavailable, "complete during injected append fault")
	if st := c.Status(); st.Completed != 0 || st.Leased != len(l.Jobs) {
		t.Fatalf("status after the refused upload %+v, want nothing applied", st)
	}

	// The site fired once and is inert; the retried upload lands.
	ack, err := c.Complete(completeReq(c, "w", l.Lease, l.Jobs))
	if err != nil || ack.Accepted != len(l.Jobs) {
		t.Fatalf("retried complete: ack %+v, err %v", ack, err)
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
	r, _ := resumeCoordinator(t, dir, walT0, CoordinatorOptions{LeaseTimeout: time.Minute, BatchSize: 3})
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
