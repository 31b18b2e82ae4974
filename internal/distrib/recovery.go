package distrib

// recovery.go rebuilds a coordinator from a `-state` directory written
// by journal.go. Recovery replays every journal record, truncates a torn
// tail, and reopens the journal for appending. Resolved jobs stay
// resolved; every other job is pending at once, including those of
// leases open at the crash, which were never journaled — a grant that
// never reached its agent costs no lease timeout. An agent that still
// holds a pre-crash lease uploads it as usual: its cells resolve their
// jobs if no one else did first, and re-uploads of batches completed
// before the crash dedup exactly as a live duplicate would.
// ServeRecovering wraps the whole sequence behind a Gate that answers
// 503 + Retry-After until replay finishes, so agents see a clean "come
// back shortly" instead of half-answers.

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
)

// RecoveryInfo describes what attaching a state directory found.
type RecoveryInfo struct {
	// Resumed reports that the directory held a prior run's state (as
	// opposed to being empty, starting a fresh journal).
	Resumed bool `json:"resumed"`
	// Records counts journal records replayed.
	Records int `json:"records,omitempty"`
	// DroppedBytes and TornReason describe a torn journal tail that was
	// detected and truncated. Zero / empty for a clean journal.
	DroppedBytes int64  `json:"dropped_bytes,omitempty"`
	TornReason   string `json:"torn_reason,omitempty"`
}

func (ri *RecoveryInfo) String() string {
	if !ri.Resumed {
		return "fresh state dir"
	}
	s := fmt.Sprintf("resumed: %d records replayed", ri.Records)
	if ri.DroppedBytes > 0 {
		s += fmt.Sprintf(", torn tail dropped (%d bytes: %s)", ri.DroppedBytes, ri.TornReason)
	}
	return s
}

// Recovery returns what attaching the state directory found, or nil
// when the coordinator runs without one.
func (c *Coordinator) Recovery() *RecoveryInfo { return c.recovery }

// legacySnapshotFile is the full-state snapshot older builds wrote
// beside the journal, truncating the journal behind it. Its presence
// means wal.log no longer holds the run's whole history.
const legacySnapshotFile = "snapshot.json"

// attachState wires the coordinator to a state directory: replay any
// prior run's journal, truncate a torn tail, then open the journal for
// appending. Called from NewCoordinator with c not yet shared, so no
// locking.
func (c *Coordinator) attachState(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("distrib: creating state dir: %w", err)
	}
	refuse := func(why string) error {
		return fmt.Errorf("distrib: state dir %s does not hold a whole journal (%s), as one written by an older, snapshotting build may not: finish that run with the build that started it, or start a fresh -state dir (a shared -cache makes the rerun warm)", dir, why)
	}
	if _, err := os.Stat(filepath.Join(dir, legacySnapshotFile)); err == nil {
		return refuse("it holds " + legacySnapshotFile)
	}
	walPath := filepath.Join(dir, walFileName)
	scan, err := readWAL(walPath)
	if err != nil {
		return err
	}
	var recs []*walRecord
	if scan != nil {
		recs = scan.records
	}
	// A prior run's journal: verify it is whole and OUR run before
	// touching it.
	if len(recs) > 0 {
		first := recs[0]
		if first.Type != recBegin || first.Seq != 1 {
			return refuse(fmt.Sprintf("the journal opens with a %s record at seq %d, not a begin record at seq 1", first.Type, first.Seq))
		}
		if first.PlanHash != c.planHash {
			return fmt.Errorf("distrib: state dir %s belongs to run %s with plan hash %s, this coordinator compiled %s: same flags and code version required to resume",
				dir, first.Run, first.PlanHash, c.planHash)
		}
	}
	info := &RecoveryInfo{Resumed: len(recs) > 0}
	c.recovery = info
	if scan != nil && scan.dropped > 0 {
		// A torn tail — possibly the whole file, when the crash tore
		// the begin record itself — holds only transitions that were
		// never acknowledged.
		info.DroppedBytes = scan.dropped
		info.TornReason = scan.torn
		if err := os.Truncate(walPath, scan.goodBytes); err != nil {
			return fmt.Errorf("distrib: truncating torn journal tail: %w", err)
		}
	}
	for _, rec := range recs {
		if err := c.applyRecord(rec); err != nil {
			return err
		}
		info.Records++
	}

	// Every unresolved job is pending, in index order. Grant order may
	// differ from the unkilled run's — the artifact, ordered by job index
	// over deterministic cells, cannot.
	c.pending = c.pending[:0]
	for i := range c.state {
		if c.state[i] == jobPending {
			c.pending = append(c.pending, i)
		}
	}

	var seq uint64
	if len(recs) > 0 {
		seq = recs[len(recs)-1].Seq
	}
	w, err := openWAL(dir, seq)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		begin := &walRecord{
			Type:     recBegin,
			Run:      c.run,
			Meta:     &c.meta,
			PlanHash: c.planHash,
			Start:    c.start,
		}
		if err := w.append(c.now(), begin); err != nil {
			w.close()
			return fmt.Errorf("distrib: writing run admission record: %w", err)
		}
	}
	c.wal = w
	return nil
}

// applyRecord replays one journal record. Called during recovery with
// c not yet shared, so no locking.
func (c *Coordinator) applyRecord(rec *walRecord) error {
	switch rec.Type {
	case recBegin:
		// Adopt the journaled run identity — the journal, not this
		// process's flags, names the run and its start.
		c.run = rec.Run
		if !rec.Start.IsZero() {
			c.start = rec.Start
		}
		return nil
	case recComplete:
		_, err := c.applyCompleteLocked(rec)
		return err
	default:
		return fmt.Errorf("distrib: journal record %d has unknown type %q", rec.Seq, rec.Type)
	}
}

// applyCompleteLocked ingests a validated completion: the journaled
// transition shared by the live Complete path and replay. First write
// wins; results for already-resolved jobs count as duplicates. Callers
// hold c.mu (or own the coordinator exclusively during recovery).
func (c *Coordinator) applyCompleteLocked(rec *walRecord) (CompleteResponse, error) {
	w := c.workerLocked(rec.Worker, rec.Time)
	var resp CompleteResponse
	resolve := func(idx int) bool {
		if c.state[idx] == jobDone {
			resp.Duplicates++
			w.Duplicates++
			return false
		}
		c.state[idx] = jobDone
		c.owner[idx] = ""
		c.unresolved--
		resp.Accepted++
		return true
	}
	for i := range rec.Cells {
		idx, ok := c.keyIdx[rec.Cells[i].Key]
		if !ok {
			return resp, fmt.Errorf("distrib: journaled cell %s addresses no job of this plan", rec.Cells[i].Key)
		}
		if resolve(idx) {
			c.cells[idx] = &rec.Cells[i]
			w.Completed++
		}
	}
	for i := range rec.Failures {
		idx, ok := c.labelIdx[rec.Failures[i].Label]
		if !ok {
			return resp, fmt.Errorf("distrib: journaled failure %q addresses no job of this plan", rec.Failures[i].Label)
		}
		if resolve(idx) {
			c.failures[idx] = &rec.Failures[i]
			w.Failed++
		}
	}
	// Retire the lease only if the uploader holds it. Lease ids restart
	// with the coordinator, so a pre-crash upload may name an id that now
	// belongs to another worker's live lease; the uploader cannot hold it,
	// because an agent works one lease at a time.
	if l := c.leases[rec.Lease]; l != nil && l.worker == rec.Worker {
		c.releaseLocked(l)
		delete(c.leases, rec.Lease)
	}
	if c.unresolved == 0 {
		resp.Done = true
		select {
		case <-c.done:
		default:
			close(c.done)
		}
	}
	return resp, nil
}

// Gate fronts a handler that is not ready yet: every request is
// answered 503 + Retry-After until Ready installs the real handler.
// The coordinator sits behind one while replaying its journal, so a
// retrying agent sees an honest "come back shortly", never a
// half-recovered answer.
type Gate struct {
	h atomic.Value // http.Handler once Ready
}

// NewGate returns a gate with no handler installed.
func NewGate() *Gate { return &Gate{} }

// Ready installs the real handler; subsequent requests pass through.
func (g *Gate) Ready(h http.Handler) { g.h.Store(h) }

func (g *Gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := g.h.Load().(http.Handler); ok && h != nil {
		h.ServeHTTP(w, r)
		return
	}
	httpapi.Reject(w, &httpapi.Error{
		Code:       http.StatusServiceUnavailable,
		Msg:        "coordinator is recovering; retry shortly",
		RetryAfter: time.Second,
	})
}

// ServeRecovering binds addr immediately, serves 503 + Retry-After
// while build constructs (and possibly replays) the coordinator, then
// swaps in the real handler and serves until every job is resolved.
// Binding before building means agents that outlived a crashed
// coordinator start getting well-formed "retry shortly" answers the
// moment the new process is up, not connection refusals racing the
// replay.
func ServeRecovering(addr string, logw io.Writer, build func() (*Coordinator, error)) (*Coordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("distrib: coordinator listen: %w", err)
	}
	gate := NewGate()
	ended := make(chan struct{}) // closed once build fails or the run completes
	served := make(chan error, 1)
	go func() { served <- httpapi.Serve(ln, gate, ended, 5*time.Second) }()
	c, err := build()
	if err == nil {
		if ri := c.Recovery(); ri != nil {
			fmt.Fprintf(logw, "distrib: recovery: %s\n", ri)
		}
		fmt.Fprintf(logw, "distrib: coordinator %s serving %d jobs on http://%s (status: http://%s/v1/status)\n",
			c.run, len(c.plan.Jobs), ln.Addr(), ln.Addr())
		gate.Ready(c.Handler())
		select {
		case <-c.Done():
		case serr := <-served:
			return nil, fmt.Errorf("distrib: coordinator server: %w", serr)
		}
	}
	close(ended)
	if serr := <-served; serr != nil {
		return nil, fmt.Errorf("distrib: coordinator server: %w", serr)
	}
	if err != nil {
		return nil, err
	}
	st := c.Status()
	fmt.Fprintf(logw, "distrib: run %s complete: %d cells, %d failures, %d requeues, %d workers, elapsed %v\n",
		c.run, st.Completed, st.Failed, st.Requeues, len(st.Workers), st.Elapsed.Round(time.Millisecond))
	return c, nil
}
