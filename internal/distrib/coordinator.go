package distrib

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/distrib/faultpoint"
	"repro/internal/experiments"
	"repro/internal/httpapi"
	"repro/internal/results"
)

// Defaults for CoordinatorOptions.
const (
	// DefaultLeaseTimeout bounds how long a worker may sit on a batch
	// before its jobs requeue. Individual cell jobs run in milliseconds to
	// seconds, so two minutes comfortably covers a full batch on a slow
	// machine while still recovering from a dead worker quickly.
	DefaultLeaseTimeout = 2 * time.Minute
	// DefaultBatchSize is the jobs-per-lease default: large enough that
	// lease round trips are noise next to evaluation time, small enough
	// that a dead worker forfeits little work and stragglers rebalance
	// (see docs/DISTRIBUTED.md on batch sizing).
	DefaultBatchSize = 16
	// DefaultSnapshotEvery is how many journal records accumulate before
	// the coordinator snapshots and truncates the journal. Replay cost
	// after a crash is bounded by one snapshot interval.
	DefaultSnapshotEvery = 256
)

// Request body ceilings for the coordinator's POST endpoints. A lease
// request is a few fields; a completion carries a whole batch artifact,
// whose cells are small (a handful of metrics each) even for the
// largest sane batch.
const (
	maxLeaseBody    = 1 << 20  // 1 MiB
	maxCompleteBody = 64 << 20 // 64 MiB
)

// CoordinatorOptions configures a coordinator.
type CoordinatorOptions struct {
	// LeaseTimeout is how long a leased batch may stay unresolved; 0 means
	// DefaultLeaseTimeout.
	LeaseTimeout time.Duration
	// BatchSize is the number of jobs granted per lease; 0 means
	// DefaultBatchSize.
	BatchSize int
	// Run names the run in status reports and batch provenance; empty
	// generates a random id.
	Run string
	// StateDir, when set, makes the coordinator crash-safe: every state
	// transition is journaled (and fsync'd) to this directory before it
	// is applied or acknowledged, and a restarted coordinator replays
	// the directory back to its exact pre-crash state (recovery.go).
	// Empty keeps the run purely in memory, as before.
	StateDir string
	// SnapshotEvery is how many journal records accumulate before an
	// atomic snapshot truncates the journal; 0 means
	// DefaultSnapshotEvery, negative disables snapshots (the journal
	// grows for the whole run). Meaningless without StateDir.
	SnapshotEvery int
	// Token, when set, requires `Authorization: Bearer <Token>` on every
	// endpoint; requests without it are answered 401.
	Token string

	// now replaces the wall clock; tests advance it to expire leases
	// without sleeping.
	now func() time.Time
}

// jobState tracks one compiled job through the queue.
type jobState uint8

const (
	jobPending jobState = iota // in the queue, waiting for a lease
	jobLeased                  // granted to a worker, lease outstanding
	jobDone                    // resolved by a cell or a recorded failure
)

type lease struct {
	id       string
	worker   string
	jobs     []int
	deadline time.Time
}

// Coordinator owns one distributed run: the compiled plan, the job queue
// with its leases, and the accumulating cells. It is safe for concurrent
// use; Handler exposes it over HTTP.
type Coordinator struct {
	plan         *experiments.Plan
	meta         results.Meta
	planHash     string
	run          string
	leaseTimeout time.Duration
	batchSize    int
	now          func() time.Time
	token        string

	keyIdx   map[results.CellKey]int
	labelIdx map[string]int

	mu         sync.Mutex
	state      []jobState
	owner      []string // lease id per jobLeased job
	pending    []int    // FIFO queue of pending job indices
	leases     map[string]*lease
	leaseSeq   int
	cells      []*results.Cell
	failures   []*results.Failure
	unresolved int
	requeues   int
	workers    map[string]*WorkerStatus
	start      time.Time
	done       chan struct{}

	// Persistence (nil / zero without a StateDir).
	wal           *wal
	snapshotEvery int
	sinceSnap     int // journal records since the last snapshot
	checkpoints   int
	recovery      *RecoveryInfo
}

// NewCoordinator compiles the specs and sets up the job queue. The specs
// are the same values a local `cmd/experiments` run would compile, so the
// final merged artifact is byte-identical to a local unsharded `-out` run.
func NewCoordinator(specs []experiments.Spec, opt CoordinatorOptions) (*Coordinator, error) {
	plan, err := experiments.Compile(specs)
	if err != nil {
		return nil, err
	}
	if opt.LeaseTimeout <= 0 {
		opt.LeaseTimeout = DefaultLeaseTimeout
	}
	if opt.BatchSize <= 0 {
		opt.BatchSize = DefaultBatchSize
	}
	if opt.Run == "" {
		opt.Run = "run-" + randomID()
	}
	if opt.now == nil {
		opt.now = time.Now
	}
	if opt.SnapshotEvery == 0 {
		opt.SnapshotEvery = DefaultSnapshotEvery
	}
	c := &Coordinator{
		plan:          plan,
		meta:          experiments.MetaFromSpecs(specs, 0, 1),
		planHash:      experiments.PlanHash(plan),
		run:           opt.Run,
		leaseTimeout:  opt.LeaseTimeout,
		batchSize:     opt.BatchSize,
		now:           opt.now,
		token:         opt.Token,
		snapshotEvery: opt.SnapshotEvery,
		keyIdx:        make(map[results.CellKey]int, len(plan.Jobs)),
		labelIdx:      make(map[string]int, len(plan.Jobs)),
		state:         make([]jobState, len(plan.Jobs)),
		owner:         make([]string, len(plan.Jobs)),
		pending:       make([]int, 0, len(plan.Jobs)),
		leases:        make(map[string]*lease),
		cells:         make([]*results.Cell, len(plan.Jobs)),
		failures:      make([]*results.Failure, len(plan.Jobs)),
		unresolved:    len(plan.Jobs),
		workers:       make(map[string]*WorkerStatus),
		done:          make(chan struct{}),
	}
	c.start = c.now()
	for i, j := range plan.Jobs {
		c.pending = append(c.pending, i)
		c.keyIdx[j.Key] = i
		c.labelIdx[j.Job.String()] = i
	}
	if opt.StateDir != "" {
		if err := c.attachState(opt.StateDir); err != nil {
			return nil, err
		}
	}
	if c.unresolved == 0 {
		select {
		case <-c.done:
		default:
			close(c.done)
		}
	}
	return c, nil
}

// Close releases the journal file handle, if any. Reads keep working;
// mutations after Close are refused with 503. Restart-from-state-dir
// tests use it to hand the directory to a successor coordinator.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wal == nil {
		return nil
	}
	if c.wal.broken == nil {
		c.wal.broken = errors.New("journal closed")
	}
	return c.wal.close()
}

func randomID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("distrib: reading random id: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Run returns the run identifier.
func (c *Coordinator) Run() string { return c.run }

// Plan returns the compiled plan the queue is serving.
func (c *Coordinator) Plan() *experiments.Plan { return c.plan }

// Done is closed once every job is resolved (completed or failed).
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Info returns the run descriptor served on GET /v1/run.
func (c *Coordinator) Info() RunInfo {
	return RunInfo{
		Run:          c.run,
		Meta:         c.meta,
		PlanHash:     c.planHash,
		Jobs:         len(c.plan.Jobs),
		LeaseTimeout: c.leaseTimeout,
		BatchSize:    c.batchSize,
	}
}

// expireLocked requeues the unresolved jobs of every lease whose deadline
// has lapsed, journaling the expiry first when the run is persistent. If
// the journal refuses the record the leases simply stay open until a
// later scan — expiry is a clock observation, always safe to defer.
// Callers hold c.mu.
func (c *Coordinator) expireLocked(now time.Time) {
	ids := c.sortedExpiredLocked(now)
	if len(ids) == 0 {
		return
	}
	if c.appendLocked(now, &walRecord{Type: recExpire, Leases: ids}) != nil {
		return
	}
	for _, id := range ids {
		if l := c.leases[id]; l != nil {
			c.releaseLocked(l)
			delete(c.leases, id)
		}
	}
}

// appendLocked stamps and journals records ahead of applying them; a
// journal failure surfaces as a retryable 503. Without a StateDir it
// only stamps. Callers hold c.mu and apply the same records afterwards —
// journal-then-apply is the write-ahead discipline recovery relies on.
func (c *Coordinator) appendLocked(now time.Time, recs ...*walRecord) error {
	for _, rec := range recs {
		rec.Time = now
	}
	if c.wal == nil {
		return nil
	}
	if err := c.wal.append(now, recs...); err != nil {
		return httpapi.Errorf(http.StatusServiceUnavailable, "coordinator journal unavailable (%v); retry", err)
	}
	c.sinceSnap += len(recs)
	return nil
}

// walUsableLocked refuses mutations once the journal has latched a
// write failure: accepting state the journal cannot record would make
// the next recovery silently wrong. Callers hold c.mu.
func (c *Coordinator) walUsableLocked() error {
	if c.wal != nil && c.wal.broken != nil {
		return httpapi.Errorf(http.StatusServiceUnavailable,
			"coordinator journal failed (%v); restart the coordinator to recover", c.wal.broken)
	}
	return nil
}

// maybeCheckpointLocked snapshots once enough journal records have
// accumulated. Called after applying a mutation — never between journal
// and apply, or the snapshot would claim a seq it does not reflect.
// Callers hold c.mu.
func (c *Coordinator) maybeCheckpointLocked() {
	if c.wal == nil || c.snapshotEvery <= 0 || c.sinceSnap < c.snapshotEvery {
		return
	}
	// A failed snapshot is not fatal — the journal still has everything —
	// and the counter resets either way so a persistently failing disk
	// degrades to journal-only operation instead of retrying every record.
	c.checkpointLocked()
}

// checkpointLocked writes an atomic snapshot of the current state and
// truncates the journal behind it. Callers hold c.mu.
func (c *Coordinator) checkpointLocked() error {
	if c.wal == nil {
		return fmt.Errorf("distrib: coordinator has no state dir to checkpoint to")
	}
	st := c.snapshotLocked()
	c.sinceSnap = 0
	if err := writeSnapshot(c.wal.dir, st); err != nil {
		return err
	}
	c.checkpoints++
	return c.wal.rotate(c.now(), &walRecord{
		Type:         recBegin,
		Run:          c.run,
		Meta:         &c.meta,
		PlanHash:     c.planHash,
		LeaseTimeout: c.leaseTimeout,
		BatchSize:    c.batchSize,
		Start:        c.start,
		AfterSeq:     st.Seq,
	})
}

// releaseLocked returns a lease's still-leased jobs to the queue. Callers
// hold c.mu.
func (c *Coordinator) releaseLocked(l *lease) {
	for _, j := range l.jobs {
		if c.state[j] == jobLeased && c.owner[j] == l.id {
			c.state[j] = jobPending
			c.owner[j] = ""
			c.pending = append(c.pending, j)
			c.requeues++
		}
	}
}

func (c *Coordinator) workerLocked(name string, now time.Time) *WorkerStatus {
	w := c.workers[name]
	if w == nil {
		w = &WorkerStatus{}
		c.workers[name] = w
	}
	w.LastSeen = now
	return w
}

// Lease grants the next batch of pending jobs to a worker. A request whose
// plan hash disagrees with the coordinator's is rejected: the worker would
// interpret the granted indices as different jobs.
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	if req.PlanHash != c.planHash {
		return LeaseResponse{}, httpapi.Errorf(http.StatusConflict,
			"plan hash %q does not match this run's %q: the worker compiled a different plan (different code version, table contents, or options)",
			req.PlanHash, c.planHash)
	}
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.walUsableLocked(); err != nil {
		return LeaseResponse{}, err
	}
	c.expireLocked(now)
	c.workerLocked(req.Worker, now)

	max := req.Max
	if max <= 0 || max > c.batchSize {
		max = c.batchSize
	}
	// Select up to max genuinely pending jobs. The queue may hold stale
	// indices: a late completion of an expired lease resolves jobs that
	// expiry already requeued, and they stay in the FIFO until discarded
	// here — re-granting one would double-resolve it and end the run with
	// jobs still open.
	jobs := make([]int, 0, max)
	i := 0
	for ; i < len(c.pending) && len(jobs) < max; i++ {
		if j := c.pending[i]; c.state[j] == jobPending {
			jobs = append(jobs, j)
		}
	}
	if len(jobs) == 0 {
		c.pending = c.pending[i:]
		if c.unresolved == 0 {
			return LeaseResponse{Done: true}, nil
		}
		return LeaseResponse{RetryAfter: c.retryAfterLocked(now)}, nil
	}
	if err := faultpoint.Hit("distrib.lease.grant"); err != nil {
		return LeaseResponse{}, httpapi.Errorf(http.StatusServiceUnavailable, "%v; retry", err)
	}
	rec := &walRecord{
		Type:     recLease,
		Lease:    fmt.Sprintf("L%d", c.leaseSeq+1),
		Worker:   req.Worker,
		Jobs:     jobs,
		Deadline: now.Add(c.leaseTimeout),
	}
	// Journal before touching any state: a refused append leaves the
	// queue exactly as it was, so the agent's retry re-selects the same
	// work.
	if err := c.appendLocked(now, rec); err != nil {
		return LeaseResponse{}, err
	}
	c.pending = c.pending[i:]
	c.applyLeaseLocked(rec)
	c.maybeCheckpointLocked()
	return LeaseResponse{Lease: rec.Lease, Jobs: jobs, Deadline: rec.Deadline}, nil
}

// retryAfterLocked picks a polling interval for a worker that found the
// queue empty while other leases are outstanding: the soonest lease expiry,
// clamped so agents neither busy-wait nor oversleep the end of the run.
func (c *Coordinator) retryAfterLocked(now time.Time) time.Duration {
	retry := time.Second
	for _, l := range c.leases {
		if d := l.deadline.Sub(now); d < retry {
			retry = d
		}
	}
	if retry < 100*time.Millisecond {
		retry = 100 * time.Millisecond
	}
	return retry
}

// Complete ingests one fulfilled lease. The whole batch is validated
// before any of it is applied: a mismatched plan hash, artifact schema, or
// run configuration — or a cell/failure that addresses no job of the plan —
// rejects the upload without side effects. Results for jobs that are
// already resolved (a lease expired and another worker recomputed them)
// are counted as duplicates and ignored: jobs are deterministic, so the
// first result is as good as any.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	if req.PlanHash != c.planHash {
		return CompleteResponse{}, httpapi.Errorf(http.StatusConflict,
			"plan hash %q does not match this run's %q", req.PlanHash, c.planHash)
	}
	art := &req.Artifact
	if art.Schema != results.SchemaVersion {
		return CompleteResponse{}, httpapi.Errorf(http.StatusConflict,
			"artifact schema %d, this coordinator speaks %d", art.Schema, results.SchemaVersion)
	}
	if !results.MetaCompatible(c.meta, art.Meta) {
		return CompleteResponse{}, httpapi.Errorf(http.StatusConflict,
			"batch metadata does not match this run's configuration (different experiments, seed, graph count, or synth config)")
	}

	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.walUsableLocked(); err != nil {
		return CompleteResponse{}, err
	}
	c.expireLocked(now)
	c.workerLocked(req.Worker, now)

	// Validate every result before journaling or applying any.
	for _, cell := range art.Cells {
		if _, ok := c.keyIdx[cell.Key]; !ok {
			return CompleteResponse{}, httpapi.Errorf(http.StatusBadRequest,
				"cell %s addresses no job of this run", cell.Key)
		}
		if err := results.ValidateCellMetrics(c.meta.Variants, cell); err != nil {
			return CompleteResponse{}, httpapi.Errorf(http.StatusBadRequest, "%v", err)
		}
	}
	for _, f := range art.Failures {
		if _, ok := c.labelIdx[f.Label]; !ok {
			return CompleteResponse{}, httpapi.Errorf(http.StatusBadRequest,
				"failure %q addresses no job of this run", f.Label)
		}
	}

	if err := faultpoint.Hit("distrib.complete.apply"); err != nil {
		return CompleteResponse{}, httpapi.Errorf(http.StatusServiceUnavailable, "%v; retry", err)
	}
	// Journal the validated upload verbatim, then apply it. Replay runs
	// the identical first-write-wins dedup (applyCompleteLocked is the
	// single implementation), so a batch the coordinator acknowledged
	// before a crash stays resolved after recovery — and a partial batch's
	// lease retirement (unresolved jobs straight back to the queue, no
	// timeout wait) replays with it.
	rec := &walRecord{
		Type:     recComplete,
		Lease:    req.Lease,
		Worker:   req.Worker,
		Cells:    art.Cells,
		Failures: art.Failures,
	}
	if err := c.appendLocked(now, rec); err != nil {
		return CompleteResponse{}, err
	}
	resp, err := c.applyCompleteLocked(rec)
	if err != nil {
		// Unreachable: every cell and failure was validated above.
		return CompleteResponse{}, httpapi.Errorf(http.StatusInternalServerError, "%v", err)
	}
	c.maybeCheckpointLocked()
	return resp, nil
}

// Status snapshots the run's progress. It applies lease expiry first, so
// the report never shows a lapsed lease as in-flight work.
func (c *Coordinator) Status() Status {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	st := Status{
		Run:         c.run,
		Jobs:        len(c.plan.Jobs),
		Pending:     len(c.pending),
		Requeues:    c.requeues,
		Done:        c.unresolved == 0,
		Checkpoints: c.checkpoints,
		Recovered:   c.recovery != nil && c.recovery.Resumed,
		Elapsed:     now.Sub(c.start),
		Workers:     make(map[string]WorkerStatus, len(c.workers)),
	}
	for i := range c.state {
		switch c.state[i] {
		case jobLeased:
			st.Leased++
		case jobDone:
			if c.failures[i] != nil {
				st.Failed++
			} else {
				st.Completed++
			}
		}
	}
	for name, w := range c.workers {
		st.Workers[name] = *w
	}
	for _, l := range c.leases {
		st.Leases = append(st.Leases, LeaseStatus{
			Lease: l.id, Worker: l.worker, Jobs: len(l.jobs), Deadline: l.deadline,
		})
	}
	for _, f := range c.failures {
		if f != nil {
			st.Failures = append(st.Failures, *f)
		}
	}
	return st
}

// Artifact assembles the merged run artifact: every collected cell and
// failure in compiled job order, under the run's shard-0-of-1 metadata.
// Because cells are keyed by job index and the metadata carries no
// distributed provenance, the result is byte-identical to what a local
// unsharded `cmd/experiments -out` run of the same specs writes. It is
// meaningful once Done() is closed; called earlier it returns the cells
// collected so far.
func (c *Coordinator) Artifact() *results.Artifact {
	c.mu.Lock()
	defer c.mu.Unlock()
	art := &results.Artifact{Schema: results.SchemaVersion, Meta: c.meta}
	for _, cell := range c.cells {
		if cell != nil {
			art.Cells = append(art.Cells, *cell)
		}
	}
	for _, f := range c.failures {
		if f != nil {
			art.Failures = append(art.Failures, *f)
		}
	}
	return art
}

// Handler exposes the coordinator's four endpoints as an http.Handler.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/run", httpapi.Get(c.Info))
	mux.Handle("/v1/lease", httpapi.Post(maxLeaseBody, c.Lease))
	mux.Handle("/v1/complete", httpapi.Post(maxCompleteBody, c.Complete))
	mux.Handle("/v1/status", httpapi.Get(c.Status))
	if c.token != "" {
		return httpapi.RequireToken("distrib", c.token, mux)
	}
	return mux
}
