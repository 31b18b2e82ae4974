// Package distrib is the one way to split an experiment run across
// processes or machines, a self-scheduling distributed sweep: an HTTP job-queue Coordinator that
// owns a compiled experiment plan, and pull-based worker Agents that lease
// batches of cell jobs, evaluate them on the concurrent engine of
// internal/experiments, and upload the resulting cells.
//
// The protocol is deliberately minimal — four JSON-over-HTTP endpoints:
//
//	GET  /v1/run       the run's identity: artifact metadata, plan hash,
//	                   job count, lease timeout, batch size
//	POST /v1/lease     lease the next batch of job indices to a worker
//	POST /v1/complete  upload one fulfilled lease as a results.Artifact
//	GET  /v1/status    progress, per-worker stats, failures (JSON)
//
// Correctness rests on three properties the rest of the repository already
// guarantees. Jobs are deterministic: a cell is a pure function of its
// (graph content, PEs, variant, simulate) key, so running a job twice —
// after a lease expires, say — produces the same values and double
// completion is safely deduplicated by first-write-wins. Plans compile
// identically everywhere: agents recompile the coordinator's plan from its
// artifact metadata (experiments.SpecsFromMeta + Compile) and verify the
// experiments.PlanHash, so a bare job index means the same job on every
// machine, and an agent built from mismatched code or flags is rejected up
// front. And cells are order-independent: the coordinator stores them by
// job index, so the final artifact is byte-identical to a local
// `cmd/experiments -out` run no matter how work interleaved across
// agents.
//
// Fault tolerance is lease-based. Every leased batch carries a deadline;
// if a worker dies (or just stalls past the lease timeout), its unresolved
// jobs are requeued on the next queue scan and another worker picks them
// up. Leases are soft state: a crash-safe coordinator journals only the
// results it accepts, and a restarted one makes every unresolved job
// pending again. A job whose evaluation fails is recorded as a failure
// and not retried, matching the local engine's semantics: one
// pathological graph drops its samples from the tables instead of
// wedging the run.
//
// Entry points: ServeRecovering (or NewCoordinator + Coordinator.Handler)
// on the serving side, Agent.Run on the worker side; `cmd/experiments
// -serve`, `-agent`, and `-status` wire them to flags. The protocol
// walkthrough, a worked two-agent session, and the troubleshooting table
// live in docs/DISTRIBUTED.md.
package distrib

import (
	"time"

	"repro/internal/results"
)

// RunInfo is the coordinator's answer to GET /v1/run: everything an agent
// needs to recompile the plan, verify it agrees with the coordinator, and
// size its lease requests.
type RunInfo struct {
	// Run identifies this coordinator run; workers echo it in the
	// provenance of every batch they upload.
	Run string `json:"run"`
	// Meta is the run's artifact metadata. Agents rebuild the specs from
	// it with experiments.SpecsFromMeta and compile the identical plan.
	Meta results.Meta `json:"meta"`
	// PlanHash is the coordinator's experiments.PlanHash; agents verify
	// their recompiled plan hashes identically before leasing.
	PlanHash string `json:"plan_hash"`
	// Jobs is the total number of compiled cell jobs.
	Jobs int `json:"jobs"`
	// LeaseTimeout is how long a leased batch may stay unfinished before
	// its jobs are requeued, in nanoseconds (a time.Duration).
	LeaseTimeout time.Duration `json:"lease_timeout"`
	// BatchSize is the number of jobs the coordinator hands out per lease.
	BatchSize int `json:"batch_size"`
}

// LeaseRequest asks the coordinator for the next batch of jobs.
type LeaseRequest struct {
	// Worker names the requesting agent (for status and provenance).
	Worker string `json:"worker"`
	// PlanHash must match the coordinator's; a mismatch is rejected with
	// HTTP 409.
	PlanHash string `json:"plan_hash"`
	// Max caps the batch; 0 means the coordinator's BatchSize.
	Max int `json:"max,omitempty"`
}

// LeaseResponse grants a batch of job indices (or reports that none are
// available right now).
type LeaseResponse struct {
	// Lease identifies the grant; completions must echo it.
	Lease string `json:"lease,omitempty"`
	// Jobs are indices into the compiled plan's job list. Empty when
	// nothing is currently pending.
	Jobs []int `json:"jobs,omitempty"`
	// Deadline is when the lease expires and its jobs requeue.
	Deadline time.Time `json:"deadline,omitempty"`
	// Done reports that every job is resolved: the agent should exit.
	Done bool `json:"done,omitempty"`
	// RetryAfter, when Jobs is empty and Done is false, is how long the
	// agent should wait before asking again (other workers hold leases
	// that may yet expire), in nanoseconds.
	RetryAfter time.Duration `json:"retry_after,omitempty"`
}

// CompleteRequest uploads one fulfilled lease. The batch travels as a
// regular v2 artifact whose meta carries results.DistribMeta provenance;
// the coordinator validates it against the run before accepting any of it
// (docs/ARTIFACTS.md).
type CompleteRequest struct {
	// Worker and Lease identify the grant being fulfilled. A completion
	// for an expired or forgotten lease is still accepted — the jobs are
	// deterministic, so whichever result arrives first wins and the rest
	// are duplicates. It retires the named lease only if Worker holds it.
	Worker string `json:"worker"`
	Lease  string `json:"lease"`
	// PlanHash must match the coordinator's.
	PlanHash string `json:"plan_hash"`
	// Artifact holds the batch's cells and failures. Its meta must be
	// MetaCompatible with the coordinator's run meta.
	Artifact results.Artifact `json:"artifact"`
}

// CompleteResponse acknowledges an upload.
type CompleteResponse struct {
	// Accepted counts cells and failures that resolved a job; Duplicates
	// counts results for jobs another completion already resolved.
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates,omitempty"`
	// Done reports that the upload resolved the run's last open job.
	Done bool `json:"done,omitempty"`
}

// WorkerStatus is one agent's row in the status report.
type WorkerStatus struct {
	Leases     int       `json:"leases"`
	Completed  int       `json:"completed"`
	Failed     int       `json:"failed,omitempty"`
	Duplicates int       `json:"duplicates,omitempty"`
	LastSeen   time.Time `json:"last_seen"`
}

// LeaseStatus is one outstanding lease in the status report.
type LeaseStatus struct {
	Lease    string    `json:"lease"`
	Worker   string    `json:"worker"`
	Jobs     int       `json:"jobs"`
	Deadline time.Time `json:"deadline"`
}

// Status is the coordinator's progress report, served as JSON on
// GET /v1/status.
type Status struct {
	Run       string `json:"run"`
	Jobs      int    `json:"jobs"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	Leased    int    `json:"leased"`
	Pending   int    `json:"pending"`
	// Requeues counts jobs returned to the queue by expired leases.
	Requeues int  `json:"requeues"`
	Done     bool `json:"done"`
	// Recovered reports that this coordinator resumed a prior run from
	// its `-state` directory; false for in-memory runs.
	Recovered bool `json:"recovered,omitempty"`
	// Elapsed is the wall-clock time since the coordinator started, in
	// nanoseconds.
	Elapsed time.Duration           `json:"elapsed"`
	Workers map[string]WorkerStatus `json:"workers,omitempty"`
	Leases  []LeaseStatus           `json:"leases,omitempty"`
	// Failures lists every job that errored, with the same labels a local
	// run would report.
	Failures []results.Failure `json:"failures,omitempty"`
}
