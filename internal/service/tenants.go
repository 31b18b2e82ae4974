package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// This file is the multi-tenant layer of the scheduling service: tenant
// identity and per-tenant quotas/weights (TenantConfig, TenantsConfig),
// the deterministic weighted fair queueing that replaces the single
// global dispatch queue (fairPick), and the pluggable load-shed
// policies that replace unconditional tail-drop. docs/SERVICE.md
// documents the semantics; the fairness and quota test batteries in
// tenants_test.go pin them.

// DefaultTenant is the tenant legacy clients — submissions carrying no
// tenant field or X-Tenant header — are accounted to.
const DefaultTenant = "default"

// maxTenantWeight bounds weights so the fair-queue comparisons
// (cross-multiplied int64 products of served counts and weights) can
// never overflow.
const maxTenantWeight = 1 << 20

// TenantConfig is one tenant's scheduling contract.
type TenantConfig struct {
	// Weight is the tenant's fair-queueing weight: backlogged tenants
	// are served in proportion to their weights.
	// Weight 0 marks a background tenant, served only when every
	// positive-weight tenant's queue is idle.
	Weight int `json:"weight"`
	// MaxOpen caps this tenant's open jobs (queued + running); past it
	// the tenant's submissions get 429 with a per-tenant Retry-After.
	// 0 means no per-tenant cap (the global queue cap still applies).
	MaxOpen int `json:"max_open,omitempty"`
	// SLOMs is the tenant's scheduling-latency SLO target in
	// milliseconds: completed jobs slower than this count as SLO misses
	// in /v1/statusz. 0 disables tracking.
	SLOMs float64 `json:"slo_ms,omitempty"`
}

// TenantsConfig maps tenant names to their contracts. Unknown tenants —
// including DefaultTenant when not listed explicitly — use Default.
type TenantsConfig struct {
	Default TenantConfig            `json:"default"`
	Tenants map[string]TenantConfig `json:"tenants,omitempty"`
}

// DefaultTenantsConfig is the single-tenant legacy contract: every
// client shares one weight-1 tenant with no quota and no SLO.
func DefaultTenantsConfig() TenantsConfig {
	return TenantsConfig{Default: TenantConfig{Weight: 1}}
}

// For resolves the contract of one tenant name.
func (c TenantsConfig) For(name string) TenantConfig {
	if t, ok := c.Tenants[name]; ok {
		return t
	}
	return c.Default
}

// normalize fills the zero value in: a TenantsConfig{} behaves like
// DefaultTenantsConfig, so Options.Tenants can be left unset.
func (c TenantsConfig) normalize() TenantsConfig {
	if c.Default == (TenantConfig{}) {
		c.Default = TenantConfig{Weight: 1}
	}
	return c
}

// Validate rejects contracts the scheduler cannot honor, with errors
// that name the offending tenant and field.
func (c TenantsConfig) Validate() error {
	if err := validateTenantConfig("default", c.Default); err != nil {
		return err
	}
	if c.Default.Weight == 0 {
		return fmt.Errorf("tenants config: default tenant must have a positive weight (zero-weight background tenants must be named explicitly)")
	}
	for name, t := range c.Tenants {
		if strings.TrimSpace(name) == "" {
			return fmt.Errorf("tenants config: empty tenant name")
		}
		if strings.ContainsAny(name, " \t\n|") {
			return fmt.Errorf("tenants config: tenant name %q contains whitespace or '|'", name)
		}
		if err := validateTenantConfig(name, t); err != nil {
			return err
		}
	}
	return nil
}

func validateTenantConfig(name string, t TenantConfig) error {
	if t.Weight < 0 {
		return fmt.Errorf("tenants config: tenant %q: negative weight %d", name, t.Weight)
	}
	if t.Weight > maxTenantWeight {
		return fmt.Errorf("tenants config: tenant %q: weight %d exceeds the maximum %d", name, t.Weight, maxTenantWeight)
	}
	if t.MaxOpen < 0 {
		return fmt.Errorf("tenants config: tenant %q: negative max_open %d", name, t.MaxOpen)
	}
	if t.SLOMs < 0 || math.IsNaN(t.SLOMs) || math.IsInf(t.SLOMs, 0) {
		return fmt.Errorf("tenants config: tenant %q: bad slo_ms %g", name, t.SLOMs)
	}
	return nil
}

// ParseTenantsConfig decodes and validates a tenants-config JSON
// document. Unknown fields are rejected, so a typo in a config file is
// a load error, not a silently ignored contract.
func ParseTenantsConfig(data []byte) (TenantsConfig, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var cfg TenantsConfig
	if err := dec.Decode(&cfg); err != nil {
		return TenantsConfig{}, fmt.Errorf("tenants config: %w", err)
	}
	cfg = cfg.normalize()
	if err := cfg.Validate(); err != nil {
		return TenantsConfig{}, err
	}
	return cfg, nil
}

// LoadTenantsFile reads and validates a tenants-config file.
func LoadTenantsFile(path string) (TenantsConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return TenantsConfig{}, fmt.Errorf("tenants config: %w", err)
	}
	cfg, err := ParseTenantsConfig(data)
	if err != nil {
		return TenantsConfig{}, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}

// ParseTenantsArg resolves the -tenants flag: inline JSON (starts with
// '{') or a path to a tenants-config file. Both are validated the same
// way; "" is the single-tenant default contract.
func ParseTenantsArg(s string) (TenantsConfig, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return DefaultTenantsConfig(), nil
	case strings.HasPrefix(s, "{"):
		return ParseTenantsConfig([]byte(s))
	}
	return LoadTenantsFile(s)
}

// Load-shed policies: what happens when a submission arrives at a full
// queue (open == QueueCap).
const (
	// ShedTailDrop rejects the newcomer with 429 — the pre-tenancy
	// behavior.
	ShedTailDrop = "tail-drop"
	// ShedLargestGraphFirst evicts the largest queued job (most compute
	// tasks) to admit a smaller newcomer; a newcomer at least as large
	// as everything queued is still tail-dropped.
	ShedLargestGraphFirst = "largest-graph-first"
	// ShedOverQuotaFirst evicts the newest queued job of the tenant
	// furthest over its weighted fair share of the queue; a newcomer
	// whose own tenant is the most over-share is tail-dropped.
	ShedOverQuotaFirst = "over-quota-first"
)

// ParseShedPolicy maps the CLI spellings of the shed policies; ""
// means ShedTailDrop.
func ParseShedPolicy(s string) (string, error) {
	switch s {
	case "", ShedTailDrop:
		return ShedTailDrop, nil
	case ShedLargestGraphFirst:
		return ShedLargestGraphFirst, nil
	case ShedOverQuotaFirst:
		return ShedOverQuotaFirst, nil
	}
	return "", fmt.Errorf("unknown shed policy %q (want %s, %s, or %s)",
		s, ShedTailDrop, ShedLargestGraphFirst, ShedOverQuotaFirst)
}

// latencyRingCap bounds the per-tenant latency sample window the
// statusz percentiles are computed over.
const latencyRingCap = 512

// latencyRing is a fixed-size ring of recent completed-job latencies.
type latencyRing struct {
	buf  []time.Duration
	next int
	n    int
}

func (r *latencyRing) add(d time.Duration) {
	if r.buf == nil {
		r.buf = make([]time.Duration, latencyRingCap)
	}
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// snapshot copies the live samples (order does not matter: the summary
// sorts).
func (r *latencyRing) snapshot() []time.Duration {
	out := make([]time.Duration, 0, r.n)
	if r.n == len(r.buf) {
		out = append(out, r.buf...)
		return out
	}
	return append(out, r.buf[:r.n]...)
}

// retryAfter is the Retry-After hint of a rejected submission of this
// tenant: the median of its recent completed latencies, what its jobs
// lately took from admission to report, clamped to [1 ms, maxWait]. A
// tenant that has completed nothing yet is told 1 s.
func (t *tenantState) retryAfter() time.Duration {
	if t.lat.n == 0 {
		return time.Second
	}
	p50 := time.Duration(summarizeLatency(t.lat.snapshot()).P50Ms * float64(time.Millisecond))
	return min(max(p50, time.Millisecond), maxWait)
}

// tenantState is one tenant's live accounting, guarded by Service.mu.
type tenantState struct {
	cfg TenantConfig

	// open is queued + running + undrained jobs; backlogged records
	// whether the tenant was left with queued (unserved) demand at the
	// end of the last dispatch — the WFQ active-flow flag.
	open       int
	backlogged bool

	// served counts dispatched submissions (statusz); vserved is the
	// fair-queue progress counter: it advances with every dispatched
	// submission and is synced forward when an idle tenant becomes
	// backlogged again, so returning tenants re-enter at the current
	// virtual time instead of bursting on banked credit.
	served  int64
	vserved int64

	accepted  int64
	rejected  int64
	completed int64
	failed    int64
	shed      int64
	sloMisses int64
	lat       latencyRing
}

// fairPick selects up to cap jobs from queue in deterministic weighted
// fair order and returns them plus the jobs left queued (in their
// original order).
//
// Per tenant, jobs are ordered closest-to-completion first — (compute
// tasks, coalescing key, admission order); the key tie-break makes the
// order a pure function of the queued submissions (admission order only
// breaks ties between submissions with identical content, which
// coalesce into one evaluation anyway, so arrival interleaving is never
// observable). Across tenants, the pick minimizes the virtual finish
// time (vserved+1)/weight with exact cross-multiplied comparisons and
// the tenant name as the final tie-break, so backlogged tenants are
// served in proportion to their weights over any window. Zero-weight
// tenants are considered only once every positive-weight queue is
// exhausted.
//
// vtime is the scheduler's virtual clock: the largest normalized
// progress (vserved/weight) any tenant has reached. A tenant entering
// backlog from idle has its vserved synced to floor(vtime*weight), the
// standard WFQ rule that prevents both banked-credit bursts and
// perpetual deficits.
func fairPick(queue []*job, state func(string) *tenantState, cap int, vtime *float64) (picked, rest []*job) {
	if len(queue) == 0 {
		return nil, queue
	}
	if cap <= 0 || cap > len(queue) {
		cap = len(queue)
	}

	// Group by tenant, tenant names sorted for deterministic iteration.
	byTenant := make(map[string][]*job)
	var names []string
	for _, j := range queue {
		if _, ok := byTenant[j.tenant]; !ok {
			names = append(names, j.tenant)
		}
		byTenant[j.tenant] = append(byTenant[j.tenant], j)
	}
	sort.Strings(names)
	for _, n := range names {
		js := byTenant[n]
		sort.SliceStable(js, func(a, b int) bool {
			if js[a].tasks != js[b].tasks {
				return js[a].tasks < js[b].tasks
			}
			if js[a].key != js[b].key {
				return js[a].key < js[b].key
			}
			return js[a].seq < js[b].seq
		})
	}

	// Sync tenants entering backlog from idle to the current virtual
	// time, then mark everyone with demand as backlogged.
	for _, n := range names {
		t := state(n)
		if !t.backlogged && t.cfg.Weight > 0 {
			if synced := int64(math.Floor(*vtime * float64(t.cfg.Weight))); synced > t.vserved {
				t.vserved = synced
			}
		}
	}

	heads := make(map[string]int, len(names))
	pickedSet := make(map[*job]bool, cap)
	for len(picked) < cap {
		best := ""
		var bestT *tenantState
		zero := ""
		var zeroT *tenantState
		for _, n := range names {
			if heads[n] >= len(byTenant[n]) {
				continue
			}
			t := state(n)
			if t.cfg.Weight > 0 {
				// Minimize (vserved+1)/weight; exact integer cross-multiply.
				if bestT == nil || (t.vserved+1)*int64(bestT.cfg.Weight) < (bestT.vserved+1)*int64(t.cfg.Weight) {
					best, bestT = n, t
				}
			} else if zeroT == nil || t.vserved < zeroT.vserved {
				zero, zeroT = n, t
			}
		}
		if bestT == nil {
			// Every positive-weight queue is exhausted: background
			// tenants may fill the remaining budget.
			if zeroT == nil {
				break
			}
			best, bestT = zero, zeroT
		}
		j := byTenant[best][heads[best]]
		heads[best]++
		picked = append(picked, j)
		pickedSet[j] = true
		bestT.vserved++
		if bestT.cfg.Weight > 0 {
			if p := float64(bestT.vserved) / float64(bestT.cfg.Weight); p > *vtime {
				*vtime = p
			}
		}
	}

	rest = queue[:0:0]
	for _, j := range queue {
		if !pickedSet[j] {
			rest = append(rest, j)
		}
	}
	for _, n := range names {
		state(n).backlogged = heads[n] < len(byTenant[n])
	}
	return picked, rest
}

// TenantStatus is one tenant's row in /v1/statusz, sorted by name.
type TenantStatus struct {
	Name        string  `json:"name"`
	Weight      int     `json:"weight"`
	MaxOpen     int     `json:"max_open,omitempty"`
	SLOTargetMs float64 `json:"slo_target_ms,omitempty"`

	Open      int   `json:"open"`
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed,omitempty"`
	Shed      int64 `json:"shed,omitempty"`
	// Served counts dispatched submissions — the fair-queueing share.
	Served int64 `json:"served"`
	// SLOMisses counts completed jobs whose scheduling latency exceeded
	// the tenant's SLO target; Latency summarizes the recent completed
	// window (up to 512 samples).
	SLOMisses int64          `json:"slo_misses"`
	Latency   LatencySummary `json:"latency"`
}

// status snapshots one tenant's statusz row (caller holds Service.mu).
func (t *tenantState) status(name string) TenantStatus {
	return TenantStatus{
		Name:        name,
		Weight:      t.cfg.Weight,
		MaxOpen:     t.cfg.MaxOpen,
		SLOTargetMs: t.cfg.SLOMs,
		Open:        t.open,
		Accepted:    t.accepted,
		Rejected:    t.rejected,
		Completed:   t.completed,
		Failed:      t.failed,
		Shed:        t.shed,
		Served:      t.served,
		SLOMisses:   t.sloMisses,
		Latency:     summarizeLatency(t.lat.snapshot()),
	}
}
