// Package results defines the on-disk artifacts of the experiment
// pipeline: the Cell unit of computed data, the versioned JSON artifact
// written by `cmd/experiments -out` (a local run or a distributed-sweep
// coordinator, byte-identical either way) and uploaded batch by batch by
// sweep agents, and the content-addressed results cache that lets repeated
// runs skip already-computed cells.
//
// A Cell is one (graph, PE count, variant, simulate) unit of experiment
// output — a few named float64 values such as a speedup or a measured
// scheduling time. Experiments compile to cell-producing jobs
// (internal/experiments), which run in one process or are leased out to
// agents by a coordinator (internal/distrib), and the tables of the paper
// are rendered from the collected cell set. Two identities address a
// cell:
//
//   - the semantic key used inside artifacts, whose Graph field names the
//     generated instance ("FFT/s1/c<cfg>/g3"), so a coordinator can map an
//     uploaded cell to its job without rebuilding graphs; and
//   - the content key used by the cache, whose Graph field is the
//     Fingerprint of the built task graph, so any two runs that schedule
//     the same graph the same way share cache entries.
//
// The artifact schema is documented field by field in docs/ARTIFACTS.md.
//
// Entry points: Artifact.WriteFile for artifacts, OpenCache for the
// persistent cache, NewSet for in-process collection. Invariants the rest
// of the pipeline leans on: Set preserves insertion order and rejects
// duplicate keys; a coordinator validates every uploaded batch with
// MetaCompatible (which ignores the shard position and the distributed-run
// provenance in Meta.Distrib) plus per-cell metric declarations
// (ValidateCellMetrics); float64 values round-trip JSON exactly, so
// rendered tables never depend on where cells were computed.
package results

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/core"
)

// SchemaVersion is the artifact and cache schema version. Readers reject
// files written with any other version; see docs/ARTIFACTS.md for the
// compatibility policy. Version 2 added the Meta.Variants map of
// variant-declared metric keys (and, with it, the placement/HEFT/pipeline
// variants).
const SchemaVersion = 2

// CellKey addresses one unit of computed experiment data.
type CellKey struct {
	// Graph identifies the task graph: a generated-instance name in
	// artifacts, a content Fingerprint in the cache.
	Graph string `json:"graph"`
	// PEs is the processing-element count the variant ran with. 0 is the
	// "as many PEs as compute nodes" sentinel used by the Figure 12 jobs,
	// where the count is a function of the graph itself.
	PEs int `json:"pes"`
	// Variant names the evaluation procedure (e.g. "SB-LTS", "fig12-str",
	// "table2-nstr", "ablation-unit"); it determines which Values the cell
	// carries.
	Variant string `json:"variant"`
	// Simulate distinguishes sweep cells that also ran the Appendix B
	// discrete-event validation.
	Simulate bool `json:"simulate,omitempty"`
}

// String renders the key in its canonical one-line form.
func (k CellKey) String() string {
	sim := 0
	if k.Simulate {
		sim = 1
	}
	return fmt.Sprintf("%s|P%d|%s|sim%d", k.Graph, k.PEs, k.Variant, sim)
}

// Cell is the outcome of one job: its key, a human-readable label, and the
// named values the experiment's renderer aggregates into table rows.
// float64 values survive the JSON round trip exactly (encoding/json emits
// the shortest representation that parses back to the same float), so
// tables rendered from a coordinator's uploaded cells are byte-identical to
// an in-process run.
type Cell struct {
	Key    CellKey            `json:"key"`
	Label  string             `json:"label,omitempty"`
	Values map[string]float64 `json:"values"`
}

// Set is an ordered collection of cells indexed by key.
type Set struct {
	cells []Cell
	index map[CellKey]int
}

// NewSet returns an empty set.
func NewSet() *Set {
	return &Set{index: make(map[CellKey]int)}
}

// Add appends a cell, rejecting a key that is already present: inside one
// run that would be a compiler bug.
func (s *Set) Add(c Cell) error {
	if i, ok := s.index[c.Key]; ok {
		return fmt.Errorf("results: overlapping cell %s (already present as %q)", c.Key, s.cells[i].Label)
	}
	s.index[c.Key] = len(s.cells)
	s.cells = append(s.cells, c)
	return nil
}

// Get returns the cell stored under k.
func (s *Set) Get(k CellKey) (Cell, bool) {
	i, ok := s.index[k]
	if !ok {
		return Cell{}, false
	}
	return s.cells[i], true
}

// Cells returns the cells in insertion order.
func (s *Set) Cells() []Cell { return s.cells }

// Len returns the number of cells.
func (s *Set) Len() int { return len(s.cells) }

// Fingerprint content-addresses a frozen task graph: the SHA-256 of its
// canonical JSON encoding, truncated to 128 bits. Graphs with identical
// nodes, volumes, and edges fingerprint identically no matter how they
// were constructed, which is what lets the results cache serve a cell
// computed by any earlier run. EncodeJSON streams straight into the hash,
// whose writes never fail.
func Fingerprint(t *core.TaskGraph) string {
	h := sha256.New()
	_ = t.EncodeJSON(h)
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}
