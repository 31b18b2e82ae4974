package results

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"

	"repro/internal/synth"
)

// ExpMeta records the options one experiment ran with, enough for a reader
// to recompile the exact job list and validate a merge for missing cells.
type ExpMeta struct {
	// Name is the experiment: fig10, fig11, fig12, fig13, table2, ablation.
	Name string `json:"name"`
	// Graphs and Seed bound the synthetic families (unused by table2).
	Graphs int   `json:"graphs,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
	// Config bounds the random volume generation (unused by table2).
	Config *synth.Config `json:"config,omitempty"`
	// FullModels selects the full-size Table 2 model graphs.
	FullModels bool `json:"full_models,omitempty"`
}

// Meta identifies one run: which experiments with which options, and which
// shard of the compiled job list this artifact holds.
type Meta struct {
	Experiments []ExpMeta `json:"experiments"`
	// Variants maps each evaluation procedure the run's experiments dispatch
	// to onto the value names its cells may carry, as declared by the
	// variant table. A merge rejects cells carrying values outside their
	// variant's declaration — a cheap end-to-end check that a shard was
	// produced by the same evaluation code.
	Variants map[string][]string `json:"variants,omitempty"`
	// ShardIndex/ShardCount locate this artifact in a sharded run; an
	// unsharded run writes shard 0 of 1.
	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`
	// Distrib, when present, records which distributed-sweep lease produced
	// this batch of cells (internal/distrib). It is provenance, not identity:
	// MetaCompatible ignores it, so coordinator batches merge cleanly with
	// locally produced shards, and the coordinator's final merged artifact
	// omits it entirely to stay byte-identical to a local unsharded run
	// (see docs/ARTIFACTS.md and docs/DISTRIBUTED.md).
	Distrib *DistribMeta `json:"distrib,omitempty"`
}

// DistribMeta is the lease/batch provenance a distributed-sweep worker
// stamps on the artifacts it uploads to its coordinator.
type DistribMeta struct {
	// Run is the coordinator's run identifier; every batch of one
	// distributed run carries the same value.
	Run string `json:"run,omitempty"`
	// Worker names the agent that computed the batch.
	Worker string `json:"worker,omitempty"`
	// Lease is the coordinator-issued lease the batch fulfills.
	Lease string `json:"lease,omitempty"`
	// Batch is the 1-based sequence number of this batch within the
	// worker's session.
	Batch int `json:"batch,omitempty"`
}

// Failure records one job that errored instead of producing its cell.
type Failure struct {
	Label string `json:"label"`
	Err   string `json:"err"`
}

// Artifact is the versioned shard file: every cell this shard computed,
// the run metadata that makes shards self-describing and mergeable, and
// the jobs that failed.
type Artifact struct {
	Schema   int       `json:"schema"`
	Meta     Meta      `json:"meta"`
	Cells    []Cell    `json:"cells"`
	Failures []Failure `json:"failures,omitempty"`
}

// WriteFile writes the artifact as indented JSON.
func (a *Artifact) WriteFile(path string) error {
	a.Schema = SchemaVersion
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("results: encoding artifact: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("results: writing artifact: %w", err)
	}
	return nil
}

// ReadArtifactFile reads and validates one shard artifact.
func ReadArtifactFile(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("results: reading artifact: %w", err)
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("results: %s: corrupt artifact: %w", path, err)
	}
	if a.Schema != SchemaVersion {
		return nil, fmt.Errorf("results: %s: schema version %d, this build reads only %d",
			path, a.Schema, SchemaVersion)
	}
	if a.Meta.ShardCount < 1 || a.Meta.ShardIndex < 0 || a.Meta.ShardIndex >= a.Meta.ShardCount {
		return nil, fmt.Errorf("results: %s: bad shard %d/%d",
			path, a.Meta.ShardIndex, a.Meta.ShardCount)
	}
	if len(a.Meta.Experiments) == 0 {
		return nil, fmt.Errorf("results: %s: artifact names no experiments", path)
	}
	return &a, nil
}

// Merge deterministically combines shard artifacts from separate processes
// into one cell set. It rejects artifacts whose run metadata differs,
// shards that are missing, duplicated, or from differently-sized runs, and
// overlapping cells. Completeness against the compiled job list (missing
// cells) is the caller's check, since only the experiments layer can
// enumerate the expected keys.
func Merge(arts []*Artifact) (*Set, Meta, error) {
	if len(arts) == 0 {
		return nil, Meta{}, fmt.Errorf("results: nothing to merge")
	}
	want := arts[0].Meta.ShardCount
	if len(arts) != want {
		return nil, Meta{}, fmt.Errorf("results: got %d artifacts for a %d-shard run", len(arts), want)
	}
	sorted := append([]*Artifact(nil), arts...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Meta.ShardIndex < sorted[j].Meta.ShardIndex
	})
	ref := sorted[0].Meta
	for i, a := range sorted {
		if a.Meta.ShardCount != want {
			return nil, Meta{}, fmt.Errorf("results: shard counts differ: %d vs %d", a.Meta.ShardCount, want)
		}
		if a.Meta.ShardIndex != i {
			return nil, Meta{}, fmt.Errorf("results: shard %d of %d is missing or duplicated", i, want)
		}
		if !MetaCompatible(ref, a.Meta) {
			return nil, Meta{}, fmt.Errorf("results: shard %d was produced by a different run configuration", a.Meta.ShardIndex)
		}
	}
	set := NewSet()
	for _, a := range sorted {
		for _, c := range a.Cells {
			if err := ValidateCellMetrics(ref.Variants, c); err != nil {
				return nil, Meta{}, fmt.Errorf("shard %d: %w", a.Meta.ShardIndex, err)
			}
			if err := set.Add(c); err != nil {
				return nil, Meta{}, fmt.Errorf("shard %d: %w", a.Meta.ShardIndex, err)
			}
		}
	}
	merged := ref
	merged.ShardIndex, merged.ShardCount = 0, 1
	return set, merged, nil
}

// ValidateCellMetrics checks a cell against a run's variant declarations:
// its variant must be declared and every value name must be among the
// variant's metric keys. Merge applies it across shards and a distributed
// coordinator applies it to every uploaded batch — a cheap end-to-end check
// that the producer ran the same evaluation code. Artifacts without
// declarations (hand-rolled or produced before the metadata carried them)
// skip the check.
func ValidateCellMetrics(declared map[string][]string, c Cell) error {
	if len(declared) == 0 {
		return nil
	}
	metrics, ok := declared[c.Key.Variant]
	if !ok {
		return fmt.Errorf("results: cell %s uses variant %q, which the run metadata does not declare",
			c.Key, c.Key.Variant)
	}
	for name := range c.Values {
		found := false
		for _, m := range metrics {
			if m == name {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("results: cell %s carries value %q, outside variant %q's declared metrics %v",
				c.Key, name, c.Key.Variant, metrics)
		}
	}
	return nil
}

// MetaCompatible reports whether two artifacts came from the same run
// configuration: equal in everything but the shard index and the
// distributed-run provenance. It is the check Merge applies across shards
// and the one a distributed coordinator applies to every batch a worker
// uploads — a worker compiled with different options (seed, graph counts,
// synth config, experiment set) fails it and is rejected.
func MetaCompatible(a, b Meta) bool {
	a.ShardIndex, b.ShardIndex = 0, 0
	a.Distrib, b.Distrib = nil, nil
	return reflect.DeepEqual(a, b)
}
