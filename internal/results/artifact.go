package results

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	"repro/internal/synth"
)

// ExpMeta records the options one experiment ran with, enough for a reader
// (a sweep agent) to recompile the exact job list.
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

// Meta identifies one run: which experiments with which options.
type Meta struct {
	Experiments []ExpMeta `json:"experiments"`
	// Variants maps each evaluation procedure the run's experiments dispatch
	// to onto the value names its cells may carry, as declared by the
	// variant table. A coordinator rejects uploaded cells carrying values
	// outside their variant's declaration — a cheap end-to-end check that a
	// batch was produced by the same evaluation code.
	Variants map[string][]string `json:"variants,omitempty"`
	// ShardIndex/ShardCount are always 0 and 1: a run's artifact holds
	// every job. They stay in the schema so its bytes do not move.
	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`
	// Distrib, when present, records which distributed-sweep lease produced
	// this batch of cells (internal/distrib). It is provenance, not identity:
	// MetaCompatible ignores it, and the coordinator's final artifact omits
	// it entirely to stay byte-identical to a local run (see
	// docs/ARTIFACTS.md and docs/DISTRIBUTED.md).
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

// Artifact is the versioned results file: every cell the run (or, for an
// uploaded batch, the lease) computed, the run metadata that makes it
// self-describing, and the jobs that failed.
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

// ValidateCellMetrics checks a cell against a run's variant declarations:
// its variant must be declared and every value name must be among the
// variant's metric keys. A distributed coordinator applies it to every
// uploaded batch — a cheap end-to-end check
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
// distributed-run provenance. A distributed coordinator applies it to
// every batch a worker uploads — a worker compiled with different options
// (seed, graph counts, synth config, experiment set) fails it and is
// rejected.
func MetaCompatible(a, b Meta) bool {
	a.ShardIndex, b.ShardIndex = 0, 0
	a.Distrib, b.Distrib = nil, nil
	return reflect.DeepEqual(a, b)
}
