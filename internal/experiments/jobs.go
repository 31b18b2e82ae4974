package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/results"
)

// Spec selects one experiment and the options it runs with. A slice of
// specs compiles to a Plan.
type Spec struct {
	// Name is one of ExperimentNames().
	Name string
	// Opt bounds the synthetic families (ignored by ModelFlag experiments).
	Opt Options
	// Full selects the full-size Table 2 model graphs (table2 only).
	Full bool
}

// CellJob is one schedulable unit of an experiment: build (or fetch) one
// task graph, run one Variant on it, and emit the named values
// of a results.Cell.
type CellJob struct {
	// Job is the human-readable identity used in reports and failures.
	Job Job
	// Key addresses the produced cell in artifacts and cell sets.
	Key results.CellKey
	// graphKey memoizes graph construction in a GraphCache.
	graphKey string
	build    func() *core.TaskGraph
	// variant is the row of the variant table the job evaluates; the
	// engine calls it with EvalParams derived from Job (PEs, Simulate) plus
	// the memoized streaming depth.
	variant *Variant
}

// Plan is the deduplicated, canonically ordered job list compiled from a
// set of specs. Compiling fig10 and fig11 together yields each sweep cell
// once: both figures render from the same cells.
type Plan struct {
	Specs []Spec
	Jobs  []CellJob
	// graphs memoizes graph construction across job execution and table
	// rendering (Table 2 prints node counts of the graphs it evaluated).
	graphs *GraphCache
}

// Compile expands the specs into their cell jobs through the experiment
// table, deduplicating by cell key, in a deterministic order every
// process of a distributed run agrees on.
func Compile(specs []Spec) (*Plan, error) {
	p := &Plan{Specs: specs, graphs: NewGraphCache()}
	seen := make(map[results.CellKey]bool)
	for _, s := range specs {
		e, err := LookupExperiment(s.Name)
		if err != nil {
			return nil, err
		}
		for _, j := range e.jobs(s) {
			if seen[j.Key] {
				continue
			}
			seen[j.Key] = true
			p.Jobs = append(p.Jobs, j)
		}
	}
	return p, nil
}

// MetaFromSpecs records a run's specs as artifact metadata, enough for
// SpecsFromMeta to recompile the identical plan in a reader process, plus
// the metric keys each variant of the run declares so a coordinator can
// validate uploaded cells. Every artifact written today is shard 0 of 1;
// the shard fields stay in the v2 schema so its bytes do not move.
func MetaFromSpecs(specs []Spec, shardIndex, shardCount int) results.Meta {
	if shardCount < 1 {
		shardIndex, shardCount = 0, 1
	}
	m := results.Meta{ShardIndex: shardIndex, ShardCount: shardCount}
	variants := make(map[string][]string)
	for _, s := range specs {
		em := results.ExpMeta{Name: s.Name}
		e, err := LookupExperiment(s.Name)
		if err == nil {
			for _, vn := range e.Variants {
				if v, err := LookupVariant(vn); err == nil {
					variants[vn] = v.Metrics
				}
			}
		}
		if err == nil && e.ModelFlag {
			em.FullModels = s.Full
		} else {
			cfg := s.Opt.Config
			em.Graphs, em.Seed, em.Config = s.Opt.Graphs, s.Opt.Seed, &cfg
		}
		m.Experiments = append(m.Experiments, em)
	}
	if len(variants) > 0 {
		m.Variants = variants
	}
	return m
}

// SpecsFromMeta reverses MetaFromSpecs.
func SpecsFromMeta(m results.Meta) ([]Spec, error) {
	specs := make([]Spec, 0, len(m.Experiments))
	for _, em := range m.Experiments {
		e, err := LookupExperiment(em.Name)
		if err != nil {
			return nil, fmt.Errorf("experiments: artifact metadata: %w", err)
		}
		s := Spec{Name: em.Name}
		if e.ModelFlag {
			s.Full = em.FullModels
		} else {
			if em.Config == nil {
				return nil, fmt.Errorf("experiments: artifact metadata for %q lacks a synth config", em.Name)
			}
			s.Opt = Options{Graphs: em.Graphs, Seed: em.Seed, Config: *em.Config}
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// graphID names one generated graph instance for cell keys and the
// per-run graph cache: family, seed, a fingerprint of the generator
// config (two sweeps over differently-bounded volumes must never share
// cells), and the instance index.
func graphID(family string, opt Options, g int) string {
	return fmt.Sprintf("%s/s%d/c%s/g%d", family, opt.Seed, configTag(opt.Config), g)
}

// configTag is a short content hash of the synth config.
func configTag(cfg any) string {
	data, err := json.Marshal(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: hashing synth config: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:4])
}

// cellKey addresses the cell of one variant on graph gid at pes PEs. It
// is the one key function: grid builds job keys with it and every renderer
// looks cells up through it. The NSTR baseline never simulates, so its
// cells always carry Simulate=false and a fig13 run shares them with
// fig10/fig11 instead of recomputing the baseline.
func cellKey(gid string, pes int, variant string, simulate bool) results.CellKey {
	return results.CellKey{Graph: gid, PEs: pes, Variant: variant, Simulate: simulate && variant != VariantNSTR}
}

// grid enumerates an experiment's cell jobs in the one order every
// experiment shares — workload, then instance, then PE count, then
// variant — so that aggregating completed cells in job order reproduces
// the sequential references' append order bit for bit. pes picks each
// workload's PE counts and simulate asks the variants for the Appendix B
// validation.
func grid(workloads []Workload, opt Options, pes func(Workload) []int, variants []string, simulate bool) []CellJob {
	vs := make([]*Variant, len(variants))
	for i, name := range variants {
		v, err := LookupVariant(name)
		if err != nil {
			panic(err) // the experiment table names only table variants
		}
		vs[i] = v
	}
	var jobs []CellJob
	for _, w := range workloads {
		for g := 0; g < w.Instances(opt); g++ {
			gid := w.GraphID(opt, g)
			build := buildFunc(w, opt, g)
			for _, p := range pes(w) {
				for _, v := range vs {
					key := cellKey(gid, p, v.Name, simulate)
					jobs = append(jobs, CellJob{
						Job:      Job{Family: w.Family(), Graph: g, PEs: p, Variant: v.Name, Simulate: key.Simulate},
						Key:      key,
						graphKey: gid,
						build:    build,
						variant:  v,
					})
				}
			}
		}
	}
	return jobs
}
