package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"repro/internal/results"
)

// PlanHash fingerprints a compiled plan: the artifact schema version, the
// job list (cell keys and job identities, in compile order), and the metric
// keys every variant of the plan declares. Two processes that agree on the
// hash agree on which job each index denotes and on what its cell may
// carry, which is what lets a distributed-sweep coordinator lease bare job
// indices to its agents (internal/distrib): an agent built from different
// code, flags, or table contents compiles a different plan, hashes
// differently, and is rejected before it can contribute a single cell.
func PlanHash(p *Plan) string {
	h := sha256.New()
	fmt.Fprintf(h, "schema %d\njobs %d\n", results.SchemaVersion, len(p.Jobs))
	variants := make(map[string][]string)
	for _, j := range p.Jobs {
		fmt.Fprintf(h, "%s %s\n", j.Key, j.Job)
		variants[j.variant.Name] = j.variant.Metrics
	}
	names := make([]string, 0, len(variants))
	for name := range variants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		io.WriteString(h, name)
		for _, m := range variants[name] {
			io.WriteString(h, " "+m)
		}
		io.WriteString(h, "\n")
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}
