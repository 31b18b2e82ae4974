package results

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/synth"
)

func testArtifact(cells ...Cell) *Artifact {
	cfg := synth.SmallConfig()
	meta := Meta{
		Experiments: []ExpMeta{{Name: "fig10", Graphs: 2, Seed: 1, Config: &cfg}},
		ShardCount:  1,
	}
	return &Artifact{Meta: meta, Cells: cells}
}

func cell(graph string, pes int) Cell {
	return Cell{
		Key:    CellKey{Graph: graph, PEs: pes, Variant: "SB-LTS"},
		Values: map[string]float64{"speedup": 1.5},
	}
}

// TestArtifactRoundTrip: write, read back, and keep every cell value
// bit-exact.
func TestArtifactRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact.json")
	a := testArtifact(cell("g0", 2), cell("g1", 4))
	a.Failures = []Failure{{Label: "g2/P8", Err: "boom"}}
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Artifact
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion {
		t.Errorf("schema %d, want %d", got.Schema, SchemaVersion)
	}
	if len(got.Cells) != 2 || got.Cells[0].Values["speedup"] != 1.5 {
		t.Errorf("cells did not round-trip: %+v", got.Cells)
	}
	if len(got.Failures) != 1 || got.Failures[0].Err != "boom" {
		t.Errorf("failures did not round-trip: %+v", got.Failures)
	}
	if got.Meta.Experiments[0].Config.MaxVolume != synth.SmallConfig().MaxVolume {
		t.Errorf("config did not round-trip: %+v", got.Meta.Experiments[0].Config)
	}
}

// TestValidateCellMetrics: against a run's variant declarations, a cell
// carrying an undeclared value name or a variant absent from the
// declaration is rejected; declaration-free metadata skips the check.
func TestValidateCellMetrics(t *testing.T) {
	declared := map[string][]string{"SB-LTS": {"speedup", "sslr", "util"}}
	if err := ValidateCellMetrics(declared, cell("g0", 2)); err != nil {
		t.Fatalf("declared cell rejected: %v", err)
	}
	bad := cell("g1", 4)
	bad.Values["rogue"] = 1
	if err := ValidateCellMetrics(declared, bad); err == nil || !strings.Contains(err.Error(), "outside variant") {
		t.Errorf("undeclared value accepted: %v", err)
	}
	foreign := Cell{Key: CellKey{Graph: "g2", PEs: 2, Variant: "mystery"}, Values: map[string]float64{"x": 1}}
	if err := ValidateCellMetrics(declared, foreign); err == nil || !strings.Contains(err.Error(), "does not declare") {
		t.Errorf("undeclared variant accepted: %v", err)
	}
	// No declarations (a hand-rolled artifact): the check is skipped.
	if err := ValidateCellMetrics(nil, foreign); err != nil {
		t.Errorf("declaration-free metadata rejected a cell: %v", err)
	}
}
