package experiments

import "testing"

// TestPlanHashGolden pins the compiled plans, job for job: the hashes were
// recorded before the experiments moved onto the one job grid and the
// static tables, so any change to a cell key, a job identity, the job
// order or a declared metric list fails here. Distributed agents and
// coordinators built from different revisions agree on a plan only if
// these hashes hold.
func TestPlanHashGolden(t *testing.T) {
	hash := func(specs ...Spec) string {
		t.Helper()
		p, err := Compile(specs)
		if err != nil {
			t.Fatal(err)
		}
		return PlanHash(p)
	}
	for _, tc := range []struct {
		name string
		opt  Options
		all  string
		each map[string]string
	}{
		{"quick", Quick(), "9b0b88cbe5465d6ea330301220464110", map[string]string{
			"fig10":     "a1ef010fabf57bf5bd668f6ebffcfae9",
			"fig11":     "a1ef010fabf57bf5bd668f6ebffcfae9",
			"fig12":     "0c436660ebe04cd9c7c06f7c086945ec",
			"fig13":     "0d5952fac73b6d7c67994522140af61f",
			"table2":    "639f47394b5e2dda329c904a62eb55a4",
			"ablation":  "a04a19767e0ba0c78a80ffd65ded3169",
			"placement": "e2b55340be83c4cd5559c1215962c0fa",
			"heft":      "714ca10e2b9dcb8a59108e2652798db9",
			"pipeline":  "98e061b683059cd5e6ff566d5b4416c9",
			"scale":     "33e677f914e1f5098b9d9e2ea55fe3e2",
		}},
		{"defaults", Defaults(), "c79921accea4737fc665c897a6a305c9", map[string]string{
			"fig10":     "bfd736c29cf9de476d0a261059bbdf43",
			"fig11":     "bfd736c29cf9de476d0a261059bbdf43",
			"fig12":     "379d68cf3c1c0c9c5bdf852e1136ddda",
			"fig13":     "4afd47fe0e6b94d4cd09c8f25edb22f5",
			"table2":    "639f47394b5e2dda329c904a62eb55a4",
			"ablation":  "cd2d1f58eb523fdf5a5dc7148509f3f5",
			"placement": "a03917ee05be6045253c328ff64610ef",
			"heft":      "8baaab143dc47e81860a3add7d0d019e",
			"pipeline":  "7d4e4e2f30cb3bb8060dd0f4c0529797",
			"scale":     "e97267d5fbc82011946ebbf48d760a85",
		}},
	} {
		var all []Spec
		for _, name := range ExperimentNames() {
			s := Spec{Name: name, Opt: tc.opt}
			all = append(all, s)
			if got, want := hash(s), tc.each[name]; got != want {
				t.Errorf("%s %s: plan hash %s, want %s", tc.name, name, got, want)
			}
		}
		if got := hash(all...); got != tc.all {
			t.Errorf("%s all: plan hash %s, want %s", tc.name, got, tc.all)
		}
	}
	if got, want := hash(Spec{Name: "table2", Full: true}), "a947b12eb837db83eac076f037ca178b"; got != want {
		t.Errorf("table2 full: plan hash %s, want %s", got, want)
	}
}
