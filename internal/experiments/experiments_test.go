package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestAllExperimentsPass runs the full reproduction suite at Small scale:
// every paper-vs-measured check must hold, and the rendered report must
// match the committed docs/paperbench-small.txt byte for byte (regenerate
// it with `go run ./cmd/paperbench -exp all > docs/paperbench-small.txt`
// when a change is meant to move it).
func TestAllExperimentsPass(t *testing.T) {
	results, err := RunAll(Small)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../docs/paperbench-small.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := Report(results); got != string(want) {
		t.Errorf("rendered report differs from docs/paperbench-small.txt at line %d", firstDiffLine(got, string(want)))
	}
	if len(results) != len(IDs()) {
		t.Fatalf("got %d results for %d experiments", len(results), len(IDs()))
	}
	for _, r := range results {
		if !r.Passed() {
			t.Errorf("experiment %s failed:\n%s", r.ID, r)
		}
		if len(r.Checks) == 0 {
			t.Errorf("experiment %s has no checks", r.ID)
		}
	}
}

// TestPaperScaleCheapExperiments exercises the Paper-scale code paths of
// the experiments whose large configurations are still fast (the slow
// simulator-heavy ones are covered by cmd/paperbench -scale paper).
func TestPaperScaleCheapExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale runs skipped in -short mode")
	}
	for _, id := range []string{"fig1a", "fig1b", "dim11", "symmetric", "ascend-ghc", "mnb-te", "ic-diameter", "optimality", "embeddings", "multilevel", "wormhole"} {
		res, err := Run(id, Paper)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !res.Passed() {
			t.Errorf("%s failed at paper scale:\n%s", id, res)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Small); err == nil {
		t.Error("unknown id should error")
	}
}

func TestResultRendering(t *testing.T) {
	r, err := Run("dim11", Small)
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	for _, want := range []string{"E3/dim11", "HSN(4,Q4)", "T3", "[ok  ]"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered result missing %q:\n%s", want, out)
		}
	}
}

func TestIDsStable(t *testing.T) {
	ids := IDs()
	if len(ids) != 22 {
		t.Errorf("expected 22 experiments, got %d: %v", len(ids), ids)
	}
	for _, id := range ids {
		if Title(id) == "" {
			t.Errorf("experiment %s has no title", id)
		}
	}
}

func TestFig1bChecks(t *testing.T) {
	r, err := Run("fig1b", Small)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed() {
		t.Fatalf("fig1b failed:\n%s", r)
	}
	found93 := false
	for _, c := range r.Checks {
		if strings.Contains(c.Paper, "93%") {
			found93 = true
		}
	}
	if !found93 {
		t.Error("fig1b should check the 93% utilization claim")
	}
}

// firstDiffLine returns the 1-based number of the first line at which a
// and b differ.
func firstDiffLine(a, b string) int {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return i + 1
		}
	}
	return min(len(la), len(lb)) + 1
}
