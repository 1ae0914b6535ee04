// Package experiments implements the paper-reproduction harness: one named
// experiment per table, figure, or numbered claim of the paper, as indexed
// in DESIGN.md (E1-E21).  Each experiment runs the relevant substrate,
// renders a table, and reports paper-value vs measured-value checks.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Check is one paper-vs-measured comparison.
type Check struct {
	Name     string
	Paper    string // the paper's value or claim
	Measured string
	OK       bool
}

// Result is the outcome of one experiment.
type Result struct {
	ID     string
	Title  string
	Source string // where in the paper the claim lives
	Tables []string
	Checks []Check
}

// Passed reports whether all checks succeeded.
func (r *Result) Passed() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// String renders the full experiment report.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s (%s)\n", r.ID, r.Title, r.Source)
	for _, tb := range r.Tables {
		b.WriteString(tb)
		b.WriteByte('\n')
	}
	for _, c := range r.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %-46s paper: %-22s measured: %s\n", mark, c.Name, c.Paper, c.Measured)
	}
	return b.String()
}

// Report renders results exactly as `paperbench` prints them (and as the
// committed docs/paperbench-*.txt records hold them): every report in
// order, then a pass-count line.
func Report(results []*Result) string {
	var b strings.Builder
	passed := 0
	for _, r := range results {
		b.WriteString(r.String())
		b.WriteByte('\n')
		if r.Passed() {
			passed++
		}
	}
	fmt.Fprintf(&b, "%d/%d experiments passed all checks\n", passed, len(results))
	return b.String()
}

func (r *Result) check(name, paper, measured string, ok bool) {
	r.Checks = append(r.Checks, Check{Name: name, Paper: paper, Measured: measured, OK: ok})
}

func (r *Result) addTable(t fmt.Stringer) { r.Tables = append(r.Tables, t.String()) }

// Scale selects experiment sizes: Small keeps everything test-friendly;
// Paper uses the sizes the paper's worked examples quote (slower).
type Scale int

const (
	Small Scale = iota
	Paper
)

type runner func(Scale) (*Result, error)

var registry = map[string]struct {
	title string
	fn    runner
}{
	"fig1a":           {"All-port emulation schedule, l=4, n=3 (Figure 1a)", runFig1a},
	"fig1b":           {"All-port emulation schedule, l=5, n=3 (Figure 1b)", runFig1b},
	"dim11":           {"Dimension-11 emulation of a 16-cube (Section 3.1)", runDim11},
	"sdc":             {"SDC slowdown and embedding dilation (Cor 3.2/3.3)", runSDC},
	"ascend":          {"Ascend/descend step counts over k-cubes (Cor 3.6)", runAscendSteps},
	"ascend-ghc":      {"Ascend/descend over generalized hypercubes (Cor 3.7)", runAscendGHC},
	"mnb-te":          {"MNB and TE asymptotic times (Cor 3.10/3.11)", runMNBTE},
	"ic-diameter":     {"Intercluster diameter (Thm 4.1, Cor 4.2)", runICDiameter},
	"symmetric":       {"Symmetric intercluster diameters (Cor 4.4)", runSymmetric},
	"bisection-hsn":   {"HSN/SFN bisection bandwidth (Thm 4.7, Cor 4.8)", runBisectionHSN},
	"bisection-base":  {"Baseline bisection bandwidths (Cor 4.9/4.10)", runBisectionBaselines},
	"worked-example":  {"256-chip worked example (Section 4.2)", runWorkedExample},
	"offchip":         {"Off-chip transmissions per packet (Section 4.1)", runOffChip},
	"te-intercluster": {"Total-exchange intercluster census (Sections 3.3/4.1)", runTEIntercluster},
	"throughput":      {"Random-routing saturation throughput (headline)", runThroughput},
	"optimality":      {"Bisection optimality ratios (Cor 4.11)", runOptimality},
	"wormhole":        {"Wormhole/VCT emulation slowdown ~2 (Sec 3.1)", runWormhole},
	"transpose":       {"Matrix transposition under unit chip capacity (Sec 1/4)", runTranspose},
	"ii-cost":         {"ID-cost and II-cost comparison (Sec 4.2)", runIICost},
	"embeddings":      {"Constant-dilation embeddings (Cor 3.4)", runEmbeddings},
	"multilevel":      {"Three-tier packaging extension (Sec 4.2 end)", runMultiLevel},
	"design-sweep":    {"HSN design space at fixed N (Sec 4.1, Cor 3.9)", runDesignSweep},
}

// IDs returns the registered experiment ids in stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns the human title of an experiment id.
func Title(id string) string { return registry[id].title }

// Run executes one experiment at the given scale.
func Run(id string, scale Scale) (*Result, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	res, err := e.fn(scale)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	return res, nil
}

// RunAll executes every experiment and returns the results in IDs() order.
func RunAll(scale Scale) ([]*Result, error) {
	var out []*Result
	for _, id := range IDs() {
		res, err := Run(id, scale)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
