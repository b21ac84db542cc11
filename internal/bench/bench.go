// Package bench implements the reproduction's experiments (IDs lists
// them). Each experiment writes a paper-vs-measured comparison to an
// io.Writer; cmd/trex-bench is the CLI front-end and the root-level Go
// benchmarks reuse the same entry points.
package bench

import (
	"fmt"
	"io"
)

// experiment couples an id with its description and runner.
type experiment struct {
	id, desc string
	run      func(w io.Writer) error
}

// registry lists experiments in presentation order.
var registry = []experiment{
	{"fig1", "Figure 1: exact Shapley values of C1..C4 for the repair of t5[Country]", runFig1},
	{"fig2", "Figure 2: Algorithm 1 repairs the dirty La Liga table to the clean one", runFig2},
	{"ex22", "Example 2.2: the binary view Alg|t5[City] of the black box", runEx22},
	{"ex23", "Example 2.3: which constraint subsets repair t5[Country]", runEx23},
	{"ex24", "Example 2.4: cell ranking for the repair of t5[Country]", runEx24},
	{"convergence", "Example 2.5/§2.3: sampling error shrinks like 1/sqrt(m)", runConvergence},
	{"dcdebug", "Demo scenario: debugging constraints via their Shapley ranking", runDCDebug},
	{"celldebug", "Demo scenario: debugging a wrong repair via the cell ranking", runCellDebug},
	{"exactvs", "Ablation: exact vs sampled cell Shapley cost (exponential vs linear)", runExactVsSampling},
	{"cache", "Ablation: coalition cache cuts black-box calls for exact Shapley", runCache},
	{"scale", "Scaling: cell explanation cost and rank stability vs table size", runScale},
	{"agnostic", "Black-box agnosticism: four repairers, one explainer", runAgnostic},
	{"interaction", "Extension: Shapley interaction indices expose the C1+C2 synergy", runInteraction},
	{"groups", "Extension: row- and column-level group explanations (exact)", runGroups},
	{"variance", "Extension: antithetic & stratified sampling vs plain at equal budget", runVariance},
	{"whynot", "Extension: adaptive top-k ranking, why-not analysis, achievability witnesses", runWhyNot},
	{"discover", "Extension: mining the paper's DCs back from data (FastDCs-style)", runDiscover},
	{"hospital", "Second domain: hospital-style FDs end to end", runHospital},
}

// IDs returns the experiment ids in presentation order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Describe returns the one-line description of an experiment.
func Describe(id string) string {
	for _, e := range registry {
		if e.id == id {
			return e.desc
		}
	}
	return "(unknown experiment)"
}

// Run executes one experiment, writing its report to w.
func Run(w io.Writer, id string) error {
	for _, e := range registry {
		if e.id == id {
			return e.run(w)
		}
	}
	return fmt.Errorf("bench: unknown experiment %q (use -list)", id)
}
