package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// GateResult is one compared scenario of a perf gate run.
type GateResult struct {
	Name    string
	OldNs   float64
	NewNs   float64
	Ratio   float64 // NewNs / OldNs
	Regress bool
}

// Gate compares two BENCH_<n>.json reports and fails when any scenario
// present in both regressed by more than tolerance in ns/op (tolerance
// 0.25 = fail above 1.25× the old time). Scenarios that exist on only one
// side are reported but never fail the gate: new PRs add rows, and rows
// the tracked series dropped are a review question, not a build break.
// Same-machine artifacts are assumed — the gate compares two committed
// files from one perf run environment, not a fresh run against history.
func Gate(w io.Writer, oldPath, newPath string, tolerance float64) error {
	oldReport, err := readPerfJSON(oldPath)
	if err != nil {
		return err
	}
	newReport, err := readPerfJSON(newPath)
	if err != nil {
		return err
	}
	results, onlyOld, onlyNew := CompareReports(oldReport, newReport, tolerance)
	if len(results) == 0 {
		return fmt.Errorf("bench: gate: %s and %s share no scenarios", oldPath, newPath)
	}
	var failed []GateResult
	for _, r := range results {
		status := "ok"
		if r.Regress {
			status = "REGRESSION"
			failed = append(failed, r)
		}
		fmt.Fprintf(w, "%-44s %12.1f -> %12.1f ns/op  %6.2fx  %s\n", r.Name, r.OldNs, r.NewNs, r.Ratio, status)
	}
	for _, name := range onlyOld {
		fmt.Fprintf(w, "%-44s dropped from the tracked series\n", name)
	}
	for _, name := range onlyNew {
		fmt.Fprintf(w, "%-44s new scenario (no baseline)\n", name)
	}
	if len(failed) > 0 {
		return fmt.Errorf("bench: gate: %d scenario(s) regressed beyond %.0f%%: %s",
			len(failed), tolerance*100, failed[0].Name)
	}
	return nil
}

// CompareReports pairs up the scenarios of two reports by name. Results
// are in the old report's order; the extra name lists are sorted.
func CompareReports(oldReport, newReport *PerfReport, tolerance float64) (results []GateResult, onlyOld, onlyNew []string) {
	newByName := make(map[string]PerfResult, len(newReport.Results))
	for _, r := range newReport.Results {
		newByName[r.Name] = r
	}
	matched := make(map[string]bool)
	for _, o := range oldReport.Results {
		n, ok := newByName[o.Name]
		if !ok {
			onlyOld = append(onlyOld, o.Name)
			continue
		}
		matched[o.Name] = true
		r := GateResult{Name: o.Name, OldNs: o.NsPerOp, NewNs: n.NsPerOp}
		if o.NsPerOp > 0 {
			r.Ratio = n.NsPerOp / o.NsPerOp
			r.Regress = r.Ratio > 1+tolerance
		}
		results = append(results, r)
	}
	for _, n := range newReport.Results {
		if !matched[n.Name] {
			onlyNew = append(onlyNew, n.Name)
		}
	}
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)
	return results, onlyOld, onlyNew
}

// ratioPair is one speed contract checked inside a single perf report, so
// machine speed cancels out: the fast row must run at least floor times
// faster than the slow row. Ungated pairs are printed for context only.
type ratioPair struct {
	fast, slow string
	floor      float64
	gated      bool
}

// ratioFamily is one scenario family's ratio pairs, declared next to its
// scenarios (dcsetRatios, structuralRatios).
type ratioFamily struct {
	name  string
	pairs []ratioPair
}

func ratioFamilies() []ratioFamily {
	return []ratioFamily{
		{name: "dcset planned/perconstraint", pairs: dcsetRatios()},
		{name: "violations delta/rebuild", pairs: structuralRatios},
	}
}

// RatioGate checks every declared ratio pair inside one perf report. A
// pair whose rows are not both in the report is skipped (a -short report
// lacks the n=100 dcset rows), but every family must keep at least one
// gated pair: a family without one means its scenarios silently vanished
// from the tracked series, which is exactly what this gate exists to
// notice.
func RatioGate(w io.Writer, path string) error {
	report, err := readPerfJSON(path)
	if err != nil {
		return err
	}
	byName := make(map[string]PerfResult, len(report.Results))
	for _, r := range report.Results {
		byName[r.Name] = r
	}
	var missing, failed []string
	for _, fam := range ratioFamilies() {
		gatedPairs := 0
		for _, p := range fam.pairs {
			fast, okF := byName[p.fast]
			slow, okS := byName[p.slow]
			if !okF || !okS || fast.NsPerOp <= 0 {
				continue
			}
			speedup := slow.NsPerOp / fast.NsPerOp
			status := "info"
			if p.gated {
				gatedPairs++
				status = "ok"
				if speedup < p.floor {
					status = fmt.Sprintf("TOO SLOW (floor %.2fx)", p.floor)
					failed = append(failed, p.fast)
				}
			}
			fmt.Fprintf(w, "%-44s %12.1f -> %12.1f ns/op  %6.2fx  %s\n",
				p.fast, slow.NsPerOp, fast.NsPerOp, speedup, status)
		}
		if gatedPairs == 0 {
			missing = append(missing, fam.name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("bench: ratios: %s has no gated %s scenario pair", path, strings.Join(missing, " or "))
	}
	if len(failed) > 0 {
		return fmt.Errorf("bench: ratios: %d gated pair(s) below their floor: %s", len(failed), strings.Join(failed, ", "))
	}
	return nil
}

// readPerfJSON loads a BENCH_<n>.json report.
func readPerfJSON(path string) (*PerfReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: reading perf report: %w", err)
	}
	var report PerfReport
	if err := json.Unmarshal(data, &report); err != nil {
		return nil, fmt.Errorf("bench: parsing perf report %s: %w", path, err)
	}
	if len(report.Results) == 0 {
		return nil, fmt.Errorf("bench: perf report %s has no results", path)
	}
	return &report, nil
}
