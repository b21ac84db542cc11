package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name string, rows []PerfResult) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(&PerfReport{Go: "gotest", Results: rows})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// dcsetOK and structuralOK are gated pairs that clear their floors. Each
// family's tests add the other family's rows, since RatioGate fails a
// report in which either family has no gated pair.
var (
	dcsetOK = []PerfResult{
		{Name: "dcset/scan/perconstraint/n=8", NsPerOp: 300},
		{Name: "dcset/scan/planned/n=8", NsPerOp: 100},
	}
	structuralOK = []PerfResult{
		{Name: "violations/insert/rebuild", NsPerOp: 1000},
		{Name: "violations/insert/delta", NsPerOp: 100},
	}
)

func withRows(rows []PerfResult, more ...[]PerfResult) []PerfResult {
	out := append([]PerfResult(nil), rows...)
	for _, m := range more {
		out = append(out, m...)
	}
	return out
}

func TestGatePassesWithinTolerance(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", []PerfResult{
		{Name: "a", NsPerOp: 100},
		{Name: "b", NsPerOp: 1000},
		{Name: "dropped", NsPerOp: 5},
	})
	newPath := writeReport(t, dir, "new.json", []PerfResult{
		{Name: "a", NsPerOp: 120},   // +20% < 25%: ok
		{Name: "b", NsPerOp: 400},   // improvement
		{Name: "fresh", NsPerOp: 9}, // new row: never fails
	})
	var out bytes.Buffer
	if err := Gate(&out, oldPath, newPath, 0.25); err != nil {
		t.Fatalf("gate failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"dropped from the tracked series", "new scenario"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("gate output missing %q:\n%s", want, out.String())
		}
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", []PerfResult{
		{Name: "a", NsPerOp: 100},
		{Name: "b", NsPerOp: 100},
	})
	newPath := writeReport(t, dir, "new.json", []PerfResult{
		{Name: "a", NsPerOp: 126}, // +26% > 25%: regression
		{Name: "b", NsPerOp: 99},
	})
	var out bytes.Buffer
	err := Gate(&out, oldPath, newPath, 0.25)
	if err == nil {
		t.Fatalf("gate must fail on a >25%% regression\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "regressed") || !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("unexpected gate failure shape: %v\n%s", err, out.String())
	}
}

func TestGateErrorsOnBadInputs(t *testing.T) {
	dir := t.TempDir()
	good := writeReport(t, dir, "good.json", []PerfResult{{Name: "a", NsPerOp: 1}})
	if err := Gate(os.Stderr, filepath.Join(dir, "missing.json"), good, 0.25); err == nil {
		t.Fatal("gate must fail on a missing baseline")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Gate(os.Stderr, good, empty, 0.25); err == nil {
		t.Fatal("gate must fail on an empty report")
	}
	disjoint := writeReport(t, dir, "disjoint.json", []PerfResult{{Name: "z", NsPerOp: 1}})
	var out bytes.Buffer
	if err := Gate(&out, good, disjoint, 0.25); err == nil {
		t.Fatal("gate must fail when no scenarios are shared")
	}
}

func TestPlannerSpeedupGatesScanPairs(t *testing.T) {
	dir := t.TempDir()
	path := writeReport(t, dir, "r.json", withRows([]PerfResult{
		{Name: "dcset/scan/perconstraint/n=8", NsPerOp: 300},
		{Name: "dcset/scan/planned/n=8", NsPerOp: 150}, // 2.0x: ok
		{Name: "dcset/edit/perconstraint/n=8", NsPerOp: 100},
		{Name: "dcset/edit/planned/n=8", NsPerOp: 99}, // 1.01x: edit rows never gate
		{Name: "unrelated", NsPerOp: 7},
	}, structuralOK))
	var out bytes.Buffer
	if err := RatioGate(&out, path); err != nil {
		t.Fatalf("ratio gate failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "info") {
		t.Fatalf("edit pair not reported informationally:\n%s", out.String())
	}

	slow := writeReport(t, dir, "slow.json", withRows([]PerfResult{
		{Name: "dcset/scan/perconstraint/n=8", NsPerOp: 300},
		{Name: "dcset/scan/planned/n=8", NsPerOp: 280}, // 1.07x < 1.5x
	}, structuralOK))
	out.Reset()
	err := RatioGate(&out, slow)
	if err == nil {
		t.Fatalf("ratio gate must fail below the planner floor\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "below their floor") || !strings.Contains(out.String(), "TOO SLOW (floor 1.50x)") {
		t.Fatalf("unexpected failure shape: %v\n%s", err, out.String())
	}
}

func TestPlannerSpeedupRequiresPairs(t *testing.T) {
	path := writeReport(t, t.TempDir(), "r.json", withRows([]PerfResult{
		{Name: "repair/greedy", NsPerOp: 10},
		{Name: "dcset/scan/planned/n=8", NsPerOp: 5}, // twin missing: no pair
	}, structuralOK))
	var out bytes.Buffer
	if err := RatioGate(&out, path); err == nil ||
		!strings.Contains(err.Error(), "no gated dcset planned/perconstraint scenario pair") {
		t.Fatalf("want missing-pairs error, got %v", err)
	}
}

// TestRatioGateRequiresEveryFamily: a report that keeps one family's
// gated pairs must still fail when the other family vanished, and a
// family with only its ungated pairs left counts as vanished.
func TestRatioGateRequiresEveryFamily(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name, want string
		rows       []PerfResult
	}{
		{"only-structural", "no gated dcset planned/perconstraint scenario pair", structuralOK},
		{"only-dcset", "no gated violations delta/rebuild scenario pair", dcsetOK},
		{"dcset-edit-only", "no gated dcset planned/perconstraint scenario pair", withRows([]PerfResult{
			{Name: "dcset/edit/perconstraint/n=8", NsPerOp: 300},
			{Name: "dcset/edit/planned/n=8", NsPerOp: 100},
		}, structuralOK)},
		{"structural-batch-only", "no gated violations delta/rebuild scenario pair", withRows([]PerfResult{
			{Name: "violations/batch/rebuild", NsPerOp: 1000},
			{Name: "violations/batch/delta", NsPerOp: 100},
		}, dcsetOK)},
	} {
		path := writeReport(t, dir, tc.name+".json", tc.rows)
		var out bytes.Buffer
		err := RatioGate(&out, path)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: want %q error, got %v\n%s", tc.name, tc.want, err, out.String())
		}
	}
	both := writeReport(t, dir, "both.json", withRows(dcsetOK, structuralOK))
	var out bytes.Buffer
	if err := RatioGate(&out, both); err != nil {
		t.Fatalf("report with both families must pass: %v\n%s", err, out.String())
	}
}

func TestStructuralSpeedupGatesInsertDeletePairs(t *testing.T) {
	dir := t.TempDir()
	path := writeReport(t, dir, "r.json", withRows([]PerfResult{
		{Name: "violations/insert/rebuild", NsPerOp: 1000},
		{Name: "violations/insert/delta", NsPerOp: 100}, // 10x: ok
		{Name: "violations/delete/rebuild", NsPerOp: 900},
		{Name: "violations/delete/delta", NsPerOp: 150}, // 6x: ok
		{Name: "violations/batch/rebuild", NsPerOp: 500},
		{Name: "violations/batch/delta", NsPerOp: 499}, // ~1x: batch never gates
		{Name: "violations/edit/rebuild", NsPerOp: 10}, // cell-edit pair: out of scope
		{Name: "violations/edit/delta", NsPerOp: 10},
	}, dcsetOK))
	var out bytes.Buffer
	if err := RatioGate(&out, path); err != nil {
		t.Fatalf("ratio gate failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "info") {
		t.Fatalf("batch pair not reported informationally:\n%s", out.String())
	}
	if strings.Contains(out.String(), "violations/edit") {
		t.Fatalf("cell-edit pair must not be part of the structural check:\n%s", out.String())
	}

	slow := writeReport(t, dir, "slow.json", withRows([]PerfResult{
		{Name: "violations/insert/rebuild", NsPerOp: 1000},
		{Name: "violations/insert/delta", NsPerOp: 400}, // 2.5x < 5x
		{Name: "violations/delete/rebuild", NsPerOp: 900},
		{Name: "violations/delete/delta", NsPerOp: 100},
	}, dcsetOK))
	out.Reset()
	err := RatioGate(&out, slow)
	if err == nil {
		t.Fatalf("ratio gate must fail below the delta-replay floor\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "below their floor") || !strings.Contains(out.String(), "TOO SLOW (floor 5.00x)") {
		t.Fatalf("unexpected failure shape: %v\n%s", err, out.String())
	}

	empty := writeReport(t, dir, "none.json", withRows([]PerfResult{
		{Name: "violations/insert/delta", NsPerOp: 5}, // twin missing: no pair
	}, dcsetOK))
	if err := RatioGate(os.Stderr, empty); err == nil ||
		!strings.Contains(err.Error(), "no gated violations delta/rebuild scenario pair") {
		t.Fatalf("want missing-pairs error, got %v", err)
	}
}

// TestWritePerfJSONFailsFastOnUnwritablePath is the satellite regression
// test: an unwritable output path must fail before any benchmark runs
// (the file is created up front), with a non-nil error for main to turn
// into a non-zero exit.
func TestWritePerfJSONFailsFastOnUnwritablePath(t *testing.T) {
	var out bytes.Buffer
	err := WritePerfJSON(&out, filepath.Join(t.TempDir(), "no-such-dir", "x.json"), true, 0)
	if err == nil {
		t.Fatal("WritePerfJSON must fail on an unwritable path")
	}
	if !strings.Contains(err.Error(), "creating perf report") {
		t.Fatalf("error %q does not indicate a create failure", err)
	}
	if out.Len() != 0 {
		t.Fatalf("scenarios ran before the path was validated:\n%s", out.String())
	}
}
