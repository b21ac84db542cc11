package core

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/repair"
	"repro/internal/table"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestExplainGoldens pins, one golden file each, the explains the
// server's golden answers do not reach (explainGoldens).
func TestExplainGoldens(t *testing.T) {
	exp, cell, _ := laLigaFirstThree(t)
	for _, tc := range explainGoldens(t, exp, cell) {
		rep, err := tc.exp.Explain(context.Background(), tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkGolden(t, tc.name, rep)
	}
}

// laLigaFirstThree returns an explainer over La Liga under C1-C3, the cell
// of interest and its repaired target. C1-C3 leave Year and Place
// unmentioned, so the relevant cells are a strict subset of the cells.
func laLigaFirstThree(t *testing.T) (*Explainer, table.CellRef, table.Value) {
	t.Helper()
	ll := data.NewLaLiga()
	exp, err := NewExplainer(repair.NewAlgorithm1(), ll.DCs[:3], ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	target, repaired, err := exp.Target(context.Background(), ll.CellOfInterest)
	if err != nil || !repaired {
		t.Fatalf("target: repaired %v, err %v", repaired, err)
	}
	return exp, ll.CellOfInterest, target
}

// explainGolden is one explain whose answer a golden file pins.
type explainGolden struct {
	name string
	exp  *Explainer
	q    Query
}

// explainGoldens lists the pinned explains: the game paths the server's
// golden answers leave uncovered (column sampling, relevant cells, row and
// overlapping explicit groups, exact cell rosters), over the La Liga
// explainer and a toy table small enough that AutoShapley stays exact.
func explainGoldens(t *testing.T, ll *Explainer, cell table.CellRef) []explainGolden {
	t.Helper()
	sampled := func(policy ReplacementPolicy) CellExplainOptions {
		return CellExplainOptions{Samples: 24, Seed: 3, Workers: 3, Policy: policy}
	}
	// g0 and g1 share t3[League], g1 and g2 share t5[City], and g2 lists
	// the pinned cell of interest, which the game drops.
	overlapping := []CellGroup{
		{Name: "g0", Cells: []table.CellRef{{Row: 0, Col: 3}, {Row: 2, Col: 3}, {Row: 1, Col: 1}}},
		{Name: "g1", Cells: []table.CellRef{{Row: 2, Col: 3}, {Row: 4, Col: 1}, {Row: 5, Col: 0}}},
		{Name: "g2", Cells: []table.CellRef{{Row: 4, Col: 1}, cell, {Row: 4, Col: 3}, {Row: 3, Col: 2}}},
		{Name: "g3", Cells: []table.CellRef{{Row: 0, Col: 2}, {Row: 5, Col: 3}}},
	}
	tbl := table.MustFromStrings([]string{"A", "B", "D"}, [][]string{
		{"x", "1", "p"},
		{"x", "2", "q"},
		{"x", "1", "r"},
		{"y", "3", "s"},
	})
	cs, err := dc.ParseSet("C1: !(t1.A = t2.A & t1.B != t2.B)")
	if err != nil {
		t.Fatal(err)
	}
	toy, err := NewExplainer(repair.NewRuleRepair(cs), cs, tbl)
	if err != nil {
		t.Fatal(err)
	}
	return []explainGolden{
		{"explain-cells-from-column", ll, Query{Cell: cell, Players: CellPlayers, Estimator: SampledShapley, CellExplainOptions: sampled(ReplaceFromColumn)}},
		{"explain-relevant-null", ll, Query{Cell: cell, Players: RelevantCellPlayers, Estimator: SampledShapley, CellExplainOptions: sampled(ReplaceWithNull)}},
		{"explain-relevant-from-column", ll, Query{Cell: cell, Players: RelevantCellPlayers, Estimator: SampledShapley, CellExplainOptions: sampled(ReplaceFromColumn)}},
		{"explain-rows-from-column", ll, Query{Cell: cell, Players: RowPlayers, Estimator: SampledShapley, CellExplainOptions: sampled(ReplaceFromColumn)}},
		{"explain-groups-overlap-null", ll, Query{Cell: cell, Players: GroupPlayers, Groups: overlapping, Estimator: SampledShapley, CellExplainOptions: sampled(ReplaceWithNull)}},
		{"explain-groups-overlap-from-column", ll, Query{Cell: cell, Players: GroupPlayers, Groups: overlapping, Estimator: SampledShapley, CellExplainOptions: sampled(ReplaceFromColumn)}},
		{"explain-cells-exact", toy, Query{Cell: table.CellRef{Row: 1, Col: 1}, Players: CellPlayers, Estimator: AutoShapley}},
	}
}

// checkGolden compares a report, one entry a line with its floats in
// shortest round-trip form, against testdata/<name>.golden (rewritten
// under -update).
func checkGolden(t *testing.T, name string, rep *Report) {
	t.Helper()
	var b strings.Builder
	for _, e := range rep.Entries {
		fmt.Fprintf(&b, "%s %s %s %d\n", e.Name, strconv.FormatFloat(e.Shapley, 'g', -1, 64), strconv.FormatFloat(e.CI95, 'g', -1, 64), e.Samples)
	}
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(golden) {
		t.Fatalf("%s (%s) changed:\n got:\n%s\nwant:\n%s", name, rep.Kind, b.String(), golden)
	}
}
