package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/repair"
	"repro/internal/table"
)

func TestRowGroupsShape(t *testing.T) {
	e, ll := newPaperExplainer(t)
	groups := e.RowGroups(ll.CellOfInterest)
	if len(groups) != 6 {
		t.Fatalf("groups = %d", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += len(g.Cells)
		for _, ref := range g.Cells {
			if ref == ll.CellOfInterest {
				t.Fatal("cell of interest must be excluded")
			}
		}
	}
	if total != 35 {
		t.Fatalf("total cells = %d, want 35", total)
	}
	// Row 5's group has one fewer cell (the pinned cell of interest).
	if len(groups[4].Cells) != 5 {
		t.Fatalf("row t5 group = %d cells, want 5", len(groups[4].Cells))
	}
}

func TestColumnGroupsShape(t *testing.T) {
	e, ll := newPaperExplainer(t)
	groups := e.ColumnGroups(ll.CellOfInterest)
	if len(groups) != 6 {
		t.Fatalf("groups = %d", len(groups))
	}
	if groups[2].Name != "col Country" || len(groups[2].Cells) != 5 {
		t.Fatalf("Country group = %+v", groups[2])
	}
}

func TestExplainRowGroups(t *testing.T) {
	e, ll := newPaperExplainer(t)
	report, err := e.Explain(context.Background(), Query{Cell: ll.CellOfInterest, Players: RowPlayers, Estimator: AutoShapley})
	if err != nil {
		t.Fatal(err)
	}
	if report.Kind != "cell-groups" || len(report.Entries) != 6 {
		t.Fatalf("report = %+v", report)
	}
	// Efficiency: row groups partition all players, so values sum to
	// v(full) − v(∅) = 1.
	sum := 0.0
	for _, entry := range report.Entries {
		sum += entry.Shapley
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("Σ group Shapley = %v, want 1", sum)
	}
	// Row t5 (the dirty row: its League, Team, City feed every pathway)
	// must rank first.
	top, _ := report.Top()
	if top.Name != "row t5" {
		t.Errorf("top group = %s, want row t5\n%s", top.Name, report)
	}
	// Row t4 contributes nothing to the Spain repair (its country is the
	// unrelated typo "Spian").
	r4, _ := report.Find("row t4")
	if math.Abs(r4.Shapley) > 0.05 {
		t.Errorf("row t4 = %v, want ≈ 0", r4.Shapley)
	}
}

func TestExplainColumnGroups(t *testing.T) {
	e, ll := newPaperExplainer(t)
	report, err := e.Explain(context.Background(), Query{Cell: ll.CellOfInterest, Players: ColumnPlayers, Estimator: AutoShapley})
	if err != nil {
		t.Fatal(err)
	}
	// Country and League columns carry the C3 pathway; Year and Place are
	// exact dummies.
	for _, name := range []string{"col Year", "col Place"} {
		entry, ok := report.Find(name)
		if !ok || math.Abs(entry.Shapley) > 1e-12 {
			t.Errorf("%s = %v, want 0 (dummy column)", name, entry.Shapley)
		}
	}
	top, _ := report.Top()
	if top.Name != "col Country" && top.Name != "col League" {
		t.Errorf("top group = %s\n%s", top.Name, report)
	}
}

func TestExplainCellGroupsValidation(t *testing.T) {
	e, ll := newPaperExplainer(t)
	if _, err := e.Explain(context.Background(), Query{Cell: table.CellRef{Row: 0, Col: 0}, Players: RowPlayers, Estimator: AutoShapley}); err == nil {
		t.Error("unrepaired cell must error")
	}
	// Above the exact-enumeration bound the explainer no longer dead-ends:
	// it falls back to permutation sampling over the group walk.
	many := make([]CellGroup, 25)
	for i := range many {
		many[i] = CellGroup{Name: fmt.Sprintf("g%d", i)}
	}
	report, err := e.Explain(context.Background(), Query{Cell: ll.CellOfInterest, Players: GroupPlayers, Groups: many, Estimator: AutoShapley})
	if err != nil {
		t.Fatalf("sampled fallback failed: %v", err)
	}
	if len(report.Entries) != 25 {
		t.Fatalf("got %d entries, want 25", len(report.Entries))
	}
	for _, entry := range report.Entries {
		if entry.Samples == 0 {
			t.Fatalf("entry %q has no sample count; expected the sampled path", entry.Name)
		}
	}
}

func TestGroupGamePolicies(t *testing.T) {
	e, ll := newPaperExplainer(t)
	g := e.NewCellGameOfGroups(ll.CellOfInterest, table.String("Spain"), ReplaceFromColumn, e.RowGroups(ll.CellOfInterest))
	if _, err := g.Value(context.Background(), make([]bool, 6)); err == nil {
		t.Error("Value under ReplaceFromColumn must error")
	}
	if _, err := g.SampleValue(context.Background(), make([]bool, 6), nil); err == nil {
		t.Error("SampleValue with nil rng must error")
	}
}

func TestExplainConstraintInteractionsPaper(t *testing.T) {
	// The deep structure of Figure 1: C1 and C2 are complements (only the
	// pair opens the City→Country pathway), and each is a substitute of
	// C3 (the League pathway covers the same repair).
	e, ll := newPaperExplainer(t)
	rep, err := e.Explain(context.Background(), Query{Cell: ll.CellOfInterest, Estimator: InteractionIndex})
	if err != nil {
		t.Fatal(err)
	}
	report := (*InteractionReport)(rep)
	if len(report.Entries) != 6 {
		t.Fatalf("pairs = %d", len(report.Entries))
	}
	c12, _ := report.Find("C1", "C2")
	if c12.Shapley <= 0 {
		t.Errorf("I(C1,C2) = %v, want > 0 (complements)", c12.Shapley)
	}
	c13, _ := report.Find("C1", "C3")
	c23, _ := report.Find("C2", "C3")
	if c13.Shapley >= 0 || c23.Shapley >= 0 {
		t.Errorf("I(C1,C3) = %v, I(C2,C3) = %v, want < 0 (substitutes)", c13.Shapley, c23.Shapley)
	}
	for _, other := range []string{"C1", "C2", "C3"} {
		p, _ := report.Find(other, "C4")
		if p.Shapley != 0 {
			t.Errorf("I(%s,C4) = %v, want 0 (dummy)", other, p.Shapley)
		}
	}
	out := report.String()
	for _, want := range []string{"complements", "substitutes", "I(C1,C2)"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	if _, ok := report.Find("C1", "C9"); ok {
		t.Error("Find on missing pair")
	}
}

func TestExplainConstraintsBanzhafAgreesOnRanking(t *testing.T) {
	e, ll := newPaperExplainer(t)
	shapR, err := e.ExplainConstraints(context.Background(), ll.CellOfInterest)
	if err != nil {
		t.Fatal(err)
	}
	banzR, err := e.Explain(context.Background(), Query{Cell: ll.CellOfInterest, Estimator: BanzhafIndex})
	if err != nil {
		t.Fatal(err)
	}
	if banzR.Kind != "constraints-banzhaf" {
		t.Errorf("kind = %s", banzR.Kind)
	}
	sTop, _ := shapR.Top()
	bTop, _ := banzR.Top()
	if sTop.Name != bTop.Name {
		t.Errorf("ranking disagrees: Shapley top %s vs Banzhaf top %s", sTop.Name, bTop.Name)
	}
	// Banzhaf of C3 = 6/8 (pivots in 6 of 8 coalitions of the others).
	c3, _ := banzR.Find("C3")
	if math.Abs(c3.Shapley-0.75) > 1e-12 {
		t.Errorf("Banzhaf(C3) = %v, want 0.75", c3.Shapley)
	}
	// Banzhaf does NOT satisfy efficiency: the sum differs from 1 here.
	sum := 0.0
	for _, entry := range banzR.Entries {
		sum += entry.Shapley
	}
	if math.Abs(sum-1) < 1e-9 {
		t.Error("Banzhaf sum coincidentally 1; expected 1.25 on this game")
	}
	if math.Abs(sum-1.25) > 1e-9 {
		t.Errorf("Banzhaf sum = %v, want 1.25", sum)
	}
}

func TestInteractionUnrepairedCell(t *testing.T) {
	e, _ := newPaperExplainer(t)
	if _, err := e.Explain(context.Background(), Query{Cell: table.CellRef{Row: 0, Col: 0}, Estimator: InteractionIndex}); err == nil {
		t.Error("unrepaired cell must error")
	}
	if _, err := e.Explain(context.Background(), Query{Cell: table.CellRef{Row: 0, Col: 0}, Estimator: BanzhafIndex}); err == nil {
		t.Error("unrepaired cell must error")
	}
}

func TestGroupExplainAcrossAlgorithms(t *testing.T) {
	// Group explanations are black-box too.
	ll := data.NewLaLiga()
	for _, alg := range repair.All(2) {
		e, err := NewExplainer(alg, ll.DCs, ll.Dirty)
		if err != nil {
			t.Fatal(err)
		}
		_, repaired, err := e.Target(context.Background(), ll.CellOfInterest)
		if err != nil {
			t.Fatal(err)
		}
		if !repaired {
			continue
		}
		report, err := e.Explain(context.Background(), Query{Cell: ll.CellOfInterest, Players: RowPlayers, Estimator: AutoShapley})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if len(report.Entries) != 6 {
			t.Errorf("%s: entries = %d", alg.Name(), len(report.Entries))
		}
	}
}
