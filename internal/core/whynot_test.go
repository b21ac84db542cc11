package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/table"
)

func TestExplainCellsTopK(t *testing.T) {
	e, ll := newPaperExplainer(t)
	report, err := e.Explain(context.Background(), Query{Cell: ll.CellOfInterest, Players: CellPlayers, Estimator: TopKShapley, K: 3, CellExplainOptions: CellExplainOptions{
		Samples: 800,
		Seed:    42,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Entries) != 3 {
		t.Fatalf("entries = %d", len(report.Entries))
	}
	top, _ := report.Top()
	if top.Name != "t5[League]" {
		t.Errorf("top = %s, want t5[League]\n%s", top.Name, report)
	}
	if report.Kind != "cells-topk" {
		t.Errorf("kind = %s", report.Kind)
	}
	_ = report.Separated // separation depends on budget; correctness asserted above
}

func TestExplainCellsTopKAgreesWithUniform(t *testing.T) {
	e, ll := newPaperExplainer(t)
	uniform, err := e.ExplainCells(context.Background(), ll.CellOfInterest, CellExplainOptions{Samples: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	topk, err := e.Explain(context.Background(), Query{Cell: ll.CellOfInterest, Players: CellPlayers, Estimator: TopKShapley, K: 1, CellExplainOptions: CellExplainOptions{Samples: 800, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	uTop, _ := uniform.Top()
	kTop, _ := topk.Top()
	if uTop.Name != kTop.Name {
		t.Errorf("uniform top %s vs adaptive top %s", uTop.Name, kTop.Name)
	}
}

func TestExplainCellsTopKValidation(t *testing.T) {
	e, ll := newPaperExplainer(t)
	if _, err := e.Explain(context.Background(), Query{Cell: table.CellRef{Row: 0, Col: 0}, Players: CellPlayers, Estimator: TopKShapley, K: 3}); err == nil {
		t.Error("unrepaired cell must error")
	}
	if _, err := e.Explain(context.Background(), Query{Cell: ll.CellOfInterest, Players: CellPlayers, Estimator: TopKShapley}); err == nil {
		t.Error("k=0 must error")
	}
}

func TestExplainTowardActualValueMatchesExplainConstraints(t *testing.T) {
	e, ll := newPaperExplainer(t)
	toward, err := e.Explain(context.Background(), Query{Cell: ll.CellOfInterest, Desired: table.String("Spain")})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := e.ExplainConstraints(context.Background(), ll.CellOfInterest)
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range plain.Entries {
		got, ok := toward.Find(entry.Name)
		if !ok || math.Abs(got.Shapley-entry.Shapley) > 1e-12 {
			t.Errorf("%s: toward %v vs plain %v", entry.Name, got.Shapley, entry.Shapley)
		}
	}
}

func TestExplainTowardWhyNot(t *testing.T) {
	// Why is t5[Country] never repaired to "Portugal"? Because no subset
	// of the constraints can produce it: all Shapley values are zero.
	e, ll := newPaperExplainer(t)
	report, err := e.Explain(context.Background(), Query{Cell: ll.CellOfInterest, Desired: table.String("Portugal")})
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range report.Entries {
		if entry.Shapley != 0 {
			t.Errorf("Shap(%s) toward Portugal = %v, want 0", entry.Name, entry.Shapley)
		}
	}
	if report.Kind != "constraints-toward" || report.Target != "Portugal" {
		t.Errorf("report metadata: %+v", report)
	}
}

func TestExplainTowardKeepingDirtyValue(t *testing.T) {
	// Toward the dirty value "España": achieved exactly when the repair
	// does NOT happen, so values mirror the Spain game with opposite sign
	// structure (C3's presence destroys it).
	e, ll := newPaperExplainer(t)
	report, err := e.Explain(context.Background(), Query{Cell: ll.CellOfInterest, Desired: table.String("España")})
	if err != nil {
		t.Fatal(err)
	}
	c3, _ := report.Find("C3")
	if c3.Shapley >= 0 {
		t.Errorf("Shap(C3) toward España = %v, want negative (C3 destroys it)", c3.Shapley)
	}
}

func TestExplainTowardValidation(t *testing.T) {
	// A null Desired is unset: the query explains the repair's own clean
	// value, so it errors on a cell the repair leaves alone and is the
	// plain constraint ranking on the repaired cell. A non-null Desired
	// needs no repair: it explains a hypothetical one.
	e, ll := newPaperExplainer(t)
	ctx := context.Background()
	unrepaired := table.CellRef{Row: 0, Col: 0}
	if _, err := e.Explain(ctx, Query{Cell: unrepaired, Desired: table.Null()}); err == nil {
		t.Error("null desired value must error on an unrepaired cell")
	}
	plain, err := e.Explain(ctx, Query{Cell: ll.CellOfInterest, Desired: table.Null()})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Kind != "constraints" || plain.Target != "Spain" {
		t.Errorf("null desired: kind %s, target %s; want the constraint ranking toward Spain", plain.Kind, plain.Target)
	}
	if _, err := e.Explain(ctx, Query{Cell: unrepaired, Desired: table.String("Girona")}); err != nil {
		t.Errorf("a desired value on an unrepaired cell: %v", err)
	}
}

func TestAchievable(t *testing.T) {
	e, ll := newPaperExplainer(t)
	ctx := context.Background()

	ok, witness, err := e.Achievable(ctx, ll.CellOfInterest, table.String("Spain"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Spain must be achievable")
	}
	// The minimal witness is {C3} (size 1 beats {C1,C2}).
	if len(witness) != 1 || witness[0] != "C3" {
		t.Errorf("witness = %v, want [C3]", witness)
	}

	ok, witness, err = e.Achievable(ctx, ll.CellOfInterest, table.String("Portugal"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("Portugal must be unachievable, witness %v", witness)
	}

	// The dirty value is achievable with the empty set (no constraints →
	// no repair).
	ok, witness, err = e.Achievable(ctx, ll.CellOfInterest, table.String("España"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok || len(witness) != 0 {
		t.Errorf("España: ok=%v witness=%v, want achievable by ∅", ok, witness)
	}

	if _, _, err := e.Achievable(ctx, ll.CellOfInterest, table.Null()); err == nil {
		t.Error("null desired must error")
	}
}

func TestSortByPopcount(t *testing.T) {
	masks := []int{7, 0, 5, 1, 6, 2, 3, 4}
	sortByPopcount(masks)
	counts := func(m int) int {
		c := 0
		for ; m != 0; m &= m - 1 {
			c++
		}
		return c
	}
	for i := 1; i < len(masks); i++ {
		if counts(masks[i]) < counts(masks[i-1]) {
			t.Fatalf("not sorted by popcount: %v", masks)
		}
	}
	if masks[0] != 0 {
		t.Error("empty mask first")
	}
}
