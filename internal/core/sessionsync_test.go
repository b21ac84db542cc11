package core

import (
	"context"
	"testing"

	"repro/internal/data"
	"repro/internal/repair"
	"repro/internal/shapley"
	"repro/internal/table"
)

// TestCellGameSurvivesSessionEdit is the regression test for the
// stale-scratch corruption bug: a CellGame built before a Session.SetCell
// pooled scratch clones and undo values snapshotted at construction, so an
// edit between evaluations silently restored stale values into the scratch
// and corrupted every subsequent estimate. The game must now re-snapshot
// and discard stale pooled clones: its estimates must match a game built
// fresh after the edit, bit for bit.
func TestCellGameSurvivesSessionEdit(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	sess, err := NewSession(repair.NewAlgorithm1(), ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	cell := ll.CellOfInterest
	target := table.String("Spain")
	game := sess.Explainer().NewCellGame(cell, target, ReplaceWithNull)

	// Warm the pool (and capture pre-edit baselines so the scratch pool
	// holds clones of the pre-edit table).
	coalition := make([]bool, game.NumPlayers())
	for i := range coalition {
		coalition[i] = i%2 == 0
	}
	if _, err := game.Value(ctx, coalition); err != nil {
		t.Fatal(err)
	}

	// The edit: t6[City] loses its corroborating value, changing which
	// coalitions repair the cell of interest.
	city := sess.Dirty().Schema().MustIndex("City")
	if err := sess.SetCell(table.CellRef{Row: 5, Col: city}, table.String("Sevilla")); err != nil {
		t.Fatal(err)
	}

	fresh := sess.Explainer().NewCellGame(cell, target, ReplaceWithNull)
	// Exact values over a sweep of coalitions, including repeats that force
	// pooled-scratch reuse.
	for n := 0; n < 40; n++ {
		for i := range coalition {
			coalition[i] = (i+n)%3 != 0
		}
		got, err := game.Value(ctx, coalition)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Value(ctx, coalition)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("coalition %d: stale game %v, fresh game %v", n, got, want)
		}
	}

	// Sampled estimates (walk path) must also match bit for bit.
	opts := shapley.Options{Samples: 16, Seed: 5, Workers: 2}
	got, err := shapley.SampleAll(ctx, game, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := shapley.SampleAll(ctx, fresh, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameEstimates(t, "post-edit", got, want)
}

// TestCellGameSurvivesSessionEditColumnPolicy covers the stochastic
// replacement policy, whose column statistics are also snapshotted at
// construction and must re-snapshot after an edit.
func TestCellGameSurvivesSessionEditColumnPolicy(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	sess, err := NewSession(repair.NewAlgorithm1(), ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	cell := ll.CellOfInterest
	target := table.String("Spain")
	game := sess.Explainer().NewCellGame(cell, target, ReplaceFromColumn)
	opts := shapley.Options{Samples: 12, Seed: 3, Workers: 1}
	if _, err := shapley.SampleAll(ctx, game, opts); err != nil {
		t.Fatal(err)
	}
	country := sess.Dirty().Schema().MustIndex("Country")
	if err := sess.SetCell(table.CellRef{Row: 0, Col: country}, table.String("Espana")); err != nil {
		t.Fatal(err)
	}
	fresh := sess.Explainer().NewCellGame(cell, target, ReplaceFromColumn)
	got, err := shapley.SampleAll(ctx, game, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := shapley.SampleAll(ctx, fresh, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameEstimates(t, "column policy post-edit", got, want)
}

// TestGroupGameSurvivesSessionEdit is the group-game half of the
// regression: pooled group scratches cloned before an edit must be
// discarded, not reused.
func TestGroupGameSurvivesSessionEdit(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	sess, err := NewSession(repair.NewAlgorithm1(), ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	cell := ll.CellOfInterest
	target := table.String("Spain")
	exp := sess.Explainer()
	game := exp.NewCellGameOfGroups(cell, target, ReplaceWithNull, exp.RowGroups(cell))
	coalition := make([]bool, game.NumPlayers())
	for i := range coalition {
		coalition[i] = true
	}
	if _, err := game.Value(ctx, coalition); err != nil {
		t.Fatal(err)
	}
	city := sess.Dirty().Schema().MustIndex("City")
	if err := sess.SetCell(table.CellRef{Row: 5, Col: city}, table.String("Sevilla")); err != nil {
		t.Fatal(err)
	}
	freshExp := sess.Explainer()
	fresh := freshExp.NewCellGameOfGroups(cell, target, ReplaceWithNull, freshExp.RowGroups(cell))
	for n := 0; n < 1<<len(coalition); n += 7 {
		for i := range coalition {
			coalition[i] = n&(1<<i) != 0
		}
		got, err := game.Value(ctx, coalition)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Value(ctx, coalition)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("coalition %b: stale game %v, fresh game %v", n, got, want)
		}
	}
}
