package core

import (
	"context"
	"testing"

	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/repair"
	"repro/internal/shapley"
	"repro/internal/table"
)

// toyGroupGame builds an n-row FD instance repaired by RuleRepair and
// returns the group game over row groups for the dirty cell.
func toyGroupGame(t *testing.T, rows int, policy ReplacementPolicy) *CellGame {
	t.Helper()
	grid := make([][]string, rows)
	for i := range grid {
		grid[i] = []string{"x", "1"}
	}
	grid[1][1] = "2"
	tbl := table.MustFromStrings([]string{"A", "B"}, grid)
	cs, err := dc.ParseSet("C1: !(t1.A = t2.A & t1.B != t2.B)")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := NewExplainer(repair.NewRuleRepair(cs), cs, tbl)
	if err != nil {
		t.Fatal(err)
	}
	cell := table.CellRef{Row: 1, Col: 1}
	target, repaired, err := exp.Target(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if !repaired {
		t.Fatal("toy cell was not repaired")
	}
	return exp.NewCellGameOfGroups(cell, target, policy, exp.RowGroups(cell))
}

// TestGroupWalkGoldenEquivalence is the group half of the tentpole's
// golden contract: SampleAll over a row-group roster's walk returns exactly the
// estimates of the clone-per-evaluation path, for both replacement
// policies and both serial and parallel runs.
func TestGroupWalkGoldenEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		policy ReplacementPolicy
	}{
		{"null", ReplaceWithNull},
		{"column", ReplaceFromColumn},
	} {
		for _, workers := range []int{1, 4} {
			game := toyGroupGame(t, 6, tc.policy)
			opts := shapley.Options{Samples: 64, Seed: 17, Workers: workers}
			fast, err := shapley.SampleAll(ctx, game, opts)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := shapley.SampleAll(ctx, game.CloneEval(), opts)
			if err != nil {
				t.Fatal(err)
			}
			sameEstimates(t, tc.name, fast, slow)
		}
	}
}

// TestGroupWalkGoldenEquivalenceOverlapping covers the reference-counted
// masking: overlapping groups share cells, and the walk must still produce
// the batch path's arithmetic exactly.
func TestGroupWalkGoldenEquivalenceOverlapping(t *testing.T) {
	ctx := context.Background()
	grid := make([][]string, 6)
	for i := range grid {
		grid[i] = []string{"x", "1"}
	}
	grid[1][1] = "2"
	tbl := table.MustFromStrings([]string{"A", "B"}, grid)
	cs, err := dc.ParseSet("C1: !(t1.A = t2.A & t1.B != t2.B)")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := NewExplainer(repair.NewRuleRepair(cs), cs, tbl)
	if err != nil {
		t.Fatal(err)
	}
	cell := table.CellRef{Row: 1, Col: 1}
	target, _, err := exp.Target(ctx, cell)
	if err != nil {
		t.Fatal(err)
	}
	shared := table.CellRef{Row: 0, Col: 1}
	groups := []CellGroup{
		{Name: "g0", Cells: []table.CellRef{shared, {Row: 2, Col: 1}}},
		{Name: "g1", Cells: []table.CellRef{shared, {Row: 3, Col: 1}}},
		{Name: "g2", Cells: []table.CellRef{{Row: 4, Col: 1}, {Row: 5, Col: 1}, shared}},
	}
	for _, policy := range []ReplacementPolicy{ReplaceWithNull, ReplaceFromColumn} {
		game := exp.NewCellGameOfGroups(cell, target, policy, groups)
		opts := shapley.Options{Samples: 96, Seed: 23, Workers: 2}
		fast, err := shapley.SampleAll(ctx, game, opts)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := shapley.SampleAll(ctx, game.CloneEval(), opts)
		if err != nil {
			t.Fatal(err)
		}
		sameEstimates(t, "overlapping", fast, slow)
	}
}

// TestGroupWalkRestores verifies a walk leaves the pooled scratch equal to
// the dirty table after Close, including partial walks (SamplePlayer stops
// mid-permutation).
func TestGroupWalkRestores(t *testing.T) {
	ctx := context.Background()
	game := toyGroupGame(t, 5, ReplaceWithNull)
	w := game.NewWalk()
	w.Reset()
	w.Include(2)
	if _, err := w.Value(ctx, nil); err != nil {
		t.Fatal(err)
	}
	w.Close()
	sc := game.getScratch()
	defer game.scratch.Put(sc)
	if !sc.tbl.Equal(game.exp.Dirty) {
		t.Fatalf("walk scratch not restored on Close:\n%s\nvs dirty:\n%s", sc.tbl, game.exp.Dirty)
	}
}

// TestEvalRepairAllocsAlgorithm1 is the end-to-end allocation budget of
// this PR's tentpole: one coalition evaluation — scratch masking, pooled
// work-table refresh, Algorithm 1's full rule/fixpoint machinery including
// conditional-mode statistics, and the binary-view readout — allocates
// nothing in steady state on the paper's La Liga instance.
func TestEvalRepairAllocsAlgorithm1(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ctx := context.Background()
	ll := data.NewLaLiga()
	exp, err := NewExplainer(repair.NewAlgorithm1(), ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	game := exp.NewCellGame(ll.CellOfInterest, table.String("Spain"), ReplaceWithNull)
	coalition := make([]bool, game.NumPlayers())
	for i := range coalition {
		coalition[i] = i%3 != 0
	}
	// Warm every pool to steady state.
	for i := 0; i < 4; i++ {
		if _, err := game.Value(ctx, coalition); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := game.Value(ctx, coalition); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("eval→repair path allocates %.1f per op, want 0", got)
	}
}

// TestGroupWalkAllocs asserts the group walk path — Reset, Include, Value
// across a full permutation against the real Algorithm 1 — allocates
// nothing per permutation once warm.
func TestGroupWalkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ctx := context.Background()
	ll := data.NewLaLiga()
	exp, err := NewExplainer(repair.NewAlgorithm1(), ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	game := exp.NewCellGameOfGroups(ll.CellOfInterest, table.String("Spain"), ReplaceWithNull, exp.RowGroups(ll.CellOfInterest))
	w := game.NewWalk()
	defer w.Close()
	n := game.NumPlayers()
	walkOnce := func() {
		w.Reset()
		for p := 0; p < n; p++ {
			w.Include(p)
			if _, err := w.Value(ctx, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		walkOnce()
	}
	if got := testing.AllocsPerRun(100, walkOnce); got != 0 {
		t.Errorf("group walk allocates %.1f per permutation, want 0", got)
	}
}
