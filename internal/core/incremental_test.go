package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/repair"
	"repro/internal/shapley"
	"repro/internal/table"
)

// toyFDGame builds an n-row FD instance repaired by RuleRepair and returns
// the cell game for the dirty cell.
func toyFDGame(t *testing.T, rows int, policy ReplacementPolicy) *CellGame {
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
	return exp.NewCellGame(cell, target, policy)
}

// sameEstimates requires bit-identical estimates (Mean, Variance, N), not
// just approximate agreement: the incremental walk and the pooled scratch
// path must reproduce the clone path's arithmetic exactly.
func sameEstimates(t *testing.T, label string, got, want []shapley.Estimate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d estimates, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: player %d: got %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestGoldenEquivalenceSampleAll proves the tentpole's core claim: under a
// fixed seed and identical Options, SampleAll over the scratch/walk fast
// path returns exactly the estimates of the seed's clone-per-evaluation
// path, for both replacement policies and both serial and parallel runs.
func TestGoldenEquivalenceSampleAll(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		policy ReplacementPolicy
	}{
		{"null", ReplaceWithNull},
		{"column", ReplaceFromColumn},
	} {
		for _, workers := range []int{1, 4} {
			game := toyFDGame(t, 5, tc.policy)
			opts := shapley.Options{Samples: 64, Seed: 99, Workers: workers}
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

// TestGoldenEquivalenceSamplePlayer covers the two-evaluation walk of the
// one-marginal samplers, as TopK's racing loop drives it: one marginal of
// a random active player per sampled permutation.
func TestGoldenEquivalenceSamplePlayer(t *testing.T) {
	ctx := context.Background()
	for _, policy := range []ReplacementPolicy{ReplaceWithNull, ReplaceFromColumn} {
		game := toyFDGame(t, 5, policy)
		opts := shapley.TopKOptions{K: 1, RoundSamples: 12, MaxRounds: 4, Seed: 7, Workers: 1}
		fast, err := shapley.TopK(ctx, game, opts)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := shapley.TopK(ctx, game.CloneEval(), opts)
		if err != nil {
			t.Fatal(err)
		}
		sameEstimates(t, fmt.Sprintf("policy %d", policy), fast.All, slow.All)
	}
}

// TestGoldenEquivalenceExact checks the pooled scratch path against the
// clone path under exact subset enumeration (the Game interface route).
func TestGoldenEquivalenceExact(t *testing.T) {
	ctx := context.Background()
	game := toyFDGame(t, 4, ReplaceWithNull)
	fast, err := shapley.ExactSubsets(ctx, game)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := shapley.ExactSubsets(ctx, shapley.GameFunc{N: game.NumPlayers(), Fn: func(ctx context.Context, c []bool) (float64, error) {
		return game.evalClone(ctx, c, nil)
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Errorf("player %d: %v vs %v", i, fast[i], slow[i])
		}
	}
}

// TestScratchRestores verifies the scratch table really is restored after
// every evaluation: the pooled copy must match the dirty table so later
// coalitions are not contaminated by earlier masks.
func TestScratchRestores(t *testing.T) {
	ctx := context.Background()
	game := toyFDGame(t, 5, ReplaceWithNull)
	coalition := make([]bool, game.NumPlayers())
	for i := range coalition {
		coalition[i] = i%2 == 0
	}
	if _, err := game.Value(ctx, coalition); err != nil {
		t.Fatal(err)
	}
	sc := game.getScratch()
	defer game.scratch.Put(sc)
	if !sc.tbl.Equal(game.exp.Dirty) {
		t.Fatalf("scratch not restored:\n%s\nvs dirty:\n%s", sc.tbl, game.exp.Dirty)
	}
	// A walk must also leave the scratch clean after Close.
	w := game.NewWalk()
	w.Reset()
	w.Include(1)
	if _, err := w.Value(ctx, nil); err != nil {
		t.Fatal(err)
	}
	w.Close()
	sc2 := game.getScratch()
	defer game.scratch.Put(sc2)
	if !sc2.tbl.Equal(game.exp.Dirty) {
		t.Fatal("walk scratch not restored on Close")
	}
}

// allocGame pairs a small FD instance with repair.Passthrough, the
// non-allocating black box, so the allocation budgets below measure the
// coalition-evaluation machinery and not the repairer.
func allocGame(t *testing.T) *CellGame {
	t.Helper()
	grid := make([][]string, 8)
	for i := range grid {
		grid[i] = []string{"x", "1"}
	}
	tbl := table.MustFromStrings([]string{"A", "B"}, grid)
	cs, err := dc.ParseSet("C1: !(t1.A = t2.A & t1.B != t2.B)")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := NewExplainer(repair.Passthrough{}, cs, tbl)
	if err != nil {
		t.Fatal(err)
	}
	cell := table.CellRef{Row: 0, Col: 0}
	return exp.NewCellGame(cell, tbl.GetRef(cell), ReplaceWithNull)
}

// TestCellGameEvalAllocs is the allocation budget of the tentpole: once the
// pool is warm, a coalition evaluation through the scratch path performs
// zero allocations.
func TestCellGameEvalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ctx := context.Background()
	game := allocGame(t)
	coalition := make([]bool, game.NumPlayers())
	for i := range coalition {
		coalition[i] = i%3 == 0
	}
	// Warm the pool and the touched-list capacity.
	if _, err := game.Value(ctx, coalition); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := game.Value(ctx, coalition); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("pooled scratch eval allocates %.1f per op, want 0", got)
	}
}

// TestNewCellGameNullAllocsFlat: under the null policy a cell game builds
// no column statistics, so building one costs a fixed number of
// allocations (the roster's cell list and its layout slices) however many
// rows the table has.
func TestNewCellGameNullAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	allocs := func(teams int) float64 {
		dirty := data.GenerateSoccer(data.SoccerConfig{Leagues: 4, TeamsPerLeague: teams, Seed: 17})
		cs := data.SoccerDCs()
		exp, err := NewExplainer(repair.NewRuleRepair(cs), cs, dirty)
		if err != nil {
			t.Fatal(err)
		}
		cell := table.CellRef{Row: 5, Col: dirty.Schema().MustIndex("Country")}
		target := dirty.GetRef(cell)
		return testing.AllocsPerRun(20, func() { exp.NewCellGame(cell, target, ReplaceWithNull) })
	}
	if small, large := allocs(12), allocs(48); small != large {
		t.Errorf("NewCellGame allocates %.0f at 48 rows and %.0f at 192 rows, want equal", small, large)
	}
}

// TestCellWalkAllocs asserts the incremental walk path — Reset, Include,
// Value across a full permutation — allocates nothing per step.
func TestCellWalkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ctx := context.Background()
	game := allocGame(t)
	w := game.NewWalk()
	defer w.Close()
	n := game.NumPlayers()
	if got := testing.AllocsPerRun(100, func() {
		w.Reset()
		for p := 0; p < n; p++ {
			w.Include(p)
			if _, err := w.Value(ctx, nil); err != nil {
				t.Fatal(err)
			}
		}
	}); got != 0 {
		t.Errorf("walk allocates %.1f per permutation, want 0", got)
	}
}

// TestGroupGameOverlappingGroupsRestore is the regression test for a
// scratch-corruption bug: when two absent groups share a cell, an undo
// list that records the first mask's output as the second entry's
// "original" leaves the pooled scratch permanently masked. The restore
// must return the scratch to the dirty contents, and the game must keep
// matching the clone-path semantics.
func TestGroupGameOverlappingGroupsRestore(t *testing.T) {
	ctx := context.Background()
	grid := make([][]string, 4)
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
		{Name: "g1", Cells: []table.CellRef{shared, {Row: 3, Col: 1}}}, // overlaps g0
	}
	game := exp.NewCellGameOfGroups(cell, target, ReplaceWithNull, groups)
	coalition := []bool{false, false} // both groups absent: shared cell masked twice
	want, err := game.Value(ctx, coalition)
	if err != nil {
		t.Fatal(err)
	}
	// The next evaluation reuses the pooled scratch; a corrupted scratch
	// (shared cell stuck at null) would change the value of the full
	// coalition, which must see the unmodified dirty table.
	full, err := game.Value(ctx, []bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	if full != 1 {
		t.Fatalf("full coalition value = %v, want 1 (scratch corrupted?)", full)
	}
	// And the masked evaluation stays reproducible.
	again, err := game.Value(ctx, coalition)
	if err != nil {
		t.Fatal(err)
	}
	if again != want {
		t.Fatalf("repeat masked eval = %v, want %v", again, want)
	}
	sc := game.getScratch()
	if !sc.tbl.Equal(exp.Dirty) {
		t.Fatalf("pooled scratch differs from dirty table:\n%s", sc.tbl)
	}
}
