// Metamorphic invariant suite: the Shapley axioms the paper's games must
// satisfy regardless of black box, policy or execution engine. It lives in
// an external test package so it can drive the *real* game (core.CellGame,
// over cells and over groups) through the samplers — the package under test never
// imports core, preserving the black-box boundary.
//
//   - Efficiency: Σ_p φ_p = v(N) − v(∅). Exact computation satisfies it by
//     definition; SampleAll satisfies it *exactly* (up to float summation
//     error) because every permutation walk telescopes to v(N) − v(∅) and
//     every player receives the same sample count. Under the stochastic
//     ReplaceFromColumn policy v(∅) is a random realization per walk, so
//     the sum must land in [v(N)−1, v(N)] for the binary repair games.
//   - Null player: a cell no constraint mentions (outside the target's
//     row) never changes the repair, so its Shapley value is exactly 0
//     under deterministic policies — and every sampled marginal is 0, so
//     the estimate's variance is 0 too.
//
// Each invariant is checked across cell and group rosters, both
// replacement policies, and cached (session engine) vs uncached execution,
// asserting cached ≡ uncached bit-identically along the way.
package shapley_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dc"
	"repro/internal/repair"
	"repro/internal/shapley"
	"repro/internal/table"
)

// axiomFixture is a small instance with a known-dummy column: D appears in
// no constraint, so its cells (outside the target row) are null players.
func axiomFixture(t *testing.T) (*table.Table, []*dc.Constraint, table.CellRef) {
	t.Helper()
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
	return tbl, cs, table.CellRef{Row: 1, Col: 1}
}

// axiomExplainers builds two explainers over the fixture: "uncached" from
// NewExplainer, whose engine is its own and starts empty (its games are
// never bound to it), and "cached" from a session, whose shared coalition
// cache its games enroll in.
func axiomExplainers(t *testing.T) map[string]*core.Explainer {
	t.Helper()
	tbl, cs, _ := axiomFixture(t)
	alg := repair.NewRuleRepair(cs)
	bare, err := core.NewExplainer(alg, cs, tbl)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(alg, cs, tbl)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*core.Explainer{"uncached": bare, "cached": sess.Explainer()}
}

// axiomGames builds the cell game and a column-grouped group game for one
// explainer and policy, both restricted to rosters that include the dummy
// players. It returns the games keyed by kind plus the dummy player index
// of each.
func axiomGames(t *testing.T, e *core.Explainer, policy core.ReplacementPolicy, bind bool) map[string]struct {
	game  shapley.StochasticGame
	dummy int
} {
	t.Helper()
	ctx := context.Background()
	_, _, cell := axiomFixture(t)
	target, repaired, err := e.Target(ctx, cell)
	if err != nil {
		t.Fatal(err)
	}
	if !repaired {
		t.Fatal("fixture cell must be repaired")
	}

	// Roster: the relevant cells plus one provably-null player — a D cell
	// outside the target's row — each its own one-cell group.
	dummyRef := table.CellRef{Row: 2, Col: 2}
	var cells []core.CellGroup
	for _, ref := range append(e.RelevantCells(cell), dummyRef) {
		cells = append(cells, core.CellGroup{Name: e.Dirty.RefName(ref), Cells: []table.CellRef{ref}})
	}
	cellGame := e.NewCellGameOfGroups(cell, target, policy, cells)
	// Enroll deterministic evaluations in the explainer's shared coalition
	// cache when bind is set (a no-op under the stochastic policy) — the
	// "cached engine" leg of the metamorphic matrix.
	if bind {
		cellGame.BindSharedCache()
	}
	cellDummy := len(cells) - 1

	groups := e.ColumnGroups(cell)
	groupGame := e.NewCellGameOfGroups(cell, target, policy, groups)
	if bind {
		groupGame.BindSharedCache()
	}
	groupDummy := -1
	for k, g := range groups {
		if g.Name == "col D" {
			groupDummy = k
		}
	}
	if groupDummy < 0 {
		t.Fatal("dummy column group missing")
	}

	return map[string]struct {
		game  shapley.StochasticGame
		dummy int
	}{
		"cell-game":  {cellGame, cellDummy},
		"group-game": {groupGame, groupDummy},
	}
}

// grandAndEmpty evaluates v(N) and v(∅) deterministically (null policy
// required for v(∅); v(N) masks nothing so any policy is deterministic
// there).
func grandAndEmpty(t *testing.T, g shapley.StochasticGame) (vN, vEmpty float64) {
	t.Helper()
	ctx := context.Background()
	n := g.NumPlayers()
	full := make([]bool, n)
	for i := range full {
		full[i] = true
	}
	var err error
	vN, err = g.SampleValue(ctx, full, nil)
	if err != nil {
		t.Fatal(err)
	}
	vEmpty, err = g.(shapley.Game).Value(ctx, make([]bool, n))
	if err != nil {
		t.Fatal(err)
	}
	return vN, vEmpty
}

// TestAxiomEfficiencySampled: Σφ over a SampleAll run telescopes to
// v(N) − v(∅) — exactly under the null policy, within the v(∅)∈[0,1]
// envelope under column sampling.
func TestAxiomEfficiencySampled(t *testing.T) {
	ctx := context.Background()
	opts := shapley.Options{Samples: 30, Seed: 41, Workers: 2}
	for engineKind, e := range axiomExplainers(t) {
		for policyName, policy := range map[string]core.ReplacementPolicy{
			"null": core.ReplaceWithNull, "column": core.ReplaceFromColumn,
		} {
			for gameKind, fx := range axiomGames(t, e, policy, engineKind == "cached") {
				label := engineKind + "/" + policyName + "/" + gameKind
				ests, err := shapley.SampleAll(ctx, fx.game, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sum := 0.0
				for _, est := range ests {
					sum += est.Mean
					if est.N != opts.Samples {
						t.Fatalf("%s: player %d got %d samples, want %d (efficiency needs uniform counts)",
							label, est.Player, est.N, opts.Samples)
					}
				}
				if policy == core.ReplaceWithNull {
					vN, vEmpty := grandAndEmpty(t, fx.game)
					if math.Abs(sum-(vN-vEmpty)) > 1e-9 {
						t.Fatalf("%s: Σφ = %v, want v(N)−v(∅) = %v", label, sum, vN-vEmpty)
					}
				} else {
					// v(∅) is a per-walk realization in [0, 1] for the binary
					// repair game; v(N) masks nothing and is deterministic.
					full := make([]bool, fx.game.NumPlayers())
					for i := range full {
						full[i] = true
					}
					vN, err := fx.game.SampleValue(ctx, full, nil)
					if err != nil {
						t.Fatal(err)
					}
					if sum > vN+1e-9 || sum < vN-1-1e-9 {
						t.Fatalf("%s: Σφ = %v outside [v(N)−1, v(N)] = [%v, %v]", label, sum, vN-1, vN)
					}
				}
			}
		}
	}
}

// TestAxiomEfficiencyExact: exact subset enumeration satisfies efficiency
// to float precision on both games, cached and uncached.
func TestAxiomEfficiencyExact(t *testing.T) {
	ctx := context.Background()
	for engineKind, e := range axiomExplainers(t) {
		for gameKind, fx := range axiomGames(t, e, core.ReplaceWithNull, engineKind == "cached") {
			label := engineKind + "/" + gameKind
			g := fx.game.(shapley.Game)
			values, err := shapley.ExactSubsets(ctx, g)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sum := 0.0
			for _, v := range values {
				sum += v
			}
			vN, vEmpty := grandAndEmpty(t, fx.game)
			if math.Abs(sum-(vN-vEmpty)) > 1e-9 {
				t.Fatalf("%s: Σφ = %v, want v(N)−v(∅) = %v", label, sum, vN-vEmpty)
			}
		}
	}
}

// TestAxiomNullPlayer: the dummy cell / dummy column group contributes
// nothing. Exactly zero (mean and variance) under the null policy; under
// column sampling each marginal pairs two independent realizations, so the
// estimate is only statistically zero — bounded well away from the real
// players' values for the fixed seeds.
func TestAxiomNullPlayer(t *testing.T) {
	ctx := context.Background()
	for engineKind, e := range axiomExplainers(t) {
		for policyName, policy := range map[string]core.ReplacementPolicy{
			"null": core.ReplaceWithNull, "column": core.ReplaceFromColumn,
		} {
			for gameKind, fx := range axiomGames(t, e, policy, engineKind == "cached") {
				label := engineKind + "/" + policyName + "/" + gameKind
				ests, err := shapley.SampleAll(ctx, fx.game, shapley.Options{Samples: 60, Seed: 13, Workers: 2})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				est := ests[fx.dummy]
				if policy == core.ReplaceWithNull {
					if est.Mean != 0 || est.Variance != 0 {
						t.Fatalf("%s: null player estimate %+v, want exactly 0 (every marginal 0)", label, est)
					}
				} else if math.Abs(est.Mean) > 0.25 {
					t.Fatalf("%s: null player mean %v, want ≈0", label, est.Mean)
				}
			}
		}
	}
}

// TestAxiomCachedUncachedBitIdentical: the cached engine must not merely
// satisfy the axioms — it must reproduce the uncached estimates
// bit-for-bit across games and policies (the metamorphic relation tying
// this suite to the tentpole's golden contract).
func TestAxiomCachedUncachedBitIdentical(t *testing.T) {
	ctx := context.Background()
	exps := axiomExplainers(t)
	opts := shapley.Options{Samples: 24, Seed: 77, Workers: 3}
	for policyName, policy := range map[string]core.ReplacementPolicy{
		"null": core.ReplaceWithNull, "column": core.ReplaceFromColumn,
	} {
		cached := axiomGames(t, exps["cached"], policy, true)
		uncached := axiomGames(t, exps["uncached"], policy, false)
		for gameKind := range cached {
			label := policyName + "/" + gameKind
			a, err := shapley.SampleAll(ctx, cached[gameKind].game, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			b, err := shapley.SampleAll(ctx, uncached[gameKind].game, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(a) != len(b) {
				t.Fatalf("%s: %d vs %d estimates", label, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: estimate %d: cached %+v vs uncached %+v", label, i, a[i], b[i])
				}
			}
		}
	}
}
