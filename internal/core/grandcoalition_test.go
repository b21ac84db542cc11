package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/exec"
	"repro/internal/repair"
	"repro/internal/shapley"
	"repro/internal/table"
)

// TestGrandCoalitionFromMemo: every game answers its grand coalition from
// the repair-target memo instead of running the black box on the full
// input again, and the reports stay exactly those of the oracles that
// always run it — the naive constraint game and CellGame.CloneEval.
func TestGrandCoalitionFromMemo(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	cell := ll.CellOfInterest

	t.Run("cold-constraint-explain", func(t *testing.T) {
		alg := &countingRepairer{PlannedRepairer: repair.NewAlgorithm1()}
		exp, err := NewExplainer(alg, ll.DCs, ll.Dirty)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exp.ExplainConstraints(ctx, cell); err != nil {
			t.Fatal(err)
		}
		// One target repair and the 15 proper subsets of 4 constraints.
		if got := alg.calls.Load(); got != 16 {
			t.Fatalf("cold constraint explain ran %d repairs, want 16", got)
		}
	})

	groups := []CellGroup{
		{Name: "t1+city", Cells: []table.CellRef{{Row: 0, Col: 0}, {Row: 0, Col: 1}, {Row: 0, Col: 2}, {Row: 3, Col: 1}}},
		{Name: "city", Cells: []table.CellRef{{Row: 1, Col: 1}, {Row: 2, Col: 1}, {Row: 3, Col: 1}, {Row: 4, Col: 1}}},
		{Name: "t5", Cells: []table.CellRef{{Row: 4, Col: 0}, {Row: 4, Col: 2}, {Row: 4, Col: 3}}},
	}
	sampled := func(players Players) Query {
		return Query{Cell: cell, Players: players, Estimator: SampledShapley, Groups: groups,
			CellExplainOptions: CellExplainOptions{Samples: 16, Seed: 7}}
	}
	towardCells := sampled(CellPlayers)
	towardCells.Desired = table.String("Spain")
	queries := []struct {
		name string
		q    Query
	}{
		{"constraints", Query{Cell: cell}},
		{"constraints-toward", Query{Cell: cell, Desired: table.String("Spain")}},
		{"constraints-why-not", Query{Cell: cell, Desired: table.String("Portugal")}},
		{"cells", sampled(CellPlayers)},
		{"rows", sampled(RowPlayers)},
		{"groups", sampled(GroupPlayers)},
		{"cells-toward", towardCells},
	}
	for _, workers := range []int{1, 2, 3} {
		for _, tc := range queries {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				q := tc.q
				q.Workers = workers
				alg := &countingRepairer{PlannedRepairer: repair.NewAlgorithm1(), full: ll.Dirty}
				exp, err := NewExplainer(alg, ll.DCs, ll.Dirty)
				if err != nil {
					t.Fatal(err)
				}
				exp.Engine = exec.NewEngine(workers)
				if _, _, err := exp.Target(ctx, cell); err != nil {
					t.Fatal(err)
				}
				alg.calls.Store(0)
				alg.unmasked.Store(0)
				got, err := exp.Explain(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				oracleAlg := &countingRepairer{PlannedRepairer: repair.NewAlgorithm1(), full: ll.Dirty}
				want := oracleReport(t, oracleAlg, ll.DCs, ll.Dirty, q)
				if g, w := fmt.Sprintf("%+v", *got), fmt.Sprintf("%+v", *want); g != w {
					t.Fatalf("report differs from the oracle's:\n got %s\nwant %s", g, w)
				}
				if q.Players == ConstraintPlayers {
					return
				}
				// The oracle shows the sampler reaches the grand coalition; the
				// explain must answer it from the memo every time.
				if oracleAlg.unmasked.Load() == 0 {
					t.Fatal("the oracle never evaluated the grand coalition; the check is vacuous")
				}
				if n := alg.unmasked.Load(); n != 0 {
					t.Fatalf("the explain handed the unmasked table to the black box %d times (of %d runs)", n, alg.calls.Load())
				}
			})
		}
	}
}

// oracleReport is Explain's report for q computed without the memo's
// grand coalition or any coalition cache: the constraint game by direct
// subset repairs, the cell rosters through CellGame.CloneEval.
func oracleReport(t *testing.T, alg repair.Algorithm, cs []*dc.Constraint, dirty *table.Table, q Query) *Report {
	t.Helper()
	ctx := context.Background()
	exp, err := NewExplainer(alg, cs, dirty)
	if err != nil {
		t.Fatal(err)
	}
	target := q.Desired
	if target.IsNull() {
		if target, _, err = exp.Target(ctx, q.Cell); err != nil {
			t.Fatal(err)
		}
	}
	r, err := exp.roster(q)
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{Kind: r.kind(q.Estimator, !q.Desired.IsNull()), Cell: dirty.RefName(q.Cell), Target: target.String(), Algorithm: alg.Name()}
	if r.players == ConstraintPlayers {
		values, err := shapley.ExactSubsets(ctx, naiveConstraintGame{alg: alg, cs: cs, dirty: dirty, cell: q.Cell, target: target})
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range values {
			rep.Entries = append(rep.Entries, Entry{Name: cs[k].ID, Shapley: v})
		}
	} else {
		opts := q.CellExplainOptions.withDefaults()
		game := exp.newCellGame(q.Cell, target, opts.Policy, &r)
		ests, err := shapley.SampleAll(ctx, game.CloneEval(), shapley.Options{Samples: opts.Samples, Workers: opts.Workers, Seed: opts.Seed})
		if err != nil {
			t.Fatal(err)
		}
		for k, est := range ests {
			rep.Entries = append(rep.Entries, estimateEntry(r.name(exp, k), est))
		}
	}
	sortEntries(rep.Entries)
	return rep
}

// naiveConstraintGame is the constraint game of §2.2 as defined: every
// coalition, the grand one included, is one black-box run over its
// constraints.
type naiveConstraintGame struct {
	alg    repair.Algorithm
	cs     []*dc.Constraint
	dirty  *table.Table
	cell   table.CellRef
	target table.Value
}

func (g naiveConstraintGame) NumPlayers() int { return len(g.cs) }

func (g naiveConstraintGame) Value(ctx context.Context, coalition []bool) (float64, error) {
	var subset []*dc.Constraint
	for i, in := range coalition {
		if in {
			subset = append(subset, g.cs[i])
		}
	}
	return repair.CellRepaired(ctx, g.alg, subset, g.dirty, g.cell, g.target)
}
