package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/dc"
	"repro/internal/repair"
	"repro/internal/table"
)

// shapes lists every Players×Estimator query shape over the cell, with
// explicit groups for GroupPlayers and sampling parameters for the
// sampled estimators.
func shapes(cell table.CellRef, groups []CellGroup) []Query {
	var qs []Query
	for p := ConstraintPlayers; p <= GroupPlayers; p++ {
		for est := ExactShapley; est <= InteractionIndex; est++ {
			qs = append(qs, Query{Cell: cell, Players: p, Groups: groups, Estimator: est, K: 2,
				CellExplainOptions: CellExplainOptions{Samples: 16, Workers: 2, Seed: 3}})
		}
	}
	return qs
}

// TestExplainOutOfRangeCell: a mis-addressed cell fails every query shape,
// with and without a desired value, and fails Achievable and Target, and a
// group with a member outside the table fails every estimator, each with
// an error and never an index panic; the session's shared caches stay
// bit-identical.
func TestExplainOutOfRangeCell(t *testing.T) {
	ctx := context.Background()
	sess, cell := newRobustnessSession(t)
	if _, err := sess.Explainer().ExplainCells(ctx, cell, cellOpts()); err != nil {
		t.Fatal(err)
	}
	before := captureState(sess)
	groups := sess.Explainer().RowGroups(cell)
	for _, bad := range []table.CellRef{{Row: 99, Col: 0}, {Row: -1, Col: 2}, {Row: 2, Col: 6}, {Row: 0, Col: -1}} {
		for _, q := range shapes(bad, groups) {
			for _, desired := range []table.Value{table.Null(), table.String("Spain")} {
				q.Desired = desired
				if _, err := sess.Explainer().Explain(ctx, q); err == nil {
					t.Errorf("%+v: out-of-range cell must error", q)
				}
			}
		}
		if _, err := sess.Explainer().ExplainConstraints(ctx, bad); err == nil {
			t.Errorf("ExplainConstraints(%v) must error", bad)
		}
		if _, err := sess.Explainer().ExplainCells(ctx, bad, cellOpts()); err == nil {
			t.Errorf("ExplainCells(%v) must error", bad)
		}
		if _, _, err := sess.Explainer().Achievable(ctx, bad, table.String("Spain")); err == nil {
			t.Errorf("Achievable(%v) must error", bad)
		}
		if _, _, err := sess.Explainer().Target(ctx, bad); err == nil {
			t.Errorf("Target(%v) must error", bad)
		}
	}
	// A group member outside the table fails the query the same way,
	// whichever estimator values the groups.
	for _, bad := range []table.CellRef{{Row: 99, Col: 0}, {Row: 0, Col: -1}} {
		outside := append(slices.Clone(groups), CellGroup{Name: "outside", Cells: []table.CellRef{{Row: 0, Col: 0}, bad}})
		for est := ExactShapley; est <= InteractionIndex; est++ {
			q := Query{Cell: cell, Players: GroupPlayers, Groups: outside, Estimator: est, K: 2, CellExplainOptions: cellOpts()}
			if _, err := sess.Explainer().Explain(ctx, q); err == nil {
				t.Errorf("estimator %d: group member %v outside the table must error", est, bad)
			}
		}
	}
	if after := captureState(sess); after != before {
		t.Fatalf("rejected queries changed the shared caches: %+v -> %+v", before, after)
	}
}

// TestExplainEveryShape runs every Players×Estimator shape on a table small
// enough for exact cell enumeration: constraint players are valued exactly
// only, every other shape ranks its whole roster (top-k its K best,
// interaction every pair), and unknown selectors are rejected.
func TestExplainEveryShape(t *testing.T) {
	ctx := context.Background()
	tbl := table.MustFromStrings([]string{"A", "B", "C"}, [][]string{
		{"x", "1", "a"},
		{"x", "2", "a"},
		{"x", "1", "a"},
	})
	cs, err := dc.ParseSet("C1: !(t1.A = t2.A & t1.B != t2.B)")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(repair.NewRuleRepair(cs), cs, tbl)
	if err != nil {
		t.Fatal(err)
	}
	cell := table.CellRef{Row: 1, Col: 1}
	e := sess.Explainer()
	groups := []CellGroup{{Name: "A", Cells: []table.CellRef{{Row: 0, Col: 0}, {Row: 2, Col: 0}}}, {Name: "B", Cells: []table.CellRef{{Row: 0, Col: 1}, {Row: 2, Col: 1}}}}
	for _, q := range shapes(cell, groups) {
		r, err := e.roster(q)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Explain(ctx, q)
		sampled := q.Estimator == SampledShapley || q.Estimator == TopKShapley
		if q.Players == ConstraintPlayers && sampled {
			if err == nil {
				t.Errorf("players %d, estimator %d: constraint players must not be sampled", q.Players, q.Estimator)
			}
			continue
		}
		if err != nil {
			t.Fatalf("players %d, estimator %d: %v", q.Players, q.Estimator, err)
		}
		want := r.size(e)
		switch q.Estimator {
		case TopKShapley:
			want = q.K
		case InteractionIndex:
			want = want * (want - 1) / 2
		}
		if len(rep.Entries) != want || rep.Target != "1" {
			t.Errorf("players %d, estimator %d: %d entries toward %s, want %d toward 1\n%s", q.Players, q.Estimator, len(rep.Entries), rep.Target, want, rep)
		}
	}
	if _, err := e.Explain(ctx, Query{Cell: cell, Players: GroupPlayers + 1}); err == nil {
		t.Error("unknown players must error")
	}
	if _, err := e.Explain(ctx, Query{Cell: cell, Estimator: InteractionIndex + 1}); err == nil {
		t.Error("unknown estimator must error")
	}
}
