package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/faults"
	"repro/internal/repair"
	"repro/internal/table"
)

// soccerSession is a generated standings table of leagues×teams rows with
// one Country typo in row 6, which the rule repair fixes, and the typo's
// cell.
func soccerSession(t *testing.T, leagues, teams int) (*Session, table.CellRef) {
	t.Helper()
	tbl := data.GenerateSoccer(data.SoccerConfig{Leagues: leagues, TeamsPerLeague: teams, Seed: 17})
	cell := table.CellRef{Row: 5, Col: tbl.Schema().MustIndex("Country")}
	tbl.Set(cell.Row, cell.Col, table.String("Wrongland"))
	cs := data.SoccerDCs()
	sess, err := NewSessionWith(repair.NewRuleRepair(cs), cs, tbl, SessionOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sess, cell
}

// TestSampledMemoHitOwnsEntries: a repeat sampled explain over cells,
// relevant cells or rows answers the cold report from the memo, and a
// caller that edits the entries of a report it was given — the cold one
// or a repeat — cannot change the next repeat.
func TestSampledMemoHitOwnsEntries(t *testing.T) {
	ctx := context.Background()
	for _, players := range []Players{CellPlayers, RelevantCellPlayers, RowPlayers} {
		sess, cell := newWideRobustnessSession(t)
		q := Query{Cell: cell, Players: players, Estimator: SampledShapley, CellExplainOptions: CellExplainOptions{Samples: 16, Seed: 5}}
		cold, err := sess.Explainer().Explain(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want := *cold
		want.Entries = slices.Clone(cold.Entries)
		edit := func(rep *Report) {
			rep.Entries[0].Name, rep.Entries[0].Shapley = "edited", 99
			slices.Reverse(rep.Entries)
		}
		edit(cold)
		hit, err := sess.Explainer().Explain(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		sameReports(t, "repeat after an edit to the cold report", hit, &want)
		edit(hit)
		got, err := sess.Explainer().Explain(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != want.Kind || got.Cell != want.Cell || got.Target != want.Target {
			t.Fatalf("players %d: repeat header %q %q %q, want %q %q %q", players, got.Kind, got.Cell, got.Target, want.Kind, want.Cell, want.Target)
		}
		sameReports(t, "repeat after an edit to the first repeat", got, &want)
	}
}

// TestSampledMemoAbortLeavesMemo: a sampled explain that faults while
// staging its finished entries is aborted and leaves the memo as it was;
// the rerun answers like the explain never faulted.
func TestSampledMemoAbortLeavesMemo(t *testing.T) {
	ctx := context.Background()
	ref, cell := newWideRobustnessSession(t)
	want, err := ref.Explainer().ExplainCells(ctx, cell, cellOpts())
	if err != nil {
		t.Fatal(err)
	}
	sess, _ := newWideRobustnessSession(t)
	// Warm the repair target, so the entries are the explain's only store.
	if _, _, err := sess.Explainer().Target(ctx, cell); err != nil {
		t.Fatal(err)
	}
	memo := sess.Engine().RepairTargets()
	before := memo.Len()
	deactivate := faults.Activate(faults.NewInjector(faults.Rule{Site: faults.SiteCacheStore, Ordinal: 1, Kind: faults.KindPanic}))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the faulted explain did not panic")
			}
		}()
		_, _ = sess.Explainer().ExplainCells(ctx, cell, cellOpts())
	}()
	deactivate()
	if got := memo.Len(); got != before {
		t.Fatalf("memo holds %d entries after the aborted explain, want %d", got, before)
	}
	got, err := sess.Explainer().ExplainCells(ctx, cell, cellOpts())
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "rerun after abort", got, want)
	if memo.Len() != before+1 {
		t.Fatalf("memo holds %d entries after the rerun, want %d", memo.Len(), before+1)
	}
}

// TestSampledMemoHitAllocs: a memo hit allocates the same number of times
// on a 48-row and a 192-row table (287 and 1151 cell players), over all
// cells and over the relevant cells: the hit copies the finished entries
// in one allocation and names, sorts and lists nothing.
func TestSampledMemoHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ctx := context.Background()
	for _, players := range []Players{CellPlayers, RelevantCellPlayers} {
		var allocs []float64
		for _, size := range []struct{ leagues, teams int }{{4, 12}, {8, 24}} {
			sess, cell := soccerSession(t, size.leagues, size.teams)
			q := Query{Cell: cell, Players: players, Estimator: SampledShapley, CellExplainOptions: CellExplainOptions{Samples: 2, Seed: 1, Workers: 1}}
			if _, err := sess.Explainer().Explain(ctx, q); err != nil {
				t.Fatal(err)
			}
			allocs = append(allocs, testing.AllocsPerRun(50, func() {
				if _, err := sess.Explainer().Explain(ctx, q); err != nil {
					t.Fatal(err)
				}
			}))
		}
		t.Logf("players %d: allocations per memo hit: %v at 48 rows, %v at 192 rows", players, allocs[0], allocs[1])
		if allocs[0] != allocs[1] {
			t.Fatalf("players %d: allocations per memo hit grow with the roster: %v at 48 rows, %v at 192 rows", players, allocs[0], allocs[1])
		}
		if allocs[0] > 16 {
			t.Fatalf("players %d: a memo hit allocates %v times, want at most 16", players, allocs[0])
		}
	}
}

// TestSampledMemoEntryStats: N repeat sampled explains are one miss and
// N−1 hits of the memo's report entries, counted apart from its
// repair-target lookups.
func TestSampledMemoEntryStats(t *testing.T) {
	ctx := context.Background()
	sess, cell := soccerSession(t, 2, 6)
	memo := sess.Engine().RepairTargets()
	const n = 5
	q := Query{Cell: cell, Players: CellPlayers, Estimator: SampledShapley, CellExplainOptions: CellExplainOptions{Samples: 2, Seed: 1, Workers: 1}}
	for i := 0; i < n; i++ {
		if _, err := sess.Explainer().Explain(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := memo.EntryStats(); hits != n-1 || misses != 1 {
		t.Fatalf("%d repeat explains: %d entry hits and %d misses, want %d and 1", n, hits, misses, n-1)
	}
	if hits, misses := memo.Stats(); hits+misses != n {
		t.Fatalf("%d explains made %d repair-target lookups, want %d", n, hits+misses, n)
	}
}

// TestRelevantRosterMatchesFilter: the arithmetic relevant-cell roster is
// the row-major list of the cells in a constraint-mentioned column or in
// the row of the cell of interest, for every cell of interest.
func TestRelevantRosterMatchesFilter(t *testing.T) {
	ll := data.NewLaLiga()
	for _, cs := range [][]*dc.Constraint{ll.DCs, ll.DCs[:1], ll.DCs[3:]} {
		exp, err := NewExplainer(repair.NewAlgorithm1(), cs, ll.Dirty)
		if err != nil {
			t.Fatal(err)
		}
		mentioned := map[string]bool{}
		for _, c := range cs {
			for _, a := range c.Attributes() {
				mentioned[a] = true
			}
		}
		for _, cell := range ll.Dirty.Cells() {
			var want []table.CellRef
			for _, ref := range ll.Dirty.Cells() {
				if ref != cell && (mentioned[ll.Dirty.Schema().Col(ref.Col).Name] || ref.Row == cell.Row) {
					want = append(want, ref)
				}
			}
			if got := exp.RelevantCells(cell); !slices.Equal(got, want) {
				t.Fatalf("cell %v under %d constraints: roster %v, want %v", cell, len(cs), got, want)
			}
		}
	}
}
