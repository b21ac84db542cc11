package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/exec"
	"repro/internal/repair"
	"repro/internal/shapley"
	"repro/internal/table"
)

// sameDiffs compares two repair diffs entry-for-entry, bit-identically.
func sameDiffs(t *testing.T, label string, got, want []table.CellDiff) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d diffs vs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: diff %d: %+v vs %+v", label, i, got[i], want[i])
		}
	}
}

// TestRepairTargetCacheGolden is the repair-target materialization's
// bit-identity contract: repeat Repair and Target calls on a session
// explainer replay the memoized diff, and every replayed answer matches
// the fresh-engine reference exactly.
func TestRepairTargetCacheGolden(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	for _, alg := range repair.All(1) {
		t.Run(alg.Name(), func(t *testing.T) {
			sess, err := NewSession(alg, ll.DCs, ll.Dirty)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewExplainer(alg, ll.DCs, sess.Dirty())
			if err != nil {
				t.Fatal(err)
			}
			wantClean, wantDiffs, err := ref.Repair(ctx)
			if err != nil {
				t.Fatal(err)
			}
			// First session call populates the cache; the repeats replay it.
			for i := 0; i < 3; i++ {
				clean, diffs, err := sess.Explainer().Repair(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !clean.Equal(wantClean) {
					t.Fatalf("call %d: cached clean table differs:\n%v\nwant:\n%v", i, clean, wantClean)
				}
				sameDiffs(t, "repair diffs", diffs, wantDiffs)
			}
			hits, _ := sess.Engine().RepairTargets().Stats()
			if hits < 2 {
				t.Fatalf("repeat Repair must hit the repair-target cache, got %d hits", hits)
			}

			// Target for every cell, repaired or not, answered off the diff.
			for _, cell := range sess.Dirty().Cells() {
				wantTarget, wantRepaired, err := ref.Target(ctx, cell)
				if err != nil {
					t.Fatal(err)
				}
				target, repaired, err := sess.Explainer().Target(ctx, cell)
				if err != nil {
					t.Fatal(err)
				}
				if repaired != wantRepaired || target != wantTarget {
					t.Fatalf("cell %v: cached Target = (%v, %v), want (%v, %v)",
						cell, target, repaired, wantTarget, wantRepaired)
				}
			}
		})
	}
}

// TestRepairTargetCacheRepresentationExact: a black box that changes a
// cell's numeric *kind* without changing its content (Float(5) -> Int(5),
// SameContent-equal) must see that change survive the cache replay:
// kind-sensitive consumers (hash-join keys) must not observe a different
// clean table on a hit than on a miss.
func TestRepairTargetCacheRepresentationExact(t *testing.T) {
	ctx := context.Background()
	dirty := table.MustFromStrings([]string{"A", "B"}, [][]string{
		{"5.0", "x"}, {"5", "y"},
	})
	if dirty.Get(0, 0) != table.Float(5) {
		t.Fatalf("fixture: got %#v, want Float kind", dirty.Get(0, 0))
	}
	kindFix := repair.Func{AlgName: "kind-fix", Fn: func(_ context.Context, _ []*dc.Constraint, d *table.Table) (*table.Table, error) {
		clean := d.Clone()
		clean.Set(0, 0, table.Int(5))          // kind-only change (SameContent)
		clean.Set(1, 1, table.String("fixed")) // content change
		return clean, nil
	}}
	cs, err := dc.ParseSet("C1: !(t1.A != t1.A)")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(kindFix, cs, dirty)
	if err != nil {
		t.Fatal(err)
	}
	first, firstDiffs, err := sess.Explainer().Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	replayed, replayedDiffs, err := sess.Explainer().Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := sess.Engine().RepairTargets().Stats(); hits == 0 {
		t.Fatal("second Repair must hit the cache")
	}
	for i := 0; i < first.NumRows(); i++ {
		for j := 0; j < first.NumCols(); j++ {
			if first.Get(i, j) != replayed.Get(i, j) {
				t.Fatalf("cell (%d,%d): replay %#v vs black box %#v (representation must survive)",
					i, j, replayed.Get(i, j), first.Get(i, j))
			}
		}
	}
	if replayed.Get(0, 0) != (table.Int(5)) {
		t.Fatalf("kind-only repair lost in replay: %#v", replayed.Get(0, 0))
	}
	// The reported "repaired cells" diff stays the SameContent one: only
	// the content change appears, on both paths.
	sameDiffs(t, "reported diffs", replayedDiffs, firstDiffs)
	if len(firstDiffs) != 1 || firstDiffs[0].Ref != (table.CellRef{Row: 1, Col: 1}) {
		t.Fatalf("reported diffs must hold only the content change: %+v", firstDiffs)
	}
}

// TestRepairTargetCacheInvalidation: a SetCell bumps the generation (the
// cached diff must not be replayed against the edited table), and
// AddDC/RemoveDC re-key the descriptor; in both cases the next answer must
// match a fresh-engine run.
func TestRepairTargetCacheInvalidation(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	alg := repair.NewAlgorithm1()
	sess, err := NewSession(alg, ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	cell := ll.CellOfInterest
	if _, _, err := sess.Explainer().Target(ctx, cell); err != nil {
		t.Fatal(err)
	}

	// Edit the cell of interest's row so the repair outcome changes.
	league := sess.Dirty().Schema().MustIndex("League")
	if err := sess.SetCell(table.CellRef{Row: cell.Row, Col: league}, table.String("Premier League")); err != nil {
		t.Fatal(err)
	}
	ref, err := NewExplainer(alg, sess.DCs(), sess.Dirty())
	if err != nil {
		t.Fatal(err)
	}
	wantTarget, wantRepaired, err := ref.Target(ctx, cell)
	if err != nil {
		t.Fatal(err)
	}
	target, repaired, err := sess.Explainer().Target(ctx, cell)
	if err != nil {
		t.Fatal(err)
	}
	if repaired != wantRepaired || target != wantTarget {
		t.Fatalf("after edit: cached Target = (%v, %v), want (%v, %v)", target, repaired, wantTarget, wantRepaired)
	}

	// Constraint edits re-key the repair descriptor without a generation
	// bump; the replay must follow the new constraint set.
	removed := ll.DCs[len(ll.DCs)-1].ID
	if err := sess.RemoveDC(removed); err != nil {
		t.Fatal(err)
	}
	ref2, err := NewExplainer(alg, sess.DCs(), sess.Dirty())
	if err != nil {
		t.Fatal(err)
	}
	_, wantDiffs, err := ref2.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, diffs, err := sess.Explainer().Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameDiffs(t, "after RemoveDC", diffs, wantDiffs)
}

// countingRepairer forwards all four repair protocols of a black box and
// counts every call, so a test can tell whether an explain ran the black
// box at all. When full is set, unmasked counts the calls handed a table
// with full's contents.
type countingRepairer struct {
	repair.PlannedRepairer
	calls    atomic.Int64
	full     *table.Table
	unmasked atomic.Int64
}

func (c *countingRepairer) count(dirty *table.Table) {
	c.calls.Add(1)
	if c.full != nil && dirty.Equal(c.full) {
		c.unmasked.Add(1)
	}
}

func (c *countingRepairer) Repair(ctx context.Context, cs []*dc.Constraint, dirty *table.Table) (*table.Table, error) {
	c.count(dirty)
	return c.PlannedRepairer.Repair(ctx, cs, dirty)
}

func (c *countingRepairer) RepairInto(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table) (*table.Table, error) {
	c.count(dirty)
	return c.PlannedRepairer.RepairInto(ctx, cs, dirty, work)
}

func (c *countingRepairer) RepairIntoParallel(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool) (*table.Table, error) {
	c.count(dirty)
	return c.PlannedRepairer.RepairIntoParallel(ctx, cs, dirty, work, pool)
}

func (c *countingRepairer) RepairIntoPlanned(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool, plan dc.SetPlanner) (*table.Table, error) {
	c.count(dirty)
	return c.PlannedRepairer.RepairIntoPlanned(ctx, cs, dirty, work, pool, plan)
}

// wideLaLiga is the La Liga table with its six rows appended once more:
// 72 cells, so an unrestricted cell explain has 71 players — wider than
// a packed coalition word.
func wideLaLiga(t *testing.T) *table.Table {
	t.Helper()
	tbl := data.NewLaLiga().Dirty.Clone()
	for r := 0; r < 6; r++ {
		if err := tbl.Append(tbl.Row(r)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestCacheAwareSamplingGolden is the bit-identity contract of sampled
// explains on a session: with the shared coalition cache and the Memo
// they produce exactly the fresh-engine estimates, cold or warm, for
// Workers=1, Workers=4 and a Workers change between the two calls, over a
// narrow (cache-bound) roster and a wide (unbound) one. The warm call is
// served from the Memo without running the black box once.
func TestCacheAwareSamplingGolden(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	cell := ll.CellOfInterest
	rosters := []struct {
		name string
		tbl  *table.Table
		q    Query
	}{
		{"narrow", ll.Dirty, Query{Cell: cell, Players: RelevantCellPlayers, Estimator: SampledShapley, CellExplainOptions: CellExplainOptions{Samples: 48, Seed: 11}}},
		{"wide", wideLaLiga(t), Query{Cell: cell, Players: CellPlayers, Estimator: SampledShapley, CellExplainOptions: CellExplainOptions{Samples: 24, Seed: 11}}},
	}
	for _, r := range rosters {
		bare, err := NewExplainer(repair.NewAlgorithm1(), ll.DCs, r.tbl)
		if err != nil {
			t.Fatal(err)
		}
		want, err := bare.Explain(ctx, r.q)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []struct{ cold, warm int }{{1, 1}, {4, 4}, {1, 4}} {
			label := fmt.Sprintf("%s/workers %d->%d", r.name, w.cold, w.warm)
			alg := &countingRepairer{PlannedRepairer: repair.NewAlgorithm1()}
			sess, err := NewSessionWith(alg, ll.DCs, r.tbl, SessionOptions{Workers: w.cold})
			if err != nil {
				t.Fatal(err)
			}
			q := r.q
			q.Workers = w.cold
			got, err := sess.Explainer().Explain(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			sameReports(t, label+": cold", got, want)
			if alg.calls.Load() == 0 {
				t.Fatalf("%s: the cold explain must run the black box", label)
			}
			before := alg.calls.Load()
			q.Workers = w.warm
			got, err = sess.Explainer().Explain(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			sameReports(t, label+": warm", got, want)
			if ran := alg.calls.Load() - before; ran != 0 {
				t.Fatalf("%s: the repeat explain ran %d black-box repairs, want 0", label, ran)
			}
		}
	}
}

// TestCacheAwareSamplingTopKAndGroupsGolden extends the bit-identity
// contract to the TopK racing loop and the sampled group walk.
func TestCacheAwareSamplingTopKAndGroupsGolden(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	alg := repair.NewAlgorithm1()
	cell := ll.CellOfInterest
	topk := Query{Cell: cell, Players: RelevantCellPlayers, Estimator: TopKShapley, K: 3, CellExplainOptions: CellExplainOptions{Samples: 64, Seed: 5}}

	bare, err := NewExplainer(alg, ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(alg, ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}

	wantTop, err := bare.Explain(ctx, topk)
	if err != nil {
		t.Fatal(err)
	}
	gotTop, err := sess.Explainer().Explain(ctx, topk)
	if err != nil {
		t.Fatal(err)
	}
	if gotTop.Separated != wantTop.Separated {
		t.Fatalf("TopK separation: %v vs %v", gotTop.Separated, wantTop.Separated)
	}
	sameReports(t, "cached TopK", gotTop, wantTop)

	groups := bare.RowGroups(cell)
	sampledGroups := Query{Cell: cell, Players: GroupPlayers, Groups: groups, Estimator: SampledShapley, CellExplainOptions: CellExplainOptions{Samples: 32, Seed: 3}}
	wantG, err := bare.Explain(ctx, sampledGroups)
	if err != nil {
		t.Fatal(err)
	}
	gotG, err := sess.Explainer().Explain(ctx, sampledGroups)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "cached sampled groups", gotG, wantG)

	// The exact group path shares the same descriptor space: running it
	// after the sampled path must reuse coalition values (strictly more
	// hits), and stay bit-identical to the fresh-engine exact report.
	hitsBefore, _ := sess.Engine().CacheStats()
	exactGroups := Query{Cell: cell, Players: GroupPlayers, Groups: groups[:6], Estimator: AutoShapley}
	wantExact, err := bare.Explain(ctx, exactGroups)
	if err != nil {
		t.Fatal(err)
	}
	gotExact, err := sess.Explainer().Explain(ctx, exactGroups)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "cached exact groups", gotExact, wantExact)
	if hitsAfter, _ := sess.Engine().CacheStats(); hitsAfter < hitsBefore {
		t.Fatalf("hits went backwards: %d -> %d", hitsBefore, hitsAfter)
	}
}

// TestCacheAwareSamplingEditInvalidation: estimates after a session edit
// must match a fresh-engine explainer on the edited table — no stale
// coalition value may survive the generation bump into the sampled paths.
func TestCacheAwareSamplingEditInvalidation(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	alg := repair.NewAlgorithm1()
	cell := ll.CellOfInterest
	q := Query{Cell: cell, Players: RelevantCellPlayers, Estimator: SampledShapley, CellExplainOptions: CellExplainOptions{Samples: 40, Seed: 17}}

	sess, err := NewSession(alg, ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Explainer().Explain(ctx, q); err != nil {
		t.Fatal(err)
	}

	city := sess.Dirty().Schema().MustIndex("City")
	if err := sess.SetCell(table.CellRef{Row: 2, Col: city}, table.String("Sevilla")); err != nil {
		t.Fatal(err)
	}

	ref, err := NewExplainer(alg, sess.DCs(), sess.Dirty())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Explain(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Explainer().Explain(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "post-edit cached ExplainCells", got, want)
}

// TestSampledExactCellRosterSharing: the exact cell enumeration and the
// sampled null-policy path over the same roster intern one descriptor, so
// an exact report after a sampled one reuses its coalition values.
func TestSampledExactCellRosterSharing(t *testing.T) {
	ctx := context.Background()
	// Tiny instance so the exact path is feasible.
	grid := [][]string{
		{"x", "1", "a"},
		{"x", "2", "a"},
		{"x", "1", "a"},
	}
	tbl := table.MustFromStrings([]string{"A", "B", "C"}, grid)
	cs, err := dc.ParseSet("C1: !(t1.A = t2.A & t1.B != t2.B)")
	if err != nil {
		t.Fatal(err)
	}
	alg := repair.NewRuleRepair(cs)
	sess, err := NewSession(alg, cs, tbl)
	if err != nil {
		t.Fatal(err)
	}
	cell := table.CellRef{Row: 1, Col: 1}

	if _, err := sess.Explainer().Explain(ctx, Query{Cell: cell, Players: RelevantCellPlayers, Estimator: SampledShapley, CellExplainOptions: CellExplainOptions{
		Samples: 64, Seed: 2,
	}}); err != nil {
		t.Fatal(err)
	}
	hits1, _ := sess.Engine().CacheStats()
	exactQ := Query{Cell: cell, Players: RelevantCellPlayers}
	exact, err := sess.Explainer().Explain(ctx, exactQ)
	if err != nil {
		t.Fatal(err)
	}
	hits2, _ := sess.Engine().CacheStats()
	if hits2 <= hits1 {
		t.Fatalf("exact enumeration after sampling must reuse the roster's coalition values (hits %d -> %d)", hits1, hits2)
	}

	bare, err := NewExplainer(alg, cs, tbl)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bare.Explain(ctx, exactQ)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "exact after sampled", exact, want)
}

// TestSampledWorkerDeterminismWithSharedCache: the Workers=1 ≡ Workers=N
// fan-out guarantee must survive cache participation, including a
// half-warm cache (one session explained already, the other has not).
func TestSampledWorkerDeterminismWithSharedCache(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	alg := repair.NewAlgorithm1()
	cell := ll.CellOfInterest

	var reports []*Report
	for _, workers := range []int{1, 2, 7} {
		sess, err := NewSessionWith(alg, ll.DCs, ll.Dirty, SessionOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		q := Query{Cell: cell, Players: RelevantCellPlayers, Estimator: SampledShapley, CellExplainOptions: CellExplainOptions{Samples: 56, Seed: 23, Workers: workers}}
		// Warm the cache with a *different* report kind first, so the
		// sampled run sees a partially-populated shared cache.
		if _, err := sess.Explainer().ExplainConstraints(ctx, cell); err != nil {
			t.Fatal(err)
		}
		report, err := sess.Explainer().Explain(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, report)
	}
	for i := 1; i < len(reports); i++ {
		sameReports(t, "worker determinism", reports[i], reports[0])
	}
}

// TestCacheAwareSamplingStochasticUnbound: ReplaceFromColumn games must
// not enroll in the shared cache (their values are random realizations),
// and their estimates must stay bit-identical to the fresh-engine run.
func TestCacheAwareSamplingStochasticUnbound(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	alg := repair.NewAlgorithm1()
	cell := ll.CellOfInterest
	q := Query{Cell: cell, Players: RelevantCellPlayers, Estimator: SampledShapley, CellExplainOptions: CellExplainOptions{Samples: 24, Seed: 9, Policy: ReplaceFromColumn}}

	bare, err := NewExplainer(alg, ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bare.Explain(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(alg, ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Explainer().Explain(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "stochastic policy with engine", got, want)

	// Direct check on the game: binding a stochastic game is a no-op.
	target, _, err := sess.Explainer().Target(ctx, cell)
	if err != nil {
		t.Fatal(err)
	}
	game := sess.Explainer().NewCellGame(cell, target, ReplaceFromColumn)
	game.BindSharedCache()
	if game.shared != nil {
		t.Fatal("ReplaceFromColumn game must not bind to the shared cache")
	}
	// And a walk-driven SampleAll on the stochastic game must match the
	// clone reference exactly (RNG consumption unchanged by the binding
	// code path).
	ests, err := shapley.SampleAll(ctx, game, shapley.Options{Samples: 16, Seed: 31, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := shapley.SampleAll(ctx, game.CloneEval(), shapley.Options{Samples: 16, Seed: 31, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ests {
		if ests[i] != ref[i] {
			t.Fatalf("estimate %d: %+v vs %+v", i, ests[i], ref[i])
		}
	}
}

// TestSampledMemoInvalidation: a SetCell, an AddDC and a RemoveDC each
// make the next sampled explain recompute — it runs the black box again
// and answers like a fresh-engine explainer over the edited session — and
// the repeat after each is served from the Memo again.
func TestSampledMemoInvalidation(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	cell := ll.CellOfInterest
	alg := &countingRepairer{PlannedRepairer: repair.NewAlgorithm1()}
	sess, err := NewSession(alg, ll.DCs, wideLaLiga(t))
	if err != nil {
		t.Fatal(err)
	}
	opts := CellExplainOptions{Samples: 16, Seed: 5}
	explain := func(label string) {
		t.Helper()
		ref, err := NewExplainer(repair.NewAlgorithm1(), sess.DCs(), sess.Dirty())
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.ExplainCells(ctx, cell, opts)
		if err != nil {
			t.Fatal(err)
		}
		before := alg.calls.Load()
		got, err := sess.Explainer().ExplainCells(ctx, cell, opts)
		if err != nil {
			t.Fatal(err)
		}
		if alg.calls.Load() == before {
			t.Fatalf("%s: the explain was served from the Memo instead of recomputed", label)
		}
		sameReports(t, label, got, want)
		before = alg.calls.Load()
		got, err = sess.Explainer().ExplainCells(ctx, cell, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ran := alg.calls.Load() - before; ran != 0 {
			t.Fatalf("%s: the repeat explain ran %d black-box repairs, want 0", label, ran)
		}
		sameReports(t, label+": repeat", got, want)
	}

	explain("initial")
	city := sess.Dirty().Schema().MustIndex("City")
	if err := sess.SetCell(table.CellRef{Row: 2, Col: city}, table.String("Sevilla")); err != nil {
		t.Fatal(err)
	}
	explain("after SetCell")
	if err := sess.AddDC("C9: !(t1.Year != t2.Year & t1.League = t2.League)"); err != nil {
		t.Fatal(err)
	}
	explain("after AddDC")
	if err := sess.RemoveDC("C9"); err != nil {
		t.Fatal(err)
	}
	explain("after RemoveDC")
}
