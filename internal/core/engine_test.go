package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/repair"
	"repro/internal/shapley"
	"repro/internal/table"
)

// sameReports compares two reports entry-for-entry, bit-identically.
func sameReports(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("%s: %d entries vs %d", label, len(got.Entries), len(want.Entries))
	}
	for i := range got.Entries {
		g, w := got.Entries[i], want.Entries[i]
		if g != w {
			t.Fatalf("%s: entry %d: %+v vs %+v", label, i, g, w)
		}
	}
}

// TestSharedCacheAcrossReportKinds is the tentpole's hit-rate contract:
// the constraint ranking, the interaction matrix, the Banzhaf ablation and
// a repeat ranking all enumerate the same constraint game's coalitions, so
// with the session's shared cache only the *first* screen pays black-box
// runs — every later screen is pure hits. Per-game caches (the pre-engine
// behaviour) pay the full enumeration once per screen.
func TestSharedCacheAcrossReportKinds(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	sess, err := NewSession(repair.NewAlgorithm1(), ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	cell := ll.CellOfInterest

	if _, err := sess.Explainer().ExplainConstraints(ctx, cell); err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := sess.Engine().CacheStats()
	if misses1 == 0 {
		t.Fatal("first explain must populate the shared cache")
	}

	// Interaction, Banzhaf and a repeat ranking revisit the same game.
	if _, err := sess.Explainer().Explain(ctx, Query{Cell: cell, Estimator: InteractionIndex}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Explainer().Explain(ctx, Query{Cell: cell, Estimator: BanzhafIndex}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Explainer().ExplainConstraints(ctx, cell); err != nil {
		t.Fatal(err)
	}
	hits2, misses2 := sess.Engine().CacheStats()
	if misses2 != misses1 {
		t.Fatalf("later screens must not miss: misses %d -> %d", misses1, misses2)
	}
	if hits2 <= hits1 {
		t.Fatalf("later screens must hit: hits %d -> %d", hits1, hits2)
	}

	// The acceptance bar: the session-wide hit rate must be at least twice
	// what one screen alone achieves (ExactSubsets evaluates each coalition
	// once, so one screen's first enumeration hits nothing).
	perGame := float64(hits1) / float64(hits1+misses1)
	shared := sess.Engine().HitRate()
	if shared < 2*perGame || shared < 0.5 {
		t.Fatalf("shared hit rate %.3f (per-game baseline %.3f): want ≥2x and ≥0.5", shared, perGame)
	}
}

// freshExplain ranks the constraints for cell on a NewExplainer explainer
// over the session's current state. Its engine is its own and starts
// empty, so the answer shares no cached state with the session under
// test.
func freshExplain(ctx context.Context, s *Session, cell table.CellRef) (*Report, error) {
	exp, err := NewExplainer(s.alg, s.dcs, s.dirty)
	if err != nil {
		return nil, err
	}
	return exp.ExplainConstraints(ctx, cell)
}

// TestSharedCacheInvalidatedBySetCell: after an edit, the session's
// explanation must match freshExplain's bit-for-bit — no coalition value
// computed before the generation bump may survive it.
func TestSharedCacheInvalidatedBySetCell(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	sess, err := NewSession(repair.NewAlgorithm1(), ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	cell := ll.CellOfInterest
	city := sess.Dirty().Schema().MustIndex("City")
	edit := table.CellRef{Row: 5, Col: city}

	if _, err := sess.Explainer().ExplainConstraints(ctx, cell); err != nil {
		t.Fatal(err)
	}
	for i, v := range []table.Value{table.String("Sevilla"), table.String("Madrid"), table.String("Sevilla")} {
		if err := sess.SetCell(edit, v); err != nil {
			t.Fatal(err)
		}
		got, gotErr := sess.Explainer().ExplainConstraints(ctx, cell)
		want, wantErr := freshExplain(ctx, sess, cell)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("edit %d: error mismatch: %v vs %v", i, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		sameReports(t, fmt.Sprintf("edit %d", i), got, want)
	}
}

// TestSharedCacheHammer is the satellite's -race hammer: concurrent
// engine-backed explains race a serialized editor (reader/writer
// discipline, as the HTTP server enforces per session), and every explain
// is cross-checked bit-for-bit against freshExplain under the same read
// lock. Any stale cached coalition value surviving a generation bump, or
// any data race in the shared cache/pool, fails here.
func TestSharedCacheHammer(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	sess, err := NewSessionWith(repair.NewAlgorithm1(), ll.DCs, ll.Dirty, SessionOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cell := ll.CellOfInterest
	city := sess.Dirty().Schema().MustIndex("City")
	edit := table.CellRef{Row: 5, Col: city}
	values := []table.Value{table.String("Sevilla"), table.String("Madrid")}

	var mu sync.RWMutex
	stop := make(chan struct{})
	errs := make(chan error, 16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.RLock()
				got, gotErr := sess.Explainer().ExplainConstraints(ctx, cell)
				want, wantErr := freshExplain(ctx, sess, cell)
				mu.RUnlock()
				if (gotErr == nil) != (wantErr == nil) {
					errs <- fmt.Errorf("error mismatch: %v vs %v", gotErr, wantErr)
					return
				}
				if gotErr != nil {
					continue
				}
				if len(got.Entries) != len(want.Entries) {
					errs <- fmt.Errorf("entry count %d vs %d", len(got.Entries), len(want.Entries))
					return
				}
				for i := range got.Entries {
					if got.Entries[i] != want.Entries[i] {
						errs <- fmt.Errorf("stale value: entry %d: %+v vs %+v", i, got.Entries[i], want.Entries[i])
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 12; i++ {
		mu.Lock()
		if err := sess.SetCell(edit, values[i%2]); err != nil {
			t.Fatal(err)
		}
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSessionExplainCellsWorkerDeterminism: through the session engine,
// Workers=1 and Workers=N sampling produce bit-identical cell rankings —
// the end-to-end version of the shapley fan-out contract, across the
// pooled repair path too.
func TestSessionExplainCellsWorkerDeterminism(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	var reports []*Report
	for _, workers := range []int{1, 4} {
		sess, err := NewSessionWith(repair.NewAlgorithm1(), ll.DCs, ll.Dirty, SessionOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Explainer().ExplainCells(ctx, ll.CellOfInterest, CellExplainOptions{
			Samples: 48, Seed: 77, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	sameReports(t, "workers 1 vs 4", reports[1], reports[0])
}

// TestDeltaWalkMarginalEquivalence: the coalition-morphing fast path of the
// one-marginal samplers (DeltaWalk: Exclude + Include diffs instead of
// per-sample rebuilds), as TopK drives it, must reproduce the generic
// clone path bit-for-bit on both cell and group games, under both
// replacement policies.
func TestDeltaWalkMarginalEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, policy := range []ReplacementPolicy{ReplaceWithNull, ReplaceFromColumn} {
		game := toyGroupGame(t, 6, policy)
		opts := shapley.TopKOptions{K: 1, RoundSamples: 20, MaxRounds: 3, Seed: 31, Workers: 2}
		fast, err := shapley.TopK(ctx, game, opts)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := shapley.TopK(ctx, game.CloneEval(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fast.All {
			if f, s := fast.All[i], slow.All[i]; f.Mean != s.Mean || f.Variance != s.Variance || f.N != s.N {
				t.Fatalf("policy %d estimate %d: walk %+v vs clone %+v", policy, i, f, s)
			}
		}
	}

	// Cell game, including the TopK racing loop that drives walkMorph
	// hardest (random player per sample).
	ll := data.NewLaLiga()
	exp, err := NewExplainer(repair.NewAlgorithm1(), ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.roster(Query{Cell: ll.CellOfInterest, Players: RelevantCellPlayers})
	if err != nil {
		t.Fatal(err)
	}
	game := exp.newCellGame(ll.CellOfInterest, table.String("Spain"), ReplaceWithNull, &r)
	tkOpts := shapley.TopKOptions{K: 3, RoundSamples: 12, MaxRounds: 3, Seed: 9, Workers: 2}
	fast, err := shapley.TopK(ctx, game, tkOpts)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := shapley.TopK(ctx, game.CloneEval(), tkOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.All) != len(slow.All) {
		t.Fatal("TopK result sizes differ")
	}
	for i := range fast.All {
		if fast.All[i] != slow.All[i] {
			t.Fatalf("TopK estimate %d: walk %+v vs clone %+v", i, fast.All[i], slow.All[i])
		}
	}
}

// TestGameDescInjective pins the descriptor framing: distinct games must
// never intern one cache ID. The cases are real aliasing bugs the
// length-prefixed framing fixed — separator characters inside group
// names, and Value.String collapsing kinds.
func TestGameDescInjective(t *testing.T) {
	ll := data.NewLaLiga()
	exp, err := NewExplainer(repair.NewAlgorithm1(), ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	b := table.CellRef{Row: 0, Col: 1}
	c := table.CellRef{Row: 0, Col: 2}
	g1 := groupsDesc(ll.Dirty, []CellGroup{{Name: "x", Cells: []table.CellRef{b, c}}})
	g2 := groupsDesc(ll.Dirty, []CellGroup{{Name: "x,1", Cells: []table.CellRef{c}}})
	if g1 == g2 {
		t.Fatalf("group fingerprints alias: %q", g1)
	}
	if targetDesc(table.String("5")) == targetDesc(table.Int(5)) {
		t.Fatal("target descriptors must be kind-tagged")
	}
	cell := ll.CellOfInterest
	if exp.constraintGameDesc(cell, table.String("5")) == exp.constraintGameDesc(cell, table.Int(5)) {
		t.Fatal("constraint-game descriptors alias across target kinds")
	}
	// Same components split differently across parts must not alias.
	if exp.gameDesc("k", "ab", "c") == exp.gameDesc("k", "a", "bc") {
		t.Fatal("gameDesc parts alias across boundaries")
	}
}

// TestConstraintEditInvalidatesEngine: AddDC/RemoveDC re-key every game;
// the engine must drop the orphaned coalition values (the leak fix) and
// post-edit explains must match freshExplain.
func TestConstraintEditInvalidatesEngine(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	sess, err := NewSession(repair.NewAlgorithm1(), ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	cell := ll.CellOfInterest
	if _, err := sess.Explainer().ExplainConstraints(ctx, cell); err != nil {
		t.Fatal(err)
	}
	removed := ll.DCs[len(ll.DCs)-1]
	if err := sess.RemoveDC(removed.ID); err != nil {
		t.Fatal(err)
	}
	got, gotErr := sess.Explainer().ExplainConstraints(ctx, cell)
	want, wantErr := freshExplain(ctx, sess, cell)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error mismatch after RemoveDC: %v vs %v", gotErr, wantErr)
	}
	if gotErr == nil {
		sameReports(t, "after RemoveDC", got, want)
	}
	if err := sess.AddDC(removed.String()); err != nil {
		t.Fatal(err)
	}
	got, gotErr = sess.Explainer().ExplainConstraints(ctx, cell)
	want, wantErr = freshExplain(ctx, sess, cell)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error mismatch after AddDC: %v vs %v", gotErr, wantErr)
	}
	if gotErr == nil {
		sameReports(t, "after AddDC", got, want)
	}
}

// TestGroupWalkExcludeRestores: a morph-heavy walk (Include/Exclude
// interleavings over overlapping groups) must leave the pooled scratch
// equal to the dirty table after Close.
func TestGroupWalkExcludeRestores(t *testing.T) {
	game := toyGroupGame(t, 5, ReplaceWithNull)
	w := game.NewWalk().(interface {
		shapley.DeltaWalk
	})
	w.Reset()
	w.Include(1)
	w.Include(3)
	w.Exclude(1)
	w.Include(0)
	w.Exclude(3)
	w.Close()
	sc := game.getScratch()
	defer game.scratch.Put(sc)
	if !sc.tbl.Equal(game.exp.Dirty) {
		t.Fatalf("scratch not restored after Exclude walk:\n%s\nvs dirty:\n%s", sc.tbl, game.exp.Dirty)
	}
}

// TestColdExplainCellsAllocBudget is the allocation guard of trex-bench's
// explain-cells/laliga/m=64 row: a sampled cell explain over La Liga's 35
// cells with an engine invalidated before every iteration, on one worker.
// Its coalition values go straight into the shared cache, and the cache
// transaction logs only the keys it inserted, so a cold explain costs
// about 60 KB. The budget is twice the 66 KB the explain read before
// every explainer carried an engine.
func TestColdExplainCellsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ll := data.NewLaLiga()
	exp, err := NewExplainer(repair.NewAlgorithm1(), ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var runErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			exp.Engine.InvalidateCache()
			if _, err := exp.ExplainCells(ctx, ll.CellOfInterest, CellExplainOptions{Samples: 64, Seed: int64(i), Workers: 1}); err != nil {
				runErr = err
				b.FailNow()
			}
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	const budget = 128 << 10
	t.Logf("cold explain: %d B/op, %d allocs/op over %d runs", res.AllocedBytesPerOp(), res.AllocsPerOp(), res.N)
	if got := res.AllocedBytesPerOp(); got > budget {
		t.Fatalf("cold explain allocates %d B/op, budget %d", got, budget)
	}
}
