package exec

import (
	"context"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/shapley"
	"repro/internal/table"
)

// TestTxnAbortLeavesCachesPristine is the package-level statement of the
// no-partial-work-poisoning invariant: every store staged in a transaction
// that aborts must leave the shared caches bit-identical to the run never
// having started.
func TestTxnAbortLeavesCachesPristine(t *testing.T) {
	e := NewEngine(1)
	// Pre-existing warm state, to prove abort does not clear it either.
	warm := []bool{true, false, true}
	e.Cache().Store(e.GameID("warm"), 1, warm, 0.5)
	baseLen, baseFp := e.Cache().Len(), e.Cache().Fingerprint()
	e.RepairTargets().Store("warm-repair", 1, []table.CellDiff{{Ref: table.CellRef{Row: 0, Col: 0}}})
	baseRepairs := e.RepairTargets().Len()

	txn := e.Begin()
	gen := func() uint64 { return 7 }
	b := txn.Bind("doomed", gen)
	b.Store(7, []bool{true, true}, 1.25)
	wide := make([]bool, 100)
	wide[0], wide[99] = true, true
	b.Store(7, wide, 2.5)
	txn.RepairStore("doomed-repair", 7, []table.CellDiff{{Ref: table.CellRef{Row: 1, Col: 1}}})
	// A sampled explain stages its finished report entries the same way.
	txn.EntriesStore("doomed-report", 7, []shapley.Entry{{Name: "t1[A]", Shapley: 0.5}})

	// The run sees its own staged writes...
	if v, ok := b.LookupAt(7, []bool{true, true}); !ok || v != 1.25 {
		t.Fatalf("staged narrow lookup = %v, %v", v, ok)
	}
	if v, ok := b.LookupAt(7, wide); !ok || v != 2.5 {
		t.Fatalf("staged wide lookup = %v, %v", v, ok)
	}
	if _, ok := txn.RepairLookup("doomed-repair", 7); !ok {
		t.Fatal("staged repair diff must be visible inside the txn")
	}
	if got, ok := txn.EntriesLookup("doomed-report", 7); !ok || len(got) != 1 || got[0].Shapley != 0.5 {
		t.Fatalf("staged entries = %v, %v; must be visible inside the txn", got, ok)
	}
	if _, ok := e.RepairTargets().LookupEntries("doomed-report", 7); ok {
		t.Fatal("staged entries must not reach the memo before commit")
	}
	// ...but the shared caches have not.
	if got := e.Cache().Len(); got != baseLen {
		t.Fatalf("shared cache grew to %d before commit", got)
	}

	txn.Abort()
	if got := e.Cache().Len(); got != baseLen {
		t.Fatalf("post-abort cache len = %d, want %d", got, baseLen)
	}
	if got := e.Cache().Fingerprint(); got != baseFp {
		t.Fatalf("post-abort cache fingerprint changed: %x != %x", got, baseFp)
	}
	if got := e.RepairTargets().Len(); got != baseRepairs {
		t.Fatalf("post-abort memo len = %d, want %d", got, baseRepairs)
	}
	if _, ok := e.RepairTargets().LookupEntries("doomed-report", 7); ok {
		t.Fatal("an aborted sampled explain must leave no entries in the memo")
	}
	if v, ok := e.Cache().Lookup(e.GameID("warm"), 1, warm); !ok || v != 0.5 {
		t.Fatal("abort must not disturb pre-existing entries")
	}
}

// TestTxnCommitPublishes: committed stores land in the shared caches under
// their original generation stamps and survive for the next run.
func TestTxnCommitPublishes(t *testing.T) {
	e := NewEngine(1)
	txn := e.Begin()
	gen := func() uint64 { return 3 }
	b := txn.Bind("published", gen)
	narrow := []bool{true, false, true, false}
	b.Store(3, narrow, 4.5)
	wide := make([]bool, 70)
	wide[69] = true
	b.Store(3, wide, 5.5)
	txn.RepairStore("published-repair", 3, []table.CellDiff{{Ref: table.CellRef{Row: 2, Col: 0}}})
	txn.EntriesStore("published-report", 3, []shapley.Entry{{Name: "t1[A]", Shapley: 0.25}})
	txn.Commit()

	// A fresh (non-transactional) binding — the next run — must hit.
	nb := e.Bind("published", gen)
	if v, ok := nb.LookupAt(3, narrow); !ok || v != 4.5 {
		t.Fatalf("committed narrow value = %v, %v", v, ok)
	}
	if v, ok := nb.LookupAt(3, wide); !ok || v != 5.5 {
		t.Fatalf("committed wide value = %v, %v", v, ok)
	}
	if diffs, ok := e.RepairTargets().Lookup("published-repair", 3); !ok || len(diffs) != 1 {
		t.Fatalf("committed repair diff = %v, %v", diffs, ok)
	}
	if got, ok := e.RepairTargets().LookupEntries("published-report", 3); !ok || len(got) != 1 || got[0].Shapley != 0.25 {
		t.Fatalf("committed entries = %v, %v", got, ok)
	}
}

// TestTxnCommitKeepsGenerationGuards: values staged at an old generation
// are dropped by the caches' stale-store guards at commit, exactly as
// direct stores would have been.
func TestTxnCommitKeepsGenerationGuards(t *testing.T) {
	e := NewEngine(1)
	coalition := []bool{true, true, false}
	id := e.GameID("stale")
	// The world has moved to generation 9...
	e.Cache().Store(id, 9, coalition, 1.0)
	// ...while the txn staged a value computed back at generation 8.
	txn := e.Begin()
	b := txn.Bind("stale", func() uint64 { return 8 })
	b.Store(8, coalition, 99.0)
	txn.Commit()
	if _, ok := e.Cache().Lookup(id, 8, coalition); ok {
		t.Fatal("stale committed store must be dropped by the generation guard")
	}
	if v, ok := e.Cache().Lookup(id, 9, coalition); !ok || v != 1.0 {
		t.Fatal("current-generation entry must survive a stale commit")
	}
}

// TestTxnReadsFallThroughToSharedCache: a transactional binding still hits
// warm shared-cache entries from earlier committed runs.
func TestTxnReadsFallThroughToSharedCache(t *testing.T) {
	e := NewEngine(1)
	coalition := []bool{false, true}
	e.Cache().Store(e.GameID("fall"), 2, coalition, 7.5)
	txn := e.Begin()
	b := txn.Bind("fall", func() uint64 { return 2 })
	if v, ok := b.LookupAt(2, coalition); !ok || v != 7.5 {
		t.Fatalf("txn binding must read the warm shared entry: %v, %v", v, ok)
	}
	txn.Abort()
}

// TestTxnCachedGame: games wrapped through a txn stage rather than
// publish, and reads serve the run's own writes.
func TestTxnCachedGame(t *testing.T) {
	e := NewEngine(1)
	calls := 0
	base := shapley.GameFunc{N: 3, Fn: func(context.Context, []bool) (float64, error) {
		calls++
		return 1.0, nil
	}}
	gen := func() uint64 { return 1 }
	txn := e.Begin()
	g := txn.CachedGame("game", gen, base)
	ctx := context.Background()
	coalition := []bool{true, false, true}
	if _, err := g.Value(ctx, coalition); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Value(ctx, coalition); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("repeat coalition inside one txn must hit staging: %d calls", calls)
	}
	if e.Cache().Len() != 0 {
		t.Fatal("uncommitted game values must not reach the shared cache")
	}
	txn.Commit()
	if e.Cache().Len() != 1 {
		t.Fatalf("commit must publish the staged value: len=%d", e.Cache().Len())
	}
}

// TestTxnNilSafety: the nil txn (outside an entry point) behaves as "no
// transaction".
func TestTxnNilSafety(t *testing.T) {
	var txn *Txn
	txn.Commit()
	txn.Abort()
	if _, ok := txn.stagedNarrow(1, 0, 1); ok {
		t.Fatal("nil txn staged probe must miss")
	}
}

// TestTxnConcurrentStaging: one explain's fan-out workers all stage into
// the same txn concurrently (run with -race in CI).
func TestTxnConcurrentStaging(t *testing.T) {
	e := NewEngine(4)
	txn := e.Begin()
	b := txn.Bind("hammer", func() uint64 { return 1 })
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := []bool{w&1 == 0, i&1 == 0, true}
				b.Store(1, c, float64(i))
				b.LookupAt(1, c)
			}
		}(w)
	}
	wg.Wait()
	txn.Commit()
	if got := e.Cache().Len(); got != 4 {
		t.Fatalf("distinct staged coalitions = %d, want 4", got)
	}
}

// TestBindingStoreHitsFaultSite: SiteCacheStore fires on every staged
// store, so a scheduled cancellation lands between computing a value and
// publishing it.
func TestBindingStoreHitsFaultSite(t *testing.T) {
	canceled := false
	inj := faults.NewInjector(faults.Rule{Site: faults.SiteCacheStore, Ordinal: 2, Kind: faults.KindCancel}).
		OnCancel(func() { canceled = true })
	defer faults.Activate(inj)()
	e := NewEngine(1)
	txn := e.Begin()
	b := txn.Bind("site", func() uint64 { return 1 })
	b.Store(1, []bool{true}, 1)
	if canceled {
		t.Fatal("ordinal 1 must not fire a rule scheduled at ordinal 2")
	}
	b.Store(1, []bool{false}, 2)
	if !canceled {
		t.Fatal("second store must trip the scheduled cancellation")
	}
	txn.Abort()
}
