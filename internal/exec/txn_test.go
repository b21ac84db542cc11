package exec

import (
	"context"
	"strconv"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/shapley"
	"repro/internal/table"
)

// TestTxnAbortLeavesCachesPristine is the package-level statement of the
// no-partial-work-poisoning invariant: every store made in a transaction
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

	// The run sees its own writes...
	if v, ok := b.LookupAt(7, []bool{true, true}); !ok || v != 1.25 {
		t.Fatalf("narrow lookup inside the txn = %v, %v", v, ok)
	}
	if v, ok := b.LookupAt(7, wide); !ok || v != 2.5 {
		t.Fatalf("wide lookup inside the txn = %v, %v", v, ok)
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
	// Coalition values are in the shared cache before commit.
	if got := e.Cache().Len(); got != baseLen+2 {
		t.Fatalf("shared cache len = %d before commit, want %d", got, baseLen+2)
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

// coalitionOf unpacks the low n bits of bits into a coalition.
func coalitionOf(bits uint64, n int) []bool {
	c := make([]bool, n)
	for i := range c {
		c[i] = bits&(1<<uint(i)) != 0
	}
	return c
}

// TestTxnAbortUndoesOnlyOwnInserts: Abort deletes exactly the entries its
// txn inserted that are still in place, and nothing else.
func TestTxnAbortUndoesOnlyOwnInserts(t *testing.T) {
	wide := func(first int) []bool {
		c := make([]bool, 100)
		c[first], c[99] = true, true
		return c
	}

	t.Run("same-shard-neighbour", func(t *testing.T) {
		e := NewEngine(1)
		c := e.Cache()
		doomedID, warmID := e.GameID("doomed"), e.GameID("warm")
		doomed := coalitionOf(0b11, 8)
		// A warm entry of another game in the shard the doomed key lands in.
		shard := c.narrowShard(narrowKey{game: doomedID, bits: 0b11})
		var warm []bool
		for bits := uint64(0); bits < 256 && warm == nil; bits++ {
			if c.narrowShard(narrowKey{game: warmID, bits: bits}) == shard {
				warm = coalitionOf(bits, 8)
			}
		}
		if warm == nil {
			t.Fatal("no warm key shares the doomed key's shard")
		}
		c.Store(warmID, 5, warm, 0.5)
		// And a warm wide entry of another game in the doomed wide key's shard.
		var words []uint64
		doomedH := hashPacked(appendPacked(nil, wide(0))) ^ mix64(doomedID)
		var warmWide []bool
		for i := 0; i < 99 && warmWide == nil; i++ {
			words = appendPacked(words[:0], wide(i))
			if (hashPacked(words)^mix64(warmID))&(cacheShards-1) == doomedH&(cacheShards-1) {
				warmWide = wide(i)
			}
		}
		if warmWide == nil {
			t.Fatal("no warm wide key shares the doomed wide key's shard")
		}
		c.Store(warmID, 5, warmWide, 1.5)
		baseLen, baseFp := c.Len(), c.Fingerprint()

		txn := e.Begin()
		b := txn.Bind("doomed", func() uint64 { return 5 })
		b.Store(5, doomed, 1.25)
		b.Store(5, wide(0), 2.5)
		txn.Abort()
		if c.Len() != baseLen || c.Fingerprint() != baseFp {
			t.Fatalf("abort changed the cache: len %d (want %d)", c.Len(), baseLen)
		}
		if v, ok := c.Lookup(warmID, 5, warm); !ok || v != 0.5 {
			t.Fatal("abort deleted a same-shard entry it did not insert")
		}
		if v, ok := c.Lookup(warmID, 5, warmWide); !ok || v != 1.5 {
			t.Fatal("abort deleted a same-shard wide entry it did not insert")
		}
	})

	t.Run("found-present", func(t *testing.T) {
		e := NewEngine(1)
		c := e.Cache()
		id := e.GameID("shared")
		narrow := []bool{true, false, true}
		c.Store(id, 5, narrow, 0.5)
		c.Store(id, 5, wide(3), 1.5)
		baseFp := c.Fingerprint()

		txn := e.Begin()
		b := txn.Bind("shared", func() uint64 { return 5 })
		b.Store(5, narrow, 0.5)
		b.Store(5, wide(3), 1.5)
		txn.Abort()
		if c.Len() != 2 || c.Fingerprint() != baseFp {
			t.Fatal("abort deleted keys its txn found already present")
		}
	})

	t.Run("reinserted-at-newer-generation", func(t *testing.T) {
		e := NewEngine(1)
		c := e.Cache()
		id := e.GameID("moved")
		narrow := []bool{true, true, false}

		txn := e.Begin()
		b := txn.Bind("moved", func() uint64 { return 5 })
		b.Store(5, narrow, 1.0)
		b.Store(5, wide(4), 2.0)
		// The shards move to generation 6 and the keys come back there.
		c.Store(id, 6, narrow, 1.0)
		c.Store(id, 6, wide(4), 2.0)
		baseFp := c.Fingerprint()
		txn.Abort()
		if c.Len() != 2 || c.Fingerprint() != baseFp {
			t.Fatal("an older txn's abort deleted keys re-inserted at a newer generation")
		}
	})

	t.Run("after-clear", func(t *testing.T) {
		e := NewEngine(1)
		txn := e.Begin()
		b := txn.Bind("cleared", func() uint64 { return 5 })
		b.Store(5, []bool{true}, 1.0)
		b.Store(5, wide(5), 2.0)
		e.Cache().Clear()
		txn.Abort()
		if e.Cache().Len() != 0 {
			t.Fatalf("abort after Clear left %d entries", e.Cache().Len())
		}
	})

	t.Run("after-game-id-overflow", func(t *testing.T) {
		e := NewEngine(1)
		txn := e.Begin()
		b := txn.Bind("overflowed", func() uint64 { return 5 })
		b.Store(5, []bool{true}, 1.0)
		b.Store(5, wide(6), 2.0)
		// Interning maxGameIDs more descriptors starts the table over and
		// clears the cache; the last one interned stores a value after it.
		for i := 0; i < maxGameIDs; i++ {
			e.GameID("filler-" + strconv.Itoa(i))
		}
		fresh := e.Bind("fresh", func() uint64 { return 5 })
		fresh.Store(5, []bool{true}, 3.0)
		baseFp := e.Cache().Fingerprint()
		txn.Abort()
		if e.Cache().Len() != 1 || e.Cache().Fingerprint() != baseFp {
			t.Fatal("abort after a GameID overflow touched entries it did not insert")
		}
	})
}

// TestTxnOverlappedAbortKeepsInserts: a txn whose lifetime overlapped
// another txn on the engine keeps its inserts on Abort, since the other
// run may have read them; a txn that ran alone rolls back.
func TestTxnOverlappedAbortKeepsInserts(t *testing.T) {
	gen := func() uint64 { return 1 }
	for _, tc := range []struct {
		name string
		run  func(e *Engine) // begins the doomed txn, stores one value, aborts
		keep bool
	}{
		{"other-open-at-begin", func(e *Engine) {
			other := e.Begin()
			txn := e.Begin()
			txn.Bind("g", gen).Store(1, []bool{true}, 1)
			txn.Abort()
			other.Commit()
		}, true},
		{"other-began-and-ended-meanwhile", func(e *Engine) {
			txn := e.Begin()
			txn.Bind("g", gen).Store(1, []bool{true}, 1)
			e.Begin().Commit()
			txn.Abort()
		}, true},
		{"alone-after-others", func(e *Engine) {
			e.Begin().Commit()
			txn := e.Begin()
			txn.Bind("g", gen).Store(1, []bool{true}, 1)
			txn.Abort()
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(1)
			tc.run(e)
			if got := e.Cache().Len() == 1; got != tc.keep {
				t.Fatalf("entry kept = %v, want %v", got, tc.keep)
			}
		})
	}
}

// TestTxnCommitKeepsGenerationGuards: a value a txn stores at an old
// generation is dropped by the cache's stale-store guard, and Commit does
// not bring it back.
func TestTxnCommitKeepsGenerationGuards(t *testing.T) {
	e := NewEngine(1)
	coalition := []bool{true, true, false}
	id := e.GameID("stale")
	// The world has moved to generation 9...
	e.Cache().Store(id, 9, coalition, 1.0)
	// ...while the txn stores a value computed back at generation 8.
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

// TestTxnCachedGame: games wrapped through a txn store straight into the
// shared cache, and reads serve the run's own writes.
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
		t.Fatalf("repeat coalition inside one txn must hit the shared cache: %d calls", calls)
	}
	if e.Cache().Len() != 1 {
		t.Fatal("uncommitted game values must be in the shared cache")
	}
	txn.Commit()
	if e.Cache().Len() != 1 {
		t.Fatalf("commit must keep the stored value: len=%d", e.Cache().Len())
	}
}

// TestTxnNilSafety: the nil txn (outside an entry point) behaves as "no
// transaction".
func TestTxnNilSafety(t *testing.T) {
	var txn *Txn
	txn.Commit()
	txn.Abort()
	if _, ok := txn.RepairLookup("none", 0); ok {
		t.Fatal("nil txn lookup must miss")
	}
}

// TestTxnConcurrentStaging: one explain's fan-out workers all store
// through the same txn concurrently (run with -race in CI).
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

// TestBindingStoreHitsFaultSite: SiteCacheStore fires on every binding
// store, so a scheduled cancellation lands between computing a value and
// storing it.
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
