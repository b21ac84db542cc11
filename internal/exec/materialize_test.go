package exec

import (
	"testing"

	"repro/internal/shapley"
	"repro/internal/table"
)

func diffFixture() []table.CellDiff {
	return []table.CellDiff{
		{Ref: table.CellRef{Row: 1, Col: 2}, Dirty: table.String("a"), Clean: table.String("b")},
		{Ref: table.CellRef{Row: 3, Col: 0}, Dirty: table.Int(1), Clean: table.Int(2)},
	}
}

func TestRepairCacheRoundTrip(t *testing.T) {
	c := NewMemo()
	if _, ok := c.Lookup("d", 7); ok {
		t.Fatal("empty cache must miss")
	}
	in := diffFixture()
	c.Store("d", 7, in)
	got, ok := c.Lookup("d", 7)
	if !ok {
		t.Fatal("stored entry must hit")
	}
	if len(got) != len(in) {
		t.Fatalf("got %d diffs, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("diff %d: got %+v want %+v", i, got[i], in[i])
		}
	}
	// The stored diff is a copy: mutating the caller's slice must not leak.
	in[0].Clean = table.String("corrupted")
	got, _ = c.Lookup("d", 7)
	if got[0].Clean.String() == "corrupted" {
		t.Fatal("cache must own a copy of the stored diff")
	}
}

func TestRepairCacheGenerationMismatch(t *testing.T) {
	c := NewMemo()
	c.Store("d", 7, diffFixture())
	if _, ok := c.Lookup("d", 8); ok {
		t.Fatal("newer generation must miss")
	}
	if _, ok := c.Lookup("d", 6); ok {
		t.Fatal("older generation must miss")
	}
	// A store at the new generation overwrites the descriptor's entry.
	c.Store("d", 8, nil)
	if got, ok := c.Lookup("d", 8); !ok || len(got) != 0 {
		t.Fatalf("overwritten entry: ok=%v diffs=%v", ok, got)
	}
	if _, ok := c.Lookup("d", 7); ok {
		t.Fatal("old generation entry must be gone after overwrite")
	}
}

func TestRepairCacheClearAndStats(t *testing.T) {
	c := NewMemo()
	c.Store("d", 1, diffFixture())
	if _, ok := c.Lookup("d", 1); !ok {
		t.Fatal("want hit")
	}
	c.Clear()
	if _, ok := c.Lookup("d", 1); ok {
		t.Fatal("cleared cache must miss")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = (%d, %d), want (1, 1)", hits, misses)
	}
}

func TestRepairCacheBounded(t *testing.T) {
	c := NewMemo()
	for i := 0; i < maxMemoEntries+5; i++ {
		c.Store(string(rune('a'))+string(rune(i)), 1, nil)
	}
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	if n > maxMemoEntries {
		t.Fatalf("cache grew to %d entries, cap is %d", n, maxMemoEntries)
	}
}

// TestRepairCacheNilSafe: outside an entry point there is no transaction,
// and the result memo seen through the nil txn misses and drops stores.
func TestRepairCacheNilSafe(t *testing.T) {
	var txn *Txn
	if _, ok := txn.RepairLookup("d", 1); ok {
		t.Fatal("nil txn repair lookup must miss")
	}
	txn.RepairStore("d", 1, diffFixture()) // must not panic
	if _, ok := txn.EntriesLookup("d", 1); ok {
		t.Fatal("nil txn entries lookup must miss")
	}
	txn.EntriesStore("d", 1, nil) // must not panic
}

func TestEngineRepairTargets(t *testing.T) {
	e := NewEngine(1)
	rc := e.RepairTargets()
	if rc == nil {
		t.Fatal("engine must carry a repair cache")
	}
	rc.Store("d", 3, diffFixture())
	e.InvalidateCache()
	if _, ok := rc.Lookup("d", 3); ok {
		t.Fatal("InvalidateCache must drop repair-target entries")
	}
}

func TestBindingNilSafe(t *testing.T) {
	var b *Binding
	if _, _, ok := b.Lookup([]bool{true}); ok {
		t.Fatal("nil binding must miss")
	}
	b.Store(1, []bool{true}, 1) // must not panic
}

func TestBindingSharesCacheWithCachedGame(t *testing.T) {
	e := NewEngine(1)
	gen := func() uint64 { return 42 }
	b := e.Bind("game", gen)
	coalition := []bool{true, false, true}
	if _, _, ok := b.Lookup(coalition); ok {
		t.Fatal("fresh binding must miss")
	}
	_, g, _ := b.Lookup(coalition)
	b.Store(g, coalition, 0.5)
	if v, _, ok := b.Lookup(coalition); !ok || v != 0.5 {
		t.Fatalf("binding lookup after store = (%v, %v)", v, ok)
	}
	// A second binding for the same descriptor sees the same entries.
	b2 := e.Bind("game", gen)
	if v, _, ok := b2.Lookup(coalition); !ok || v != 0.5 {
		t.Fatalf("re-bound lookup = (%v, %v), want shared hit", v, ok)
	}
	// A different descriptor must not.
	b3 := e.Bind("other", gen)
	if _, _, ok := b3.Lookup(coalition); ok {
		t.Fatal("distinct descriptor must not share coalition values")
	}
	// A generation move invalidates.
	moved := e.Bind("game", func() uint64 { return 43 })
	if _, _, ok := moved.Lookup(coalition); ok {
		t.Fatal("generation bump must invalidate")
	}
}

func TestBindingStaleStoreDropped(t *testing.T) {
	e := NewEngine(1)
	cur := uint64(10)
	b := e.Bind("game", func() uint64 { return cur })
	coalition := []bool{true}
	_, gen, _ := b.Lookup(coalition)
	// A table edit lands while the value is being computed.
	cur = 11
	b.Store(gen, coalition, 0.25)
	if _, _, ok := b.Lookup(coalition); ok {
		t.Fatal("store stamped with a stale generation must be dropped")
	}
}

// TestMemoGenerations: a store at a newer generation drops every older
// entry, a store at an older generation is dropped, and diffs and
// report entries under one descriptor never answer for each other.
func TestMemoGenerations(t *testing.T) {
	c := NewMemo()
	c.Store("repair", 4, diffFixture())
	c.StoreEntries("report", 4, []shapley.Entry{{Name: "t1[A]", Shapley: 1}})
	if _, ok := c.LookupEntries("repair", 4); ok {
		t.Fatal("a diff entry must not answer an entries lookup")
	}
	if _, ok := c.Lookup("report", 4); ok {
		t.Fatal("an entries entry must not answer a diff lookup")
	}
	c.StoreEntries("report", 5, []shapley.Entry{{Name: "t1[A]", Shapley: 2}})
	if c.Len() != 1 {
		t.Fatalf("memo holds %d entries after a newer store, want 1", c.Len())
	}
	c.Store("repair", 4, diffFixture())
	if _, ok := c.Lookup("repair", 4); ok {
		t.Fatal("a store at an older generation must be dropped")
	}
	if got, ok := c.LookupEntries("report", 5); !ok || got[0].Shapley != 2 {
		t.Fatalf("current entry = %v, %v", got, ok)
	}
}
