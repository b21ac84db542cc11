package exec

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/shapley"
	"repro/internal/table"
)

// Txn is one explain's transactional view of the session's shared caches:
// every coalition value, repair diff and sampled report the run computes
// is staged privately and only published to the shared CoalitionCache /
// Memo by Commit. An aborted run (cancellation, deadline, injected fault,
// panic) calls Abort, which drops the staging wholesale — so the shared
// caches are left bit-identical to the run never having started, the
// no-partial-work-poisoning invariant of the fault model (doc.go,
// "Fault model and degradation ladder").
//
// Reads still see the run's own writes: Binding lookups consult the
// staging area first, then the shared cache, so repeat coalitions within
// one explain are served exactly as they were when stores were direct.
// Values are deterministic per (game, coalition, generation), which is
// what makes deferred publication invisible to results: a committed and
// an uncommitted run compute bit-identical estimates, the only difference
// is whether the *next* run starts warm.
//
// A nil *Txn is a valid "no transaction" value outside an entry point:
// the staged probes miss, so a binding without a transaction reads the
// shared cache directly, and Commit and Abort are no-ops. A Txn is safe
// for the concurrent goroutines one explain fans out (sampler workers all
// staging into it), but must not be shared by concurrent explains — each
// run begins its own.
type Txn struct {
	e *Engine

	// staged counts every store into the transaction. Lookups load it
	// before taking the mutex: a shared-cache-warm explain never stages
	// anything, and its (hot, per-sample) staged-first lookups must cost
	// one atomic load, not a lock acquisition plus an empty map probe.
	// A lookup racing a concurrent store of a *different* key may read 0
	// and skip the maps — harmless, the shared cache answers exactly as it
	// would have inside the transaction; same-key compute-then-lookup
	// happens on one goroutine, which always sees its own increment.
	staged atomic.Uint64

	mu   sync.Mutex
	coal map[txnCoalKey]float64
	// wide holds >64-player staged stores, hash-chained exactly like the
	// shared cache's wide shards (hash → entries compared by game, gen and
	// packed words), so staged probes and Commit's republication cost what
	// the shared cache's own probes and stores do.
	wide map[uint64][]txnWideEntry
	// memo holds staged Memo entries in store order, so Commit publishes
	// them in a fixed order. An explain stages one or two.
	memo []txnMemoEntry
}

// txnCoalKey identifies one staged ≤64-player coalition value.
type txnCoalKey struct {
	game uint64
	gen  uint64
	bits uint64
}

// txnWideEntry is one staged >64-player coalition value.
type txnWideEntry struct {
	game  uint64
	gen   uint64
	words []uint64
	v     float64
}

// txnMemoEntry is one staged Memo entry.
type txnMemoEntry struct {
	desc string
	memoEntry
}

// Begin opens a cache transaction on the engine.
func (e *Engine) Begin() *Txn { return &Txn{e: e} }

// Bind is Engine.Bind routed through the transaction: the returned
// binding's stores stage into the txn and its lookups see staged values
// first.
func (t *Txn) Bind(desc string, gen func() uint64) *Binding {
	b := t.e.Bind(desc, gen)
	b.txn = t
	return b
}

// CachedGame is Engine.CachedGame with the binding routed through the
// transaction.
func (t *Txn) CachedGame(desc string, gen func() uint64, g shapley.Game) shapley.Game {
	return &CachedGame{b: t.Bind(desc, gen), g: g}
}

// stageNarrow records one pre-packed ≤64-player coalition value in the
// staging area. The packed-key API (here and the three siblings below)
// exists so Binding can pack and hash one coalition exactly once per
// operation and probe staging and the shared cache with the same key —
// wide games evaluate tens of thousands of coalitions per explain, and a
// second packing pass per probe was a measured regression (soccer48 rows).
func (t *Txn) stageNarrow(game, gen, bits uint64, v float64) {
	key := txnCoalKey{game: game, gen: gen, bits: bits}
	t.staged.Add(1)
	t.mu.Lock()
	if t.coal == nil {
		t.coal = make(map[txnCoalKey]float64)
	}
	t.coal[key] = v
	t.mu.Unlock()
}

// stageWide records one pre-packed >64-player coalition value. h must be
// hashPacked(words)^mix64(game) — the same chain key the shared cache
// derives, so Commit republishes into the identical shard buckets. words
// is cloned on insert; callers may reuse the buffer.
func (t *Txn) stageWide(game, gen, h uint64, words []uint64, v float64) {
	t.staged.Add(1)
	t.mu.Lock()
	if t.wide == nil {
		t.wide = make(map[uint64][]txnWideEntry)
	}
	for i, e := range t.wide[h] {
		if e.game == game && e.gen == gen && slices.Equal(e.words, words) {
			t.wide[h][i].v = v
			t.mu.Unlock()
			return
		}
	}
	//lint:allow allocfree staging a new wide entry must own its packed key; restaging an existing key updates in place above
	t.wide[h] = append(t.wide[h], txnWideEntry{game: game, gen: gen, words: slices.Clone(words), v: v})
	t.mu.Unlock()
}

// stagedNarrow looks a pre-packed ≤64-player coalition value up in the
// staging area.
func (t *Txn) stagedNarrow(game, gen, bits uint64) (float64, bool) {
	if t == nil || t.staged.Load() == 0 {
		return 0, false
	}
	key := txnCoalKey{game: game, gen: gen, bits: bits}
	t.mu.Lock()
	v, ok := t.coal[key]
	t.mu.Unlock()
	return v, ok
}

// stagedWide looks a pre-packed >64-player coalition value up in the
// staging area; h as in stageWide.
func (t *Txn) stagedWide(game, gen, h uint64, words []uint64) (float64, bool) {
	if t == nil || t.staged.Load() == 0 {
		return 0, false
	}
	t.mu.Lock()
	for _, e := range t.wide[h] {
		if e.game == game && e.gen == gen && slices.Equal(e.words, words) {
			t.mu.Unlock()
			return e.v, true
		}
	}
	t.mu.Unlock()
	return 0, false
}

// RepairLookup is Memo.Lookup with the transaction's staged diffs
// consulted first. Nil-safe on the txn.
func (t *Txn) RepairLookup(desc string, gen uint64) ([]table.CellDiff, bool) {
	if t == nil {
		return nil, false
	}
	if e, ok := t.stagedMemo(desc, gen, memoDiffs); ok {
		return e.diffs, true
	}
	return t.e.RepairTargets().Lookup(desc, gen)
}

// RepairStore stages one repair diff for publication at Commit.
func (t *Txn) RepairStore(desc string, gen uint64, diffs []table.CellDiff) {
	t.stageMemo(desc, diffsEntry(gen, diffs))
}

// EntriesLookup is Memo.LookupEntries with the transaction's staged
// entries consulted first. Nil-safe like RepairLookup.
func (t *Txn) EntriesLookup(desc string, gen uint64) ([]shapley.Entry, bool) {
	if t == nil {
		return nil, false
	}
	if e, ok := t.stagedMemo(desc, gen, memoEntries); ok {
		return e.entries, true
	}
	return t.e.RepairTargets().LookupEntries(desc, gen)
}

// EntriesStore stages one explain's report entries for publication at
// Commit.
func (t *Txn) EntriesStore(desc string, gen uint64, entries []shapley.Entry) {
	t.stageMemo(desc, entriesEntry(gen, entries))
}

// stagedMemo finds a staged Memo entry of the given kind at gen.
func (t *Txn) stagedMemo(desc string, gen uint64, kind memoKind) (memoEntry, bool) {
	if t.staged.Load() == 0 {
		return memoEntry{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.memo {
		if e.desc == desc && e.gen == gen && e.kind == kind {
			return e.memoEntry, true
		}
	}
	return memoEntry{}, false
}

// stageMemo stages one owned Memo entry, replacing an earlier one for the
// same descriptor.
func (t *Txn) stageMemo(desc string, e memoEntry) {
	if t == nil {
		return
	}
	faults.Hit(faults.SiteCacheStore)
	t.staged.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.memo {
		if t.memo[i].desc == desc {
			t.memo[i].memoEntry = e
			return
		}
	}
	t.memo = append(t.memo, txnMemoEntry{desc: desc, memoEntry: e})
}

// Commit publishes every staged value to the shared caches. Stores carry
// their original generation stamps, so values computed before a concurrent
// table edit are dropped by the caches' generation guards exactly as
// direct stores would have been. Commit leaves the txn empty; committing
// a nil txn is a no-op.
func (t *Txn) Commit() {
	if t == nil {
		return
	}
	t.mu.Lock()
	coal, wide, memo := t.coal, t.wide, t.memo
	t.coal, t.wide, t.memo = nil, nil, nil
	t.mu.Unlock()
	//lint:allow detmap republication into a keyed cache: keys are unique, last-write-wins per key, order cannot affect contents
	for key, v := range coal {
		t.e.cache.storeNarrow(key.game, key.gen, key.bits, v)
	}
	//lint:allow detmap republication into a keyed cache: keys are unique, last-write-wins per key, order cannot affect contents
	for h, es := range wide {
		for _, e := range es {
			t.e.cache.storeWideH(e.game, e.gen, h, e.words, e.v)
		}
	}
	for _, e := range memo {
		t.e.memo.store(e.desc, e.memoEntry)
	}
}

// Abort drops every staged value. The shared caches never saw them, so
// post-abort they are bit-identical to the run never having started.
// Nil-safe.
func (t *Txn) Abort() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.coal, t.wide, t.memo = nil, nil, nil
	t.mu.Unlock()
}
