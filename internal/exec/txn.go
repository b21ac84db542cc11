package exec

import (
	"sync"

	"repro/internal/faults"
	"repro/internal/shapley"
	"repro/internal/table"
)

// Txn is one explain's cache transaction, rolled back through an undo log
// like core's scratch tables. Coalition values go straight into the
// shared CoalitionCache, and the txn logs each entry a store newly
// inserted. Commit truncates the log and publishes the staged Memo
// entries; Abort (cancellation, deadline, injected fault, panic) deletes
// each logged entry while its shard is still at the logged generation and
// holds it, and drops the staging. Entries that existed before the run,
// or came back after their shard moved on, survive, so the shared caches
// are bit-identical to the run never having started: the
// no-partial-work-poisoning invariant of the fault model (doc.go, "Fault
// model and degradation ladder"). Entries of an older generation that the
// run's lookups or stores cleared stay gone; generations only grow, so
// nothing can reach them again. Memo entries keep their staging, because
// Memo.store may start a generation over or evict, and undoing it would
// mean restoring evicted entries.
//
// A concurrent explain on the same engine may read another run's
// uncommitted coalition values. That is sound because a value is stored
// only after its own evaluation returned without error, and values are
// deterministic per (game, coalition, generation). Since the reader may
// have relied on them, a txn whose lifetime overlapped another txn keeps
// its inserts on Abort; a server session runs one request at a time, so
// there every abort rolls back. TestConcurrentExplainAbortKeepsSoloCache
// (internal/core) checks that a run beside an aborted one answers, and
// leaves the cache, exactly as a solo run.
//
// A nil *Txn means "no transaction": bindings without one log nothing,
// and Commit and Abort are no-ops. A Txn is safe for the goroutines one
// explain fans out, but each explain begins its own, and neither the txn
// nor its bindings may be used after Commit or Abort returns it to the
// engine.
type Txn struct {
	e *Engine
	// began is the engine's begin count after this txn's Begin, and
	// overlapped records that another txn was open at that moment; Abort
	// reads both to tell whether any other txn overlapped this one.
	began      uint64
	overlapped bool

	mu     sync.Mutex
	narrow []narrowUndo
	wide   []wideUndo
	// memo holds staged Memo entries in store order, so Commit publishes
	// them in a fixed order.
	memo []txnMemoEntry
}

// narrowUndo is one ≤64-player entry the txn inserted.
type narrowUndo struct {
	game, gen, bits uint64
}

// wideUndo is one >64-player entry the txn inserted; words is the cache
// entry's own key slice, so Abort deletes that very entry.
type wideUndo struct {
	gen, h uint64
	words  []uint64
}

// txnMemoEntry is one staged Memo entry.
type txnMemoEntry struct {
	desc string
	memoEntry
}

// Begin opens a cache transaction on the engine, reusing a released one.
func (e *Engine) Begin() *Txn {
	e.mu.Lock()
	defer e.mu.Unlock()
	var t *Txn
	if n := len(e.txns); n > 0 {
		t, e.txns = e.txns[n-1], e.txns[:n-1]
	} else {
		t = &Txn{e: e}
	}
	e.openTxns++
	e.begunTxns++
	t.began, t.overlapped = e.begunTxns, e.openTxns > 1
	return t
}

// Bind is Engine.Bind routed through the transaction: the returned
// binding logs the entries its stores insert.
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

// logNarrow records a ≤64-player entry a store of this txn inserted.
//
//lint:hotpath
func (t *Txn) logNarrow(game, gen, bits uint64) {
	t.mu.Lock()
	t.narrow = append(t.narrow, narrowUndo{game: game, gen: gen, bits: bits})
	t.mu.Unlock()
}

// logWide records a >64-player entry a store of this txn inserted; words
// is the entry's own key slice.
//
//lint:hotpath
func (t *Txn) logWide(gen, h uint64, words []uint64) {
	t.mu.Lock()
	t.wide = append(t.wide, wideUndo{gen: gen, h: h, words: words})
	t.mu.Unlock()
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

// Commit keeps every coalition value the run stored and publishes the
// staged Memo entries. They carry their original generation stamps, so
// entries computed before a concurrent table edit are dropped by the
// Memo's generation guard. Committing a nil txn is a no-op.
func (t *Txn) Commit() {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, e := range t.memo {
		t.e.memo.store(e.desc, e.memoEntry)
	}
	t.mu.Unlock()
	t.e.mu.Lock()
	t.e.endTxn(t)
	t.e.mu.Unlock()
}

// Abort deletes the coalition entries the run inserted, unless another
// txn overlapped it (see Txn), and drops the staged Memo entries.
// Nil-safe.
func (t *Txn) Abort() {
	if t == nil {
		return
	}
	e := t.e
	// Holding e.mu keeps a new txn from beginning, and reading entries
	// about to be deleted, while the log is undone.
	e.mu.Lock()
	defer e.mu.Unlock()
	if !t.overlapped && e.begunTxns == t.began {
		t.mu.Lock()
		for _, u := range t.narrow {
			e.cache.unstoreNarrow(u.game, u.gen, u.bits)
		}
		for _, u := range t.wide {
			e.cache.unstoreWide(u.gen, u.h, u.words)
		}
		t.mu.Unlock()
	}
	e.endTxn(t)
}

// endTxn empties a finished txn and returns it to the engine's free list;
// callers hold e.mu.
func (e *Engine) endTxn(t *Txn) {
	t.narrow = t.narrow[:0]
	clear(t.wide)
	t.wide = t.wide[:0]
	clear(t.memo)
	t.memo = t.memo[:0]
	e.openTxns--
	e.txns = append(e.txns, t)
}
