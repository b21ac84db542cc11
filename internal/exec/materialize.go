package exec

import (
	"sync"

	"repro/internal/shapley"
	"repro/internal/table"
)

// Memo is the session's result memo: finished results that are a pure
// function of a descriptor and the table contents, stamped with the table
// generation they were computed at. It holds two payloads under one
// discipline:
//
//   - repair-target diffs (Lookup, Store): the *diff* between the dirty
//     table and its full black-box repair, per repair descriptor
//     (algorithm + constraint-set fingerprint, interned by core). Target()
//     and every Explain* entry point resolve the clean value of the cell
//     of interest through it, so repeat calls replay the stored diff
//     instead of re-running the black box. A diff, not the clean table, is
//     stored: the dirty table is live session state, so the clean table is
//     reconstructed as clone-plus-patch on demand, and target resolution
//     for one cell needs no reconstruction at all (scan the diff).
//   - sampled reports (LookupEntries, StoreEntries): the finished report
//     entries of a sampled cell or group explain — named and sorted — per
//     (game descriptor, Samples, Seed, Policy). Estimates are
//     bit-identical for every worker count, so Workers is not part of the
//     key. A repeat explain is one lookup and one copy: it runs no black
//     box, probes no coalition cache, and names and sorts nothing.
//
// Invalidation: any table mutation — a SetCell, a row insert or delete, a
// batch bracket — bumps the table generation, so the next Lookup misses.
// Generations only grow, so a store at a newer generation drops every
// entry of older ones, and a store at an older generation (computed while
// an edit landed) is dropped. At most maxMemoEntries entries live per
// generation. AddDC/RemoveDC re-key every descriptor, and
// Engine.InvalidateCache clears the memo. Safe for concurrent use.
//
// Row identity: the stored diffs hold CellRefs whose Row indexes are only
// meaningful at the generation they were stamped with. A DeleteRow
// renumbers one survivor (the swap-delete rule moves the last row into
// the vacated index), so a diff replayed across a structural edit would
// silently patch the wrong tuple — the generation mismatch above is what
// makes that unrepresentable: structural edits always bump the
// generation, the stale entry can never be returned, and no remapping of
// cached CellRefs is ever attempted.
type Memo struct {
	mu sync.Mutex
	// gen is the newest generation stored; every entry belongs to it.
	gen     uint64
	entries map[string]memoEntry
	// hits and misses count repair-target lookups (Stats); entryHits and
	// entryMisses count sampled-report lookups (EntryStats).
	hits, misses           uint64
	entryHits, entryMisses uint64
}

// memoKind discriminates the memo's payloads.
type memoKind uint8

const (
	memoDiffs memoKind = iota
	memoEntries
)

// memoEntry is one memoized result: the generation it was computed at and
// its payload (owned by the memo; callers get read-only views).
type memoEntry struct {
	gen     uint64
	kind    memoKind
	diffs   []table.CellDiff
	entries []shapley.Entry
}

// maxMemoEntries bounds the entries of one generation: the repair diff
// plus the reports of the cells a user explains between two edits. A
// store past it starts the generation over.
const maxMemoEntries = 8

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{entries: make(map[string]memoEntry)}
}

// Lookup returns the memoized repair diff for desc at generation gen. The
// returned slice is owned by the memo and must be treated as read-only;
// ok is false on an unknown descriptor or a generation mismatch (the
// table was edited since the diff was stored).
func (c *Memo) Lookup(desc string, gen uint64) ([]table.CellDiff, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.lookup(desc, gen, memoDiffs)
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	return e.diffs, true
}

// LookupEntries returns the memoized report entries for desc at
// generation gen, read-only like Lookup's diffs.
func (c *Memo) LookupEntries(desc string, gen uint64) ([]shapley.Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.lookup(desc, gen, memoEntries)
	if !ok {
		c.entryMisses++
		return nil, false
	}
	c.entryHits++
	return e.entries, true
}

// lookup finds desc's entry of the given kind at gen; callers hold mu.
func (c *Memo) lookup(desc string, gen uint64, kind memoKind) (memoEntry, bool) {
	e, ok := c.entries[desc]
	if !ok || e.gen != gen || e.kind != kind {
		return memoEntry{}, false
	}
	return e, true
}

// Store memoizes the repair diff for desc at generation gen. The diff is
// copied.
func (c *Memo) Store(desc string, gen uint64, diffs []table.CellDiff) {
	c.store(desc, diffsEntry(gen, diffs))
}

// StoreEntries memoizes the report entries for desc at generation gen.
// The slice is copied.
func (c *Memo) StoreEntries(desc string, gen uint64, entries []shapley.Entry) {
	c.store(desc, entriesEntry(gen, entries))
}

func diffsEntry(gen uint64, diffs []table.CellDiff) memoEntry {
	return memoEntry{gen: gen, kind: memoDiffs, diffs: append([]table.CellDiff(nil), diffs...)}
}

func entriesEntry(gen uint64, entries []shapley.Entry) memoEntry {
	return memoEntry{gen: gen, kind: memoEntries, entries: append([]shapley.Entry(nil), entries...)}
}

// store publishes one owned entry under the generation rules of the type
// comment.
func (c *Memo) store(desc string, e memoEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case e.gen < c.gen:
		return
	case e.gen > c.gen:
		clear(c.entries)
		c.gen = e.gen
	}
	if _, ok := c.entries[desc]; !ok && len(c.entries) >= maxMemoEntries {
		clear(c.entries)
	}
	c.entries[desc] = e
}

// Len returns the number of memoized entries (test and diagnostics
// introspection; zero after an aborted explain that started cold).
func (c *Memo) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Clear drops every entry (hit/miss statistics survive).
func (c *Memo) Clear() {
	c.mu.Lock()
	clear(c.entries)
	c.mu.Unlock()
}

// Stats returns cumulative hits and misses of repair-target lookups.
func (c *Memo) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// EntryStats returns cumulative hits and misses of sampled-report lookups
// (LookupEntries), kept apart from Stats so its repair-target ratio keeps
// its meaning.
func (c *Memo) EntryStats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entryHits, c.entryMisses
}
