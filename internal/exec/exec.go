// Package exec is the session-scoped execution layer of the T-REx engine:
// one Engine per iterative session owns the compute and cache every hot
// path of that session draws from. Every core.Explainer carries an
// engine — a session's, or a one-worker engine of its own from
// core.NewExplainer — so no path runs without one.
//
//   - Pool: a bounded worker pool. Repair black boxes use it to fan
//     disjoint-bucket passes (full violation derivations, FD-chase group
//     fixes) across cores via repair.PartitionedRepairer; the budget is
//     global to the session, so nested parallelism — sampler workers each
//     running a parallel repair — cannot oversubscribe the machine.
//   - CoalitionCache: the one coalition-value cache, generation-keyed and
//     shared by all of a session's games. Keys are (gameID, packed
//     coalition), with packed []uint64 words above 64 players (the TopK
//     racing rounds, which re-probe prefixes within one run); a bump of
//     the session table's mutation counter (table.Generation, driven by
//     core.Session.SetCell) invalidates every entry lazily, so nothing is
//     discarded wholesale between explains.
//   - Engine: glues the two together and interns stable game IDs from game
//     descriptors, so re-explaining the same cell after an unrelated
//     screen reuses every coalition value already paid for.
//   - Memo: the session's generation-stamped result memo — the
//     clean-table diff of the full black-box repair per (repair
//     descriptor, table generation), so repeat Target()/Repair() calls
//     replay a diff instead of re-running the black box, and the finished
//     report entries of sampled cell and group explains, so a repeat
//     sampled explain is one lookup.
//   - Binding: a game's handle on the shared coalition cache, which is how
//     the *sampled* deterministic paths participate in the cache without
//     wrapping the game or touching its RNG stream: null-policy walks
//     inside SampleAll over rosters of at most 64 players (so exact and
//     sampled paths over one roster share values), and TopK at any width.
//     A sampled SampleAll explain over more players stays unbound: its
//     coalitions are almost never asked for again, and the Memo serves a
//     repeat of the whole explain instead.
//   - Txn: one explain's cache transaction. Its bindings store coalition
//     values straight into the shared cache and log the entries they
//     insert; Commit truncates the log, Abort deletes the logged entries.
//     The explain's Memo entries are staged in the Txn and reach the Memo
//     only at Commit.
//
// The package sits below repair and core (it knows games and tables, never
// constraints or algorithms), which is what lets every layer share it
// without import cycles.
package exec

import (
	"runtime"
	"sync"

	"repro/internal/shapley"
)

// Engine is one session's execution context. Safe for concurrent use; the
// zero value is not usable — construct with NewEngine. Every
// core.Explainer carries one, so its methods take a non-nil receiver.
type Engine struct {
	pool  *Pool
	cache *CoalitionCache
	memo  *Memo
	plans *PlanCache

	mu     sync.Mutex
	ids    map[string]uint64
	nextID uint64
	// txns is the free list Begin draws cache transactions from; openTxns
	// and begunTxns count the ones in flight and ever begun (see Txn).
	txns                []*Txn
	openTxns, begunTxns uint64
}

// NewEngine builds an engine with a worker budget; 0 means GOMAXPROCS.
func NewEngine(workers int) *Engine {
	return &Engine{
		pool:  NewPool(workers),
		cache: NewCoalitionCache(),
		memo:  NewMemo(),
		plans: NewPlanCache(),
		ids:   make(map[string]uint64),
	}
}

// Pool returns the engine's worker pool.
func (e *Engine) Pool() *Pool { return e.pool }

// Workers returns the pool's worker budget.
func (e *Engine) Workers() int { return e.pool.Workers() }

// Cache returns the engine's shared coalition cache.
func (e *Engine) Cache() *CoalitionCache { return e.cache }

// RepairTargets returns the engine's result memo, which holds the repair
// targets and the sampled reports' entries.
func (e *Engine) RepairTargets() *Memo { return e.memo }

// Plans returns the engine's compiled-plan cache.
func (e *Engine) Plans() *PlanCache { return e.plans }

// GameID interns a stable identifier for a game descriptor. Descriptors
// must identify the game's characteristic function up to the table
// generation: same descriptor ⇒ same function for any fixed generation.
// Callers achieve that by folding everything the function closes over —
// algorithm, constraint set, cell, target, policy, player roster — into
// the descriptor string (see core.Explainer).
//
// maxGameIDs bounds the interning map: a session that churns through more
// distinct games than that (constraint-set editing loops) starts over
// rather than growing forever. Fresh IDs never collide with evicted ones,
// so stale cache entries can only miss.
func (e *Engine) GameID(desc string) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id, ok := e.ids[desc]; ok {
		return id
	}
	if len(e.ids) >= maxGameIDs {
		clear(e.ids)
		// Every stored coalition value now belongs to an ID no descriptor
		// can reach again; drop them rather than carry dead weight until
		// the next table edit.
		e.cache.Clear()
	}
	e.nextID++
	e.ids[desc] = e.nextID
	return e.nextID
}

// InvalidateCache drops every memoized coalition value, every Memo entry
// (repair diffs and sampled reports), every compiled constraint-set
// plan, and the game-ID interning table. core.Session calls it on
// constraint edits: AddDC and RemoveDC change every game and repair
// descriptor without touching the table generation, so the previous
// descriptors' entries would otherwise accumulate unreachably for the
// session's lifetime.
func (e *Engine) InvalidateCache() {
	e.mu.Lock()
	clear(e.ids)
	e.mu.Unlock()
	e.cache.Clear()
	e.memo.Clear()
	e.plans.Clear()
}

// maxGameIDs bounds the game-ID interning map (see GameID).
const maxGameIDs = 4096

// CachedGame wraps g with the engine's shared coalition cache under the
// descriptor's interned game ID; gen supplies the current table generation
// (normally table.Generation of the session's dirty table).
func (e *Engine) CachedGame(desc string, gen func() uint64, g shapley.Game) shapley.Game {
	return &CachedGame{b: e.Bind(desc, gen), g: g}
}

// CacheStats reports the shared cache's cumulative hits and misses.
func (e *Engine) CacheStats() (hits, misses uint64) { return e.cache.Stats() }

// HitRate returns hits/(hits+misses) of the shared cache, 0 before any
// lookup.
func (e *Engine) HitRate() float64 {
	hits, misses := e.CacheStats()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// defaultWorkers resolves a 0/negative worker request to GOMAXPROCS.
func defaultWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}
