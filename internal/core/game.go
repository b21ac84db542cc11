package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/repair"
	"repro/internal/shapley"
	"repro/internal/table"
)

// ReplacementPolicy selects what happens to cells outside a coalition in
// the cell game.
type ReplacementPolicy uint8

const (
	// ReplaceWithNull nulls absent cells — the paper's formal definition
	// ("∀tj[C] ∈ T_d \ S. tj[C] = null"). Deterministic.
	ReplaceWithNull ReplacementPolicy = iota
	// ReplaceFromColumn draws absent cells from their column's empirical
	// distribution — the Example 2.5 sampling procedure. Stochastic.
	ReplaceFromColumn
)

// CellGame is the cell game of §2.2. A player is a set of cells: present,
// its cells keep their dirty values; absent, all of them are replaced per
// the policy. v(S) = 1 iff the black box, run on the masked table, repairs
// the cell of interest to the target value. A cell player is the one-cell
// set (NewCellGame, CellPlayers, RelevantCellPlayers); rows, columns and
// explicit groups are larger sets, which may overlap (NewCellGameOfGroups).
//
// The cell of interest itself is pinned: it keeps its dirty value in every
// coalition and belongs to no player. The repair event "España → Spain" is
// undefined on a table that does not contain the España being repaired;
// pinning makes the game well-defined and reproduces the ranking of
// Example 2.4 (t5[League] on top). Treating the cell of interest as a
// player instead makes it an almost-veto player that dominates the ranking
// — an artifact, not an explanation (experiment ex24 checks the ranking).
//
// The grand coalition masks nothing, so its evaluation is the full repair:
// every evaluation path but CloneEval reads it off the repair-target memo
// at the evaluation's generation (Explainer.grandValue) and runs the black
// box only on a memo miss.
type CellGame struct {
	exp    *Explainer
	cell   table.CellRef
	target table.Value
	policy ReplacementPolicy
	// repairDesc is the explainer's repair-target descriptor, resolved at
	// construction so evaluation workers never build it.
	repairDesc string
	// stats holds the column distributions ReplaceFromColumn draws from;
	// nil under the null policy, which never reads them.
	stats *table.Stats
	// groups are the caller's groups of a group roster, nil for a cell
	// roster; only the shared-cache descriptor reads them.
	groups []CellGroup
	layout gameLayout
	// scratch pools reusable clones of the dirty table. Every evaluation
	// borrows one, masks absent cells in place, runs the black box, and
	// restores only the masked cells — zero steady-state allocation instead
	// of one full Clone + O(cells) masking pass per evaluation.
	scratch sync.Pool
	// snapGen is the dirty-table generation the stats snapshot and the
	// pooled scratch clones reflect. Session edits between evaluations bump
	// the live table's generation; sync re-snapshots lazily and getScratch
	// drops older clones, so a stale cell is never restored into a scratch.
	// Read atomically on the eval hot path.
	snapGen uint64
	// syncMu serializes re-snapshotting.
	syncMu sync.Mutex
	// shared is the game's handle on the engine's shared coalition cache
	// (nil until BindSharedCache enrolls the game). Only the deterministic
	// null policy consults it: under ReplaceFromColumn a coalition's value
	// is a random realization, which must never be memoized.
	shared *exec.Binding
}

// gameLayout is the static geometry of a roster's cells, fixed at
// construction. Values are never stored here (they are read live from the
// dirty table, which session edits may move); only the shape is.
type gameLayout struct {
	// refs lists, player by player, every player's cells; player k's are
	// refs[off[k]:off[k+1]]. A cell in several players (or twice in one)
	// occurs once per membership. The masking paths read these; they
	// reslice off to the coalition's length so the compiler drops the
	// per-player bounds checks.
	refs []table.CellRef
	off  []int32
	// flat lists every player cell once, and occ[j] is the flat index of
	// refs[j]: the walk's reference counts are per flat cell. For a roster
	// of distinct cells flat is refs and occ the identity.
	flat []table.CellRef
	occ  []int32
	// base[i] counts the occurrences of flat[i] across all players: the
	// all-absent mask counts a walk Reset copies wholesale.
	base []int32
}

// flatIdx returns the flat indexes of player k's cells.
func (lo *gameLayout) flatIdx(k int) []int32 { return lo.occ[lo.off[k]:lo.off[k+1]] }

// cellLayout lays out a roster of distinct cells, one player each. The
// cells are distinct by construction, so no dedup map is built.
func cellLayout(cells []table.CellRef) gameLayout {
	n := len(cells)
	lo := gameLayout{refs: cells, off: make([]int32, n+1), flat: cells, occ: make([]int32, n), base: make([]int32, n)}
	for k := range cells {
		lo.off[k+1] = int32(k + 1)
		lo.occ[k] = int32(k)
		lo.base[k] = 1
	}
	return lo
}

// groupLayout lays out a group roster: each group without the pinned cell,
// with cells shared between groups (or repeated in one) stored once in
// flat.
func groupLayout(t *table.Table, cell table.CellRef, groups []CellGroup) gameLayout {
	lo := gameLayout{off: make([]int32, 1, len(groups)+1)}
	byVec := make(map[int]int32)
	for _, g := range groups {
		for _, ref := range g.Cells {
			if ref == cell {
				continue
			}
			vi := t.VecIndex(ref)
			fi, ok := byVec[vi]
			if !ok {
				fi = int32(len(lo.flat))
				byVec[vi] = fi
				lo.flat = append(lo.flat, ref)
				lo.base = append(lo.base, 0)
			}
			lo.base[fi]++
			lo.refs = append(lo.refs, ref)
			lo.occ = append(lo.occ, fi)
		}
		lo.off = append(lo.off, int32(len(lo.occ)))
	}
	return lo
}

// gameScratch is one pooled working table.
type gameScratch struct {
	tbl *table.Table
	// gen is the dirty-table generation the clone was taken at; a pooled
	// scratch from before a session edit is discarded instead of reused.
	gen uint64
}

// NewCellGame builds the cell game over every cell but the cell of
// interest, in row-major order; target must be the clean value from
// Target.
func (e *Explainer) NewCellGame(cell table.CellRef, target table.Value, policy ReplacementPolicy) *CellGame {
	return e.newCellGame(cell, target, policy, &roster{players: CellPlayers, cell: cell})
}

// NewCellGameOfGroups builds the cell game whose player k is groups[k];
// target must be the clean value from Target.
func (e *Explainer) NewCellGameOfGroups(cell table.CellRef, target table.Value, policy ReplacementPolicy, groups []CellGroup) *CellGame {
	return e.newCellGame(cell, target, policy, &roster{players: GroupPlayers, cell: cell, groups: groups})
}

// newCellGame builds the cell game over a cell or group roster.
func (e *Explainer) newCellGame(cell table.CellRef, target table.Value, policy ReplacementPolicy, r *roster) *CellGame {
	g := &CellGame{
		exp:        e,
		cell:       cell,
		target:     target,
		policy:     policy,
		repairDesc: e.repairDesc(),
		snapGen:    e.Dirty.Generation(),
	}
	if policy == ReplaceFromColumn {
		g.stats = table.NewStats(e.Dirty)
	}
	switch r.players {
	case CellPlayers, RelevantCellPlayers:
		g.layout = cellLayout(r.cells(e))
	default:
		g.groups = r.groups
		g.layout = groupLayout(e.Dirty, cell, r.groups)
	}
	return g
}

// sync re-snapshots the column statistics (if the policy keeps any) and
// advances the game's snapshot generation when the live dirty table was
// edited since the last snapshot (core.Session.SetCell between
// evaluations). Pooled scratch clones from older generations are
// discarded lazily by getScratch. Evaluations running concurrently with an
// edit are not supported (the table itself is not concurrency-safe); sync
// makes the sequential edit→re-evaluate loop of §3/§4 correct without
// rebuilding the game. Note the game's target is a caller-supplied
// constant: if the edit changes what the full repair assigns to the cell
// of interest, the caller must derive a new target (and usually a new
// game) — sync keeps v(S) well-defined, not the question unchanged.
func (g *CellGame) sync() {
	cur := g.exp.Dirty.Generation()
	if atomic.LoadUint64(&g.snapGen) == cur {
		return
	}
	g.syncMu.Lock()
	defer g.syncMu.Unlock()
	if g.snapGen == cur {
		return
	}
	// Catch the stats snapshot up from the edit log (per-column deltas;
	// equivalent to a full rebuild) instead of rebuilding wholesale.
	if g.stats != nil {
		g.stats.Sync(g.exp.Dirty)
	}
	atomic.StoreUint64(&g.snapGen, cur)
}

func (g *CellGame) getScratch() *gameScratch {
	gen := atomic.LoadUint64(&g.snapGen)
	for {
		sc, ok := g.scratch.Get().(*gameScratch)
		if !ok {
			break
		}
		if sc.gen == gen {
			return sc
		}
		// Stale clone from before a session edit: drop it.
	}
	return &gameScratch{tbl: g.exp.Dirty.Clone(), gen: gen}
}

// BindSharedCache enrolls the game's deterministic coalition evaluations —
// Value, and the null-policy walk values driven by SampleAll and TopK — in
// the engine's shared coalition cache. The descriptor folds in the cell,
// target and the exact roster (positional keys); a stochastic policy
// leaves the game unbound. Values are deterministic per (coalition,
// generation), so cache participation can never change an estimate — in
// particular the Workers=1 ≡ Workers=N bit-identity of the samplers is
// preserved (no RNG draw is skipped: the null policy consumes none during
// Value).
func (g *CellGame) BindSharedCache() {
	if g.policy != ReplaceWithNull {
		return
	}
	kind, players := "cell-game-null", "players="+playersDesc(g.exp.Dirty, g.layout.flat)
	if g.groups != nil {
		kind, players = "group-game-null", "groups="+groupsDesc(g.exp.Dirty, g.groups)
	}
	g.shared = g.exp.bind(g.exp.gameDesc(kind, "cell="+refDesc(g.cell), "target="+targetDesc(g.target), players))
}

// NumPlayers implements shapley.Game and shapley.StochasticGame.
func (g *CellGame) NumPlayers() int { return len(g.layout.off) - 1 }

// Value implements shapley.Game under the deterministic null policy.
// It errors for ReplaceFromColumn, which needs an RNG — use SampleValue.
func (g *CellGame) Value(ctx context.Context, coalition []bool) (float64, error) {
	if g.policy != ReplaceWithNull {
		return 0, fmt.Errorf("core: deterministic Value requires ReplaceWithNull; use SampleValue for ReplaceFromColumn")
	}
	return g.eval(ctx, coalition, nil)
}

// SampleValue implements shapley.StochasticGame: absent cells are replaced
// per the policy, with randomness (if any) drawn from rng.
func (g *CellGame) SampleValue(ctx context.Context, coalition []bool, rng *rand.Rand) (float64, error) {
	return g.eval(ctx, coalition, rng)
}

// replacement computes the out-of-coalition value of a cell of column col
// per the policy, drawing from the column distribution in stats under
// ReplaceFromColumn.
func replacement(policy ReplacementPolicy, stats *table.Stats, col int, rng *rand.Rand) (table.Value, error) {
	switch policy {
	case ReplaceWithNull:
		return table.Null(), nil
	case ReplaceFromColumn:
		if rng == nil {
			return table.Null(), fmt.Errorf("core: ReplaceFromColumn needs an RNG")
		}
		v, ok := stats.Column(col).Sample(rng)
		if !ok {
			v = table.Null()
		}
		return v, nil
	default:
		return table.Null(), fmt.Errorf("core: unknown replacement policy %d", policy)
	}
}

// maskAbsent replaces on tbl the cells of every player absent from
// coalition, in (player, cell) order — the order every evaluation path
// draws replacements in, so all of them consume rng alike; a cell shared
// by absent players keeps the last draw. Cancellation is polled once per
// evaluation here; the black box polls it during the repair.
func (g *CellGame) maskAbsent(ctx context.Context, tbl *table.Table, coalition []bool, rng *rand.Rand) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	refs, off := g.layout.refs, g.layout.off[:len(coalition)+1]
	//lint:allow ctxflow masking is bounded by the roster's cells and precedes one black-box run, which polls ctx itself
	for k, in := range coalition {
		if in {
			continue
		}
		for _, ref := range refs[off[k]:off[k+1]] {
			v, err := replacement(g.policy, g.stats, ref.Col, rng)
			if err != nil {
				return err
			}
			tbl.SetRef(ref, v)
		}
	}
	return nil
}

// restoreAbsent returns every cell maskAbsent may have replaced on tbl to
// its dirty value, so a pooled scratch goes back clean.
func (g *CellGame) restoreAbsent(tbl *table.Table, coalition []bool) {
	dirty := g.exp.Dirty
	refs, off := g.layout.refs, g.layout.off[:len(coalition)+1]
	for k, in := range coalition {
		if in {
			continue
		}
		for _, ref := range refs[off[k]:off[k+1]] {
			tbl.SetRef(ref, dirty.GetRef(ref))
		}
	}
}

// cellRepaired reads whether the black box, run on the coalition masked on
// sc, repairs the cell of interest to the target. With grand set (no player
// absent, so sc holds the full input) the memoized full repair at sc's
// generation answers instead when there is one.
func (g *CellGame) cellRepaired(ctx context.Context, sc *gameScratch, grand bool) (float64, error) {
	if grand {
		if v, ok := g.exp.grandValue(g.repairDesc, sc.gen, sc.tbl, g.cell, g.target); ok {
			return v, nil
		}
	}
	return repair.CellRepairedPlanned(ctx, g.exp.Alg, g.exp.DCs, sc.tbl, g.cell, g.target, g.exp.pool(), g.exp.planner())
}

// eval is the scratch-table fast path: borrow a pooled working table, mask
// absent cells in place, run the black box, restore only the masked cells.
// Steady state it allocates nothing (see TestCellGameEvalAllocs). Bound
// deterministic games consult the session's shared coalition cache first.
func (g *CellGame) eval(ctx context.Context, coalition []bool, rng *rand.Rand) (float64, error) {
	// g.shared is nil unless BindSharedCache enrolled this (null-policy)
	// game, and a nil binding always misses, so no policy branch is needed:
	// stochastic realizations can never be memoized. evalUncached syncs to
	// the live generation, so a value computed after a concurrent edit
	// carries a stale gen stamp and is dropped by Store.
	v, gen, ok := g.shared.Lookup(coalition)
	if ok {
		return v, nil
	}
	v, err := g.evalUncached(ctx, coalition, rng)
	if err == nil {
		g.shared.Store(gen, coalition, v)
	}
	return v, err
}

// evalUncached is eval without the shared-cache consult.
func (g *CellGame) evalUncached(ctx context.Context, coalition []bool, rng *rand.Rand) (float64, error) {
	g.sync()
	sc := g.getScratch()
	err := g.maskAbsent(ctx, sc.tbl, coalition, rng)
	var v float64
	if err == nil {
		v, err = g.cellRepaired(ctx, sc, !slices.Contains(coalition, false))
	}
	g.restoreAbsent(sc.tbl, coalition)
	g.scratch.Put(sc)
	return v, err
}

// evalClone is the seed's clone-per-evaluation path, kept for
// cross-validation: the golden equivalence tests prove the scratch and walk
// paths reproduce its estimates bit-for-bit. Reach it through CloneEval.
func (g *CellGame) evalClone(ctx context.Context, coalition []bool, rng *rand.Rand) (float64, error) {
	g.sync()
	masked := g.exp.Dirty.Clone()
	if err := g.maskAbsent(ctx, masked, coalition, rng); err != nil {
		return 0, err
	}
	return repair.CellRepaired(ctx, g.exp.Alg, g.exp.DCs, masked, g.cell, g.target)
}

// CloneEval returns a view of the game that evaluates through the
// clone-per-evaluation path and hides the IncrementalGame interface, so
// samplers take their generic path. It exists for cross-validation (golden
// equivalence tests) and A/B benchmarks against the walk fast path.
func (g *CellGame) CloneEval() shapley.StochasticGame { return cloneEvalGame{g} }

// cloneEvalGame adapts CellGame to the clone evaluation strategy. It
// deliberately does not implement shapley.IncrementalGame.
type cloneEvalGame struct{ g *CellGame }

// NumPlayers implements shapley.StochasticGame.
func (c cloneEvalGame) NumPlayers() int { return c.g.NumPlayers() }

// SampleValue implements shapley.StochasticGame.
func (c cloneEvalGame) SampleValue(ctx context.Context, coalition []bool, rng *rand.Rand) (float64, error) {
	return c.g.evalClone(ctx, coalition, rng)
}

// Value implements shapley.Game under the deterministic null policy.
func (c cloneEvalGame) Value(ctx context.Context, coalition []bool) (float64, error) {
	if c.g.policy != ReplaceWithNull {
		return 0, fmt.Errorf("core: deterministic Value requires ReplaceWithNull; use SampleValue for ReplaceFromColumn")
	}
	return c.g.evalClone(ctx, coalition, nil)
}

// NewWalk implements shapley.IncrementalGame: the samplers' permutation
// prefix walks grow the coalition one player at a time, and under the null
// policy each step costs one SetRef per cell of the included player
// instead of a full mask rebuild. Players may overlap, so the walk
// reference-counts masked cells: a cell returns to its dirty value only
// when the last absent player containing it joins the coalition — exactly
// the final state the batch mask produces.
//
// The walk is incremental in both directions (shapley.DeltaWalk): Exclude
// re-masks a player, which lets the one-marginal samplers morph between
// consecutive samples' coalitions instead of re-walking all players per
// sample, and Reset restores the all-absent mask baseline with one copy of
// the layout counts.
func (g *CellGame) NewWalk() shapley.CoalitionWalk {
	g.sync()
	return &gameWalk{
		g:         g,
		sc:        g.getScratch(),
		in:        make([]bool, g.NumPlayers()),
		absent:    g.NumPlayers(),
		maskCount: make([]int32, len(g.layout.flat)),
	}
}

// gameWalk holds one borrowed scratch table for a worker's sequence of
// permutation walks. Confined to one goroutine.
type gameWalk struct {
	g  *CellGame
	sc *gameScratch
	// in mirrors coalition membership; needed under ReplaceFromColumn,
	// where every absent player is redrawn per evaluation. absent counts
	// its false entries: zero is the grand coalition.
	in     []bool
	absent int
	// maskCount[i] counts the absent players containing layout.flat[i];
	// positive means masked under the null policy.
	maskCount []int32
	// masked reports whether the scratch currently has absent cells masked
	// (i.e. Reset has run).
	masked bool
}

// Reset implements shapley.CoalitionWalk: empty coalition, every player
// masked. The mask counts are restored by copying the layout baseline and
// the distinct player cells nulled once each.
func (w *gameWalk) Reset() {
	lo := &w.g.layout
	copy(w.maskCount, lo.base)
	for k := range w.in {
		w.in[k] = false
	}
	w.absent = len(w.in)
	if w.g.policy == ReplaceWithNull {
		for _, ref := range lo.flat {
			w.sc.tbl.SetRef(ref, table.Null())
		}
	}
	w.masked = true
}

// Include implements shapley.CoalitionWalk: the per-player delta. Cells
// the player shares with still-absent players stay masked.
func (w *gameWalk) Include(p int) {
	if w.in[p] {
		return
	}
	w.in[p] = true
	w.absent--
	lo := &w.g.layout
	dirty, tbl, counts := w.g.exp.Dirty, w.sc.tbl, w.maskCount
	for _, fi := range lo.flatIdx(p) {
		if counts[fi]--; counts[fi] == 0 {
			ref := lo.flat[fi]
			tbl.SetRef(ref, dirty.GetRef(ref))
		}
	}
}

// Exclude implements shapley.DeltaWalk: the inverse per-player delta. A
// cell re-masks (under the null policy) when its first absent player
// reappears; under ReplaceFromColumn the next Value simply redraws it.
func (w *gameWalk) Exclude(p int) {
	if !w.in[p] {
		return
	}
	w.in[p] = false
	w.absent++
	lo := &w.g.layout
	for _, fi := range lo.flatIdx(p) {
		w.maskCount[fi]++
		if w.maskCount[fi] == 1 && w.g.policy == ReplaceWithNull {
			w.sc.tbl.SetRef(lo.flat[fi], table.Null())
		}
	}
}

// Value implements shapley.CoalitionWalk. Under the null policy the scratch
// already holds the coalition's exact masked state; under column sampling
// every absent player's cells are redrawn by maskAbsent, consuming the RNG
// exactly as the clone path's SampleValue does (the golden-equivalence
// contract).
//
// Null-policy values are deterministic per coalition, so a bound walk
// consults the session's shared coalition cache (keyed by the membership
// mirror) before running the black box — this is how the sampled paths
// participate in the cache without leaving the walk protocol. No RNG is
// consumed under the null policy, so a hit and a computed value leave the
// sampler's RNG stream identical: estimates stay bit-identical for every
// Workers value and every cache state. (A stochastic walk's binding is
// nil — stochastic games never bind — so its Lookup always misses.)
//
// Lookups and stores are both pinned to the *scratch's* snapshot
// generation, not the live one: the walk computes from a table cloned at
// w.sc.gen, so if a concurrent session edit bumped the live generation
// mid-walk, (a) a store of the now-stale value is dropped by the shard's
// generation guard instead of being served as current, and (b) a lookup
// cannot hit a post-edit value some other explain stored — the walk's
// samples all reflect one table state.
func (w *gameWalk) Value(ctx context.Context, rng *rand.Rand) (float64, error) {
	if w.g.policy != ReplaceWithNull {
		if err := w.g.maskAbsent(ctx, w.sc.tbl, w.in, rng); err != nil {
			return 0, err
		}
	}
	if v, ok := w.g.shared.LookupAt(w.sc.gen, w.in); ok {
		return v, nil
	}
	v, err := w.g.cellRepaired(ctx, w.sc, w.absent == 0)
	if err == nil {
		w.g.shared.Store(w.sc.gen, w.in, v)
	}
	return v, err
}

// Close implements shapley.CoalitionWalk: restores the scratch to the dirty
// contents and returns it to the pool.
func (w *gameWalk) Close() {
	if w.masked || w.g.policy != ReplaceWithNull {
		dirty := w.g.exp.Dirty
		for _, ref := range w.g.layout.flat {
			w.sc.tbl.SetRef(ref, dirty.GetRef(ref))
		}
	}
	w.g.scratch.Put(w.sc)
	w.sc = nil
}
