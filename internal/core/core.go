// Package core is the T-REx engine: it glues a black-box repair algorithm,
// a set of denial constraints and a dirty table to the Shapley machinery
// and produces ranked explanations for the repair of a chosen cell —
// the system of Figure 4 in the paper.
//
// The two games of §2.2 are built here:
//
//   - ConstraintGame: players are the DCs, the table is fixed, and
//     v(S) = Alg|t[A](S, T_d). Constraint counts are small, so Shapley
//     values are computed exactly (subset enumeration, memoized).
//   - CellGame: players are the cells of T_d, the constraint set is fixed,
//     and a cell outside the coalition is nulled (the paper's formal
//     definition) or resampled from its column distribution (the
//     Example 2.5 sampling procedure). Cell counts are large, so Shapley
//     values are approximated by permutation sampling.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dc"
	"repro/internal/exec"
	"repro/internal/repair"
	"repro/internal/shapley"
	"repro/internal/table"
)

// Explainer wires the three inputs of T-REx (Figure 4): the repair
// algorithm, the constraint set, and the dirty table.
type Explainer struct {
	// Alg is the black-box repair algorithm.
	Alg repair.Algorithm
	// DCs is the constraint set handed to the algorithm.
	DCs []*dc.Constraint
	// Dirty is T_d.
	Dirty *table.Table
	// Engine, when set, is the session execution layer every hot path
	// draws from: exact enumerations memoize coalition values in its
	// *shared* generation-keyed cache (surviving this explainer and this
	// game), and repairs fan disjoint-bucket passes across its bounded
	// worker pool. Session.Explainer wires it; a nil Engine degrades to
	// per-game caches and serial repair, preserving all semantics.
	Engine *exec.Engine
	// Plan, when set, is the compiled constraint-set query plan for
	// (Dirty's schema, DCs): every black-box repair this explainer runs
	// executes its violation scans behind it — shared hash partitions,
	// selectivity-ordered kernels behind pre-filter bitmaps, carried
	// cardinality hints. Session.Explainer wires it from the engine's plan
	// cache; nil runs the per-constraint reference path. Planning never
	// changes results (the repair.PlannedRepairer contract).
	Plan dc.SetPlanner

	// repairDescMemo caches repairDesc's rendering: the descriptor folds
	// in every constraint's string form, which is too expensive to rebuild
	// on each Target() call of the edit loop's screen refreshes.
	// Session.Explainer pre-fills it (recomputed per session state);
	// otherwise it is built lazily on first use. It is only consistent
	// while Alg and DCs stay untouched — an Explainer's inputs are fixed
	// after construction; build a new Explainer instead of mutating one.
	repairDescMemo string

	// txn is the cache transaction of the public entry point currently
	// running on this explainer (nil between calls, or without an engine).
	// Every store into the session's shared caches — coalition values,
	// repair-target diffs — is staged here and only published when the
	// entry point returns without error; cancellation, deadline expiry and
	// panics abort the staging, leaving the shared caches bit-identical to
	// the call never having started (the no-partial-work-poisoning
	// invariant; see exec.Txn and doc.go). An Explainer is not safe for
	// concurrent use — concurrent explains each take their own Explainer
	// from Session.Explainer(), so each run owns its transaction.
	//
	// The txn is created lazily by liveTxn at the first staged store:
	// entryOpen alone marks a running entry point, so pure cache-hit reads
	// (Target on a warm repair cache, the edit loop's screen refreshes)
	// never allocate a transaction at all.
	txn       *exec.Txn
	entryOpen bool
}

// begin opens the entry point's cache transaction scope; the bracket is
// `defer e.finishEntry(e.begin(), &err)`. Nested entry points (an explain
// resolving its target through Repair) join the outer transaction — begin
// reports false and their finishEntry is a no-op — so one user-visible
// call commits or aborts atomically. The bracket is deliberately a direct
// method defer, not a returned closure: the hot cache-hit entry points
// (Target on the edit loop's screen refreshes) must not pay a closure
// allocation or force the named error result to escape.
func (e *Explainer) begin() bool {
	if e.Engine == nil || e.entryOpen {
		return false
	}
	e.entryOpen = true
	return true
}

// finishEntry closes the entry point begin opened: abort the transaction
// on error and on panic (re-raising for per-request recovery upstream),
// commit otherwise. When owned is false this frame joined an outer entry
// point and must do nothing — in particular it must not recover, a panic
// belongs to the outermost frame. Commit and Abort are nil-safe, so an
// entry point that never staged anything (liveTxn never called) finishes
// without touching the engine.
func (e *Explainer) finishEntry(owned bool, errp *error) {
	if !owned {
		return
	}
	txn := e.txn
	e.txn, e.entryOpen = nil, false
	if r := recover(); r != nil {
		txn.Abort()
		panic(r)
	}
	if errp != nil && *errp != nil {
		txn.Abort()
		return
	}
	txn.Commit()
}

// liveTxn returns the open entry point's cache transaction, creating it on
// first use. Store paths (bind, cachedGame, Repair's diff store) call
// this; read-only paths consult e.txn directly — a nil txn falls through
// to the shared caches, so lookups before the first store are served
// exactly as they would be inside the transaction.
func (e *Explainer) liveTxn() *exec.Txn {
	if e.entryOpen && e.txn == nil {
		e.txn = e.Engine.Begin()
	}
	return e.txn
}

// bind routes a game's shared-cache enrollment through the open
// transaction when there is one, falling back to direct engine bindings
// (games constructed and sampled outside any entry point keep the old
// immediate-store behavior).
func (e *Explainer) bind(desc string) *exec.Binding {
	if t := e.liveTxn(); t != nil {
		return t.Bind(desc, e.Dirty.Generation)
	}
	return e.Engine.Bind(desc, e.Dirty.Generation)
}

// pool returns the session worker pool (the nil serial pool without an
// engine).
func (e *Explainer) pool() *exec.Pool { return e.Engine.Pool() }

// planner returns the compiled constraint-set plan, nil for unplanned
// execution.
func (e *Explainer) planner() dc.SetPlanner { return e.Plan }

// cachedGame wraps a deterministic game with the session's shared
// coalition cache under the given game descriptor, falling back to a
// private per-game cache when the explainer has no engine. desc must come
// from gameDesc so equal descriptors imply equal characteristic functions
// at any fixed table generation.
func (e *Explainer) cachedGame(desc string, g shapley.Game) shapley.Game {
	if t := e.liveTxn(); t != nil {
		return t.CachedGame(desc, e.Dirty.Generation, g)
	}
	return e.Engine.CachedGame(desc, e.Dirty.Generation, g)
}

// gameDesc builds the shared-cache descriptor of a game: the kind-specific
// parts plus everything every game's characteristic function closes over —
// the black box and the full constraint set (cell and group games depend
// on the DCs through the repair; the constraint game's player roster *is*
// the DC list, so editing constraints re-keys every game). Table contents
// are deliberately absent: they are covered by the generation stamp.
//
// Every component is length-prefixed: descriptors must be *injective* in
// their components — two distinct games interning one cache ID would
// silently serve each other's coalition values — and parts carry
// user-controlled text (constraint strings, group names) that could
// otherwise alias the framing.
func (e *Explainer) gameDesc(kind string, parts ...string) string {
	var b strings.Builder
	b.WriteString(kind)
	for _, p := range parts {
		writeDescPart(&b, p)
	}
	writeDescPart(&b, e.Alg.Name())
	for _, c := range e.DCs {
		writeDescPart(&b, c.String())
	}
	return b.String()
}

// writeDescPart appends one length-prefixed descriptor component.
func writeDescPart(b *strings.Builder, p string) {
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(len(p)))
	b.WriteByte(':')
	b.WriteString(p)
}

// refDesc renders a cell reference for descriptors (row/col indexes, not
// names: stable under column renames within one session, cheap to build).
func refDesc(ref table.CellRef) string {
	return strconv.Itoa(ref.Row) + "," + strconv.Itoa(ref.Col)
}

// targetDesc renders a target value for descriptors through its
// kind-tagged identity key: Value.String would collapse String("5"),
// Int(5) and Float(5.0) into "5", aliasing games whose characteristic
// functions differ (SameContent is kind-sensitive across non-numeric
// kinds).
func targetDesc(v table.Value) string { return string(v.AppendKey(nil)) }

// playersDesc fingerprints a cell-game player roster by vector index, in
// player order. Coalition cache keys are positional (player k is bit k),
// so two games may share memoized coalition values only when their rosters
// are identical as sequences; the explicit count keeps the fingerprint
// injective against the other descriptor parts.
func playersDesc(t *table.Table, players []table.CellRef) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(len(players)))
	b.WriteByte(':')
	for i, ref := range players {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(t.VecIndex(ref)))
	}
	return b.String()
}

// constraintGameDesc is the shared descriptor of NewConstraintGame(cell,
// target): one descriptor — not one per report kind — so the constraint
// ranking, the Banzhaf ablation, the interaction matrix and the why-not
// search all draw from one pool of memoized coalition values.
func (e *Explainer) constraintGameDesc(cell table.CellRef, target table.Value) string {
	return e.gameDesc("constraint-game", "cell="+refDesc(cell), "target="+targetDesc(target))
}

// repairDesc is the repair-target cache descriptor of the full-input
// repair: within a fixed table generation the clean table is a pure
// function of the black box and the constraint set, both of which gameDesc
// folds in. No cell or target parts: one full repair serves every cell's
// Target resolution. Memoized (see repairDescMemo) — this runs once per
// Target/Repair call, the hottest descriptor in the edit loop.
func (e *Explainer) repairDesc() string {
	if e.repairDescMemo == "" {
		e.repairDescMemo = e.gameDesc("repair")
	}
	return e.repairDescMemo
}

// cachedRepairDiffs returns the memoized representation-exact clean-table
// diff (table.DiffExact) of the full repair at the dirty table's current
// generation, when a session engine is wired and a previous Repair/Target
// stored one.
func (e *Explainer) cachedRepairDiffs() ([]table.CellDiff, bool) {
	if e.txn != nil {
		return e.txn.RepairLookup(e.repairDesc(), e.Dirty.Generation())
	}
	rc := e.Engine.RepairTargets()
	if rc == nil {
		return nil, false
	}
	return rc.Lookup(e.repairDesc(), e.Dirty.Generation())
}

// NewExplainer validates the inputs and builds an Explainer.
func NewExplainer(alg repair.Algorithm, dcs []*dc.Constraint, dirty *table.Table) (*Explainer, error) {
	if alg == nil {
		return nil, fmt.Errorf("core: nil repair algorithm")
	}
	if dirty == nil || dirty.NumRows() == 0 {
		return nil, fmt.Errorf("core: empty dirty table")
	}
	if err := dc.ValidateSet(dcs, dirty.Schema()); err != nil {
		return nil, err
	}
	return &Explainer{Alg: alg, DCs: dcs, Dirty: dirty}, nil
}

// RepairDiff runs the black box on the full input and returns its answer
// as diffs against the dirty table: exact is the representation-exact
// diff (table.DiffExact, row-major), and repaired is its !SameContent
// subset — the repaired cells (the "blue cells" of Figure 2b). Patching
// exact onto a clone of the dirty table reproduces the black box's clean
// table bit for bit, which is how Repair builds it and how the server
// writes repair answers without materializing a clean table at all. With
// a session engine and a PartitionedRepairer black box, disjoint-bucket
// passes run on the engine pool — bit-identical to the serial repair by
// the PartitionedRepairer contract.
//
// With a session engine the exact diff is memoized in the engine's
// repair-target memo: a repeat call at the same table generation and
// constraint set returns the stored diff instead of re-running the black
// box. Storing the representation-exact diff keeps a hit identical to a
// miss — including numeric-kind changes that SameContent unifies, which
// kind-sensitive consumers (hash-join keys) would otherwise see differ,
// and -0 written over 0. SetCell invalidates by generation, AddDC/RemoveDC
// by descriptor (Engine.InvalidateCache). exact may be the memoized slice
// itself: callers must not modify it.
func (e *Explainer) RepairDiff(ctx context.Context) (exact, repaired []table.CellDiff, err error) {
	defer e.finishEntry(e.begin(), &err)
	exact, err = e.repairExact(ctx)
	if err != nil {
		return nil, nil, err
	}
	return exact, repairedSubset(exact), nil
}

// Repair runs the black box on the full input and returns the clean table
// together with the repaired cells: RepairDiff's exact diff patched onto a
// clone of the dirty table.
func (e *Explainer) Repair(ctx context.Context) (_ *table.Table, _ []table.CellDiff, err error) {
	defer e.finishEntry(e.begin(), &err)
	exact, repaired, err := e.RepairDiff(ctx)
	if err != nil {
		return nil, nil, err
	}
	clean := e.Dirty.Clone()
	for _, d := range exact {
		clean.SetRef(d.Ref, d.Clean)
	}
	return clean, repaired, nil
}

// repairExact is the one repair implementation behind RepairDiff, Repair
// and Target: the memo probe, the black-box dispatch and the memo store,
// staged in the entry point's transaction when one is open so an abort
// after this point unpublishes it. Call inside an entry-point bracket.
func (e *Explainer) repairExact(ctx context.Context) ([]table.CellDiff, error) {
	if exact, ok := e.cachedRepairDiffs(); ok {
		return exact, nil
	}
	rc := e.Engine.RepairTargets()
	var desc string
	var gen uint64
	if rc != nil {
		desc, gen = e.repairDesc(), e.Dirty.Generation()
	}
	var clean *table.Table
	var err error
	if pl, ok := e.Alg.(repair.PlannedRepairer); ok && e.Plan != nil {
		clean, err = pl.RepairIntoPlanned(ctx, e.DCs, e.Dirty, nil, e.Engine.Pool(), e.Plan)
	} else if pr, ok := e.Alg.(repair.PartitionedRepairer); ok && e.Engine.Workers() > 1 {
		clean, err = pr.RepairIntoParallel(ctx, e.DCs, e.Dirty, nil, e.Engine.Pool())
	} else {
		clean, err = e.Alg.Repair(ctx, e.DCs, e.Dirty)
	}
	if err != nil {
		return nil, fmt.Errorf("core: repairing: %w", err)
	}
	if clean.NumRows() != e.Dirty.NumRows() || clean.NumCols() != e.Dirty.NumCols() {
		return nil, fmt.Errorf("core: black box %s changed table shape", e.Alg.Name())
	}
	exact, err := table.DiffExact(e.Dirty, clean)
	if err != nil {
		return nil, err
	}
	if rc != nil {
		if t := e.liveTxn(); t != nil {
			t.RepairStore(desc, gen, exact)
		} else {
			rc.Store(desc, gen, exact)
		}
	}
	return exact, nil
}

// repairedSubset filters a representation-exact diff down to the cells
// whose *content* changed — the "repaired cells" answer table.Diff gives
// (every SameContent difference is also an exact difference).
func repairedSubset(exact []table.CellDiff) []table.CellDiff {
	diffs := make([]table.CellDiff, 0, len(exact))
	for _, d := range exact {
		if !d.Dirty.SameContent(d.Clean) {
			diffs = append(diffs, d)
		}
	}
	return diffs
}

// Target returns the clean value the full input assigns to the cell of
// interest and whether the cell was repaired at all (unchanged cells have
// nothing to explain). It is answered by a scan of the repair's exact diff
// — no clean table is materialized — so on a repair-target memo hit, which
// is what the repeat explain screens of the iterative loop hit (every
// report kind re-resolves its target), it costs per-diff instead of
// per-repair.
func (e *Explainer) Target(ctx context.Context, cell table.CellRef) (_ table.Value, _ bool, err error) {
	defer e.finishEntry(e.begin(), &err)
	if err := e.checkCell(cell); err != nil {
		return table.Null(), false, err
	}
	exact, err := e.repairExact(ctx)
	if err != nil {
		return table.Null(), false, err
	}
	for _, d := range exact {
		if d.Ref == cell {
			// The diff is representation-exact, so a cell may appear with a
			// kind-only change; "repaired" is the SameContent predicate.
			return d.Clean, !d.Dirty.SameContent(d.Clean), nil
		}
	}
	return e.Dirty.GetRef(cell), false, nil
}

// ConstraintGame is the DC game of §2.2: player i is e.DCs[i], and
// v(S) = 1 iff running the black box with only the constraints in S repairs
// the cell of interest to the target value.
type ConstraintGame struct {
	exp    *Explainer
	cell   table.CellRef
	target table.Value
}

// NewConstraintGame builds the constraint game for a cell of interest.
// target must be the clean value from Target.
func (e *Explainer) NewConstraintGame(cell table.CellRef, target table.Value) *ConstraintGame {
	return &ConstraintGame{exp: e, cell: cell, target: target}
}

// NumPlayers implements shapley.Game.
func (g *ConstraintGame) NumPlayers() int { return len(g.exp.DCs) }

// Value implements shapley.Game.
func (g *ConstraintGame) Value(ctx context.Context, coalition []bool) (float64, error) {
	subset := make([]*dc.Constraint, 0, len(g.exp.DCs))
	for i, in := range coalition {
		if in {
			subset = append(subset, g.exp.DCs[i])
		}
	}
	return repair.CellRepairedPlanned(ctx, g.exp.Alg, subset, g.exp.Dirty, g.cell, g.target, g.exp.pool(), g.exp.planner())
}

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

// CellGame is the cell game of §2.2: player k is the k-th cell of T_d in
// vectorization order, and v(S) = 1 iff the black box, run on the table
// with absent cells replaced per the policy, repairs the cell of interest
// to the target value.
//
// The cell of interest itself is pinned: it keeps its dirty value in every
// coalition and is not a player. The repair event "España → Spain" is
// undefined on a table that does not contain the España being repaired;
// pinning makes the game well-defined and reproduces the ranking of
// Example 2.4 (t5[League] on top). Treating the cell of interest as a
// player instead makes it an almost-veto player that dominates the ranking
// — an artifact, not an explanation (experiment ex24 checks the ranking).
type CellGame struct {
	exp    *Explainer
	cell   table.CellRef
	target table.Value
	policy ReplacementPolicy
	stats  *table.Stats
	// players maps player index -> cell; defaults to all cells.
	players []table.CellRef
	// origs[k] is the dirty value of players[k]; the undo value the scratch
	// path restores after masking.
	origs []table.Value
	// scratch pools reusable clones of the dirty table. Every evaluation
	// borrows one, masks absent cells in place, runs the black box, and
	// restores only the touched cells — zero steady-state allocation instead
	// of one full Clone + O(cells) masking pass per evaluation.
	scratch sync.Pool
	// snapGen is the dirty-table generation the snapshots (origs, stats,
	// pooled scratch clones) reflect. Session edits between evaluations bump
	// the live table's generation; sync re-snapshots lazily so a stale undo
	// value is never restored into a scratch (the silent-corruption bug this
	// field exists to prevent). Read atomically on the eval hot path.
	snapGen uint64
	// syncMu serializes re-snapshotting.
	syncMu sync.Mutex
	// shared is the game's handle on the session's shared coalition cache
	// (nil without an engine). Only the deterministic null policy consults
	// it: under ReplaceFromColumn a coalition's value is a random
	// realization, which must never be memoized. Set by BindSharedCache
	// after the player roster is final; RestrictPlayers clears it, because
	// coalition cache keys are positional in the roster.
	shared *exec.Binding
}

// cellScratch is one pooled working table plus its undo list.
type cellScratch struct {
	tbl *table.Table
	// touched lists the player indices currently masked, so restoration is
	// O(|touched|) rather than O(cells).
	touched []int
	// gen is the dirty-table generation the clone was taken at; a pooled
	// scratch from before a session edit no longer matches origs and is
	// discarded instead of reused.
	gen uint64
}

// sync re-snapshots origs and stats when the live dirty table was edited
// since the last snapshot (core.Session.SetCell between evaluations).
// Pooled scratch clones from older generations are discarded lazily by
// getScratch. Evaluations running concurrently with an edit are not
// supported (the table itself is not concurrency-safe); sync makes the
// sequential edit→re-evaluate loop of §3/§4 correct without rebuilding the
// game. Note the game's target is a caller-supplied constant: if the edit
// changes what the full repair assigns to the cell of interest, the caller
// must derive a new target (and usually a new game) — sync keeps v(S)
// well-defined, not the question unchanged.
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
	for k, ref := range g.players {
		//lint:allow editlog origs is the game's private snapshot buffer allocated by NewCellGame, not table storage
		g.origs[k] = g.exp.Dirty.GetRef(ref)
	}
	// Catch the stats snapshot up from the edit log (per-column deltas;
	// equivalent to a full rebuild) instead of rebuilding wholesale.
	g.stats.Sync(g.exp.Dirty)
	atomic.StoreUint64(&g.snapGen, cur)
}

func (g *CellGame) getScratch() *cellScratch {
	gen := atomic.LoadUint64(&g.snapGen)
	for {
		sc, ok := g.scratch.Get().(*cellScratch)
		if !ok {
			break
		}
		if sc.gen == gen {
			return sc
		}
		// Stale clone from before a session edit: drop it.
	}
	return &cellScratch{tbl: g.exp.Dirty.Clone(), gen: gen}
}

func (g *CellGame) putScratch(sc *cellScratch) { g.scratch.Put(sc) }

// NewCellGame builds the cell game for a cell of interest; target must be
// the clean value from Target.
func (e *Explainer) NewCellGame(cell table.CellRef, target table.Value, policy ReplacementPolicy) *CellGame {
	g := &CellGame{
		exp:    e,
		cell:   cell,
		target: target,
		policy: policy,
		stats:  table.NewStats(e.Dirty),
		// Stamp before RestrictPlayers so the just-built stats snapshot is
		// not rebuilt a second time during construction.
		snapGen: e.Dirty.Generation(),
	}
	g.RestrictPlayers(e.Dirty.Cells())
	return g
}

// RestrictPlayers scopes the game to the given cells (players become
// 0..len(cells)-1 in order); other cells stay at their dirty values in
// every coalition. Restricting to the cells a game can actually depend on
// leaves Shapley values of the kept players unchanged when the dropped
// cells are dummies (see TestDummyDoesNotPerturbOthersProperty), and makes
// exact enumeration feasible on small instances. The pinned cell of
// interest is filtered out if present.
func (g *CellGame) RestrictPlayers(cells []table.CellRef) {
	g.syncMu.Lock()
	defer g.syncMu.Unlock()
	cur := g.exp.Dirty.Generation()
	if g.snapGen != cur {
		// The stats snapshot is part of the generation-stamped state: an
		// edit between construction and restriction must refresh it too, or
		// ReplaceFromColumn would keep sampling the pre-edit distribution.
		g.stats.Sync(g.exp.Dirty)
	}
	g.players = g.players[:0]
	g.origs = g.origs[:0]
	for _, ref := range cells {
		if ref != g.cell {
			g.players = append(g.players, ref)
			g.origs = append(g.origs, g.exp.Dirty.GetRef(ref))
		}
	}
	// The roster moved, so the positional coalition keys of any earlier
	// binding no longer describe this game; drop it (re-bind after).
	g.shared = nil
	atomic.StoreUint64(&g.snapGen, cur)
}

// BindSharedCache enrolls the game's deterministic coalition evaluations —
// Value, and the null-policy walk values driven by SampleAll and TopK — in
// the session's shared coalition cache. The descriptor folds in the cell,
// target and the exact player roster (positional keys); a nil engine or a
// stochastic policy leaves the game unbound. Values are
// deterministic per (coalition, generation), so cache participation can
// never change an estimate — in particular the Workers=1 ≡ Workers=N
// bit-identity of the samplers is preserved (no RNG draw is skipped: the
// null policy consumes none during Value).
func (g *CellGame) BindSharedCache() {
	if g.policy != ReplaceWithNull {
		return
	}
	desc := g.exp.gameDesc("cell-game-null",
		"cell="+refDesc(g.cell), "target="+targetDesc(g.target),
		"players="+playersDesc(g.exp.Dirty, g.players))
	g.shared = g.exp.bind(desc)
}

// Players returns the cells acting as players, in player order.
func (g *CellGame) Players() []table.CellRef {
	return append([]table.CellRef(nil), g.players...)
}

// NumPlayers implements shapley.Game and shapley.StochasticGame.
func (g *CellGame) NumPlayers() int { return len(g.players) }

// Value implements shapley.Game under the deterministic null policy.
// It errors for ReplaceFromColumn, which needs an RNG — use SampleValue.
func (g *CellGame) Value(ctx context.Context, coalition []bool) (float64, error) {
	if g.policy != ReplaceWithNull {
		return 0, fmt.Errorf("core: deterministic Value requires ReplaceWithNull; use SampleValue for ReplaceFromColumn")
	}
	return g.eval(ctx, coalition, nil)
}

// DrawsNoRandomness implements shapley.RandomnessFree: under the null
// policy no evaluation reads the sampler's rng, so SampleAll schedules the
// game one permutation at a time.
func (g *CellGame) DrawsNoRandomness() bool { return g.policy == ReplaceWithNull }

// SampleValue implements shapley.StochasticGame: absent cells are replaced
// per the policy, with randomness (if any) drawn from rng.
func (g *CellGame) SampleValue(ctx context.Context, coalition []bool, rng *rand.Rand) (float64, error) {
	return g.eval(ctx, coalition, rng)
}

// replacement computes the out-of-coalition value of a cell of column col
// per the policy, drawing from the column distribution in stats under
// ReplaceFromColumn. The cell and group games both mask through it.
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

// eval is the scratch-table fast path: borrow a pooled working table, mask
// absent cells in place, run the black box, restore only the touched cells.
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
	sc.touched = sc.touched[:0]
	for k, in := range coalition {
		if in {
			continue
		}
		v, err := replacement(g.policy, g.stats, g.players[k].Col, rng)
		if err != nil {
			g.restore(sc)
			g.putScratch(sc)
			return 0, err
		}
		sc.tbl.SetRef(g.players[k], v)
		sc.touched = append(sc.touched, k)
	}
	out, err := repair.CellRepairedPlanned(ctx, g.exp.Alg, g.exp.DCs, sc.tbl, g.cell, g.target, g.exp.pool(), g.exp.planner())
	g.restore(sc)
	g.putScratch(sc)
	return out, err
}

// restore undoes every masked cell of the scratch, returning it to a clean
// copy of the dirty table.
func (g *CellGame) restore(sc *cellScratch) {
	for _, k := range sc.touched {
		sc.tbl.SetRef(g.players[k], g.origs[k])
	}
	sc.touched = sc.touched[:0]
}

// evalClone is the seed's clone-per-evaluation path, kept for
// cross-validation: the golden equivalence tests prove the scratch and walk
// paths reproduce its estimates bit-for-bit. Reach it through CloneEval.
func (g *CellGame) evalClone(ctx context.Context, coalition []bool, rng *rand.Rand) (float64, error) {
	g.sync()
	masked := g.exp.Dirty.Clone()
	for k, in := range coalition {
		if in {
			continue
		}
		v, err := replacement(g.policy, g.stats, g.players[k].Col, rng)
		if err != nil {
			return 0, err
		}
		masked.SetRef(g.players[k], v)
	}
	return repair.CellRepaired(ctx, g.exp.Alg, g.exp.DCs, masked, g.cell, g.target)
}

// CloneEval returns a view of the game that evaluates through the legacy
// clone-per-evaluation path and hides the IncrementalGame interface, so
// samplers take their generic path. It exists for cross-validation (golden
// equivalence tests) and A/B benchmarks against the scratch fast path.
func (g *CellGame) CloneEval() shapley.StochasticGame { return cloneEvalGame{g} }

// cloneEvalGame adapts CellGame to the seed evaluation strategy. It
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
// policy each step is a single SetRef on the walk's scratch table.
func (g *CellGame) NewWalk() shapley.CoalitionWalk {
	g.sync()
	return &cellWalk{g: g, sc: g.getScratch(), in: make([]bool, len(g.players))}
}

// cellWalk holds one borrowed scratch table for a worker's sequence of
// permutation walks. Confined to one goroutine.
type cellWalk struct {
	g  *CellGame
	sc *cellScratch
	// in mirrors coalition membership; needed under ReplaceFromColumn,
	// where every absent cell is redrawn per evaluation.
	in []bool
	// masked reports whether the scratch table currently has the absent
	// cells masked (i.e. Reset has run).
	masked bool
}

// Reset implements shapley.CoalitionWalk: empty coalition, every player
// masked.
func (w *cellWalk) Reset() {
	for k := range w.in {
		w.in[k] = false
	}
	if w.g.policy == ReplaceWithNull {
		for _, ref := range w.g.players {
			w.sc.tbl.SetRef(ref, table.Null())
		}
	}
	w.masked = true
}

// Include implements shapley.CoalitionWalk: the single-cell delta. The
// player's cell returns to its dirty value; under ReplaceFromColumn the
// next Value stops redrawing it.
func (w *cellWalk) Include(p int) {
	if w.in[p] {
		return
	}
	w.in[p] = true
	w.sc.tbl.SetRef(w.g.players[p], w.g.origs[p])
}

// Exclude implements shapley.DeltaWalk: the inverse single-cell delta,
// letting samplers morph one sample's coalition into the next instead of
// re-masking every player from the empty coalition. Under the null policy
// the cell returns to Null; under ReplaceFromColumn the next Value simply
// resumes redrawing it.
func (w *cellWalk) Exclude(p int) {
	if !w.in[p] {
		return
	}
	w.in[p] = false
	if w.g.policy == ReplaceWithNull {
		w.sc.tbl.SetRef(w.g.players[p], table.Null())
	}
}

// Value implements shapley.CoalitionWalk. Under the null policy the scratch
// table already holds the coalition's exact masked state; under column
// sampling every absent cell is redrawn in player order, consuming the RNG
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
func (w *cellWalk) Value(ctx context.Context, rng *rand.Rand) (float64, error) {
	if w.g.policy != ReplaceWithNull {
		for k, in := range w.in {
			if in {
				continue
			}
			v, err := replacement(w.g.policy, w.g.stats, w.g.players[k].Col, rng)
			if err != nil {
				return 0, err
			}
			w.sc.tbl.SetRef(w.g.players[k], v)
		}
	}
	if v, ok := w.g.shared.LookupAt(w.sc.gen, w.in); ok {
		return v, nil
	}
	v, err := repair.CellRepairedPlanned(ctx, w.g.exp.Alg, w.g.exp.DCs, w.sc.tbl, w.g.cell, w.g.target, w.g.exp.pool(), w.g.exp.planner())
	if err == nil {
		w.g.shared.Store(w.sc.gen, w.in, v)
	}
	return v, err
}

// Close implements shapley.CoalitionWalk: restores the scratch to the dirty
// contents and returns it to the pool.
func (w *cellWalk) Close() {
	if w.masked || w.g.policy != ReplaceWithNull {
		for k, ref := range w.g.players {
			w.sc.tbl.SetRef(ref, w.g.origs[k])
		}
	}
	w.g.putScratch(w.sc)
	w.sc = nil
}

// RelevantCells returns the cells that can plausibly influence the repair
// of the cell of interest under the constraint set: every cell in a column
// mentioned by some constraint, plus the full row of the cell of interest,
// excluding the (pinned) cell of interest itself, in row-major order.
// Cells outside this set are dummies for constraint-driven repairers (they
// never enter a violation check), so restricting the game to them
// preserves Shapley values while shrinking the player space.
func (e *Explainer) RelevantCells(cell table.CellRef) []table.CellRef {
	r := roster{players: RelevantCellPlayers, cell: cell, cols: e.relevantCols()}
	return r.cells(e)
}

// relevantCols lists, ascending, the columns some constraint mentions.
func (e *Explainer) relevantCols() []int {
	mentioned := make([]bool, e.Dirty.NumCols())
	for _, c := range e.DCs {
		for _, p := range c.Preds {
			for _, o := range [2]dc.Operand{p.Left, p.Right} {
				if idx, ok := e.Dirty.Schema().Index(o.Attr); !o.IsConst && ok {
					mentioned[idx] = true
				}
			}
		}
	}
	var cols []int
	for col, ok := range mentioned {
		if ok {
			cols = append(cols, col)
		}
	}
	return cols
}
