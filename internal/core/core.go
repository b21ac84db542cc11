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
//   - CellGame: players are sets of cells of T_d, the constraint set is
//     fixed, and the cells of a player outside the coalition are nulled
//     (the paper's formal definition) or resampled from their column
//     distribution (the Example 2.5 sampling procedure). A cell player is
//     the one-cell set; rows, columns and explicit groups are the same
//     game over larger sets. Cell counts are large, so Shapley values are
//     usually approximated by permutation sampling.
package core

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

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
	// Engine is the execution layer every hot path draws from: exact
	// enumerations memoize coalition values in its *shared*
	// generation-keyed cache (surviving this explainer and this game), and
	// repairs fan disjoint-bucket passes across its bounded worker pool.
	// Never nil: NewExplainer gives each explainer a one-worker engine of
	// its own, and Session.Explainer wires the session's.
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
	// running on this explainer (nil between calls). Coalition values go
	// straight into the session's shared cache and the txn logs the
	// entries they insert; repair-target diffs and report entries are
	// staged and published to the Memo only when the entry point returns
	// without error. Cancellation, deadline expiry and panics abort the
	// txn, which deletes the logged entries and drops the staging, leaving
	// the shared caches bit-identical to the call never having started
	// (the no-partial-work-poisoning invariant; see exec.Txn and doc.go).
	// An Explainer is not safe for concurrent use — concurrent explains
	// each take their own Explainer from Session.Explainer(), so each run
	// owns its transaction.
	//
	// The txn is created lazily by liveTxn at the first cache store:
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
	if e.entryOpen {
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
// entry point that never stored anything (liveTxn never called) finishes
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
// to the Memo, and coalition lookups always read the shared cache, so
// lookups before the first store are served exactly as they would be
// inside the transaction.
func (e *Explainer) liveTxn() *exec.Txn {
	if e.entryOpen && e.txn == nil {
		e.txn = e.Engine.Begin()
	}
	return e.txn
}

// bind enrolls a game in the shared coalition cache. Inside an entry
// point the binding belongs to the open transaction, which logs the
// entries its stores insert so an abort can delete them; games built and
// sampled outside any entry point get a plain engine binding, whose
// stores are final.
func (e *Explainer) bind(desc string) *exec.Binding {
	if t := e.liveTxn(); t != nil {
		return t.Bind(desc, e.Dirty.Generation)
	}
	return e.Engine.Bind(desc, e.Dirty.Generation)
}

// pool returns the engine's worker pool.
func (e *Explainer) pool() *exec.Pool { return e.Engine.Pool() }

// planner returns the compiled constraint-set plan, nil for unplanned
// execution.
func (e *Explainer) planner() dc.SetPlanner { return e.Plan }

// cachedGame wraps a deterministic game with the engine's shared
// coalition cache under the given game descriptor. desc must come from
// gameDesc so equal descriptors imply equal characteristic functions at
// any fixed table generation.
func (e *Explainer) cachedGame(desc string, g shapley.Game) shapley.Game {
	if t := e.liveTxn(); t != nil {
		return t.CachedGame(desc, e.Dirty.Generation, g)
	}
	return e.Engine.CachedGame(desc, e.Dirty.Generation, g)
}

// gameDesc builds the shared-cache descriptor of a game: the kind-specific
// parts plus everything every game's characteristic function closes over —
// the black box and the full constraint set (the cell game depends on
// the DCs through the repair; the constraint game's player roster *is*
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
// generation, when a previous Repair/Target stored one.
func (e *Explainer) cachedRepairDiffs() ([]table.CellDiff, bool) {
	return e.repairLookup(e.repairDesc(), e.Dirty.Generation())
}

// repairLookup returns the full repair's exact diff memoized under desc at
// generation gen, staged by the open entry point or in the Memo. Safe on a
// game's evaluation workers: they only read e.txn, which the entry point
// sets before any game runs and clears after.
func (e *Explainer) repairLookup(desc string, gen uint64) ([]table.CellDiff, bool) {
	if e.txn != nil {
		return e.txn.RepairLookup(desc, gen)
	}
	return e.Engine.RepairTargets().Lookup(desc, gen)
}

// grandValue answers a game's grand coalition without running the black
// box. Every player present means the black box would run on the full
// input — the constraint game's whole constraint set, the cell game's
// unmasked table — so v(N) = 1 exactly when the full repair, memoized under
// desc at the evaluation's generation gen, gives cell a clean value with
// the same content as target (the comparison CellRepaired makes). tbl is
// the table the black box would have read, holding cell's dirty value at
// gen. ok is false on a memo miss, and the caller runs the black box.
func (e *Explainer) grandValue(desc string, gen uint64, tbl *table.Table, cell table.CellRef, target table.Value) (v float64, ok bool) {
	exact, ok := e.repairLookup(desc, gen)
	if !ok {
		return 0, false
	}
	clean := tbl.GetRef(cell)
	if d, found := diffAt(exact, cell); found {
		clean = d.Clean
	}
	if clean.SameContent(target) {
		return 1, true
	}
	return 0, true
}

// diffAt finds cell's entry in a repair's exact diff.
func diffAt(exact []table.CellDiff, cell table.CellRef) (table.CellDiff, bool) {
	for _, d := range exact {
		if d.Ref == cell {
			return d, true
		}
	}
	return table.CellDiff{}, false
}

// NewExplainer validates the inputs and builds an Explainer with an engine
// of its own: one worker, so repairs run serially, and empty caches that
// it shares with no other explainer.
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
	return &Explainer{Alg: alg, DCs: dcs, Dirty: dirty, Engine: exec.NewEngine(1)}, nil
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
// and Target: the memo probe, the black-box run and the memo store, staged
// in the entry point's transaction when one is open so an abort after this
// point drops it. The run goes through repair.Run, so a scratch
// repairer repairs a pooled work table — no clone of the dirty table, and
// its pooled run state stays warm for the coalition repairs of the explain
// that follows. The stored diff is also every game's grand-coalition value
// (grandValue). Call inside an entry-point bracket.
func (e *Explainer) repairExact(ctx context.Context) ([]table.CellDiff, error) {
	if exact, ok := e.cachedRepairDiffs(); ok {
		return exact, nil
	}
	desc, gen := e.repairDesc(), e.Dirty.Generation()
	var exact []table.CellDiff
	var diffErr error
	err := repair.Run(ctx, e.Alg, e.DCs, e.Dirty, e.pool(), e.Plan, func(clean *table.Table) {
		if clean.NumRows() != e.Dirty.NumRows() || clean.NumCols() != e.Dirty.NumCols() {
			diffErr = fmt.Errorf("core: black box %s changed table shape", e.Alg.Name())
			return
		}
		exact, diffErr = table.DiffExact(e.Dirty, clean)
	})
	if err != nil {
		return nil, fmt.Errorf("core: repairing: %w", err)
	}
	if diffErr != nil {
		return nil, diffErr
	}
	e.liveTxn().RepairStore(desc, gen, exact)
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
	if d, ok := diffAt(exact, cell); ok {
		// The diff is representation-exact, so a cell may appear with a
		// kind-only change; "repaired" is the SameContent predicate.
		return d.Clean, !d.Dirty.SameContent(d.Clean), nil
	}
	return e.Dirty.GetRef(cell), false, nil
}

// ConstraintGame is the DC game of §2.2: player i is e.DCs[i], and
// v(S) = 1 iff running the black box with only the constraints in S repairs
// the cell of interest to the target value. The grand coalition is the full
// repair, so its value is read off the repair-target memo (grandValue) when
// the explain resolved its target there, and the black box runs only on
// proper subsets.
type ConstraintGame struct {
	exp    *Explainer
	cell   table.CellRef
	target table.Value
	// repairDesc is the explainer's repair-target descriptor, resolved at
	// construction so evaluations never build it.
	repairDesc string
}

// NewConstraintGame builds the constraint game for a cell of interest.
// target must be the clean value from Target.
func (e *Explainer) NewConstraintGame(cell table.CellRef, target table.Value) *ConstraintGame {
	return &ConstraintGame{exp: e, cell: cell, target: target, repairDesc: e.repairDesc()}
}

// NumPlayers implements shapley.Game.
func (g *ConstraintGame) NumPlayers() int { return len(g.exp.DCs) }

// Value implements shapley.Game.
func (g *ConstraintGame) Value(ctx context.Context, coalition []bool) (float64, error) {
	dirty := g.exp.Dirty
	if !slices.Contains(coalition, false) {
		if v, ok := g.exp.grandValue(g.repairDesc, dirty.Generation(), dirty, g.cell, g.target); ok {
			return v, nil
		}
	}
	subset := make([]*dc.Constraint, 0, len(g.exp.DCs))
	for i, in := range coalition {
		if in {
			subset = append(subset, g.exp.DCs[i])
		}
	}
	return repair.CellRepairedPlanned(ctx, g.exp.Alg, subset, dirty, g.cell, g.target, g.exp.pool(), g.exp.planner())
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
