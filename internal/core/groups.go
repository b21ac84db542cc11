package core

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/repair"
	"repro/internal/shapley"
	"repro/internal/table"
)

// groupsDesc fingerprints a group roster for the shared coalition cache:
// names plus exact membership (vector indexes), so two rosters share
// memoized coalition values only when they are the same grouping. Names
// are length-prefixed and cell counts explicit, keeping the fingerprint
// injective even when a caller's group name contains the separators
// (";3:a,b#2:…" cannot alias ";1:a…" framing).
func groupsDesc(t *table.Table, groups []CellGroup) string {
	var b strings.Builder
	for _, g := range groups {
		b.WriteByte(';')
		b.WriteString(strconv.Itoa(len(g.Name)))
		b.WriteByte(':')
		b.WriteString(g.Name)
		b.WriteByte('#')
		b.WriteString(strconv.Itoa(len(g.Cells)))
		b.WriteByte(':')
		for i, ref := range g.Cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(t.VecIndex(ref)))
		}
	}
	return b.String()
}

// CellGroup is a named set of cells treated as one Shapley player. Rows
// and columns are the natural groupings for tables: "how much did tuple t3
// as a whole contribute to this repair?" is often the question a user
// actually has, and grouping divides the player count by the table width.
type CellGroup struct {
	// Name labels the group in reports, e.g. "row t3" or "col Country".
	Name string
	// Cells are the member cells.
	Cells []table.CellRef
}

// RowGroups partitions the dirty table into one group per row, excluding
// the cell of interest from its row's group (it stays pinned).
func (e *Explainer) RowGroups(cell table.CellRef) []CellGroup {
	groups := make([]CellGroup, 0, e.Dirty.NumRows())
	for i := 0; i < e.Dirty.NumRows(); i++ {
		g := CellGroup{Name: fmt.Sprintf("row t%d", i+1)}
		for j := 0; j < e.Dirty.NumCols(); j++ {
			ref := table.CellRef{Row: i, Col: j}
			if ref != cell {
				g.Cells = append(g.Cells, ref)
			}
		}
		groups = append(groups, g)
	}
	return groups
}

// ColumnGroups partitions the dirty table into one group per column,
// excluding the cell of interest from its column's group.
func (e *Explainer) ColumnGroups(cell table.CellRef) []CellGroup {
	groups := make([]CellGroup, 0, e.Dirty.NumCols())
	for j := 0; j < e.Dirty.NumCols(); j++ {
		g := CellGroup{Name: "col " + e.Dirty.Schema().Col(j).Name}
		for i := 0; i < e.Dirty.NumRows(); i++ {
			ref := table.CellRef{Row: i, Col: j}
			if ref != cell {
				g.Cells = append(g.Cells, ref)
			}
		}
		groups = append(groups, g)
	}
	return groups
}

// GroupGame is the cell game lifted to groups: player k present means
// every cell of groups[k] keeps its dirty value; absent means all of them
// are replaced per the policy. The cell of interest is pinned as in
// CellGame.
type GroupGame struct {
	exp    *Explainer
	cell   table.CellRef
	target table.Value
	policy ReplacementPolicy
	stats  *table.Stats
	groups []CellGroup
	// layout is the precomputed flat-cell geometry of the walks: group
	// membership and overlap counts are fixed at construction, so walks
	// restore their mask baseline by one memcpy instead of re-walking
	// every group per permutation.
	layout groupLayout
	// scratch pools reusable clones of the dirty table, as in CellGame:
	// mask in place, repair, restore the touched cells.
	scratch sync.Pool
	// snapGen guards the pooled clones and stats against session edits of
	// the live dirty table, exactly as in CellGame: a scratch cloned before
	// an edit is discarded rather than reused with stale contents.
	snapGen uint64
	// syncMu serializes re-snapshotting.
	syncMu sync.Mutex
	// shared is the game's handle on the session's shared coalition cache,
	// as in CellGame: deterministic null-policy evaluations only, set by
	// BindSharedCache (groups are fixed at construction, so no re-binding
	// concern).
	shared *exec.Binding
}

// groupLayout is the static geometry of a group game's player cells — the
// incremental group walk's precomputation. Values are never stored here
// (they are read live from the dirty table, which session edits may move);
// only the shape is, which NewGroupGame fixes.
type groupLayout struct {
	// flat is the deduplicated list of every cell appearing in some group.
	flat []table.CellRef
	// base[i] counts the occurrences of flat[i] across all groups — the
	// all-groups-absent mask-count baseline a walk Reset copies wholesale.
	base []int32
	// groupIdx[k] lists, per occurrence, the flat indexes of group k's
	// cells.
	groupIdx [][]int32
}

// buildGroupLayout flattens the (cleaned) groups of a game.
func buildGroupLayout(t *table.Table, groups []CellGroup) groupLayout {
	lo := groupLayout{groupIdx: make([][]int32, len(groups))}
	byVec := make(map[int]int32)
	for k, g := range groups {
		idxs := make([]int32, 0, len(g.Cells))
		for _, ref := range g.Cells {
			vi := t.VecIndex(ref)
			fi, ok := byVec[vi]
			if !ok {
				fi = int32(len(lo.flat))
				byVec[vi] = fi
				lo.flat = append(lo.flat, ref)
				lo.base = append(lo.base, 0)
			}
			lo.base[fi]++
			idxs = append(idxs, fi)
		}
		lo.groupIdx[k] = idxs
	}
	return lo
}

// groupScratch is one pooled working table plus the undo list of masked
// cells and their dirty values.
type groupScratch struct {
	tbl     *table.Table
	touched []table.CellRef
	origs   []table.Value
	// gen is the dirty-table generation the clone was taken at.
	gen uint64
}

// sync refreshes the stats snapshot after a session edit; stale pooled
// clones are discarded lazily by getScratch. See CellGame.sync for the
// contract.
func (g *GroupGame) sync() {
	cur := g.exp.Dirty.Generation()
	if atomic.LoadUint64(&g.snapGen) == cur {
		return
	}
	g.syncMu.Lock()
	defer g.syncMu.Unlock()
	if g.snapGen == cur {
		return
	}
	// Per-column delta catch-up from the edit log; equivalent to a full
	// rebuild (see table.Stats.Sync).
	g.stats.Sync(g.exp.Dirty)
	atomic.StoreUint64(&g.snapGen, cur)
}

func (g *GroupGame) getScratch() *groupScratch {
	gen := atomic.LoadUint64(&g.snapGen)
	for {
		sc, ok := g.scratch.Get().(*groupScratch)
		if !ok {
			break
		}
		if sc.gen == gen {
			return sc
		}
		// Stale clone from before a session edit: drop it.
	}
	return &groupScratch{tbl: g.exp.Dirty.Clone(), gen: gen}
}

// NewGroupGame builds the group game; target must come from Target.
func (e *Explainer) NewGroupGame(cell table.CellRef, target table.Value, policy ReplacementPolicy, groups []CellGroup) *GroupGame {
	cleaned := make([]CellGroup, len(groups))
	for k, g := range groups {
		cg := CellGroup{Name: g.Name}
		for _, ref := range g.Cells {
			if ref != cell {
				cg.Cells = append(cg.Cells, ref)
			}
		}
		cleaned[k] = cg
	}
	return &GroupGame{
		exp:     e,
		cell:    cell,
		target:  target,
		policy:  policy,
		stats:   table.NewStats(e.Dirty),
		groups:  cleaned,
		layout:  buildGroupLayout(e.Dirty, cleaned),
		snapGen: e.Dirty.Generation(),
	}
}

// BindSharedCache enrolls the game's deterministic coalition evaluations
// in the session's shared coalition cache, as CellGame.BindSharedCache
// does for cell games: null policy only, descriptor folding in the cell,
// target and exact group roster. See that method for the determinism
// argument (cache hits can never change estimates or RNG consumption).
func (g *GroupGame) BindSharedCache() {
	if g.policy != ReplaceWithNull {
		return
	}
	desc := g.exp.gameDesc("group-game-null",
		"cell="+refDesc(g.cell), "target="+targetDesc(g.target),
		"groups="+groupsDesc(g.exp.Dirty, g.groups))
	g.shared = g.exp.bind(desc)
}

// Groups returns the game's (cleaned) groups, in player order.
func (g *GroupGame) Groups() []CellGroup { return g.groups }

// NumPlayers implements shapley.Game and shapley.StochasticGame.
func (g *GroupGame) NumPlayers() int { return len(g.groups) }

// Value implements shapley.Game under the deterministic null policy.
func (g *GroupGame) Value(ctx context.Context, coalition []bool) (float64, error) {
	if g.policy != ReplaceWithNull {
		return 0, fmt.Errorf("core: deterministic Value requires ReplaceWithNull")
	}
	return g.eval(ctx, coalition, nil)
}

// DrawsNoRandomness implements shapley.RandomnessFree: under the null
// policy no evaluation reads the sampler's rng, so SampleAll schedules the
// game one permutation at a time.
func (g *GroupGame) DrawsNoRandomness() bool { return g.policy == ReplaceWithNull }

// SampleValue implements shapley.StochasticGame.
func (g *GroupGame) SampleValue(ctx context.Context, coalition []bool, rng *rand.Rand) (float64, error) {
	return g.eval(ctx, coalition, rng)
}

func (g *GroupGame) eval(ctx context.Context, coalition []bool, rng *rand.Rand) (float64, error) {
	// See CellGame.eval: the binding is nil for unbound and stochastic
	// games (always-miss), and a value computed after a concurrent edit
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
func (g *GroupGame) evalUncached(ctx context.Context, coalition []bool, rng *rand.Rand) (float64, error) {
	g.sync()
	sc := g.getScratch()
	v, err := g.evalOn(ctx, sc, coalition, rng)
	// Restore in reverse: groups may overlap (the public API imposes no
	// disjointness), so a cell masked twice has its true dirty value in the
	// FIRST undo entry — LIFO replay lands on it last.
	for i := len(sc.touched) - 1; i >= 0; i-- {
		sc.tbl.SetRef(sc.touched[i], sc.origs[i])
	}
	sc.touched = sc.touched[:0]
	sc.origs = sc.origs[:0]
	g.scratch.Put(sc)
	return v, err
}

func (g *GroupGame) evalOn(ctx context.Context, sc *groupScratch, coalition []bool, rng *rand.Rand) (float64, error) {
	for k, in := range coalition {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if in {
			continue
		}
		for _, ref := range g.groups[k].Cells {
			repl, err := replacement(g.policy, g.stats, ref.Col, rng)
			if err != nil {
				return 0, err
			}
			sc.touched = append(sc.touched, ref)
			sc.origs = append(sc.origs, sc.tbl.GetRef(ref))
			sc.tbl.SetRef(ref, repl)
		}
	}
	return repair.CellRepairedPlanned(ctx, g.exp.Alg, g.exp.DCs, sc.tbl, g.cell, g.target, g.exp.pool(), g.exp.planner())
}

// evalClone is the clone-per-evaluation reference path, mirroring
// CellGame.evalClone: the golden equivalence tests prove the pooled scratch
// and walk paths reproduce its arithmetic bit-for-bit. Reach it through
// CloneEval.
func (g *GroupGame) evalClone(ctx context.Context, coalition []bool, rng *rand.Rand) (float64, error) {
	g.sync()
	masked := g.exp.Dirty.Clone()
	for k, in := range coalition {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if in {
			continue
		}
		for _, ref := range g.groups[k].Cells {
			repl, err := replacement(g.policy, g.stats, ref.Col, rng)
			if err != nil {
				return 0, err
			}
			masked.SetRef(ref, repl)
		}
	}
	return repair.CellRepaired(ctx, g.exp.Alg, g.exp.DCs, masked, g.cell, g.target)
}

// CloneEval returns a view of the game that evaluates through the
// clone-per-evaluation path and hides the IncrementalGame interface, so
// samplers take their generic path. It exists for cross-validation (golden
// equivalence tests) and A/B benchmarks against the walk fast path.
func (g *GroupGame) CloneEval() shapley.StochasticGame { return cloneEvalGroupGame{g} }

// cloneEvalGroupGame adapts GroupGame to the clone evaluation strategy. It
// deliberately does not implement shapley.IncrementalGame.
type cloneEvalGroupGame struct{ g *GroupGame }

// NumPlayers implements shapley.StochasticGame.
func (c cloneEvalGroupGame) NumPlayers() int { return c.g.NumPlayers() }

// SampleValue implements shapley.StochasticGame.
func (c cloneEvalGroupGame) SampleValue(ctx context.Context, coalition []bool, rng *rand.Rand) (float64, error) {
	return c.g.evalClone(ctx, coalition, rng)
}

// Value implements shapley.Game under the deterministic null policy.
func (c cloneEvalGroupGame) Value(ctx context.Context, coalition []bool) (float64, error) {
	if c.g.policy != ReplaceWithNull {
		return 0, fmt.Errorf("core: deterministic Value requires ReplaceWithNull")
	}
	return c.g.evalClone(ctx, coalition, nil)
}

// NewWalk implements shapley.IncrementalGame: the samplers' permutation
// prefix walks grow the coalition one group at a time, and under the null
// policy each step costs one SetRef per cell of the included group instead
// of a full mask rebuild. Groups may overlap (the public API imposes no
// disjointness), so the walk reference-counts masked cells: a cell returns
// to its dirty value only when the last absent group containing it joins
// the coalition — exactly the final state the batch mask produces.
//
// The walk is incremental in both directions (shapley.DeltaWalk): Exclude
// re-masks a group, which lets the one-marginal samplers morph between
// consecutive samples' coalitions instead of re-walking all groups per
// sample, and Reset restores the all-absent mask baseline with one copy of
// the precomputed layout counts.
func (g *GroupGame) NewWalk() shapley.CoalitionWalk {
	g.sync()
	return &groupWalk{
		g:         g,
		sc:        g.getScratch(),
		in:        make([]bool, len(g.groups)),
		maskCount: make([]int32, len(g.layout.flat)),
	}
}

// groupWalk holds one borrowed scratch table for a worker's sequence of
// permutation walks. Confined to one goroutine.
type groupWalk struct {
	g  *GroupGame
	sc *groupScratch
	// in mirrors coalition membership; needed under ReplaceFromColumn,
	// where every absent group is redrawn per evaluation.
	in []bool
	// maskCount[i] counts the absent groups containing layout.flat[i];
	// positive means masked under the null policy.
	maskCount []int32
	// masked reports whether the scratch currently has absent cells masked
	// (i.e. Reset has run under the null policy).
	masked bool
}

// Reset implements shapley.CoalitionWalk: empty coalition, every group
// masked. The mask counts are restored by copying the layout baseline and
// the distinct player cells nulled once each — no per-group re-walk.
func (w *groupWalk) Reset() {
	lo := &w.g.layout
	copy(w.maskCount, lo.base)
	for k := range w.in {
		w.in[k] = false
	}
	if w.g.policy == ReplaceWithNull {
		for _, ref := range lo.flat {
			w.sc.tbl.SetRef(ref, table.Null())
		}
	}
	w.masked = true
}

// Include implements shapley.CoalitionWalk: the per-group delta. Cells the
// group shares with still-absent groups stay masked.
func (w *groupWalk) Include(p int) {
	if w.in[p] {
		return
	}
	w.in[p] = true
	lo := &w.g.layout
	dirty := w.g.exp.Dirty
	for _, fi := range lo.groupIdx[p] {
		w.maskCount[fi]--
		if w.maskCount[fi] == 0 {
			w.sc.tbl.SetRef(lo.flat[fi], dirty.GetRef(lo.flat[fi]))
		}
	}
}

// Exclude implements shapley.DeltaWalk: the inverse per-group delta. A
// cell re-masks (under the null policy) when its first absent group
// reappears; cells still covered by other absent groups were masked
// already.
func (w *groupWalk) Exclude(p int) {
	if !w.in[p] {
		return
	}
	w.in[p] = false
	lo := &w.g.layout
	for _, fi := range lo.groupIdx[p] {
		w.maskCount[fi]++
		if w.maskCount[fi] == 1 && w.g.policy == ReplaceWithNull {
			w.sc.tbl.SetRef(lo.flat[fi], table.Null())
		}
	}
}

// Value implements shapley.CoalitionWalk. Under the null policy the scratch
// already holds the coalition's exact masked state; under column sampling
// every absent group's cells are redrawn in (group, cell) order, consuming
// the RNG exactly as the batch path's SampleValue does (the
// golden-equivalence contract; overlapped cells keep the last draw in both
// paths).
func (w *groupWalk) Value(ctx context.Context, rng *rand.Rand) (float64, error) {
	if w.g.policy != ReplaceWithNull {
		for k, in := range w.in {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			if in {
				continue
			}
			for _, ref := range w.g.groups[k].Cells {
				v, err := replacement(w.g.policy, w.g.stats, ref.Col, rng)
				if err != nil {
					return 0, err
				}
				w.sc.tbl.SetRef(ref, v)
			}
		}
	}
	// Deterministic null-policy values consult the shared coalition cache
	// on the membership mirror, as cellWalk.Value does (no RNG is consumed
	// under the null policy, so hits leave the sampler's stream untouched;
	// a stochastic walk's binding is nil and always misses). Lookups and
	// stores are both pinned to the scratch's snapshot generation — see
	// cellWalk.Value.
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
func (w *groupWalk) Close() {
	if w.masked || w.g.policy != ReplaceWithNull {
		dirty := w.g.exp.Dirty
		for _, ref := range w.g.layout.flat {
			w.sc.tbl.SetRef(ref, dirty.GetRef(ref))
		}
	}
	w.g.scratch.Put(w.sc)
	w.sc = nil
}
