package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/shapley"
	"repro/internal/table"
)

// Players selects the players of the game an explain ranks.
type Players uint8

const (
	// ConstraintPlayers makes each constraint a player, over the table as
	// it is: the constraint game of §2.2.
	ConstraintPlayers Players = iota
	// CellPlayers makes every cell but the (pinned) cell of interest a
	// player: the cell game of §2.2.
	CellPlayers
	// RelevantCellPlayers restricts the cell game to RelevantCells,
	// dropping cells that are provably dummies for constraint-driven
	// repairers.
	RelevantCellPlayers
	// RowPlayers makes each row a player (RowGroups).
	RowPlayers
	// ColumnPlayers makes each column a player (ColumnGroups).
	ColumnPlayers
	// GroupPlayers makes each of Query.Groups a player.
	GroupPlayers
)

// Estimator selects how an explain values the players of its game.
type Estimator uint8

const (
	// ExactShapley computes Shapley values by subset enumeration: at most
	// 2^n black-box runs, memoized on the coalition.
	ExactShapley Estimator = iota
	// SampledShapley estimates Shapley values by permutation sampling.
	SampledShapley
	// AutoShapley is ExactShapley up to MaxExactPlayers players and
	// SampledShapley beyond, so row-level explanations work at any table
	// size.
	AutoShapley
	// TopKShapley identifies the K most influential players by adaptive
	// confidence-interval racing instead of a uniform sampling budget: the
	// interactive loop of §3 only needs the top of the ranking.
	TopKShapley
	// BanzhafIndex is the Banzhaf-index ablation of ExactShapley: equal
	// coalition weighting instead of size-based weighting. Rankings usually
	// agree; comparing the two is a cheap robustness check.
	BanzhafIndex
	// InteractionIndex ranks every pair of players by its exact Shapley
	// interaction index: positive for complements (the pair achieves what
	// neither achieves alone), negative for substitutes (either suffices).
	InteractionIndex
)

// MaxExactPlayers bounds exact subset enumeration where an explain or a
// why-not search chooses it: beyond it, 2^n black-box runs are infeasible.
const MaxExactPlayers = 20

// Query is one explain request: for the repair of Cell, build the game
// over Players and value them with Estimator.
type Query struct {
	// Cell is the cell of interest.
	Cell table.CellRef
	// Players selects the game's players.
	Players Players
	// Groups are the players under GroupPlayers.
	Groups []CellGroup
	// Estimator selects how the players are valued.
	Estimator Estimator
	// K is the cutoff of TopKShapley.
	K int
	// Desired, when non-null, replaces the repair's clean value as the
	// value being explained, and the cell need not have been repaired. With
	// a value the repair does not produce it answers "why not?": if every
	// value is 0, no subset of the players ever yields the desired value.
	Desired table.Value
	// CellExplainOptions are the sampling parameters of SampledShapley,
	// TopKShapley and AutoShapley's fallback. The exact estimators always
	// null absent cells (ReplaceWithNull).
	CellExplainOptions
}

// ExplainConstraints computes the exact Shapley value of every constraint
// for the repair of the cell of interest and returns the ranking
// (Figure 1's numbers).
func (e *Explainer) ExplainConstraints(ctx context.Context, cell table.CellRef) (*Report, error) {
	return e.Explain(ctx, Query{Cell: cell})
}

// ExplainCells estimates the Shapley value of every table cell for the
// repair of the cell of interest by permutation sampling and returns the
// ranking (the cell half of the explanation screen).
func (e *Explainer) ExplainCells(ctx context.Context, cell table.CellRef, opts CellExplainOptions) (*Report, error) {
	return e.Explain(ctx, Query{Cell: cell, Players: CellPlayers, Estimator: SampledShapley, CellExplainOptions: opts})
}

// Explain answers a Query. It resolves the target (the full repair's clean
// value for the cell, or Desired), builds the game over the query's
// players, values them with its estimator and returns the report: highest
// value first, except that top-k entries stay in racing order and
// interaction pairs, named "I(a,b)", rank by |value|.
//
// Each estimator keeps one cache rule. Exact estimators and top-k enroll
// their coalition values in the session's shared cache, where every game
// over the same roster and target finds them. A sampled explain's finished
// entries are memoized per (roster, target, Samples, Seed, Policy) at the
// table generation, so a repeat explain is one lookup and a copy: it runs
// no black box and names and sorts nothing (a cell roster is not even
// listed). Its coalition values join the shared cache only up to
// maxBoundRoster players.
func (e *Explainer) Explain(ctx context.Context, q Query) (_ *Report, err error) {
	defer e.finishEntry(e.begin(), &err)
	if err := e.checkCell(q.Cell); err != nil {
		return nil, err
	}
	cell, target := q.Cell, q.Desired
	if target.IsNull() {
		var repaired bool
		if target, repaired, err = e.Target(ctx, cell); err != nil {
			return nil, err
		}
		if !repaired {
			return nil, fmt.Errorf("core: cell %s was not repaired; nothing to explain", e.Dirty.RefName(cell))
		}
	}
	r, err := e.roster(q)
	if err != nil {
		return nil, err
	}
	est := q.Estimator
	if est == AutoShapley {
		est = ExactShapley
		if r.size(e) > MaxExactPlayers {
			est = SampledShapley
		}
	}
	report := &Report{Kind: r.kind(est, !q.Desired.IsNull()), Cell: e.Dirty.RefName(cell), Target: target.String(), Algorithm: e.Alg.Name()}
	if report.Entries, report.Separated, err = e.rank(ctx, q, est, target, &r); err != nil {
		return nil, fmt.Errorf("core: %s explain: %w", report.Kind, err)
	}
	return report, nil
}

// rank values the roster's players toward target with the (resolved)
// estimator and returns the report entries, and for top-k whether the K
// best separated from the rest.
func (e *Explainer) rank(ctx context.Context, q Query, est Estimator, target table.Value, r *roster) (entries []Entry, separated bool, err error) {
	opts := q.CellExplainOptions.withDefaults()
	switch est {
	case ExactShapley, BanzhafIndex:
		game := e.game(q.Cell, target, r, ReplaceWithNull, true)
		var values []float64
		if est == ExactShapley {
			values, err = shapley.ExactSubsets(ctx, game)
		} else {
			values, err = shapley.ExactBanzhaf(ctx, game)
		}
		for k, v := range values {
			entries = append(entries, Entry{Name: r.name(e, k), Shapley: v})
		}
		sortEntries(entries)
		return entries, false, err
	case InteractionIndex:
		matrix, err := shapley.ExactInteraction(ctx, e.game(q.Cell, target, r, ReplaceWithNull, true))
		return interactionEntries(e, r, matrix), false, err
	case SampledShapley:
		entries, err = e.sampledEntries(ctx, q.Cell, target, r, opts)
		return entries, false, err
	case TopKShapley:
		game, err := stochastic(e.game(q.Cell, target, r, opts.Policy, true))
		if err != nil {
			return nil, false, err
		}
		res, err := shapley.TopK(ctx, game, shapley.TopKOptions{
			K:            q.K,
			RoundSamples: opts.Samples / 8,
			Workers:      opts.Workers,
			Seed:         opts.Seed,
		})
		if err != nil {
			return nil, false, err
		}
		for _, est := range res.Top {
			entries = append(entries, estimateEntry(r.name(e, est.Player), est))
		}
		return entries, res.Separated, nil
	}
	return nil, false, fmt.Errorf("unknown estimator %d", q.Estimator)
}

// checkCell rejects a cell outside the dirty table, so a mis-addressed
// request fails with an error instead of acting on (or indexing past) the
// table.
func (e *Explainer) checkCell(cell table.CellRef) error {
	if cell.Row < 0 || cell.Row >= e.Dirty.NumRows() || cell.Col < 0 || cell.Col >= e.Dirty.NumCols() {
		return fmt.Errorf("core: cell (row %d, column %d) is outside the %d×%d table", cell.Row+1, cell.Col+1, e.Dirty.NumRows(), e.Dirty.NumCols())
	}
	return nil
}

// roster is the player set of one explain: the constraints, the cells but
// the cell of interest, the relevant cells or a list of cell groups.
type roster struct {
	players Players
	// cell is the cell of interest, which the cell rosters skip.
	cell table.CellRef
	// cols are the columns some constraint mentions (RelevantCellPlayers).
	cols   []int
	groups []CellGroup
}

// roster builds the query's player set. The cell rosters list no cells:
// player k is the k-th cell of the roster in row-major order after
// skipping the cell of interest (the order of RelevantCells), so a
// memoized explain never pays for the roster. Every member of an explicit
// group must lie inside the table.
func (e *Explainer) roster(q Query) (roster, error) {
	r := roster{players: q.Players, cell: q.Cell}
	switch q.Players {
	case ConstraintPlayers, CellPlayers:
	case RelevantCellPlayers:
		r.cols = e.relevantCols()
	case RowPlayers:
		r.groups = e.RowGroups(q.Cell)
	case ColumnPlayers:
		r.groups = e.ColumnGroups(q.Cell)
	case GroupPlayers:
		for _, g := range q.Groups {
			for _, ref := range g.Cells {
				if err := e.checkCell(ref); err != nil {
					return r, fmt.Errorf("core: group %q: %w", g.Name, err)
				}
			}
		}
		r.groups = q.Groups
	default:
		return r, fmt.Errorf("core: unknown players %d", q.Players)
	}
	return r, nil
}

// size is the number of players.
func (r *roster) size(e *Explainer) int {
	switch r.players {
	case ConstraintPlayers:
		return len(e.DCs)
	case CellPlayers:
		return e.Dirty.NumCells() - 1
	case RelevantCellPlayers:
		// Every other row holds a player per relevant column; the cell's
		// own row holds every other cell.
		return (e.Dirty.NumRows()-1)*len(r.cols) + e.Dirty.NumCols() - 1
	}
	return len(r.groups)
}

// ref is player k's cell under the cell rosters.
func (r *roster) ref(e *Explainer, k int) table.CellRef {
	cols := e.Dirty.NumCols()
	if r.players == CellPlayers {
		if k >= e.Dirty.VecIndex(r.cell) {
			k++
		}
		return table.CellRef{Row: k / cols, Col: k % cols}
	}
	// Rows above the cell's row, then the cell's row, then the rows below.
	rel := len(r.cols)
	above := r.cell.Row * rel
	if k < above {
		return table.CellRef{Row: k / rel, Col: r.cols[k%rel]}
	}
	k -= above
	if k < cols-1 {
		if k >= r.cell.Col {
			k++
		}
		return table.CellRef{Row: r.cell.Row, Col: k}
	}
	k -= cols - 1
	return table.CellRef{Row: r.cell.Row + 1 + k/rel, Col: r.cols[k%rel]}
}

// cells lists the cell roster's players in player order.
func (r *roster) cells(e *Explainer) []table.CellRef {
	out := make([]table.CellRef, r.size(e))
	for k := range out {
		out[k] = r.ref(e, k)
	}
	return out
}

// name is player k's name in reports: a constraint ID, a cell in paper
// notation or a group name.
func (r *roster) name(e *Explainer, k int) string {
	switch r.players {
	case ConstraintPlayers:
		return e.DCs[k].ID
	case CellPlayers, RelevantCellPlayers:
		return e.Dirty.RefName(r.ref(e, k))
	}
	return r.groups[k].Name
}

// kind is the report kind of an explain over the roster with the (resolved)
// estimator, suffixed "-toward" for a Desired value.
func (r *roster) kind(est Estimator, toward bool) string {
	kind := "cell-groups"
	switch r.players {
	case ConstraintPlayers:
		kind = "constraints"
	case CellPlayers, RelevantCellPlayers:
		kind = "cells"
	}
	switch est {
	case TopKShapley:
		kind += "-topk"
	case BanzhafIndex:
		kind += "-banzhaf"
	case InteractionIndex:
		kind = "interaction"
	}
	if toward {
		kind += "-toward"
	}
	return kind
}

// game builds the game over the roster toward target: the constraint game
// behind the shared coalition cache, or the cell game over the roster's
// cells or groups, which replaces absent cells per policy and enrolls in
// the shared cache when bind is set (only null-policy games ever enroll).
// It is the one place an explain or a why-not search gets its game from.
func (e *Explainer) game(cell table.CellRef, target table.Value, r *roster, policy ReplacementPolicy, bind bool) shapley.Game {
	if r.players == ConstraintPlayers {
		return e.cachedGame(e.constraintGameDesc(cell, target), e.NewConstraintGame(cell, target))
	}
	g := e.newCellGame(cell, target, policy, r)
	if bind {
		g.BindSharedCache()
	}
	return g
}

// stochastic returns the game as the samplers take it; the constraint game
// is deterministic and small, so it is only ever valued exactly.
func stochastic(g shapley.Game) (shapley.StochasticGame, error) {
	sg, ok := g.(shapley.StochasticGame)
	if !ok {
		return nil, fmt.Errorf("constraint players are valued exactly, not sampled")
	}
	return sg, nil
}

// sampledEntries returns the ranked entries of the roster's sampled game:
// a copy of the memoized entries of an earlier explain with the same
// descriptor at this table generation, or fresh ones, named and sorted,
// which it memoizes. The copy keeps a caller that edits its report from
// reaching the memo.
func (e *Explainer) sampledEntries(ctx context.Context, cell table.CellRef, target table.Value, r *roster, opts CellExplainOptions) ([]Entry, error) {
	kind, players := "cells-sampled", "players=all"
	switch r.players {
	case RelevantCellPlayers:
		players = "players=relevant"
	case RowPlayers, ColumnPlayers, GroupPlayers:
		kind, players = "groups-sampled", "groups="+groupsDesc(e.Dirty, r.groups)
	}
	desc := e.sampledDesc(kind, opts, "cell="+refDesc(cell), "target="+targetDesc(target), players)
	gen := e.Dirty.Generation()
	if entries, ok := e.cachedEntries(desc, gen); ok {
		return slices.Clone(entries), nil
	}
	game, err := stochastic(e.game(cell, target, r, opts.Policy, r.size(e) <= maxBoundRoster))
	if err != nil {
		return nil, err
	}
	ests, err := shapley.SampleAll(ctx, game, shapley.Options{
		Samples: opts.Samples,
		Workers: opts.Workers,
		Seed:    opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	var entries []Entry
	for k, est := range ests {
		entries = append(entries, estimateEntry(r.name(e, k), est))
	}
	sortEntries(entries)
	e.storeEntries(desc, gen, entries)
	return entries, nil
}

// estimateEntry is the report line of a sampled estimate.
func estimateEntry(name string, est shapley.Estimate) Entry {
	return Entry{Name: name, Shapley: est.Mean, CI95: est.CI95(), Samples: est.N}
}

// interactionEntries lists every pair of players i < j as "I(a,b)" with
// its interaction index, strongest |value| first, ties by the pair's
// names.
func interactionEntries(e *Explainer, r *roster, matrix [][]float64) []Entry {
	type pair struct {
		a, b string
		v    float64
	}
	var pairs []pair
	for i := range matrix {
		for j := i + 1; j < len(matrix); j++ {
			pairs = append(pairs, pair{r.name(e, i), r.name(e, j), matrix[i][j]})
		}
	}
	sort.Slice(pairs, func(x, y int) bool {
		if ax, ay := math.Abs(pairs[x].v), math.Abs(pairs[y].v); ax != ay {
			return ax > ay
		}
		if pairs[x].a != pairs[y].a {
			return pairs[x].a < pairs[y].a
		}
		return pairs[x].b < pairs[y].b
	})
	var entries []Entry
	for _, p := range pairs {
		entries = append(entries, Entry{Name: "I(" + p.a + "," + p.b + ")", Shapley: p.v})
	}
	return entries
}
