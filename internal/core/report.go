package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/shapley"
	"repro/internal/table"
)

// Entry is one ranked line of an explanation: a constraint or a cell with
// its Shapley value.
type Entry struct {
	// Name is the constraint ID (e.g. "C3") or the cell in the paper's
	// notation (e.g. "t5[League]").
	Name string
	// Shapley is the (exact or estimated) Shapley value.
	Shapley float64
	// CI95 is the half-width of the 95% confidence interval; zero for
	// exact computation.
	CI95 float64
	// Samples is the number of Monte-Carlo samples; zero for exact.
	Samples int
}

// Report is a ranked explanation for the repair of one cell, highest
// Shapley value first — what the explanation screen of Figure 3c shows.
type Report struct {
	// Kind is "constraints" or "cells".
	Kind string
	// Cell is the explained cell in paper notation.
	Cell string
	// Target is the clean value whose derivation is being explained.
	Target string
	// Algorithm is the black box's name.
	Algorithm string
	// Entries are sorted by descending Shapley value (ties by name).
	Entries []Entry
}

// String renders the report as an aligned text ranking.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Explanation (%s) for repair of %s -> %q by %s\n", r.Kind, r.Cell, r.Target, r.Algorithm)
	for i, e := range r.Entries {
		if e.Samples > 0 {
			fmt.Fprintf(&b, "%3d. %-16s %+.4f ± %.4f (n=%d)\n", i+1, e.Name, e.Shapley, e.CI95, e.Samples)
		} else {
			fmt.Fprintf(&b, "%3d. %-16s %+.4f\n", i+1, e.Name, e.Shapley)
		}
	}
	return b.String()
}

// Top returns the highest-ranked entry; ok is false for empty reports.
func (r *Report) Top() (Entry, bool) {
	if len(r.Entries) == 0 {
		return Entry{}, false
	}
	return r.Entries[0], true
}

// Find returns the entry with the given name.
func (r *Report) Find(name string) (Entry, bool) {
	for _, e := range r.Entries {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// sortEntries orders by descending Shapley, ties by name for determinism.
func sortEntries(entries []Entry) {
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].Shapley != entries[b].Shapley {
			return entries[a].Shapley > entries[b].Shapley
		}
		return entries[a].Name < entries[b].Name
	})
}

// ExplainConstraints computes the exact Shapley value of every constraint
// for the repair of the cell of interest and returns the ranking
// (Figure 1's numbers). The black box is memoized on the coalition, so the
// 2^n enumeration costs at most 2^n repair runs.
func (e *Explainer) ExplainConstraints(ctx context.Context, cell table.CellRef) (_ *Report, err error) {
	defer e.finishEntry(e.begin(), &err)
	target, repaired, err := e.Target(ctx, cell)
	if err != nil {
		return nil, err
	}
	if !repaired {
		return nil, fmt.Errorf("core: cell %s was not repaired; nothing to explain", e.Dirty.RefName(cell))
	}
	game := e.cachedGame(e.constraintGameDesc(cell, target), e.NewConstraintGame(cell, target))
	values, err := shapley.ExactSubsets(ctx, game)
	if err != nil {
		return nil, fmt.Errorf("core: constraint Shapley: %w", err)
	}
	report := &Report{
		Kind:      "constraints",
		Cell:      e.Dirty.RefName(cell),
		Target:    target.String(),
		Algorithm: e.Alg.Name(),
	}
	for i, v := range values {
		report.Entries = append(report.Entries, Entry{Name: e.DCs[i].ID, Shapley: v})
	}
	sortEntries(report.Entries)
	return report, nil
}

// CellExplainOptions configures ExplainCells.
type CellExplainOptions struct {
	// Samples is the number of sampled permutations (default 500). Each
	// permutation walk costs len(players)+1 black-box runs and yields one
	// marginal per player.
	Samples int
	// Workers is the sampling fan-out (default GOMAXPROCS).
	Workers int
	// Seed makes runs reproducible.
	Seed int64
	// Policy selects null masking (paper's definition) or column-sampled
	// replacement (Example 2.5). Default ReplaceWithNull.
	Policy ReplacementPolicy
	// RestrictToRelevant scopes players to RelevantCells, dropping cells
	// that are provably dummies for constraint-driven repairers.
	RestrictToRelevant bool
}

func (o CellExplainOptions) withDefaults() CellExplainOptions {
	if o.Samples <= 0 {
		o.Samples = 500
	}
	return o
}

// maxBoundRoster is the widest player roster whose sampled SampleAll
// explain binds to the shared coalition cache. Up to it, exact and sampled
// paths over one roster share coalition values. Beyond it the coalitions
// of a sampled explain are almost never asked for again, and packing and
// staging each one cost more than the repeats save, so the explain is
// memoized whole instead (sampledDesc).
const maxBoundRoster = 64

// sampledDesc is the Memo descriptor of a sampled explain's estimates: the
// game's descriptor parts plus the options that fix the estimates. Workers
// is left out, because estimates are bit-identical for every worker count.
// It extends the memoized repair descriptor, which already folds in the
// black box and the constraint set, with length-prefixed parts, so it
// stays injective without re-rendering every constraint per explain.
func (e *Explainer) sampledDesc(kind string, opts CellExplainOptions, parts ...string) string {
	var b strings.Builder
	b.WriteString(e.repairDesc())
	writeDescPart(&b, kind)
	for _, p := range parts {
		writeDescPart(&b, p)
	}
	writeDescPart(&b, "policy="+strconv.Itoa(int(opts.Policy)))
	writeDescPart(&b, "samples="+strconv.Itoa(opts.Samples))
	writeDescPart(&b, "seed="+strconv.FormatInt(opts.Seed, 10))
	return b.String()
}

// cachedEstimates returns the memoized estimates of desc at generation
// gen, staged ones of the open entry point first.
func (e *Explainer) cachedEstimates(desc string, gen uint64) ([]shapley.Estimate, bool) {
	if e.txn != nil {
		return e.txn.EstimatesLookup(desc, gen)
	}
	return e.Engine.RepairTargets().LookupEstimates(desc, gen)
}

// storeEstimates memoizes a sampled explain's estimates, staged in the
// entry point's transaction so an aborted explain leaves the Memo as it
// was.
func (e *Explainer) storeEstimates(desc string, gen uint64, ests []shapley.Estimate) {
	if t := e.liveTxn(); t != nil {
		t.EstimatesStore(desc, gen, ests)
		return
	}
	e.Engine.RepairTargets().StoreEstimates(desc, gen, ests)
}

// cellPlayers is the player roster of a cell explain: every cell, or only
// the relevant ones, without the pinned cell of interest — the roster
// NewCellGame and RestrictPlayers build.
func (e *Explainer) cellPlayers(cell table.CellRef, restrict bool) []table.CellRef {
	if restrict {
		return e.RelevantCells(cell)
	}
	return slices.DeleteFunc(e.Dirty.Cells(), func(ref table.CellRef) bool { return ref == cell })
}

// ExplainCells estimates the Shapley value of every table cell for the
// repair of the cell of interest by permutation sampling and returns the
// ranking (the cell half of the explanation screen). With a session
// engine the estimates are memoized per (game, Samples, Seed, Policy) at
// the table generation, so a repeat explain runs no black box at all.
func (e *Explainer) ExplainCells(ctx context.Context, cell table.CellRef, opts CellExplainOptions) (_ *Report, err error) {
	defer e.finishEntry(e.begin(), &err)
	opts = opts.withDefaults()
	target, repaired, err := e.Target(ctx, cell)
	if err != nil {
		return nil, err
	}
	if !repaired {
		return nil, fmt.Errorf("core: cell %s was not repaired; nothing to explain", e.Dirty.RefName(cell))
	}
	players := e.cellPlayers(cell, opts.RestrictToRelevant)
	roster := "all"
	if opts.RestrictToRelevant {
		roster = "relevant"
	}
	desc := e.sampledDesc("cells-sampled", opts,
		"cell="+refDesc(cell), "target="+targetDesc(target), "players="+roster)
	gen := e.Dirty.Generation()
	ests, ok := e.cachedEstimates(desc, gen)
	if !ok {
		game := e.NewCellGame(cell, target, opts.Policy)
		if opts.RestrictToRelevant {
			game.RestrictPlayers(players)
		}
		// Under the deterministic null policy the sampled coalition values
		// of a narrow roster join the session's shared cache, where the
		// exact path over the same roster finds them.
		if len(players) <= maxBoundRoster {
			game.BindSharedCache()
		}
		ests, err = shapley.SampleAll(ctx, game, shapley.Options{
			Samples: opts.Samples,
			Workers: opts.Workers,
			Seed:    opts.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("core: cell Shapley: %w", err)
		}
		e.storeEstimates(desc, gen, ests)
	}
	report := &Report{
		Kind:      "cells",
		Cell:      e.Dirty.RefName(cell),
		Target:    target.String(),
		Algorithm: e.Alg.Name(),
	}
	for k, est := range ests {
		report.Entries = append(report.Entries, Entry{
			Name:    e.Dirty.RefName(players[k]),
			Shapley: est.Mean,
			CI95:    est.CI95(),
			Samples: est.N,
		})
	}
	sortEntries(report.Entries)
	return report, nil
}

// ExplainCellsExact computes exact cell Shapley values by subset
// enumeration under the null policy. Only feasible when the (possibly
// restricted) player count is small; used to validate the sampler.
func (e *Explainer) ExplainCellsExact(ctx context.Context, cell table.CellRef, restrict bool) (_ *Report, err error) {
	defer e.finishEntry(e.begin(), &err)
	target, repaired, err := e.Target(ctx, cell)
	if err != nil {
		return nil, err
	}
	if !repaired {
		return nil, fmt.Errorf("core: cell %s was not repaired; nothing to explain", e.Dirty.RefName(cell))
	}
	game := e.NewCellGame(cell, target, ReplaceWithNull)
	if restrict {
		game.RestrictPlayers(e.RelevantCells(cell))
	}
	// The game's own binding replaces the cachedGame wrapper here: the
	// descriptor is keyed on the exact roster, so the exact enumeration and
	// the sampled null-policy paths over the same roster share one pool of
	// memoized coalition values.
	game.BindSharedCache()
	values, err := shapley.ExactSubsets(ctx, game)
	if err != nil {
		return nil, fmt.Errorf("core: exact cell Shapley: %w", err)
	}
	report := &Report{
		Kind:      "cells",
		Cell:      e.Dirty.RefName(cell),
		Target:    target.String(),
		Algorithm: e.Alg.Name(),
	}
	players := game.Players()
	for k, v := range values {
		report.Entries = append(report.Entries, Entry{Name: e.Dirty.RefName(players[k]), Shapley: v})
	}
	sortEntries(report.Entries)
	return report, nil
}
