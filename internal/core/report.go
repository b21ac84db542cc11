package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/shapley"
)

// Entry is one ranked line of an explanation: a player with its value.
type Entry = shapley.Entry

// Report is a ranked explanation for the repair of one cell, highest
// Shapley value first — what the explanation screen of Figure 3c shows.
type Report struct {
	// Kind names the players and the estimator: "constraints", "cells" or
	// "cell-groups" (rows, columns or explicit groups), suffixed "-topk"
	// or "-banzhaf" for those estimators, or "interaction" for pairs; then
	// "-toward" when the query named a Desired value. The HTTP kinds
	// answer "constraints", "cells", "cells-topk", "cell-groups",
	// "interaction" and "constraints-toward"; the Banzhaf ablation is
	// "constraints-banzhaf".
	Kind string
	// Cell is the explained cell in paper notation.
	Cell string
	// Target is the clean value whose derivation is being explained.
	Target string
	// Algorithm is the black box's name.
	Algorithm string
	// Entries are sorted by descending Shapley value (ties by name), except
	// for top-k (racing order) and interaction reports (see Explain).
	Entries []Entry
	// Separated reports, for top-k, whether the K entries were separated
	// from the rest at the racing confidence level.
	Separated bool
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

// InteractionReport renders an "interaction" report (InteractionIndex over
// the constraints): the pairwise structure of the constraint set for one
// repair — the "why do C1 and C2 only matter together?" question that
// plain Shapley values cannot answer.
type InteractionReport Report

// String renders the pairs, each marked complements, substitutes or
// independent.
func (r *InteractionReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Constraint interactions for repair of %s -> %q by %s\n", r.Cell, r.Target, r.Algorithm)
	for _, p := range r.Entries {
		kind := "independent"
		switch {
		case p.Shapley > 1e-12:
			kind = "complements"
		case p.Shapley < -1e-12:
			kind = "substitutes"
		}
		fmt.Fprintf(&b, "  %s = %+.4f (%s)\n", p.Name, p.Shapley, kind)
	}
	return b.String()
}

// Find returns the entry of an unordered pair of player names.
func (r *InteractionReport) Find(a, b string) (Entry, bool) {
	if p, ok := (*Report)(r).Find("I(" + a + "," + b + ")"); ok {
		return p, true
	}
	return (*Report)(r).Find("I(" + b + "," + a + ")")
}

// sortEntries orders by descending Shapley, ties by name for determinism.
// slices.SortFunc runs the same pattern-defeating quicksort as sort.Slice
// without its reflective swaps, so the order is the same, ties included.
func sortEntries(entries []Entry) {
	slices.SortFunc(entries, func(a, b Entry) int {
		if a.Shapley != b.Shapley {
			if a.Shapley > b.Shapley {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Name, b.Name)
	})
}

// CellExplainOptions are the sampling parameters of an explain (see
// Query).
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
// of a sampled explain are almost never asked for again, and packing,
// storing and logging each one cost more than the repeats save, so the explain is
// memoized whole instead (sampledDesc).
const maxBoundRoster = 64

// sampledDesc is the Memo descriptor of a sampled explain's report: the
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

// cachedEntries returns the memoized report entries of desc at generation
// gen, staged ones of the open entry point first. They are owned by the
// memo: callers copy before handing them out.
func (e *Explainer) cachedEntries(desc string, gen uint64) ([]Entry, bool) {
	if e.txn != nil {
		return e.txn.EntriesLookup(desc, gen)
	}
	return e.Engine.RepairTargets().LookupEntries(desc, gen)
}

// storeEntries memoizes a sampled explain's report entries, staged in the
// entry point's transaction so an aborted explain leaves the Memo as it
// was.
func (e *Explainer) storeEntries(desc string, gen uint64, entries []Entry) {
	if t := e.liveTxn(); t != nil {
		t.EntriesStore(desc, gen, entries)
		return
	}
	e.Engine.RepairTargets().StoreEntries(desc, gen, entries)
}
