package repair

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/dc"
	"repro/internal/exec"
	"repro/internal/table"
)

// HoloSim is a HoloClean-style probabilistic repairer. It substitutes for
// the real HoloClean system (Rekatsinas et al., PVLDB 2017) that the
// paper's prototype queries, which a self-contained reproduction cannot
// call. The pipeline mirrors HoloClean's stages:
//
//  1. Error detection: a cell is suspect when its attribute appears in an
//     inequality predicate of a violated DC for a tuple participating in
//     the violation (the disagreeing attribute is the plausibly-wrong one;
//     the equality join keys are corroborated by the match). For DCs with
//     no inequality predicate, every mentioned attribute is suspect.
//  2. Domain generation: candidate values for a suspect cell are values
//     co-occurring (in other rows) with the tuple's other attributes, plus
//     the most frequent column values, capped at DomainCap.
//  3. Featurization: each candidate is scored by log-linear features —
//     column frequency, leave-one-out co-occurrence conditionals with the
//     remaining attributes of the tuple (own-row evidence is excluded so a
//     dirty value cannot corroborate itself), the number of DC violations
//     the tuple would be left in, and a prior for keeping the current
//     value.
//  4. Inference: argmax of the weighted feature sum becomes the repair.
//     Weights are fixed, interpretable defaults (HoloClean learns them;
//     fixed weights keep the black box deterministic, which Shapley
//     computation requires).
//
// The zero value is not usable; construct with NewHoloSim.
type HoloSim struct {
	// DomainCap bounds the candidate domain per cell.
	DomainCap int
	// WFreq, WCooc, WViol, WPrior are the log-linear feature weights.
	WFreq, WCooc, WViol, WPrior float64
	// MaxRounds bounds the detect-repair loop.
	MaxRounds int
	// seed drives tie-breaking noise injected into scores; it keeps the
	// algorithm deterministic per instance while avoiding systematic bias
	// between equal-scored candidates.
	seed int64
	// runs pools the per-run scratch state (rng, statistics, scan index,
	// suspect and candidate buffers) behind the ScratchRepairer contract.
	runs sync.Pool
}

// holoRun is the reusable per-run state of one RepairInto invocation. The
// rng is re-seeded at the top of every run, so pooled reuse cannot leak
// randomness between runs — determinism per (cs, dirty) input is
// preserved. Error detection reads the live violation set, so each
// committed repair retracts and re-derives only the repaired row's pairs
// before the next detect round.
type holoRun struct {
	rng  *rand.Rand
	live *dc.LiveViolationSet
	pooledStats
	vsBuf      []dc.Violation
	suspectSet map[table.CellRef]bool
	suspects   []table.CellRef
	domain     []table.Value
	domainSeen map[string]bool
	keyBuf     []byte
}

// newHoloRun builds an empty run state seeded for one HoloSim instance.
func newHoloRun(seed int64) *holoRun {
	//lint:allow allocfree pool-miss constructor: runs once per pooled run state, then RepairInto reuses it allocation-free
	return &holoRun{
		rng:  rand.New(rand.NewSource(seed)),
		live: dc.NewLiveViolationSet(),
		//lint:allow allocfree pool-miss constructor (see above)
		suspectSet: make(map[table.CellRef]bool),
		//lint:allow allocfree pool-miss constructor (see above)
		domainSeen: make(map[string]bool),
	}
}

// NewHoloSim constructs a HoloSim with the default feature weights.
func NewHoloSim(seed int64) *HoloSim {
	return &HoloSim{
		DomainCap: 16,
		WFreq:     1.0,
		WCooc:     3.0,
		WViol:     -4.0,
		WPrior:    1.0,
		MaxRounds: 5,
		seed:      seed,
	}
}

// Name implements Algorithm.
func (h *HoloSim) Name() string { return "holosim" }

// Repair implements Algorithm.
func (h *HoloSim) Repair(ctx context.Context, cs []*dc.Constraint, dirty *table.Table) (*table.Table, error) {
	return h.RepairInto(ctx, cs, dirty, nil)
}

// RepairInto implements ScratchRepairer: Repair writing into the
// caller-owned work table with pooled per-run buffers.
//
//lint:hotpath
func (h *HoloSim) RepairInto(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table) (*table.Table, error) {
	return h.repairInto(ctx, cs, dirty, work, nil, nil)
}

// RepairIntoParallel implements PartitionedRepairer: inference commits are
// sequential (each repair feeds the next round's detection), but the
// detect stage's full violation derivations fan their disjoint buckets
// across the session pool on large tables — output bit-identical to
// RepairInto by the live set's contract.
func (h *HoloSim) RepairIntoParallel(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool) (*table.Table, error) {
	return h.repairInto(ctx, cs, dirty, work, pool, nil)
}

// RepairIntoPlanned implements PlannedRepairer: the run's live violation
// set executes behind the session's compiled constraint-set plan —
// output bit-identical to RepairInto by the plan contract.
func (h *HoloSim) RepairIntoPlanned(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool, plan dc.SetPlanner) (*table.Table, error) {
	return h.repairInto(ctx, cs, dirty, work, pool, plan)
}

func (h *HoloSim) repairInto(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool, plan dc.SetPlanner) (*table.Table, error) {
	work = prepareWork(dirty, work)
	st, ok := h.runs.Get().(*holoRun)
	if !ok {
		st = newHoloRun(h.seed)
	}
	defer h.runs.Put(st)
	st.live.UsePlan(plan)
	if pool != nil {
		st.live.Pool = pool
		defer func() { st.live.Pool = nil }()
	}
	st.rng.Seed(h.seed)
	for round := 0; round < h.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		suspects, err := h.detect(cs, work, st)
		if err != nil {
			return nil, err
		}
		if len(suspects) == 0 {
			break
		}
		// The snapshot is refreshed only after a committed change, exactly
		// as the historical clone path did: score's transient probes bump
		// the table generation without changing content, so a lazy
		// generation check would rebuild once per suspect for nothing.
		stats := st.fresh(work)
		changed := false
		for _, cell := range suspects {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			best, ok, err := h.infer(cs, work, stats, cell, st)
			if err != nil {
				return nil, err
			}
			if ok && !work.GetRef(cell).SameContent(best) {
				work.SetRef(cell, best)
				changed = true
				stats = st.fresh(work)
			}
		}
		if !changed {
			break
		}
	}
	return work, nil
}

// suspectAttrs returns the attributes of c to mark suspect on a violation:
// those appearing in ≠/</>-style predicates between the two tuples, or all
// mentioned attributes when the constraint has none (e.g. pure equality
// conjunctions).
func suspectAttrs(c *dc.Constraint) []string {
	var out []string
	seen := make(map[string]bool)
	for _, p := range c.Preds {
		if p.Op == dc.OpEq || p.Left.IsConst || p.Right.IsConst {
			continue
		}
		for _, o := range []dc.Operand{p.Left, p.Right} {
			if !seen[o.Attr] {
				seen[o.Attr] = true
				out = append(out, o.Attr)
			}
		}
	}
	if len(out) == 0 {
		return c.Attributes()
	}
	return out
}

// detect returns the suspect cells in deterministic (vectorization) order,
// accumulating into the run's pooled buffers.
func (h *HoloSim) detect(cs []*dc.Constraint, t *table.Table, st *holoRun) ([]table.CellRef, error) {
	clear(st.suspectSet)
	st.suspects = st.suspects[:0]
	for _, c := range cs {
		vs, err := st.live.Append(c, t, st.vsBuf[:0])
		st.vsBuf = vs
		if err != nil {
			return nil, err
		}
		if len(vs) == 0 {
			continue
		}
		attrs := suspectAttrs(c)
		for _, v := range vs {
			for _, attr := range attrs {
				col := t.Schema().MustIndex(attr)
				for _, row := range []int{v.Row1, v.Row2} {
					ref := table.CellRef{Row: row, Col: col}
					if !st.suspectSet[ref] {
						st.suspectSet[ref] = true
						st.suspects = append(st.suspects, ref)
					}
				}
			}
		}
	}
	out := st.suspects
	//lint:allow allocfree one comparator closure per detect round; SortFunc does not retain it
	slices.SortFunc(out, func(a, b table.CellRef) int {
		return t.VecIndex(a) - t.VecIndex(b)
	})
	return out, nil
}

// infer scores the candidate domain of one suspect cell and returns the
// argmax candidate.
func (h *HoloSim) infer(cs []*dc.Constraint, t *table.Table, stats *table.Stats, cell table.CellRef, st *holoRun) (table.Value, bool, error) {
	candidates := h.domain(t, stats, cell, st)
	if len(candidates) == 0 {
		return table.Null(), false, nil
	}
	current := t.GetRef(cell)
	type scored struct {
		v table.Value
		s float64
	}
	best := scored{s: math.Inf(-1)}
	for _, cand := range candidates {
		score, err := h.score(cs, t, stats, cell, cand, st)
		if err != nil {
			return table.Null(), false, err
		}
		if cand.SameContent(current) {
			score += h.WPrior
		}
		// Deterministic per-run jitter breaks exact ties without biasing
		// the ordering of distinct scores.
		score += st.rng.Float64() * 1e-9
		if score > best.s {
			best = scored{v: cand, s: score}
		}
	}
	return best.v, true, nil
}

// domain builds the candidate set: current value, values of the column
// co-occurring with the tuple's other attribute values, then column values
// by global frequency, capped at DomainCap. The returned slice aliases the
// run's pooled buffer and is only valid until the next call.
func (h *HoloSim) domain(t *table.Table, stats *table.Stats, cell table.CellRef, st *holoRun) []table.Value {
	out := st.domain[:0]
	seen := st.domainSeen
	clear(seen)
	defer func() { st.domain = out }()
	add := func(v table.Value) {
		if v.IsNull() {
			return
		}
		// Alloc-free duplicate probe via the pooled key buffer; only the
		// insert of a genuinely new candidate materializes a key string.
		st.keyBuf = v.AppendKey(st.keyBuf[:0])
		if seen[string(st.keyBuf)] {
			return
		}
		seen[string(st.keyBuf)] = true
		out = append(out, v)
	}
	add(t.GetRef(cell))
	row := t.RowView(cell.Row)
	for col, given := range row {
		if col == cell.Col || given.IsNull() {
			continue
		}
		for _, e := range stats.Conditional(col, given, cell.Col).Entries() {
			if len(out) >= h.DomainCap {
				return out
			}
			add(e.Value)
		}
	}
	for _, e := range stats.Column(cell.Col).Entries() {
		if len(out) >= h.DomainCap {
			return out
		}
		add(e.Value)
	}
	return out
}

// score computes the weighted feature sum for assigning cand to cell.
func (h *HoloSim) score(cs []*dc.Constraint, t *table.Table, stats *table.Stats, cell table.CellRef, cand table.Value, st *holoRun) (float64, error) {
	freq := stats.Column(cell.Col).Prob(cand)

	// Average leave-one-out co-occurrence probability with the tuple's
	// other attributes: own-row observations are subtracted so a dirty
	// value cannot vote for itself.
	var cooc float64
	var coocN int
	row := t.RowView(cell.Row)
	for col, given := range row {
		if col == cell.Col || given.IsNull() {
			continue
		}
		cond := stats.Conditional(col, given, cell.Col)
		count := cond.Count(cand)
		total := cond.Total()
		// Remove this row's own observation from both numerator and
		// denominator.
		if !row[cell.Col].IsNull() {
			total--
			if row[cell.Col].SameContent(cand) {
				count--
			}
		}
		if total > 0 {
			cooc += float64(count) / float64(total)
		}
		coocN++
	}
	if coocN > 0 {
		cooc /= float64(coocN)
	}

	// Violations the candidate assignment would leave the tuple in. The
	// probe mutates the work table transiently; the pooled scan index
	// follows both the probe and the restore as single-bucket deltas, so
	// each check stays O(bucket) instead of O(rows).
	old := t.GetRef(cell)
	t.SetRef(cell, cand)
	viol := 0
	for _, c := range cs {
		bad, err := c.ViolatesRowCached(t, cell.Row, st.live.Index())
		if err != nil {
			t.SetRef(cell, old)
			return 0, err
		}
		if bad {
			viol++
		}
	}
	t.SetRef(cell, old)

	return h.WFreq*freq + h.WCooc*cooc + h.WViol*float64(viol), nil
}
