package dc

import (
	"slices"
	"sync"

	"repro/internal/table"
)

// Constraint-set planning hooks.
//
// A SetPlanner is the executor-side view of a compiled constraint-set
// query plan (internal/dc/plan). The dc package stays below the planner:
// it only consumes per-constraint PlanChoice values and feeds observed
// cardinalities back as pre-sizing hints. Everything a plan changes is a
// pure strategy choice — which shared hash partition backs a pair scan,
// the predicate evaluation order, which single-side predicates run as
// pre-filter bitmaps, and initial map/slice capacities — so planned and
// unplanned execution are bit-identical by construction: violation lists
// stay sorted by (Row1, Row2), point probes re-check the full kernel,
// and the exact-signature partition keeps serving group enumeration.

// SetPlanner supplies per-constraint execution choices and collects
// cardinality feedback. Implementations must be safe for concurrent use:
// one plan is shared by every ScanIndex of a session (repair runs fan
// out across workers). Implemented by *plan.Plan.
type SetPlanner interface {
	// PlanSchema is the schema the plan was compiled against; a ScanIndex
	// ignores the plan when bound to a table with a different schema.
	PlanSchema() *table.Schema
	// ConstraintPlan returns the choice for c, false when the plan does
	// not cover the constraint.
	ConstraintPlan(c *Constraint) (PlanChoice, bool)
	// PartitionHint returns the last observed slot count of the partition
	// with the given column signature.
	PartitionHint(sig string) (int, bool)
	// RecordPartition feeds an observed slot count back to the plan.
	RecordPartition(sig string, slots int)
	// ViolationHint returns the last observed violation-pair count of c.
	ViolationHint(c *Constraint) (int, bool)
	// RecordViolations feeds an observed violation-pair count back.
	RecordViolations(c *Constraint, pairs int)
}

// PlanChoice is one constraint's slice of the set plan.
type PlanChoice struct {
	// ScanCols is the partition used for pair scans and point probes: the
	// constraint's canonical equality-join columns, or a shared subset of
	// them (a coarser partition another constraint already pays for).
	// Coarsening is sound because every predicate — including the
	// equality joins that justify the partition — is still checked by the
	// kernel on each candidate pair, and output order is canonical.
	ScanCols []int
	// PredOrder is the kernel evaluation order: a permutation of the
	// constraint's predicate indexes, most selective first.
	PredOrder []int
	// Pre0 and Pre1 are the predicate indexes hoisted out of the pair
	// loop into per-row pre-filter bitmaps: Pre0 predicates read only
	// tuple t1, Pre1 only t2. The residual kernel evaluates the rest.
	Pre0, Pre1 []int
}

// prefilter is the materialized per-row bitmap pair of one constraint's
// pushed-down single-side predicates, maintained against the bound table
// alongside the hash partitions: pass0[r] reports whether row r can bind
// t1 at all, pass1[r] whether it can bind t2. Bucket pair enumeration
// skips anchors failing pass0 and pre-masks candidates failing pass1
// before the residual kernel runs.
type prefilter struct {
	kern0, kern1 *Kernel
	// colRel[col] marks the columns the pushed predicates read; edits
	// elsewhere cannot change the bitmaps.
	colRel []bool
	// pass0/pass1 are nil when the corresponding side has no pushed
	// predicates (every row passes).
	pass0, pass1 []bool
	rows         int
	stale        bool
}

// rebuild recomputes both bitmaps over the whole table.
func (pf *prefilter) rebuild(t *table.Table) {
	n := t.NumRows()
	if pf.kern0 != nil {
		pf.pass0 = resizeBools(pf.pass0, n)
		for r := 0; r < n; r++ {
			pf.pass0[r] = pf.kern0.Pair(t, r, r)
		}
	}
	if pf.kern1 != nil {
		pf.pass1 = resizeBools(pf.pass1, n)
		for r := 0; r < n; r++ {
			pf.pass1[r] = pf.kern1.Pair(t, r, r)
		}
	}
	pf.rows = n
	pf.stale = false
}

// apply catches the bitmaps up with a window of single-cell edits.
// Windows with structural edits take applyStructural instead.
func (pf *prefilter) apply(t *table.Table, edits []table.Edit) {
	for _, e := range edits {
		if e.Kind != table.EditSet || e.Col >= len(pf.colRel) || !pf.colRel[e.Col] {
			continue
		}
		if pf.pass0 != nil {
			pf.pass0[e.Row] = pf.kern0.Pair(t, e.Row, e.Row)
		}
		if pf.pass1 != nil {
			pf.pass1[e.Row] = pf.kern1.Pair(t, e.Row, e.Row)
		}
	}
}

// applyStructural extends/compacts the bitmaps for a structural window
// instead of recomputing them: surviving unmoved rows keep their bits
// (same index, same bytes), and only the re-derived final positions plus
// relevantly-edited rows run the pushed kernels.
func (pf *prefilter) applyStructural(t *table.Table, rm *table.RowRemap) {
	n := rm.NewRows
	if pf.pass0 != nil {
		pf.pass0 = resizeBoolsPreserve(pf.pass0, n)
	}
	if pf.pass1 != nil {
		pf.pass1 = resizeBoolsPreserve(pf.pass1, n)
	}
	for _, p := range rm.Derive {
		pf.recomputeRow(t, int(p))
	}
	for _, e := range rm.Sets {
		if rm.CleanSet(e) && e.Col < len(pf.colRel) && pf.colRel[e.Col] {
			pf.recomputeRow(t, e.Row)
		}
	}
	pf.rows = n
}

func (pf *prefilter) recomputeRow(t *table.Table, r int) {
	if pf.pass0 != nil {
		pf.pass0[r] = pf.kern0.Pair(t, r, r)
	}
	if pf.pass1 != nil {
		pf.pass1[r] = pf.kern1.Pair(t, r, r)
	}
}

func resizeBools(b []bool, n int) []bool {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]bool, n)
}

// resizeBoolsPreserve resizes keeping existing prefix contents — required
// by structural replay, where survivor bits must outlive a grow.
func resizeBoolsPreserve(b []bool, n int) []bool {
	if cap(b) >= n {
		return b[:n]
	}
	grown := make([]bool, n)
	copy(grown, b)
	return grown
}

// UsePlan points the index at a compiled set plan (nil reverts to
// unplanned execution). Pooled consumers call this once per run so a
// scratch index recycled across sessions never applies a stale plan:
// the per-constraint memo and pre-filter state are plan-scoped and reset
// on every change.
func (ix *ScanIndex) UsePlan(p SetPlanner) {
	if ix.plan == p {
		return
	}
	ix.plan = p
	clear(ix.colsOf)
	ix.clearPrefilters()
}

// clearPrefilters drops all pre-filter state (plan or schema change).
func (ix *ScanIndex) clearPrefilters() {
	clear(ix.pre)
	ix.preOrdered = ix.preOrdered[:0]
}

// applyChoice folds the plan's choice for c into its memo entry: the
// ordered kernel, the shared scan partition and the pre-filter bitmaps.
// It returns the predicate order the bucket residual follows (nil for
// declaration order) and the predicates the pre-filter bitmaps evaluate
// (nil when none). Any malformed choice degrades to the unplanned entry —
// the plan is an optimization surface, never a correctness one.
func (ix *ScanIndex) applyChoice(c *Constraint, t *table.Table, e *colsEntry, ch PlanChoice) (order []int, pushed []bool) {
	if len(ch.PredOrder) == len(c.Preds) {
		if k, err := compileKernelSeq(c, t.Schema(), ch.PredOrder); err == nil {
			e.kern = k
			order = ch.PredOrder
		}
	}
	if len(ch.ScanCols) > 0 && len(e.cols) > 0 && colsSubset(ch.ScanCols, e.cols) {
		e.scanCols = ch.ScanCols
		e.scanSig = colsSignature(ch.ScanCols)
	}
	if c.SingleTuple() || len(ch.Pre0)+len(ch.Pre1) == 0 {
		return order, nil
	}
	if _, ok := ix.pre[c]; !ok {
		pf := &prefilter{stale: true}
		var err error
		if pf.kern0, err = sideKernel(c, t.Schema(), ch.Pre0); err != nil {
			return order, nil
		}
		if pf.kern1, err = sideKernel(c, t.Schema(), ch.Pre1); err != nil {
			return order, nil
		}
		if pf.kern0 == nil && pf.kern1 == nil {
			return order, nil
		}
		pf.colRel = make([]bool, t.Schema().Len())
		for _, idx := range ch.Pre0 {
			markPredCols(pf.colRel, c, t.Schema(), idx)
		}
		for _, idx := range ch.Pre1 {
			markPredCols(pf.colRel, c, t.Schema(), idx)
		}
		ix.pre[c] = pf
		ix.preOrdered = append(ix.preOrdered, pf)
	}
	pushed = make([]bool, len(c.Preds))
	for _, idxs := range [2][]int{ch.Pre0, ch.Pre1} {
		for _, idx := range idxs {
			if idx >= 0 && idx < len(pushed) {
				pushed[idx] = true
			}
		}
	}
	return order, pushed
}

// bucketResidual returns, in evaluation order (order, or declaration
// order when nil), the predicates of c that a pair inside a bucket of the
// scan partition over scanCols must still be checked against: all but
// those pushed into pre-filter bitmaps and the equalities t1.A = t2.A over
// a scan column A. Every pair in a bucket satisfies those already: the
// bucket key is the = predicate's canonical form, and null and NaN keys
// stay out of every bucket.
func bucketResidual(c *Constraint, schema *table.Schema, order []int, pushed []bool, scanCols []int) []int {
	out := make([]int, 0, len(c.Preds))
	for n := range c.Preds {
		i := n
		if order != nil {
			i = order[n]
		}
		if pushed != nil && pushed[i] {
			continue
		}
		if p := c.Preds[i]; p.Op == OpEq && !p.Left.IsConst && !p.Right.IsConst && p.Left.Attr == p.Right.Attr && p.Left.Tuple != p.Right.Tuple {
			if col, ok := schema.Index(p.Left.Attr); ok && slices.Contains(scanCols, col) {
				continue
			}
		}
		out = append(out, i)
	}
	return out
}

// sideKernel compiles the pushed predicates of one side; nil when none.
func sideKernel(c *Constraint, schema *table.Schema, idxs []int) (*Kernel, error) {
	if len(idxs) == 0 {
		return nil, nil
	}
	return compileKernelSeq(c, schema, idxs)
}

// markPredCols sets colRel for every column predicate idx reads.
func markPredCols(colRel []bool, c *Constraint, schema *table.Schema, idx int) {
	if idx < 0 || idx >= len(c.Preds) {
		return
	}
	p := c.Preds[idx]
	for _, o := range []Operand{p.Left, p.Right} {
		if o.IsConst {
			continue
		}
		if col, ok := schema.Index(o.Attr); ok {
			colRel[col] = true
		}
	}
}

// colsSubset reports whether every column of sub appears in super
// (set semantics; both lists are small).
func colsSubset(sub, super []int) bool {
	for _, s := range sub {
		found := false
		for _, e := range super {
			if e == s {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// prefilterFor returns c's pre-filter synced to t, nil when the plan
// pushed nothing for c. entryFor must have run for c already (it
// installs the prefilter).
func (ix *ScanIndex) prefilterFor(c *Constraint, t *table.Table) *prefilter {
	pf, ok := ix.pre[c]
	if !ok {
		return nil
	}
	if pf.stale || pf.rows != t.NumRows() {
		pf.rebuild(t)
	}
	return pf
}

// UsePlan points the live set's inner index at a compiled set plan (nil
// reverts to unplanned execution). Materialized lists stay valid across
// plan changes: planned and unplanned derivation are bit-identical.
func (s *LiveViolationSet) UsePlan(p SetPlanner) {
	s.ix.UsePlan(p)
}

// colsSignature interning: entryFor runs on the hot sync path of every
// repair fixpoint, and building a fresh signature string per call showed
// up as its only steady-state allocation. Signatures are tiny and drawn
// from a small universe (one per distinct join-column set per schema),
// so a bounded process-wide intern table makes the lookup alloc-free:
// map access via string(bytes) does not allocate, and the interned
// string is shared by every index in the process.
var (
	sigMu     sync.RWMutex
	sigIntern = make(map[string]string)
)

// maxSigInterned bounds the intern table; past it (a server churning
// through schemas forever) the table resets rather than growing without
// bound.
const maxSigInterned = 4096

// internSignature returns the canonical shared copy of the signature
// bytes, allocating only on first sight.
func internSignature(b []byte) string {
	sigMu.RLock()
	s, ok := sigIntern[string(b)]
	sigMu.RUnlock()
	if ok {
		return s
	}
	sigMu.Lock()
	defer sigMu.Unlock()
	if s, ok = sigIntern[string(b)]; ok {
		return s
	}
	if len(sigIntern) >= maxSigInterned {
		clear(sigIntern)
	}
	s = string(b)
	sigIntern[s] = s
	return s
}
