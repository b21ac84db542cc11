package dc

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/table"
)

// Violation records one witness that a constraint is violated: the rows
// bound to t1 and t2. For single-tuple constraints Row2 equals Row1.
type Violation struct {
	Constraint *Constraint
	Row1, Row2 int
}

// String renders the violation, e.g. "C1 violated by (t3, t6)".
func (v Violation) String() string {
	if v.Row1 == v.Row2 {
		return fmt.Sprintf("%s violated by t%d", v.Constraint.ID, v.Row1+1)
	}
	return fmt.Sprintf("%s violated by (t%d, t%d)", v.Constraint.ID, v.Row1+1, v.Row2+1)
}

// equalityJoinAttrs returns attributes A with a predicate t1.A = t2.A —
// usable as hash-join keys for the indexed scan.
func (c *Constraint) equalityJoinAttrs() []string {
	var out []string
	for _, p := range c.Preds {
		if p.Op != OpEq || p.Left.IsConst || p.Right.IsConst {
			continue
		}
		if p.Left.Attr == p.Right.Attr && p.Left.Tuple != p.Right.Tuple {
			out = append(out, p.Left.Attr)
		}
	}
	return out
}

// JoinColumns resolves the equality join attributes to column indexes;
// empty when the constraint has no usable join key. An attribute missing
// from the schema (an unvalidated constraint) yields no join key at all
// rather than a panic: the kernel compiler then reports the proper
// "attribute not in schema" error — identically on every evaluation
// path. The set planner (internal/dc/plan) uses the same resolution so
// its partition-sharing analysis and the executor agree exactly.
func (c *Constraint) JoinColumns(schema *table.Schema) []int {
	attrs := c.equalityJoinAttrs()
	cols := make([]int, 0, len(attrs))
	for _, a := range attrs {
		idx, ok := schema.Index(a)
		if !ok {
			return nil
		}
		cols = append(cols, idx)
	}
	return cols
}

// joinCols is JoinColumns against t's schema.
func (c *Constraint) joinCols(t *table.Table) []int {
	return c.JoinColumns(t.Schema())
}

// appendCompositeKey appends the hash-join key of row i over cols to buf:
// every join column's equality-canonical key (Value.AppendJoinKey, which
// unifies numeric kinds exactly as the = predicate does) joined with a
// separator. ok is false when any join column is null or NaN — such rows
// can never satisfy the equality predicates (NULL = x is unknown and
// NaN ≠ NaN), so they are excluded from bucketing entirely. Keying NaN
// rows into a shared bucket instead would be sound only for consumers that
// re-verify every pair; consumers that trust the partition as an equality
// grouping (violating-group enumeration, the FD chase) would treat NaN rows as
// joined when the = predicate says they never are. The byte form lets
// callers probe bucket maps via the compiler's alloc-free
// map[string(bytes)] access.
func appendCompositeKey(buf []byte, t *table.Table, row int, cols []int) ([]byte, bool) {
	for n, col := range cols {
		v := t.Get(row, col)
		if v.IsNull() || v.IsNaN() {
			return buf, false
		}
		if n > 0 {
			buf = append(buf, 0x1f)
		}
		buf = v.AppendJoinKey(buf)
	}
	return buf, true
}

// bucketSet is the hash partition of one table over one join-column
// signature, maintained incrementally. Bucket slots are interned for the
// set's lifetime (an emptied bucket keeps its slot and storage), members
// lists are kept in ascending row order, and rowBucket inverts the
// partition so per-row probes and delta removals need no key computation.
type bucketSet struct {
	cols []int
	// idx maps composite key -> bucket slot; append-only until a rebuild.
	idx map[string]int
	// members[slot] lists the rows of that bucket, ascending. Only
	// members[:nSlots] are live; retired slots keep their storage for the
	// next rebuild.
	members [][]int
	nSlots  int
	// rowBucket[row] is the row's bucket slot, -1 when a null join column
	// excludes the row from the partition.
	rowBucket []int
	// stale marks the set for lazy rebuild after wholesale invalidation.
	stale bool
}

// slotFor interns key, reusing a retired members slice when one is free.
// key must be the current contents of the caller's key buffer.
func (bs *bucketSet) slotFor(key []byte) int {
	if slot, ok := bs.idx[string(key)]; ok {
		return slot
	}
	slot := bs.nSlots
	bs.nSlots++
	if slot < len(bs.members) {
		bs.members[slot] = bs.members[slot][:0]
	} else {
		bs.members = append(bs.members, nil)
	}
	bs.idx[string(key)] = slot
	return slot
}

// rebuild repartitions the whole table, reusing interned storage.
func (bs *bucketSet) rebuild(t *table.Table, keyBuf *[]byte) {
	clear(bs.idx)
	bs.nSlots = 0
	n := t.NumRows()
	if cap(bs.rowBucket) >= n {
		bs.rowBucket = bs.rowBucket[:n]
	} else {
		bs.rowBucket = make([]int, n)
	}
	for i := 0; i < n; i++ {
		key, ok := appendCompositeKey((*keyBuf)[:0], t, i, bs.cols)
		*keyBuf = key
		if !ok {
			bs.rowBucket[i] = -1
			continue
		}
		slot := bs.slotFor(key)
		bs.members[slot] = append(bs.members[slot], i)
		bs.rowBucket[i] = slot
	}
	bs.stale = false
}

// apply catches the partition up with a window of single-cell edits: only
// rows whose edited column participates in this signature move, and each
// move touches exactly the source and destination buckets — the per-bucket
// delta maintenance that keeps one-cell-per-step workloads (session edits,
// coalition walks, repair fixpoints) off the full rebuild path. Windows
// with structural edits take applyStructural instead.
func (bs *bucketSet) apply(t *table.Table, edits []table.Edit, keyBuf *[]byte) {
	for _, e := range edits {
		touched := false
		for _, c := range bs.cols {
			if c == e.Col {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		bs.moveRow(t, e.Row, keyBuf)
	}
}

// applyStructural catches the partition up with a window containing row
// inserts/deletes, decoded by rm: dead and moved origins leave their
// buckets by reverse-index lookup (no key computation), the reverse index
// resizes to the final shape, and exactly the moved-in, inserted, and
// relevantly-edited rows re-key against the final table — every other
// row's bucket and index are untouched, which keeps single-row structural
// edits O(changed rows), not O(table). reinsert is caller-pooled scratch
// for deduplicating in-place edits.
func (bs *bucketSet) applyStructural(t *table.Table, rm *table.RowRemap, keyBuf *[]byte, reinsert *[]int) {
	// Phase 1: drop every dead or moved origin from its bucket. Member
	// lists hold origin-space indexes until phase 4, so reverse-index
	// removal is exact.
	for _, o := range rm.Retract {
		if slot := bs.rowBucket[o]; slot >= 0 {
			bs.members[slot] = removeSortedRow(bs.members[slot], int(o))
		}
	}
	// Phase 2: in-place cell edits on surviving unmoved rows whose column
	// participates in this signature leave their bucket now and re-key in
	// phase 4. rowBucket doubles as the dedup sentinel (-2 = pending).
	ri := (*reinsert)[:0]
	for _, e := range rm.Sets {
		if !rm.CleanSet(e) {
			continue
		}
		touched := false
		for _, c := range bs.cols {
			if c == e.Col {
				touched = true
				break
			}
		}
		if !touched || bs.rowBucket[e.Row] == -2 {
			continue
		}
		if slot := bs.rowBucket[e.Row]; slot >= 0 {
			bs.members[slot] = removeSortedRow(bs.members[slot], e.Row)
		}
		bs.rowBucket[e.Row] = -2
		ri = append(ri, e.Row)
	}
	*reinsert = ri
	// Phase 3: resize the reverse index to the final shape. Survivors keep
	// their slots; every position past the old count is in rm.Derive and
	// overwritten in phase 4.
	n := rm.NewRows
	if cap(bs.rowBucket) >= n {
		bs.rowBucket = bs.rowBucket[:n]
	} else {
		grown := make([]int, n)
		copy(grown, bs.rowBucket)
		bs.rowBucket = grown
	}
	// Phase 4: key every re-derived position and edited row from the
	// final table.
	for _, p := range rm.Derive {
		bs.insertRow(t, int(p), keyBuf)
	}
	for _, r := range ri {
		bs.insertRow(t, r, keyBuf)
	}
}

// moveRow re-buckets one row against the table's current contents.
func (bs *bucketSet) moveRow(t *table.Table, row int, keyBuf *[]byte) {
	if old := bs.rowBucket[row]; old >= 0 {
		bs.members[old] = removeSortedRow(bs.members[old], row)
	}
	bs.insertRow(t, row, keyBuf)
}

// insertRow keys row against the table's current contents and inserts it
// into its bucket — the second half of moveRow, for rows already removed.
func (bs *bucketSet) insertRow(t *table.Table, row int, keyBuf *[]byte) {
	key, ok := appendCompositeKey((*keyBuf)[:0], t, row, bs.cols)
	*keyBuf = key
	if !ok {
		bs.rowBucket[row] = -1
		return
	}
	slot := bs.slotFor(key)
	bs.members[slot] = insertSortedRow(bs.members[slot], row)
	bs.rowBucket[row] = slot
}

// removeSortedRow deletes row from the ascending slice in place.
func removeSortedRow(s []int, row int) []int {
	i := sort.SearchInts(s, row)
	if i < len(s) && s[i] == row {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// insertSortedRow inserts row into the ascending slice, keeping order.
func insertSortedRow(s []int, row int) []int {
	i := sort.SearchInts(s, row)
	if i < len(s) && s[i] == row {
		return s
	}
	return slices.Insert(s, i, row)
}

// ScanIndex caches the hash partitions that indexed violation scans build,
// keyed on the table's (pointer, generation) snapshot and the join-column
// signature. Repeated scans of an unchanged table — every constraint of a
// set, every rule of a repair pass, the final fixpoint verification —
// reuse the buckets instead of recomputing them from zero. When the bound
// table's generation moves, the index first tries to catch up from the
// table's edit log (table.EditsSince): a single-cell edit then rebuilds
// only the buckets whose composite key involves the edited column, and only
// the two buckets the row moves between; a structural window (row
// inserts/deletes) is decoded once through a table.RowRemap and replayed
// against exactly the retracted origins and re-derived positions.
// Wholesale invalidation (a different table, a schema switch, or a log
// overrun) falls back to lazy full rebuilds.
//
// A ScanIndex is confined to one goroutine (typically one repair run); the
// zero value is NOT ready to use — construct with NewScanIndex.
type ScanIndex struct {
	tbl    *table.Table
	schema *table.Schema
	gen    uint64
	// perCols maps column signature -> incrementally-maintained partition.
	perCols map[string]*bucketSet
	// ordered holds perCols' values in insertion order; sync iterates it so
	// delta replay and invalidation sweep the partitions deterministically.
	ordered []*bucketSet
	// colsOf memoizes each constraint's resolved join columns, their
	// signature, and the compiled predicate kernel: all three depend only
	// on the constraint and the schema, and the per-row hot loops below
	// would otherwise re-derive them per call. Entries are stored by
	// pointer so the per-probe lookup copies no entry.
	colsOf  map[*Constraint]*colsEntry
	editBuf []table.Edit
	keyBuf  []byte
	// rows is the bound table's row count at generation gen — the origin
	// space a structural edit window is decoded against. remap and
	// reinsertBuf are that decode's pooled scratch.
	rows        int
	remap       table.RowRemap
	reinsertBuf []int
	// alive is the shared survivor mask for columnar bucket filtering,
	// scan the bucket-scan descriptor of appendScan, probeBuf the pairs of
	// the last point probe, and allRows the identity row list a join-free
	// probe takes as its candidates.
	alive    []bool
	scan     bucketScan
	probeBuf []Violation
	allRows  []int
	// plan is the constraint-set plan in effect, nil for unplanned
	// execution. pre/preOrdered hold the plan's materialized pre-filter
	// bitmaps per constraint; the slice gives sync a deterministic sweep.
	plan       SetPlanner
	pre        map[*Constraint]*prefilter
	preOrdered []*prefilter
}

type colsEntry struct {
	cols []int
	sig  string
	// kern is the constraint body compiled against the table's schema
	// (in plan order when planned); kernErr records a compile failure
	// (unknown attribute), surfaced on use with the interpreter's error
	// text.
	kern    *Kernel
	kernErr error
	// scanCols/scanSig name the partition backing pair scans and point
	// probes: the exact join columns, or the plan's shared (possibly
	// coarser) subset. resid is the kernel run on candidate pairs: the
	// full kernel minus any predicates the plan pushed into pre-filter
	// bitmaps and the join equalities over scanCols (bucketResidual).
	scanCols []int
	scanSig  string
	resid    *Kernel
}

// NewScanIndex returns an empty scan cache.
func NewScanIndex() *ScanIndex {
	return &ScanIndex{
		perCols: make(map[string]*bucketSet),
		colsOf:  make(map[*Constraint]*colsEntry),
		pre:     make(map[*Constraint]*prefilter),
	}
}

// maxColsEntries bounds the per-constraint memo of a long-lived index;
// beyond it (a server session cycling AddDC/RemoveDC forever) the memo is
// dropped rather than pinning a compiled kernel for every constraint ever
// queried.
const maxColsEntries = 256

// entryFor resolves (memoized) c's join columns, signature and compiled
// kernel over t's schema. Safe across generations of one table — schemas
// are immutable — but invalidated when the index moves to a different
// table or the bound table's schema is swapped by a shape-changing
// CopyFrom.
func (ix *ScanIndex) entryFor(c *Constraint, t *table.Table) *colsEntry {
	ix.sync(t)
	if e, ok := ix.colsOf[c]; ok {
		return e
	}
	if len(ix.colsOf) >= maxColsEntries {
		clear(ix.colsOf)
	}
	cols := c.joinCols(t)
	e := &colsEntry{cols: cols, sig: colsSignature(cols)}
	e.kern, e.kernErr = compileKernel(c, t.Schema())
	e.scanCols, e.scanSig = e.cols, e.sig
	if e.kernErr == nil {
		var order []int
		var pushed []bool
		if ix.plan != nil && ix.plan.PlanSchema() == t.Schema() {
			if ch, ok := ix.plan.ConstraintPlan(c); ok {
				order, pushed = ix.applyChoice(c, t, e, ch)
			}
		}
		// The residual selects from the predicates the kernel already
		// compiled, so it compiles too.
		e.resid, _ = compileKernelSeq(c, t.Schema(), bucketResidual(c, t.Schema(), order, pushed, e.scanCols))
	}
	ix.colsOf[c] = e
	return e
}

// sync points the index at t, catching up from the table's edit log when
// possible and invalidating wholesale otherwise.
func (ix *ScanIndex) sync(t *table.Table) {
	if ix.tbl == t && ix.schema == t.Schema() {
		if ix.gen == t.Generation() {
			return
		}
		ix.editBuf = ix.editBuf[:0]
		if edits, ok := t.EditsSince(ix.gen, ix.editBuf); ok {
			ix.editBuf = edits
			if table.Structural(edits) {
				// Decode the structural window once against the row count
				// the partitions were built over; a decode that disagrees
				// with the live table means the window cannot be trusted,
				// so fall through to wholesale invalidation.
				ix.remap.Resolve(edits, ix.rows)
				if ix.remap.NewRows == t.NumRows() {
					for _, bs := range ix.ordered {
						if !bs.stale {
							bs.applyStructural(t, &ix.remap, &ix.keyBuf, &ix.reinsertBuf)
						}
					}
					for _, pf := range ix.preOrdered {
						if !pf.stale {
							pf.applyStructural(t, &ix.remap)
						}
					}
					ix.gen = t.Generation()
					ix.rows = t.NumRows()
					return
				}
			} else {
				for _, bs := range ix.ordered {
					if !bs.stale {
						bs.apply(t, edits, &ix.keyBuf)
					}
				}
				for _, pf := range ix.preOrdered {
					if !pf.stale {
						pf.apply(t, edits)
					}
				}
				ix.gen = t.Generation()
				ix.rows = t.NumRows()
				return
			}
		}
	} else if ix.schema != t.Schema() {
		// Column resolutions and compiled kernels are schema-scoped, not
		// table-scoped: pointing the index at a clone (which shares its
		// source's schema) must not recompile every constraint per run.
		// Pre-filter kernels are schema-scoped too.
		clear(ix.colsOf)
		ix.clearPrefilters()
	}
	ix.tbl = t
	ix.schema = t.Schema()
	ix.gen = t.Generation()
	ix.rows = t.NumRows()
	for _, bs := range ix.ordered {
		bs.stale = true
	}
	for _, pf := range ix.preOrdered {
		pf.stale = true
	}
}

// bucketSetFor returns the synced partition over c's exact join-column
// signature, or nil when the constraint has no equality join key. Group
// enumeration (ForEachViolatingGroup, the FD chase) must use this partition:
// its buckets are the equivalence classes of the composite join key, a
// semantics a plan-shared coarser partition does not provide.
func (ix *ScanIndex) bucketSetFor(c *Constraint, t *table.Table) *bucketSet {
	e := ix.entryFor(c, t)
	return ix.bucketSetBySig(e.cols, e.sig, t)
}

// scanBucketSetFor returns the synced pair-scan partition for an entry:
// the plan-shared partition when one is assigned, the exact partition
// otherwise. Sound for pair scans and point probes only — every
// candidate pair is re-checked by the kernel.
func (ix *ScanIndex) scanBucketSetFor(e *colsEntry, t *table.Table) *bucketSet {
	return ix.bucketSetBySig(e.scanCols, e.scanSig, t)
}

// bucketSetBySig returns the synced partition for a column signature,
// creating it on first use (pre-sized from the plan's observed slot
// count when available) and feeding rebuild cardinalities back.
func (ix *ScanIndex) bucketSetBySig(cols []int, sig string, t *table.Table) *bucketSet {
	if len(cols) == 0 {
		return nil
	}
	bs, ok := ix.perCols[sig]
	if !ok {
		hint := 0
		if ix.plan != nil {
			hint, _ = ix.plan.PartitionHint(sig)
		}
		bs = &bucketSet{cols: cols, idx: make(map[string]int, hint), stale: true}
		ix.perCols[sig] = bs
		ix.ordered = append(ix.ordered, bs)
	}
	if bs.stale {
		bs.rebuild(t, &ix.keyBuf)
		if ix.plan != nil {
			ix.plan.RecordPartition(sig, bs.nSlots)
		}
	}
	return bs
}

// colsSignature encodes a column-index list as an interned map key; the
// varint bytes build in a stack buffer and the returned string is the
// process-wide shared copy, so steady-state calls allocate nothing.
func colsSignature(cols []int) string {
	var arr [32]byte
	b := arr[:0]
	for _, c := range cols {
		for c >= 0x80 {
			b = append(b, byte(c)|0x80)
			c >>= 7
		}
		b = append(b, byte(c))
	}
	return internSignature(b)
}

// AppendViolations appends every violation of the constraint over t to
// out and returns the extended slice, so hot loops (repair passes
// re-scanning after each fix) can reuse one buffer across calls. The scan
// runs the compiled kernel over ix's partitions: per row for single-tuple
// DCs, over every ordered pair for join-free DCs, and inside each hash
// bucket otherwise. Pair violations are reported once per ordered pair
// (i, j) with i != j that satisfies the body, sorted by (Row1, Row2).
// ix must be non-nil (see NewScanIndex).
func (c *Constraint) AppendViolations(t *table.Table, ix *ScanIndex, out []Violation) ([]Violation, error) {
	return ix.appendScan(c, t, out, 1, nil)
}

// ViolatesRowCached reports whether row i participates in any violation
// of the constraint: as the single tuple for single-tuple DCs, or bound to
// either t1 or t2 against any other row for pair DCs. This is the "tuple
// t has a contradiction according to C" primitive of the paper's
// Algorithm 1. With equality join attributes only the row's hash bucket
// is probed — partners outside it cannot co-satisfy the equality
// predicates — and the incrementally-maintained reverse index makes the
// bucket lookup key-free. ix must be non-nil (see NewScanIndex).
func (c *Constraint) ViolatesRowCached(t *table.Table, i int, ix *ScanIndex) (bool, error) {
	n, err := ix.probeRow(c, t, i, true)
	return n > 0, err
}

// ViolationPairsForRow counts the ordered violating pairs row i
// participates in under the constraint: for pair DCs, the number of (i, j)
// and (j, i) bindings with j ≠ i that satisfy the denied conjunction; for
// single-tuple DCs, 1 when the row itself violates. With equality join
// keys only the row's hash bucket is scanned, at O(bucket) cost. ix must
// be non-nil (see NewScanIndex).
func (c *Constraint) ViolationPairsForRow(t *table.Table, i int, ix *ScanIndex) (int, error) {
	return ix.probeRow(c, t, i, false)
}

// probeRow is the point probe behind ViolatesRowCached and
// ViolationPairsForRow: it counts the ordered violating pairs row i takes
// part in, stopping at the first orientation that finds one when first is
// set.
func (ix *ScanIndex) probeRow(c *Constraint, t *table.Table, i int, first bool) (int, error) {
	e := ix.entryFor(c, t)
	if e.kernErr != nil {
		return 0, e.kernErr
	}
	row := [1]int{i}
	ix.probeBuf = ix.appendRowViolations(c, e, t, row[:], nil, first, ix.probeBuf[:0])
	return len(ix.probeBuf), nil
}

// appendRowViolations appends the violations of c that any of rows takes
// part in: (r, r) for a single-tuple constraint, else every ordered pair
// binding r to t1 or t2. Pair candidates are the members of r's scan
// bucket, or every row for a join-free constraint; they run through the
// plan's pre-filter bitmaps and then the residual kernel column-at-a-time
// (Kernel.Filter), once with r fixed as t1 and once as t2, as scanBucket
// runs a bucket. A candidate j with skip[j] set and j < r is passed over:
// the live set derives a pair of two of its rows from the lower one. With
// first set, the second orientation is skipped once the first found a
// pair. e must be c's entry, synced to t.
func (ix *ScanIndex) appendRowViolations(c *Constraint, e *colsEntry, t *table.Table, rows []int, skip []bool, first bool, out []Violation) []Violation {
	if c.SingleTuple() {
		for _, r := range rows {
			if e.kern.Pair(t, r, r) {
				out = append(out, Violation{Constraint: c, Row1: r, Row2: r})
			}
		}
		return out
	}
	bs := ix.scanBucketSetFor(e, t)
	var cand []int
	if bs == nil {
		for len(ix.allRows) < t.NumRows() {
			ix.allRows = append(ix.allRows, len(ix.allRows))
		}
		cand = ix.allRows[:t.NumRows()]
	}
	var pass [2][]bool
	if pf := ix.prefilterFor(c, t); pf != nil {
		pass = [2][]bool{pf.pass0, pf.pass1}
	}
	for _, r := range rows {
		if bs != nil {
			slot := bs.rowBucket[r]
			if slot < 0 {
				// A null join key makes every equality predicate unknown,
				// and a NaN join key can never satisfy = : row r takes part
				// in no pair violation. (The scan partition's columns are a
				// subset of the exact join columns, so its null exclusion
				// implies an unknown equality predicate just the same.)
				continue
			}
			cand = bs.members[slot]
		}
		if cap(ix.alive) < len(cand) {
			ix.alive = make([]bool, len(cand))
		}
		alive := ix.alive[:len(cand)]
		base := len(out)
		for tuple := 0; tuple < 2; tuple++ {
			// r binds tuple t1 (0) or t2 (1); every candidate binds the other.
			own, other := pass[tuple], pass[1-tuple]
			if own != nil && !own[r] || first && len(out) > base {
				continue
			}
			any := false
			for m, j := range cand {
				ok := j != r && (other == nil || other[j]) && (skip == nil || !skip[j] || j > r)
				alive[m] = ok
				any = any || ok
			}
			if !any {
				continue
			}
			e.resid.Filter(t, tuple, r, cand, alive)
			for m, j := range cand {
				switch {
				case !alive[m]:
				case tuple == 0:
					out = append(out, Violation{Constraint: c, Row1: r, Row2: j})
				default:
					out = append(out, Violation{Constraint: c, Row1: j, Row2: r})
				}
			}
		}
	}
	return out
}

// AllViolations scans every constraint in order and concatenates the
// results. One ScanIndex spans the whole pass, so constraints sharing join
// columns share buckets.
func AllViolations(cs []*Constraint, t *table.Table) ([]Violation, error) {
	ix := NewScanIndex()
	var out []Violation
	for _, c := range cs {
		var err error
		if out, err = c.AppendViolations(t, ix, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Consistent reports whether the table satisfies every constraint.
func Consistent(cs []*Constraint, t *table.Table) (bool, error) {
	ix := NewScanIndex()
	var buf []Violation
	for _, c := range cs {
		var err error
		if buf, err = c.AppendViolations(t, ix, buf[:0]); err != nil {
			return false, err
		}
		if len(buf) > 0 {
			return false, nil
		}
	}
	return true, nil
}

// ValidateSet validates every constraint against a schema and checks ID
// uniqueness.
func ValidateSet(cs []*Constraint, schema *table.Schema) error {
	seen := make(map[string]bool)
	for _, c := range cs {
		if err := c.Validate(schema); err != nil {
			return err
		}
		if c.ID != "" {
			if seen[c.ID] {
				return fmt.Errorf("dc: duplicate constraint ID %q", c.ID)
			}
			seen[c.ID] = true
		}
	}
	return nil
}

// ByID returns the constraint with the given ID, or nil.
func ByID(cs []*Constraint, id string) *Constraint {
	for _, c := range cs {
		if c.ID == id {
			return c
		}
	}
	return nil
}

// Without returns a new slice with the identified constraint removed.
func Without(cs []*Constraint, id string) []*Constraint {
	out := make([]*Constraint, 0, len(cs))
	for _, c := range cs {
		if c.ID != id {
			out = append(out, c)
		}
	}
	return out
}
