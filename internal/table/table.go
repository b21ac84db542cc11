package table

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
)

// CellRef addresses a single cell by row index and column index. It is the
// "player" identity used by the cell-Shapley game: the paper vectorizes the
// table as x_T = (t1[A1], t1[A2], ..., tn[Am]) and a CellRef is one slot of
// that vector.
type CellRef struct {
	Row int
	Col int
}

// String renders the reference as "t<row+1>[<col>]" to match the paper's
// t5[Country] notation when a schema is not at hand.
func (r CellRef) String() string { return fmt.Sprintf("t%d[col%d]", r.Row+1, r.Col) }

// Table is a mutable in-memory relation: a schema plus rows of typed values.
// Tables are not safe for concurrent mutation; the Shapley engine always
// works on private clones or pooled scratch copies.
type Table struct {
	schema *Schema
	rows   [][]Value
	// gen counts mutations. Index structures built over a table (e.g. the
	// violation-scan buckets in package dc) key their cache on (table,
	// generation) and rebuild only when the generation moved.
	gen uint64
	// edits is a bounded ring of the most recent mutations — cell
	// overwrites and structural row edits alike — so index structures can
	// catch up from an older generation by replaying typed deltas instead
	// of rebuilding wholesale (see EditsSince). Allocated lazily on the
	// first mutation so tables that are never mutated pay nothing.
	edits []Edit
	// editHead is the ring slot the next edit is written to; editLen is the
	// number of valid entries (≤ len(edits)).
	editHead, editLen int
	// minDeltaGen is the oldest generation EditsSince can catch up from:
	// shape-changing CopyFrom and ring eviction advance it.
	minDeltaGen uint64
	// batchDepth counts open ApplyBatch brackets; while positive, mutations
	// share the generation minted when the outermost bracket opened.
	batchDepth int
	// serial identifies the table as a CopyFrom source. New and Clone
	// draw a fresh one, so a work table recognises "the same source as
	// last time" without holding a pointer that would keep a finished
	// game's scratch table alive. Zero never matches an anchor.
	serial uint64
	// anchor records the last CopyFrom into this table (see copyDelta).
	anchor copyAnchor
	// copyEdits and copyCells are the pooled buffers of the delta refresh.
	copyEdits []Edit
	copyCells []int
}

// copyAnchor is the state of the last CopyFrom into a table: the source's
// serial and generation, and the table's own generation once the copy
// was done. Both tables held the same contents at that point, so a later
// refresh from the same source only has to revisit the cells either edit
// log names since.
type copyAnchor struct {
	serial, srcGen, ownGen uint64
}

// tableSerials mints table serials; 0 is reserved for "none".
var tableSerials atomic.Uint64

// EditKind discriminates the entries of the typed edit log.
type EditKind uint8

const (
	// EditSet is a single-cell overwrite at (Row, Col).
	EditSet EditKind = iota
	// EditInsert is a row append: the row now at index Row (equal to the
	// row count before the insert) is new.
	EditInsert
	// EditDelete is a swap-delete: the row that was at index Row is gone,
	// the row that was last before the delete now lives at index Row (when
	// Row was not already last), and the table is one row shorter. This is
	// the row-identity remapping rule every incremental consumer must
	// honor; RowRemap decodes a whole window of it.
	EditDelete
)

// Edit records one table mutation: a cell overwrite or a structural row
// change. Gen is the table generation after the edit was applied; edits
// applied inside one ApplyBatch share a single generation, so generations
// along the log are non-decreasing rather than strictly increasing. Col
// is -1 for structural edits.
type Edit struct {
	Gen      uint64
	Row, Col int
	Kind     EditKind
}

// editLogWindow bounds the edit ring. It must comfortably exceed the number
// of cells a repair pass or a scratch-copy refresh touches on the paper's
// working tables so that pooled scan indexes stay on the delta path; larger
// tables degrade gracefully to full rebuilds. The ring starts small
// (editLogInitial) and doubles on demand, so short-lived clones that absorb
// a handful of masking edits pay bytes proportional to their history, not
// the cap.
const (
	editLogInitial = 32
	editLogWindow  = 512
)

// logEdit bumps the generation and appends one cell overwrite to the
// ring. It reduces to a single call into logTyped so Set/SetRef stay one
// store plus one call — small enough to inline into the evaluation
// loops, where the write path is the hottest instruction sequence in the
// repository.
func (t *Table) logEdit(row, col int) {
	t.logTyped(row, col, EditSet)
}

// logStructural bumps the generation and appends one row insert or
// delete to the ring. Call after the rows slice has its final shape: it
// is the invalidation barrier of every structural mutation, pairing each
// row move with the log entry consumers replay to stay in sync.
func (t *Table) logStructural(kind EditKind, row int) {
	t.logTyped(row, -1, kind)
}

// logTyped bumps the generation and appends one typed entry to the
// bounded ring. The bump and the append share this deliberately
// non-inlinable callee (see logEdit).
func (t *Table) logTyped(row, col int, kind EditKind) {
	t.bump()
	e := Edit{Gen: t.gen, Row: row, Col: col, Kind: kind}
	if t.edits == nil {
		t.edits = make([]Edit, editLogInitial)
	}
	if t.editLen == len(t.edits) {
		if n := len(t.edits); n < editLogWindow {
			// Grow: unroll the full ring (oldest first) into a larger
			// backing array. The ring is full, so the oldest entry sits at
			// editHead.
			grown := make([]Edit, 2*n)
			copied := copy(grown, t.edits[t.editHead:])
			copy(grown[copied:], t.edits[:t.editHead])
			t.edits = grown
			t.editHead = n
			t.editLen++
		} else {
			// Evicting the oldest entry loses history at and before its
			// generation.
			t.minDeltaGen = t.edits[t.editHead].Gen
		}
	} else {
		t.editLen++
	}
	t.edits[t.editHead] = e
	t.editHead++
	if t.editHead == len(t.edits) {
		t.editHead = 0
	}
}

// invalidateEdits abandons the retained history: delta catch-up across
// this point is impossible and every consumer must rebuild. Only
// wholesale replacements that defy per-row logging (a shape-changing
// CopyFrom) use it — plain inserts and deletes are typed log entries.
func (t *Table) invalidateEdits() {
	t.minDeltaGen = t.gen
	t.editLen = 0
	t.editHead = 0
}

// EditsSince appends to buf every typed edit with generation in
// (gen, t.Generation()], oldest first, and reports whether the log still
// covers that window. ok is false when gen predates the retained history
// (ring eviction) or a shape-changing CopyFrom happened since; callers
// must then rebuild from scratch — an invalidated window means "history
// lost", never "no edits". A true result with an empty slice means the
// table is unchanged. Row inserts and deletes are ordinary log entries:
// consumers replay them through RowRemap instead of rebuilding.
//
// Cost is O(log window + |edits returned|): retained entries carry
// non-decreasing generations in ring order (batched edits share one), so
// the first entry past gen is found by binary search instead of scanning
// the whole ring — incremental consumers (scan indexes, live violation
// lists, statistics syncs) typically ask for a handful of edits out of a
// full ring on every evaluation.
//
// Calling EditsSince while an ApplyBatch bracket is open is outside the
// contract: the batch generation is already minted, so a mid-batch
// sync would anchor past edits the batch has yet to log.
func (t *Table) EditsSince(gen uint64, buf []Edit) ([]Edit, bool) {
	if gen < t.minDeltaGen {
		return buf, false
	}
	if gen >= t.gen {
		return buf, true
	}
	// Oldest retained entry sits editLen slots behind editHead.
	start := t.editHead - t.editLen
	if start < 0 {
		start += len(t.edits)
	}
	// Binary search the smallest i with edits[(start+i)%len].Gen > gen.
	lo, hi := 0, t.editLen
	for lo < hi {
		mid := (lo + hi) / 2
		if t.edits[(start+mid)%len(t.edits)].Gen > gen {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	for i := lo; i < t.editLen; i++ {
		buf = append(buf, t.edits[(start+i)%len(t.edits)])
	}
	return buf, true
}

// New creates an empty table with the given schema.
func New(schema *Schema) *Table {
	return &Table{schema: schema, serial: tableSerials.Add(1)}
}

// FromStrings builds a table by parsing a rectangular grid of raw strings
// with ParseValue. It is the main constructor for literals in tests,
// examples and embedded datasets.
func FromStrings(names []string, grid [][]string) (*Table, error) {
	schema, err := SchemaOf(names...)
	if err != nil {
		return nil, err
	}
	t := New(schema)
	for i, rawRow := range grid {
		if len(rawRow) != len(names) {
			return nil, fmt.Errorf("table: row %d has %d values, want %d", i, len(rawRow), len(names))
		}
		row := make([]Value, len(rawRow))
		for j, raw := range rawRow {
			row[j] = ParseValue(raw)
		}
		if err := t.Append(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MustFromStrings is FromStrings that panics on error.
func MustFromStrings(names []string, grid [][]string) *Table {
	t, err := FromStrings(names, grid)
	if err != nil {
		panic(err)
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return len(t.rows) }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return t.schema.Len() }

// NumCells returns rows × columns — the number of Shapley players in the
// cell game.
func (t *Table) NumCells() int { return len(t.rows) * t.schema.Len() }

// Append validates and adds a row at the end of the table. The slice is
// copied. The insert is a typed log entry, so incremental consumers
// extend their state by exactly one row instead of rebuilding.
func (t *Table) Append(row []Value) error {
	if err := t.schema.Validate(row); err != nil {
		return err
	}
	t.rows = append(t.rows, append([]Value(nil), row...))
	t.logStructural(EditInsert, len(t.rows)-1)
	return nil
}

// DeleteRow removes row i by the swap-delete rule: the last row moves
// into position i (when i is not already last) and the table shrinks by
// one. The rule keeps deletion O(1) and leaves every other row's index
// stable at the price of renumbering exactly one survivor; the typed
// edit log records the delete so incremental consumers retract the moved
// row's derived state and re-derive it under its new index (RowRemap).
// Cached artifacts holding CellRefs are keyed on the table generation,
// which every delete bumps, so a stale row index can never be read back
// silently. Panics when i is out of range, matching slice semantics.
func (t *Table) DeleteRow(i int) {
	last := len(t.rows) - 1
	if i < 0 || i > last {
		panic(fmt.Sprintf("table: DeleteRow(%d) out of range 0..%d", i, last))
	}
	// The swap parks the deleted row's storage beyond the new length,
	// keeping the slot pooled for a future shape-matching CopyFrom.
	t.rows[i], t.rows[last] = t.rows[last], t.rows[i]
	t.rows = t.rows[:last]
	t.logStructural(EditDelete, i)
}

// ApplyBatch runs fn with the table in batch mode: every mutation fn
// applies (Set, Append, DeleteRow, nested batches) shares one
// generation, logged as a contiguous run of typed edits, so incremental
// consumers replay the whole transaction as a single delta and
// generation-keyed caches invalidate exactly once. fn's error is
// returned as-is; mutations already applied when fn fails stay applied —
// the bracket groups generations, not atomicity, so callers validate
// before mutating. Incremental consumers must not sync against the table
// while the bracket is open (see EditsSince).
func (t *Table) ApplyBatch(fn func(*Table) error) error {
	t.beginBatch()
	defer t.endBatch()
	return fn(t)
}

func (t *Table) beginBatch() {
	t.batchDepth++
	if t.batchDepth == 1 {
		t.gen++
	}
}

func (t *Table) endBatch() { t.batchDepth-- }

// bump advances the generation for one mutation. Inside a batch the
// generation already moved when the outermost bracket opened and holds
// for the whole batch.
func (t *Table) bump() {
	if t.batchDepth == 0 {
		t.gen++
	}
}

// Generation returns the table's mutation counter. Any mutation — cell
// set, row insert or delete, batch — bumps it, so (pointer, generation)
// identifies one immutable snapshot of the contents — the invalidation
// key used by scan caches.
func (t *Table) Generation() uint64 { return t.gen }

// Get returns the value at (row, col). It panics on out-of-range indexes,
// matching slice semantics.
func (t *Table) Get(row, col int) Value { return t.rows[row][col] }

// GetRef returns the value at a cell reference.
func (t *Table) GetRef(ref CellRef) Value { return t.rows[ref.Row][ref.Col] }

// GetByName returns the value at (row, attribute name).
func (t *Table) GetByName(row int, name string) Value {
	return t.rows[row][t.schema.MustIndex(name)]
}

// Set overwrites the value at (row, col).
func (t *Table) Set(row, col int, v Value) {
	t.rows[row][col] = v
	t.logEdit(row, col)
}

// SetRef overwrites the value at a cell reference.
func (t *Table) SetRef(ref CellRef, v Value) {
	t.rows[ref.Row][ref.Col] = v
	t.logEdit(ref.Row, ref.Col)
}

// SetByName overwrites the value at (row, attribute name).
func (t *Table) SetByName(row int, name string, v Value) {
	col := t.schema.MustIndex(name)
	t.rows[row][col] = v
	t.logEdit(row, col)
}

// Row returns a copy of the i-th row.
func (t *Table) Row(i int) []Value { return append([]Value(nil), t.rows[i]...) }

// RowView returns the i-th row without copying. The returned slice aliases
// the table's storage and must be treated as read-only; it is intended for
// hot read loops such as stats observation and answer encoding.
func (t *Table) RowView(i int) []Value { return t.rows[i] }

// Clone deep-copies the table. The schema is shared (schemas are immutable
// after construction). The clone is a new CopyFrom source with no copy
// history of its own.
func (t *Table) Clone() *Table {
	rows := make([][]Value, len(t.rows))
	for i, r := range t.rows {
		rows[i] = append([]Value(nil), r...)
	}
	return &Table{schema: t.schema, rows: rows, serial: tableSerials.Add(1)}
}

// CopyFrom overwrites the table's contents with src's, reusing the existing
// row storage when the shape matches. A shape-matching copy records every
// cell whose content actually changed in the edit log, so scan indexes bound
// to this table catch up with per-bucket deltas instead of rebuilding; a
// shape change resets the log. It is the refresh step of the in-place repair
// protocol (repair.ScratchRepairer): steady-state refreshes of a pooled work
// table allocate nothing.
//
// A refresh from the source of the previous copy visits only the cells
// either table's edit log changed since then (copyDelta); any other
// shape-matching copy compares every cell.
func (t *Table) CopyFrom(src *Table) {
	if t == src {
		return
	}
	defer t.anchorTo(src)
	if t.schema == src.schema || (t.schema != nil && t.schema.Equal(src.schema)) {
		if len(t.rows) == len(src.rows) {
			if !t.copyDelta(src) {
				for i := range src.rows {
					for j := range src.rows[i] {
						t.copyCell(src, i, j)
					}
				}
			}
			t.schema = src.schema
			return
		}
	}
	t.schema = src.schema
	if cap(t.rows) >= len(src.rows) {
		t.rows = t.rows[:len(src.rows)]
	} else {
		t.rows = make([][]Value, len(src.rows))
	}
	for i, srcRow := range src.rows {
		if cap(t.rows[i]) >= len(srcRow) {
			t.rows[i] = t.rows[i][:len(srcRow)]
			copy(t.rows[i], srcRow)
		} else {
			t.rows[i] = append([]Value(nil), srcRow...)
		}
	}
	t.bump()
	t.invalidateEdits()
}

// copyCell copies one cell of a shape-matching source and logs it when
// the value differs. The comparison is bit-exact (identical): int 1 and
// float 1.0, or -0 and 0, are different representations that
// kind-sensitive consumers can tell apart.
func (t *Table) copyCell(src *Table, i, j int) {
	if v := src.rows[i][j]; !identical(t.rows[i][j], v) {
		t.rows[i][j] = v
		t.logEdit(i, j)
	}
}

// anchorTo records that t now holds src's contents.
func (t *Table) anchorTo(src *Table) {
	t.anchor = copyAnchor{serial: src.serial, srcGen: src.gen, ownGen: t.gen}
}

// copyDelta refreshes a shape-matching t from src by visiting only the
// union of the cells src's and t's edit logs name since the anchored copy,
// in row-major order. Every other cell still holds the value both tables
// shared at that copy. It reports false, having changed nothing, when it
// cannot prove that: src is not the anchored source, either log no longer
// covers its window, or either window holds a structural edit.
func (t *Table) copyDelta(src *Table) bool {
	a := t.anchor
	if a.serial == 0 || a.serial != src.serial {
		return false
	}
	edits, ok := src.EditsSince(a.srcGen, t.copyEdits[:0])
	if ok {
		edits, ok = t.EditsSince(a.ownGen, edits)
	}
	t.copyEdits = edits[:0]
	if !ok || Structural(edits) {
		return false
	}
	m := t.schema.Len()
	cells := t.copyCells[:0]
	for _, e := range edits {
		cells = append(cells, e.Row*m+e.Col)
	}
	slices.Sort(cells)
	cells = slices.Compact(cells)
	for _, c := range cells {
		t.copyCell(src, c/m, c%m)
	}
	t.copyCells = cells[:0]
	return true
}

// Equal reports whether two tables have equal schemas and cell-wise
// SameContent values.
func (t *Table) Equal(o *Table) bool {
	if !t.schema.Equal(o.schema) || len(t.rows) != len(o.rows) {
		return false
	}
	for i := range t.rows {
		for j := range t.rows[i] {
			if !t.rows[i][j].SameContent(o.rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// Cells returns every cell reference in vectorization order: row-major,
// exactly the x_T order of Example 2.5.
func (t *Table) Cells() []CellRef {
	refs := make([]CellRef, 0, t.NumCells())
	for i := range t.rows {
		for j := range t.rows[i] {
			refs = append(refs, CellRef{Row: i, Col: j})
		}
	}
	return refs
}

// VecIndex maps a cell reference to its position in the vectorized table.
func (t *Table) VecIndex(ref CellRef) int { return ref.Row*t.schema.Len() + ref.Col }

// RefAt maps a vectorized position back to a cell reference.
func (t *Table) RefAt(index int) CellRef {
	m := t.schema.Len()
	return CellRef{Row: index / m, Col: index % m}
}

// RefName renders a cell reference with the attribute name, e.g.
// "t5[Country]" (rows are 1-based in the paper's notation).
func (t *Table) RefName(ref CellRef) string {
	return "t" + strconv.Itoa(ref.Row+1) + "[" + t.schema.Col(ref.Col).Name + "]"
}

// ParseRefName parses the "t<row>[<Attr>]" notation back into a CellRef.
func (t *Table) ParseRefName(s string) (CellRef, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "t") || !strings.HasSuffix(s, "]") {
		return CellRef{}, fmt.Errorf("table: cannot parse cell reference %q (want t<row>[<Attr>])", s)
	}
	open := strings.IndexByte(s, '[')
	if open < 0 {
		return CellRef{}, fmt.Errorf("table: cannot parse cell reference %q: no '['", s)
	}
	var row int
	if _, err := fmt.Sscanf(s[1:open], "%d", &row); err != nil {
		return CellRef{}, fmt.Errorf("table: bad row in cell reference %q: %w", s, err)
	}
	if row < 1 || row > t.NumRows() {
		return CellRef{}, fmt.Errorf("table: row %d out of range 1..%d", row, t.NumRows())
	}
	attr := s[open+1 : len(s)-1]
	col, ok := t.schema.Index(attr)
	if !ok {
		return CellRef{}, fmt.Errorf("table: no attribute %q", attr)
	}
	return CellRef{Row: row - 1, Col: col}, nil
}

// String renders the table as an aligned text grid, for logs and the CLI.
func (t *Table) String() string {
	widths := make([]int, t.NumCols())
	for j, c := range t.schema.Columns() {
		widths[j] = len(c.Name)
	}
	cells := make([][]string, len(t.rows))
	for i, row := range t.rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			cells[i][j] = v.String()
			if len(cells[i][j]) > widths[j] {
				widths[j] = len(cells[i][j])
			}
		}
	}
	var b strings.Builder
	for j, c := range t.schema.Columns() {
		if j > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%-*s", widths[j], c.Name)
	}
	b.WriteByte('\n')
	for j := range widths {
		if j > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", widths[j]))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for j, cell := range row {
			if j > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[j], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
