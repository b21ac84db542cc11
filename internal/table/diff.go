package table

import (
	"fmt"
	"strings"
)

// CellDiff records one cell whose value differs between a dirty table T_d
// and its repaired version T_c — a "blue cell" in Figure 2b of the paper.
type CellDiff struct {
	Ref   CellRef
	Dirty Value // value in T_d
	Clean Value // value in T_c
}

// Diff returns the cells at which dirty and clean differ in content
// (SameContent), in vectorization order. A NaN cell whose bits are
// unchanged is not a difference, although NaN is never SameContent. Both
// tables must have the same schema and row count.
func Diff(dirty, clean *Table) ([]CellDiff, error) {
	if !dirty.Schema().Equal(clean.Schema()) {
		return nil, fmt.Errorf("table: diff over different schemas (%s) vs (%s)", dirty.Schema(), clean.Schema())
	}
	if dirty.NumRows() != clean.NumRows() {
		return nil, fmt.Errorf("table: diff over different row counts %d vs %d", dirty.NumRows(), clean.NumRows())
	}
	var diffs []CellDiff
	for i := 0; i < dirty.NumRows(); i++ {
		for j := 0; j < dirty.NumCols(); j++ {
			dv, cv := dirty.Get(i, j), clean.Get(i, j)
			if !dv.SameContent(cv) && !identical(dv, cv) {
				diffs = append(diffs, CellDiff{Ref: CellRef{Row: i, Col: j}, Dirty: dv, Clean: cv})
			}
		}
	}
	return diffs, nil
}

// DiffExact returns the cells at which dirty and clean differ bit for bit
// (same kind and payload, floats by bit pattern), in vectorization order.
// Where Diff unifies numeric kinds through SameContent, DiffExact records
// a cell whose repair changed Int(5) to Float(5.0) — which Diff deems
// unchanged — or wrote -0 over 0, so replaying the result onto a clone of
// dirty reproduces clean cell-for-cell, representation included (the
// repair-target memo's replay contract; kind-sensitive consumers like
// hash-join keys must not see different representations on a memo hit
// than on a miss). A NaN cell left with the same bits is not a
// difference, while a NaN whose bits changed is. Every SameContent
// difference is also an exact difference, so Diff's output is the
// !SameContent subset of DiffExact's.
func DiffExact(dirty, clean *Table) ([]CellDiff, error) {
	if !dirty.Schema().Equal(clean.Schema()) {
		return nil, fmt.Errorf("table: diff over different schemas (%s) vs (%s)", dirty.Schema(), clean.Schema())
	}
	if dirty.NumRows() != clean.NumRows() {
		return nil, fmt.Errorf("table: diff over different row counts %d vs %d", dirty.NumRows(), clean.NumRows())
	}
	var diffs []CellDiff
	for i := 0; i < dirty.NumRows(); i++ {
		for j := 0; j < dirty.NumCols(); j++ {
			dv, cv := dirty.Get(i, j), clean.Get(i, j)
			if !identical(dv, cv) {
				diffs = append(diffs, CellDiff{Ref: CellRef{Row: i, Col: j}, Dirty: dv, Clean: cv})
			}
		}
	}
	return diffs, nil
}

// FormatDiffs renders diffs using the paper's cell notation, one per line:
//
//	t5[Country]: España -> Spain
func FormatDiffs(t *Table, diffs []CellDiff) string {
	var b strings.Builder
	for _, d := range diffs {
		fmt.Fprintf(&b, "%s: %s -> %s\n", t.RefName(d.Ref), d.Dirty, d.Clean)
	}
	return b.String()
}
