package core

import (
	"fmt"
	"strconv"
	"strings"

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
