package dc_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dc"
	"repro/internal/dc/plan"
	"repro/internal/table"
)

// probeValue decodes one byte into a table value covering the comparison
// edge cases: NULL, NaN, ±0.0, equal numerics of different kinds, and
// strings.
func probeValue(b byte) table.Value {
	switch b % 8 {
	case 0:
		return table.Null()
	case 1:
		return table.Float(math.NaN())
	case 2:
		return table.Float(0.0)
	case 3:
		return table.Float(-0.0)
	case 4:
		return table.Int(int64(b) % 3)
	case 5:
		return table.Float(float64(int64(b)%3) / 2)
	case 6:
		return table.String("a")
	default:
		return table.String("b")
	}
}

// probeConstraints builds the DC shapes whose production evaluator is the
// kernel without a hash partition: a single-tuple DC, and two join-free
// pair DCs (no t1.X = t2.X predicate, so every ordered pair is a
// candidate), one with a one-sided constant predicate the planner can push
// down. shape picks attributes, operators and constants.
func probeConstraints(shape []byte) []*dc.Constraint {
	at := func(k int) int {
		if len(shape) == 0 {
			return k
		}
		return int(shape[k%len(shape)])
	}
	attrs := []string{"A", "B", "C"}
	ops := []dc.Op{dc.OpEq, dc.OpNeq, dc.OpLt, dc.OpLeq, dc.OpGt, dc.OpGeq}
	// Same-attribute t1/t2 comparisons other than = form no join key.
	nonJoin := ops[1:]
	attr := func(tuple, k int) dc.Operand { return dc.AttrOperand(tuple, attrs[at(k)%len(attrs)]) }
	op := func(set []dc.Op, k int) dc.Op { return set[at(k)%len(set)] }
	same := attrs[at(11)%len(attrs)]
	return []*dc.Constraint{
		{ID: "S1", Preds: []dc.Predicate{
			{Left: attr(0, 0), Op: op(ops, 1), Right: attr(0, 2)},
			{Left: attr(0, 3), Op: op(ops, 4), Right: dc.ConstOperand(probeValue(byte(at(5))))},
		}},
		{ID: "P1", Preds: []dc.Predicate{
			{Left: dc.AttrOperand(0, "A"), Op: op(ops, 6), Right: dc.AttrOperand(1, "B")},
			{Left: dc.AttrOperand(0, "C"), Op: op(nonJoin, 7), Right: dc.AttrOperand(1, "C")},
		}},
		{ID: "P2", Preds: []dc.Predicate{
			{Left: attr(1, 8), Op: op(ops, 9), Right: dc.ConstOperand(probeValue(byte(at(10))))},
			{Left: dc.AttrOperand(0, same), Op: op(nonJoin, 12), Right: dc.AttrOperand(1, same)},
		}},
	}
}

// FuzzProbesVsOracle checks every production path that answers "what does
// this DC violate now?" for single-tuple and join-free DCs — the full scan
// (AppendViolations), the point probes (ViolatesRowCached,
// ViolationPairsForRow) and the live violation set — bit for bit against
// the interpreted oracle, planned and unplanned, on the initial table and
// after every cell edit, row insert and swap-delete.
func FuzzProbesVsOracle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 2, 3, 4}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, []byte{3, 5, 0xf1, 2})
	f.Add([]byte{2, 3, 2, 3, 1, 1, 0, 0, 4, 12}, []byte{1, 0, 1, 1, 0, 3, 0, 0, 1, 2, 6, 0, 0}, []byte{0xe2, 0, 0x13, 1})
	f.Add([]byte{6, 7, 6, 6, 7, 7, 5, 4, 12, 20}, []byte{2, 2, 2, 2, 2, 2, 2, 2}, []byte{})
	f.Fuzz(func(t *testing.T, cells, shape, edits []byte) {
		if len(cells) == 0 {
			return
		}
		schema, err := table.SchemaOf("A", "B", "C")
		if err != nil {
			t.Fatal(err)
		}
		tbl := table.New(schema)
		rows := min(len(cells)/3+1, 8)
		for i := 0; i < rows; i++ {
			row := make([]table.Value, 3)
			for j := range row {
				row[j] = probeValue(cells[(i*3+j)%len(cells)])
			}
			if err := tbl.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		cs := probeConstraints(shape)
		for _, c := range cs {
			if len(c.JoinColumns(schema)) != 0 {
				t.Fatalf("%s has a join key; the fuzz targets join-free DCs", c)
			}
		}

		type variant struct {
			name string
			ix   *dc.ScanIndex
			live *dc.LiveViolationSet
		}
		p := plan.Compile(schema, cs)
		variants := []variant{
			{name: "unplanned", ix: dc.NewScanIndex(), live: dc.NewLiveViolationSet()},
			{name: "planned", ix: dc.NewScanIndex(), live: dc.NewLiveViolationSet()},
		}
		variants[1].ix.UsePlan(p)
		variants[1].live.UsePlan(p)

		check := func(stage string) {
			t.Helper()
			for _, c := range cs {
				want, err := c.Violations(tbl)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range variants {
					label := fmt.Sprintf("%s/%s/%s", stage, v.name, c.ID)
					got, err := c.AppendViolations(tbl, v.ix, nil)
					if err != nil {
						t.Fatalf("%s: scan: %v", label, err)
					}
					assertSameViolations(t, label+"/scan", got, want)
					lv, err := v.live.Append(c, tbl, nil)
					if err != nil {
						t.Fatalf("%s: live: %v", label, err)
					}
					assertSameViolations(t, label+"/live", lv, want)
					for row := 0; row < tbl.NumRows(); row++ {
						wantRow, err := c.ViolatesRow(tbl, row)
						if err != nil {
							t.Fatal(err)
						}
						// The oracle's ordered pairs involving row: what
						// ViolationPairsForRow must count.
						wantN := 0
						for _, w := range want {
							if w.Row1 == row || w.Row2 == row {
								wantN++
							}
						}
						for _, ix := range []*dc.ScanIndex{v.ix, v.live.Index()} {
							gotRow, err := c.ViolatesRowCached(tbl, row, ix)
							if err != nil || gotRow != wantRow {
								t.Fatalf("%s: ViolatesRowCached(t%d) = %v, %v; oracle %v\ntable:\n%v", label, row+1, gotRow, err, wantRow, tbl)
							}
							gotN, err := c.ViolationPairsForRow(tbl, row, ix)
							if err != nil || gotN != wantN {
								t.Fatalf("%s: ViolationPairsForRow(t%d) = %d, %v; oracle %d\ntable:\n%v", label, row+1, gotN, err, wantN, tbl)
							}
						}
					}
				}
			}
		}

		check("initial")
		for i := 0; i+1 < len(edits) && i < 32; i += 2 {
			switch {
			case edits[i] >= 0xf0:
				if tbl.NumRows() >= 10 {
					break
				}
				row := make([]table.Value, 3)
				for j := range row {
					row[j] = probeValue(edits[i+1] + byte(j))
				}
				if err := tbl.Append(row); err != nil {
					t.Fatal(err)
				}
			case edits[i] >= 0xe0:
				if tbl.NumRows() > 1 {
					tbl.DeleteRow(int(edits[i+1]) % tbl.NumRows())
				}
			default:
				tbl.Set(int(edits[i])%tbl.NumRows(), int(edits[i]>>4)%3, probeValue(edits[i+1]))
			}
			check(fmt.Sprintf("edit-%d", i/2))
		}
	})
}
