package dc_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dc"
	"repro/internal/dc/plan"
	"repro/internal/table"
)

// fuzzValue decodes one byte into a table value; the universe keeps join
// keys collision-heavy (so buckets hold real pairs) and covers the
// partition edge cases — NULL and NaN join keys never enter a bucket,
// ±0.0 and cross-kind numerics hash together.
func fuzzValue(b byte) table.Value {
	switch b % 9 {
	case 0:
		return table.Null()
	case 1:
		return table.Float(math.NaN())
	case 2:
		return table.String("a")
	case 3:
		return table.String("b")
	case 4:
		return table.Int(int64(b) % 3)
	case 5:
		return table.Float(float64(int64(b) % 3))
	case 6:
		return table.Float(0.0)
	case 7:
		return table.Float(-0.0)
	default:
		return table.Int(-1)
	}
}

// fuzzConstraints is the shared-join-key DC pool the fuzz draws subsets
// from: all pair constraints join on A, with join column sets {A}, {A,B}
// and {A,C} so subset partition sharing engages, plus single-side
// constant predicates so pre-filter pushdown engages, plus a
// single-tuple constraint (never planned).
func fuzzConstraints() []*dc.Constraint {
	return []*dc.Constraint{
		dc.MustParse("F1: !(t1.A = t2.A & t1.B != t2.B)"),
		dc.MustParse("F2: !(t1.A = t2.A & t1.B = t2.B & t1.C != t2.C)"),
		dc.MustParse("F3: !(t1.A = t2.A & t1.C = t2.C & t1.B > t2.B)"),
		dc.MustParse(`F4: !(t1.A = t2.A & t1.C = "a" & t2.B != "b")`),
		dc.MustParse("F5: !(t1.A = t2.A & t1.B >= t2.B & t1.C < t2.C)"),
		dc.MustParse(`F6: !(t1.B = "a" & t1.C != "b")`),
	}
}

// FuzzPlanVsNaive cross-validates planned set execution against the
// interpreted per-constraint reference: for fuzzer-shaped tables, DC
// subsets, and edit streams, the planned scan index and the planned live
// violation set must reproduce the naive scan's violations exactly —
// same pairs, same order — through initial builds, edit-log delta
// replays, and log-overrun rebuilds.
func FuzzPlanVsNaive(f *testing.F) {
	f.Add([]byte{4, 4, 2, 4, 5, 3, 4, 4, 2, 0, 1, 7}, []byte{0, 2, 17, 3}, byte(0x1f))
	f.Add([]byte{2, 2, 2, 2, 2, 2}, []byte{5, 5}, byte(0x3))
	f.Add([]byte{0, 1, 6, 7, 4, 5, 0, 1, 6}, []byte{}, byte(0xff))
	f.Fuzz(func(t *testing.T, cells, edits []byte, pick byte) {
		if len(cells) == 0 {
			return
		}
		schema, err := table.SchemaOf("A", "B", "C")
		if err != nil {
			t.Fatal(err)
		}
		tbl := table.New(schema)
		rows := len(cells)/3 + 1
		if rows > 10 {
			rows = 10
		}
		for i := 0; i < rows; i++ {
			row := make([]table.Value, 3)
			for j := range row {
				row[j] = fuzzValue(cells[(i*3+j)%len(cells)])
			}
			if err := tbl.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		var cs []*dc.Constraint
		for i, c := range fuzzConstraints() {
			if pick&(1<<i) != 0 {
				cs = append(cs, c)
			}
		}
		if len(cs) == 0 {
			cs = fuzzConstraints()
		}

		p := plan.Compile(schema, cs)
		ix := dc.NewScanIndex()
		ix.UsePlan(p)
		live := dc.NewLiveViolationSet()
		live.UsePlan(p)

		check := func(stage string) {
			for _, c := range cs {
				want, err := c.Violations(tbl)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.AppendViolations(tbl, ix, nil)
				if err != nil {
					t.Fatalf("%s/%s: planned scan: %v", stage, c.ID, err)
				}
				assertSameViolations(t, stage+"/scan/"+c.ID, got, want)
				lv, err := live.Append(c, tbl, nil)
				if err != nil {
					t.Fatalf("%s/%s: planned live: %v", stage, c.ID, err)
				}
				assertSameViolations(t, stage+"/live/"+c.ID, lv, want)
			}
		}

		check("initial")
		// Delta edits: small windows the edit log replays incrementally —
		// cell edits plus structural inserts/deletes/batches, so the
		// planned prefilter bitmaps extend/compact instead of recomputing.
		for i := 0; i+1 < len(edits); i += 2 {
			switch {
			case edits[i] >= 0xf0:
				if tbl.NumRows() >= 12 {
					break // cap growth: the naive reference is O(n²)
				}
				row := make([]table.Value, 3)
				for j := range row {
					row[j] = fuzzValue(edits[i+1] + byte(j))
				}
				if err := tbl.Append(row); err != nil {
					t.Fatal(err)
				}
			case edits[i] >= 0xe0:
				if tbl.NumRows() > 1 {
					tbl.DeleteRow(int(edits[i+1]) % tbl.NumRows())
				}
			case edits[i] >= 0xd0:
				err := tbl.ApplyBatch(func(b *table.Table) error {
					b.Set(int(edits[i+1])%b.NumRows(), int(edits[i])%3, fuzzValue(edits[i+1]))
					if b.NumRows() >= 12 {
						return nil // cap growth: the naive reference is O(n²)
					}
					row := make([]table.Value, 3)
					for j := range row {
						row[j] = fuzzValue(edits[i] + byte(j))
					}
					return b.Append(row)
				})
				if err != nil {
					t.Fatal(err)
				}
			default:
				row := int(edits[i]) % tbl.NumRows()
				col := int(edits[i]>>4) % 3
				tbl.Set(row, col, fuzzValue(edits[i+1]))
			}
			if i%6 == 0 {
				check(fmt.Sprintf("edit-%d", i))
			}
		}
		check("after-edits")
		// Overrun: more unscanned edits than the log window retains forces
		// every incremental consumer down the wholesale-rebuild path.
		for k := 0; k < 600; k++ {
			tbl.Set(k%tbl.NumRows(), k%3, table.Int(int64(k%4)))
		}
		check("after-overrun")
	})
}

func assertSameViolations(t *testing.T, label string, got, want []dc.Violation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d violations vs %d reference\n got: %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: violation %d: %v vs %v", label, i, got[i], want[i])
		}
	}
}

// TestPlannedLiveDeltaWithPrefilters: under a plan that pushes single-side
// predicates into pre-filter bitmaps, the live set re-derives the rows of
// single-cell edits (its delta path) through those bitmaps, and after
// every edit its lists and the point probes on its index match the naive
// reference.
func TestPlannedLiveDeltaWithPrefilters(t *testing.T) {
	schema, err := table.SchemaOf("A", "B", "C")
	if err != nil {
		t.Fatal(err)
	}
	tbl := table.New(schema)
	for i := 0; i < 24; i++ {
		row := []table.Value{fuzzValue(byte(2 + 2*(i%4))), fuzzValue(byte(i * 7)), fuzzValue(byte(i * 5))}
		if err := tbl.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	cs := fuzzConstraints()
	p := plan.Compile(schema, cs)
	pushed := 0
	for _, c := range cs {
		if ch, ok := p.ConstraintPlan(c); ok {
			pushed += len(ch.Pre0) + len(ch.Pre1)
		}
	}
	if pushed == 0 {
		t.Fatal("the plan pushed no predicate into a pre-filter bitmap")
	}
	live := dc.NewLiveViolationSet()
	live.UsePlan(p)
	check := func(stage string) {
		t.Helper()
		for _, c := range cs {
			want, err := c.Violations(tbl)
			if err != nil {
				t.Fatal(err)
			}
			got, err := live.Append(c, tbl, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertSameViolations(t, stage+"/live/"+c.ID, got, want)
			for i := 0; i < tbl.NumRows(); i++ {
				wantN := 0
				for _, v := range want {
					if v.Row1 == i || v.Row2 == i {
						wantN++
					}
				}
				n, err := c.ViolationPairsForRow(tbl, i, live.Index())
				if err != nil {
					t.Fatal(err)
				}
				violates, err := c.ViolatesRowCached(tbl, i, live.Index())
				if err != nil {
					t.Fatal(err)
				}
				if n != wantN || violates != (wantN > 0) {
					t.Fatalf("%s/%s: row %d: %d pairs (violates %v), want %d", stage, c.ID, i, n, violates, wantN)
				}
			}
		}
	}
	check("initial")
	for k := 0; k < 60; k++ {
		tbl.Set(k*7%tbl.NumRows(), k%3, fuzzValue(byte(k*11)))
		check(fmt.Sprintf("edit-%d", k))
	}
}
