package dc

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/table"
)

// TestScanIndexStructuralDelta drives the index through interleaved
// cell/insert/delete/batch windows and checks every query against a fresh
// indexed scan — the satellite-1 regression for the old
// "ok=false-after-Append" class: an interleaved SetCell → Append → SetCell
// window must replay, not be dropped as "no edits".
func TestScanIndexStructuralDelta(t *testing.T) {
	tbl := deltaTable(t, 18, 41)
	cs := deltaConstraints(t)
	ix := NewScanIndex()
	assertSameViolations(t, "initial", cs, tbl, ix)

	// The interleaved window: SetCell → Append → SetCell, one sync.
	tbl.Set(3, 0, table.String("team1"))
	if err := tbl.Append([]table.Value{
		table.String("team0"), table.String("cityX"), table.String("country1"), table.Int(2016),
	}); err != nil {
		t.Fatal(err)
	}
	tbl.Set(tbl.NumRows()-1, 1, table.String("city2"))
	assertSameViolations(t, "set-append-set", cs, tbl, ix)

	// Deletes, including the swap case (deleting a middle row relocates
	// the tail) and the no-move case (deleting the last row).
	tbl.DeleteRow(2)
	assertSameViolations(t, "delete-middle", cs, tbl, ix)
	tbl.DeleteRow(tbl.NumRows() - 1)
	assertSameViolations(t, "delete-last", cs, tbl, ix)

	// A batch bracket: several structural and cell edits, one generation.
	err := tbl.ApplyBatch(func(b *table.Table) error {
		b.Set(0, 2, table.String("country2"))
		if err := b.Append([]table.Value{
			table.String("team2"), table.String("city0"), table.String("country0"), table.Int(2015),
		}); err != nil {
			return err
		}
		b.DeleteRow(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameViolations(t, "batch", cs, tbl, ix)

	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 120; step++ {
		switch rng.Intn(4) {
		case 0:
			if err := tbl.Append([]table.Value{
				table.String(fmt.Sprintf("team%d", rng.Intn(4))),
				table.String(fmt.Sprintf("city%d", rng.Intn(3))),
				table.String(fmt.Sprintf("country%d", rng.Intn(3))),
				table.Int(int64(2015 + rng.Intn(3))),
			}); err != nil {
				t.Fatal(err)
			}
		case 1:
			if tbl.NumRows() > 4 {
				tbl.DeleteRow(rng.Intn(tbl.NumRows()))
			}
		default:
			tbl.Set(rng.Intn(tbl.NumRows()), rng.Intn(tbl.NumCols()),
				table.String(fmt.Sprintf("v%d", rng.Intn(4))))
		}
		assertSameViolations(t, fmt.Sprintf("step %d", step), cs, tbl, ix)
	}
}

// TestLiveViolationSetStructuralDelta is the live-list counterpart: the
// materialized lists must ride insert/delete/batch windows bit-identically
// to full rescans, including the interleaved SetCell → Append → SetCell
// window that used to force (or worse, silently skip) a rebuild.
func TestLiveViolationSetStructuralDelta(t *testing.T) {
	tbl := deltaTable(t, 18, 43)
	cs := liveConstraints(t)
	live := NewLiveViolationSet()
	assertLiveMatchesRescan(t, "initial", cs, tbl, live)

	tbl.Set(5, 0, table.String("team2"))
	if err := tbl.Append([]table.Value{
		table.String("team2"), table.String("city1"), table.String("country0"), table.Int(2014),
	}); err != nil {
		t.Fatal(err)
	}
	tbl.Set(0, 3, table.Int(2013))
	assertLiveMatchesRescan(t, "set-append-set", cs, tbl, live)

	tbl.DeleteRow(4)
	assertLiveMatchesRescan(t, "delete-middle", cs, tbl, live)
	tbl.DeleteRow(tbl.NumRows() - 1)
	assertLiveMatchesRescan(t, "delete-last", cs, tbl, live)

	err := tbl.ApplyBatch(func(b *table.Table) error {
		if err := b.Append([]table.Value{
			table.String("team0"), table.String("city2"), table.String("country2"), table.Int(2016),
		}); err != nil {
			return err
		}
		b.Set(2, 1, table.String("city0"))
		b.DeleteRow(0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	assertLiveMatchesRescan(t, "batch", cs, tbl, live)

	rng := rand.New(rand.NewSource(44))
	for step := 0; step < 120; step++ {
		switch rng.Intn(4) {
		case 0:
			if err := tbl.Append([]table.Value{
				table.String(fmt.Sprintf("team%d", rng.Intn(4))),
				table.String(fmt.Sprintf("city%d", rng.Intn(3))),
				table.String(fmt.Sprintf("country%d", rng.Intn(3))),
				table.Int(int64(2014 + rng.Intn(4))),
			}); err != nil {
				t.Fatal(err)
			}
		case 1:
			if tbl.NumRows() > 4 {
				tbl.DeleteRow(rng.Intn(tbl.NumRows()))
			}
		default:
			tbl.Set(rng.Intn(tbl.NumRows()), rng.Intn(tbl.NumCols()),
				table.String(fmt.Sprintf("v%d", rng.Intn(4))))
		}
		assertLiveMatchesRescan(t, fmt.Sprintf("step %d", step), cs, tbl, live)
	}
}

// TestStructuralOverrunFallsBack floods the log with a giant batch (more
// structural entries than the ring retains) — every consumer must detect
// the lost window and rebuild, never replay a truncated decode.
func TestStructuralOverrunFallsBack(t *testing.T) {
	tbl := deltaTable(t, 12, 45)
	cs := liveConstraints(t)
	ix := NewScanIndex()
	live := NewLiveViolationSet()
	assertSameViolations(t, "initial", cs[:3], tbl, ix)
	assertLiveMatchesRescan(t, "initial", cs, tbl, live)
	err := tbl.ApplyBatch(func(b *table.Table) error {
		for k := 0; k < 600; k++ { // > the edit-log window
			if err := b.Append([]table.Value{
				table.String(fmt.Sprintf("team%d", k%4)),
				table.String(fmt.Sprintf("city%d", k%3)),
				table.String(fmt.Sprintf("country%d", k%3)),
				table.Int(int64(2015 + k%3)),
			}); err != nil {
				return err
			}
			if b.NumRows() > 6 {
				b.DeleteRow(k % b.NumRows())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameViolations(t, "after overrun", cs[:3], tbl, ix)
	assertLiveMatchesRescan(t, "after overrun", cs, tbl, live)
}

// structuralFuzzValue keeps join keys collision-heavy and covers null/NaN
// bucket exclusion.
func structuralFuzzValue(b byte) table.Value {
	switch b % 8 {
	case 0:
		return table.Null()
	case 1:
		return table.String("a")
	case 2:
		return table.String("b")
	case 3:
		return table.Int(int64(b) % 3)
	case 4:
		return table.Float(float64(int64(b) % 3))
	case 5:
		return table.Float(0.0)
	case 6:
		return table.Int(-1)
	default:
		return table.String("c")
	}
}

// FuzzStructuralReplayVsNaive interleaves SetCell/InsertRow/DeleteRow and
// batch brackets under fuzzer control and pins both incremental paths —
// the delta-maintained ScanIndex and the materialized LiveViolationSet —
// bit-identical to from-scratch naive recomputation after every window,
// including windows that overrun the edit log.
func FuzzStructuralReplayVsNaive(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 1, 2, 3, 4, 0, 5}, []byte{0x10, 0x22, 0xf1, 0x05, 0xe3, 0x00, 0xd2, 0x31})
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3}, []byte{0xf0, 0xf1, 0xf2, 0xe0, 0xe1, 0xe2})
	f.Add([]byte{7, 1, 7, 1, 7, 1}, []byte{0xd0, 0xd1, 0x00, 0xff, 0x80})
	f.Fuzz(func(t *testing.T, cells, ops []byte) {
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
		mkRow := func(seed byte) []table.Value {
			row := make([]table.Value, 3)
			for j := range row {
				row[j] = structuralFuzzValue(cells[(int(seed)+j)%len(cells)])
			}
			return row
		}
		for i := 0; i < rows; i++ {
			if err := tbl.Append(mkRow(byte(i * 3))); err != nil {
				t.Fatal(err)
			}
		}
		cs := []*Constraint{
			MustParse("S1: !(t1.A = t2.A & t1.B != t2.B)"),
			MustParse("S2: !(t1.A = t2.A & t1.B = t2.B & t1.C != t2.C)"),
			MustParse("S3: !(t1.A != t2.A & t1.B != t2.B & t1.C != t2.C)"),
			MustParse(`S4: !(t1.B = "a" & t1.C != "b")`),
		}
		ix := NewScanIndex()
		live := NewLiveViolationSet()
		check := func(stage string) {
			for _, c := range cs {
				want, err := c.Violations(tbl)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.AppendViolations(tbl, ix, nil)
				if err != nil {
					t.Fatalf("%s/%s: cached: %v", stage, c.ID, err)
				}
				lv, err := live.Violations(c, tbl)
				if err != nil {
					t.Fatalf("%s/%s: live: %v", stage, c.ID, err)
				}
				if len(got) != len(want) || len(lv) != len(want) {
					t.Fatalf("%s/%s: cached %d, live %d, naive %d pairs", stage, c.ID, len(got), len(lv), len(want))
				}
				for i := range want {
					if got[i] != want[i] || lv[i] != want[i] {
						t.Fatalf("%s/%s: pair %d: cached %v live %v naive %v", stage, c.ID, i, got[i], lv[i], want[i])
					}
				}
			}
		}
		check("initial")
		for i, op := range ops {
			switch {
			case op >= 0xf0:
				if tbl.NumRows() < 12 { // cap growth: the naive reference is O(n²)
					if err := tbl.Append(mkRow(op)); err != nil {
						t.Fatal(err)
					}
				}
			case op >= 0xe0:
				if tbl.NumRows() > 1 {
					tbl.DeleteRow(int(op&0x0f) % tbl.NumRows())
				}
			case op >= 0xd0:
				err := tbl.ApplyBatch(func(b *table.Table) error {
					b.Set(int(op)%b.NumRows(), int(op)%3, structuralFuzzValue(op))
					if b.NumRows() < 12 { // cap growth as above
						if err := b.Append(mkRow(op + 1)); err != nil {
							return err
						}
					}
					if b.NumRows() > 1 {
						b.DeleteRow(int(op>>1) % b.NumRows())
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			default:
				tbl.Set(int(op>>4)%tbl.NumRows(), int(op)%3, structuralFuzzValue(op))
			}
			if i%3 == 2 {
				check(fmt.Sprintf("op %d", i))
			}
		}
		check("final")
		// Overrun inside one batch: the window is lost, both consumers must
		// rebuild.
		err = tbl.ApplyBatch(func(b *table.Table) error {
			for k := 0; k < 600; k++ {
				if err := b.Append(mkRow(byte(k))); err != nil {
					return err
				}
				if b.NumRows() > 4 {
					b.DeleteRow(k % b.NumRows())
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		check("after-overrun")
	})
}
