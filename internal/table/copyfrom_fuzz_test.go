package table

import (
	"fmt"
	"math"
	"testing"
)

// sameCells asserts work holds src's cells bit for bit: shape, kind and
// payload bits alike.
func sameCells(t *testing.T, label string, work, src *Table) {
	t.Helper()
	if !work.Schema().Equal(src.Schema()) || work.NumRows() != src.NumRows() {
		t.Fatalf("%s: work is %d rows of (%s), source %d rows of (%s)",
			label, work.NumRows(), work.Schema(), src.NumRows(), src.Schema())
	}
	for i := 0; i < src.NumRows(); i++ {
		for j := 0; j < src.NumCols(); j++ {
			if w, s := work.Get(i, j), src.Get(i, j); !identical(w, s) {
				t.Fatalf("%s: cell (%d,%d) is %v (%v), source has %v (%v)", label, i, j, w, w.Kind(), s, s.Kind())
			}
		}
	}
}

// copyValues is the value alphabet of FuzzCopyFromDelta: representations
// a value compare can confuse (int vs float, -0 vs 0, NaN, null).
var copyValues = []Value{
	String("p"), String("q"), Int(1), Float(1), Float(0),
	Float(math.Copysign(0, -1)), Float(math.NaN()), Null(),
}

// FuzzCopyFromDelta drives two source tables and a work table with a
// fuzzer-chosen stream of cell sets, inserts, deletes and batches, and
// refreshes the work table with CopyFrom between steps, sometimes from the
// other source. Refreshes from the anchored source take the delta path
// whenever both edit logs cover their windows without structural edits,
// and the full compare otherwise. After every copy the work table must
// hold the source's cells bit for bit, and a Stats synced through the work
// table's edit log must answer like one built fresh — so the delta path
// logs exactly the cells that changed.
func FuzzCopyFromDelta(f *testing.F) {
	f.Add([]byte{0x00, 0x21, 0x42, 0x63, 0x84, 0xa5, 0xc6, 0xe7})
	f.Add([]byte{0x10, 0x31, 0x10, 0x31, 0xff, 0x12, 0x33, 0xfe})
	f.Add([]byte{0x05, 0x45, 0x85, 0xc5, 0x07, 0x47, 0x87, 0xc7, 0x0d, 0x4d})
	f.Add([]byte{0xe0, 0x20, 0xf8, 0x28, 0x68, 0xa8, 0xe8, 0x18})
	f.Fuzz(func(t *testing.T, stream []byte) {
		mk := func(seed int) *Table {
			tbl := New(MustSchema(Column{Name: "A"}, Column{Name: "B"}, Column{Name: "C"}))
			for i := 0; i < 4; i++ {
				row := []Value{
					copyValues[(seed+i)%len(copyValues)],
					copyValues[(seed+2*i+1)%len(copyValues)],
					String(fmt.Sprint(i % 2)),
				}
				if err := tbl.Append(row); err != nil {
					t.Fatal(err)
				}
			}
			return tbl
		}
		srcs := [2]*Table{mk(0), mk(3)}
		cur := 0
		work := srcs[cur].Clone()
		stats := NewStats(work)
		value := func(b byte) Value { return copyValues[int(b)%len(copyValues)] }
		for i, b := range stream {
			// Bits 6-7 pick the table the op mutates: the current source,
			// the other one, or the work table itself (twice as likely).
			var tbl *Table
			switch b >> 6 {
			case 0:
				tbl = srcs[cur]
			case 1:
				tbl = srcs[1-cur]
			default:
				tbl = work
			}
			row := int(b>>3) % tbl.NumRows()
			col := int(b) % tbl.NumCols()
			switch op := b & 0x07; {
			case op < 4:
				tbl.Set(row, col, value(b>>2))
			case op == 4:
				if tbl.NumRows() < 8 {
					if err := tbl.Append([]Value{value(b), value(b >> 1), value(b >> 2)}); err != nil {
						t.Fatal(err)
					}
				}
			case op == 5:
				if tbl.NumRows() > 1 {
					tbl.DeleteRow(row)
				}
			case op == 6:
				err := tbl.ApplyBatch(func(bt *Table) error {
					bt.Set(row, col, value(b))
					bt.Set((row+1)%bt.NumRows(), (col+1)%bt.NumCols(), value(b>>1))
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			default:
				cur = 1 - cur
			}
			// Refresh after most ops; skipping some lets both windows
			// collect several edits.
			if i%3 == 2 {
				continue
			}
			src := srcs[cur]
			work.CopyFrom(src)
			label := fmt.Sprintf("op %d", i)
			sameCells(t, label, work, src)
			stats.Sync(work)
			sameStats(t, label, stats, NewStats(work), work)
		}
	})
}

// TestCopyFromDeltaPath pins when a refresh takes the delta path: only
// from the anchored source, while both edit logs cover their windows and
// neither window holds a structural edit.
func TestCopyFromDeltaPath(t *testing.T) {
	src := MustFromStrings([]string{"A", "B"}, [][]string{{"a", "1"}, {"b", "2"}, {"c", "3"}})
	work := src.Clone()
	if work.copyDelta(src) {
		t.Fatal("a clone has no copy anchor")
	}
	work.CopyFrom(src)
	src.Set(0, 1, Int(7))
	work.Set(2, 0, Float(math.NaN()))
	if !work.copyDelta(src) {
		t.Fatal("a refresh from the anchored source over cell edits must take the delta path")
	}
	work.anchorTo(src)
	sameCells(t, "delta refresh", work, src)

	if work.copyDelta(src.Clone()) {
		t.Fatal("a clone of the source is a different source")
	}
	if err := src.Append([]Value{String("d"), Int(4)}); err != nil {
		t.Fatal(err)
	}
	src.DeleteRow(3)
	if work.copyDelta(src) {
		t.Fatal("a window with structural edits must fall back to the full compare")
	}
	work.CopyFrom(src)
	sameCells(t, "full refresh", work, src)
	for k := 0; k < 2*editLogWindow; k++ {
		src.Set(k%3, 0, String(fmt.Sprint(k)))
	}
	if work.copyDelta(src) {
		t.Fatal("an overrun source log must fall back to the full compare")
	}
	work.CopyFrom(src)
	sameCells(t, "after overrun", work, src)
}
