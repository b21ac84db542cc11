package table

import (
	"fmt"
	"math/rand"
	"testing"
)

// sameDistribution asserts d answers every query exactly as ref does —
// including the first-observed iteration order that Mode ties and Sample
// depend on. Values compare bit for bit (identical), so NaN matches NaN
// and -0 does not match 0.
func sameDistribution(t *testing.T, label string, d, ref *Distribution) {
	t.Helper()
	if d.Total() != ref.Total() {
		t.Fatalf("%s: total %d vs %d", label, d.Total(), ref.Total())
	}
	got, want := d.Support(), ref.Support()
	if len(got) != len(want) {
		t.Fatalf("%s: support size %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if !identical(got[i], want[i]) {
			t.Fatalf("%s: support[%d] = %v vs %v (order matters: tie-breaks)", label, i, got[i], want[i])
		}
		if d.Count(got[i]) != ref.Count(want[i]) {
			t.Fatalf("%s: count(%v) = %d vs %d", label, got[i], d.Count(got[i]), ref.Count(want[i]))
		}
	}
	gm, gok := d.Mode()
	wm, wok := ref.Mode()
	if gok != wok || !identical(gm, wm) {
		t.Fatalf("%s: mode (%v, %v) vs (%v, %v)", label, gm, gok, wm, wok)
	}
	// Sample must consume the RNG identically and draw the same values.
	r1, r2 := rand.New(rand.NewSource(99)), rand.New(rand.NewSource(99))
	for i := 0; i < 8; i++ {
		gv, gok := d.Sample(r1)
		wv, wok := ref.Sample(r2)
		if gok != wok || !identical(gv, wv) {
			t.Fatalf("%s: sample %d: (%v, %v) vs (%v, %v)", label, i, gv, gok, wv, wok)
		}
	}
}

// sameStats asserts synced stats answer exactly as freshly-built stats for
// every column and for the conditional distributions of every (given,
// target) pair over every observed given-value.
func sameStats(t *testing.T, label string, synced, ref *Stats, tbl *Table) {
	t.Helper()
	for j := 0; j < tbl.NumCols(); j++ {
		sameDistribution(t, fmt.Sprintf("%s: col %d", label, j), synced.Column(j), ref.Column(j))
	}
	for given := 0; given < tbl.NumCols(); given++ {
		for target := 0; target < tbl.NumCols(); target++ {
			if given == target {
				continue
			}
			for _, val := range ref.Column(given).Support() {
				sameDistribution(t,
					fmt.Sprintf("%s: cond(%d=%v -> %d)", label, given, val, target),
					synced.Conditional(given, val, target),
					ref.Conditional(given, val, target))
			}
		}
	}
}

// statsEditValues is the value alphabet of the randomized edit streams:
// duplicates, nulls, both numeric kinds, NaN-free.
var statsEditValues = []Value{
	String("a"), String("b"), String("c"), String("a"),
	Int(1), Int(2), Float(1.5), Null(), String(""),
}

func randomStatsTable(rng *rand.Rand, rows, cols int) *Table {
	names := make([]string, cols)
	for j := range names {
		names[j] = fmt.Sprintf("C%d", j)
	}
	schema, err := SchemaOf(names...)
	if err != nil {
		panic(err)
	}
	tbl := New(schema)
	for i := 0; i < rows; i++ {
		row := make([]Value, cols)
		for j := range row {
			row[j] = statsEditValues[rng.Intn(len(statsEditValues))]
		}
		if err := tbl.Append(row); err != nil {
			panic(err)
		}
	}
	return tbl
}

// TestStatsSyncEquivalenceRandom is the tentpole's fuzz-equivalence
// contract: after any stream of single-cell edits, Sync answers exactly as
// a full rebuild — including tie-break order — whether it took the delta
// path or fell back.
func TestStatsSyncEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		rows, cols := 2+rng.Intn(8), 1+rng.Intn(4)
		tbl := randomStatsTable(rng, rows, cols)
		synced := NewStats(tbl)
		tookDelta := false
		for batch := 0; batch < 6; batch++ {
			for e := 0; e < rng.Intn(5); e++ {
				tbl.Set(rng.Intn(rows), rng.Intn(cols), statsEditValues[rng.Intn(len(statsEditValues))])
			}
			if synced.Sync(tbl) {
				tookDelta = true
			}
			sameStats(t, fmt.Sprintf("trial %d batch %d", trial, batch), synced, NewStats(tbl), tbl)
		}
		if trial == 0 && !tookDelta {
			t.Fatal("delta path never taken on a small edit stream")
		}
	}
}

// TestStatsSyncOverrunFallsBack: an edit stream larger than the table's
// edit-log window must fall back to a full rebuild and still answer
// exactly.
func TestStatsSyncOverrunFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl := randomStatsTable(rng, 6, 3)
	s := NewStats(tbl)
	for e := 0; e < editLogWindow+10; e++ {
		tbl.Set(rng.Intn(6), rng.Intn(3), statsEditValues[rng.Intn(len(statsEditValues))])
	}
	if s.Sync(tbl) {
		t.Fatal("overrun edit stream must fall back to a full rebuild")
	}
	sameStats(t, "overrun", s, NewStats(tbl), tbl)
}

// TestStatsSyncStructuralDelta: Append and DeleteRow now ride the typed
// edit log; Sync stays on the delta path and still answers exactly as a
// rebuild, including first-observed order.
func TestStatsSyncStructuralDelta(t *testing.T) {
	tbl := MustFromStrings([]string{"A", "B"}, [][]string{{"x", "1"}, {"y", "2"}})
	s := NewStats(tbl)
	if err := tbl.Append([]Value{String("z"), Int(3)}); err != nil {
		t.Fatal(err)
	}
	if !s.Sync(tbl) {
		t.Fatal("insert-only window must take the delta path")
	}
	sameStats(t, "append", s, NewStats(tbl), tbl)
	// A delete reshuffles row order (swap-delete) and must still match a
	// rebuild's first-observed order exactly.
	tbl.DeleteRow(0)
	if !s.Sync(tbl) {
		t.Fatal("delete window must take the delta path")
	}
	sameStats(t, "delete", s, NewStats(tbl), tbl)
	// Interleaved cell + structural edits in one window.
	tbl.Set(0, 0, String("w"))
	if err := tbl.Append([]Value{String("v"), Int(4)}); err != nil {
		t.Fatal(err)
	}
	tbl.Set(1, 1, Int(9))
	if !s.Sync(tbl) {
		t.Fatal("mixed window must take the delta path")
	}
	sameStats(t, "mixed", s, NewStats(tbl), tbl)
}

// TestStatsConditionalDirtyBits pins the per-(column-pair) dirty
// tracking: a synced cell edit in one column must not invalidate cached
// conditional distributions over unrelated column pairs.
func TestStatsConditionalDirtyBits(t *testing.T) {
	tbl := MustFromStrings([]string{"A", "B", "C"}, [][]string{
		{"x", "1", "p"}, {"y", "2", "q"}, {"x", "2", "p"},
	})
	s := NewStats(tbl)
	s.Conditional(0, String("x"), 1) // materialize pair (A,B)
	s.Conditional(0, String("x"), 2) // materialize pair (A,C)
	ab, ac := s.cond[[2]int{0, 1}], s.cond[[2]int{0, 2}]
	abBuilds, acBuilds := ab.builds, ac.builds
	// Edit column C only: pair (A,B) must not rebuild, pair (A,C) must.
	tbl.Set(0, 2, String("r"))
	if !s.Sync(tbl) {
		t.Fatal("single-cell edit must take the delta path")
	}
	s.Conditional(0, String("x"), 1)
	s.Conditional(0, String("x"), 2)
	if ab.builds != abBuilds {
		t.Fatal("conditional over untouched pair rebuilt across Sync")
	}
	if ac.builds == acBuilds {
		t.Fatal("conditional over edited pair answered stale")
	}
	// A structural edit changes row membership in every column: both pairs
	// are dirty.
	abBuilds, acBuilds = ab.builds, ac.builds
	tbl.DeleteRow(1)
	if !s.Sync(tbl) {
		t.Fatal("structural window must take the delta path")
	}
	s.Conditional(0, String("x"), 1)
	s.Conditional(0, String("x"), 2)
	if ab.builds == abBuilds || ac.builds == acBuilds {
		t.Fatal("structural edit must dirty every conditional pair")
	}
	sameStats(t, "dirty-bits", s, NewStats(tbl), tbl)
}

// TestStatsSyncDifferentTableFallsBack: pointing a pooled Stats at another
// table is a rebuild, after which deltas resume against the new table.
func TestStatsSyncDifferentTableFallsBack(t *testing.T) {
	a := MustFromStrings([]string{"A"}, [][]string{{"x"}, {"y"}})
	b := MustFromStrings([]string{"A"}, [][]string{{"p"}, {"q"}})
	s := NewStats(a)
	if s.Sync(b) {
		t.Fatal("different table must fall back")
	}
	sameStats(t, "retarget", s, NewStats(b), b)
	b.Set(0, 0, String("r"))
	if !s.Sync(b) {
		t.Fatal("delta path must resume after the rebuild")
	}
	sameStats(t, "retarget+delta", s, NewStats(b), b)
}

// TestStatsSyncNoop: syncing an unchanged table is a cheap no-op on the
// delta path.
func TestStatsSyncNoop(t *testing.T) {
	tbl := MustFromStrings([]string{"A"}, [][]string{{"x"}})
	s := NewStats(tbl)
	if !s.Sync(tbl) {
		t.Fatal("unchanged table must stay on the delta path")
	}
	sameStats(t, "noop", s, NewStats(tbl), tbl)
}

// TestStatsSyncFirstObservedOrder pins the subtle case that rules out
// naive count deltas: editing an *earlier* row must move the column's
// first-observed order exactly as a rebuild would (Mode tie-breaks toward
// the earliest-observed value).
func TestStatsSyncFirstObservedOrder(t *testing.T) {
	tbl := MustFromStrings([]string{"A"}, [][]string{{"a"}, {"b"}, {"a"}})
	s := NewStats(tbl)
	// After the edit the column is [b, b, a]: a rebuild observes b first,
	// so the b/a tie... is no tie (b count 2) — use counts that tie.
	tbl.Set(2, 0, String("b"))
	tbl.Set(0, 0, String("a"))
	// Column is [a, b, b]: no tie either; force the tie case directly.
	tbl.Set(1, 0, String("c"))
	tbl.Set(2, 0, String("c"))
	tbl.Set(0, 0, String("c"))
	tbl.Set(1, 0, String("a"))
	tbl.Set(2, 0, String("a"))
	// Column is [c, a, a] -> now [a?]... final: row0=c, row1=a, row2=a.
	tbl.Set(0, 0, String("a"))
	tbl.Set(1, 0, String("c"))
	// Final column: [a, c, a] — a first-observed at row 0.
	if !s.Sync(tbl) {
		t.Fatal("edit stream within the window must take the delta path")
	}
	sameStats(t, "order", s, NewStats(tbl), tbl)
	if m, ok := s.Column(0).Mode(); !ok || m != String("a") {
		t.Fatalf("mode = (%v, %v), want a", m, ok)
	}
}

// FuzzStatsSyncEquivalence drives Sync with a fuzzer-chosen stream of
// cell edits, row inserts, row deletes, and batch brackets, asserting
// full-rebuild equivalence — the edit-log consumer analogue of the dc
// live-set replay fuzz. First-observed order (Mode ties, Sample draws) is
// part of the contract, so structural windows exercise the swap-delete
// re-observation path as well as the insert-only count-delta path.
func FuzzStatsSyncEquivalence(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x13, 0x37}, uint8(4), uint8(2))
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55, 0x10, 0x20, 0x30}, uint8(6), uint8(3))
	f.Add([]byte{}, uint8(1), uint8(1))
	f.Add([]byte{0xf1, 0x10, 0xe2, 0x21, 0xd0, 0xf3, 0xe1}, uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, stream []byte, rowsRaw, colsRaw uint8) {
		rows := 1 + int(rowsRaw%8)
		cols := 1 + int(colsRaw%4)
		rng := rand.New(rand.NewSource(11))
		tbl := randomStatsTable(rng, rows, cols)
		s := NewStats(tbl)
		randomRow := func(b byte) []Value {
			row := make([]Value, cols)
			for j := range row {
				row[j] = statsEditValues[(int(b)+j)%len(statsEditValues)]
			}
			return row
		}
		// Each stream byte encodes one operation; every 5th op,
		// sync+compare against a fresh rebuild.
		for i, b := range stream {
			switch {
			case b >= 0xf0:
				if err := tbl.Append(randomRow(b)); err != nil {
					t.Fatal(err)
				}
			case b >= 0xe0:
				if tbl.NumRows() > 1 {
					tbl.DeleteRow(int(b&0x0f) % tbl.NumRows())
				}
			case b >= 0xd0:
				// Batch: a cell edit, an insert, and a delete under one
				// generation.
				err := tbl.ApplyBatch(func(bt *Table) error {
					bt.Set(int(b)%bt.NumRows(), int(b>>2)%cols, statsEditValues[int(b)%len(statsEditValues)])
					if err := bt.Append(randomRow(b)); err != nil {
						return err
					}
					if bt.NumRows() > 1 {
						bt.DeleteRow(int(b>>1) % bt.NumRows())
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			default:
				row := int(b>>4) % tbl.NumRows()
				col := int(b>>2) % cols
				tbl.Set(row, col, statsEditValues[int(b)%len(statsEditValues)])
			}
			if i%5 == 4 {
				s.Sync(tbl)
				sameStats(t, fmt.Sprintf("op %d", i), s, NewStats(tbl), tbl)
			}
		}
		s.Sync(tbl)
		sameStats(t, "final", s, NewStats(tbl), tbl)
	})
}
