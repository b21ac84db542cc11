package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/dc"
	"repro/internal/repair"
	"repro/internal/table"
)

// sameBits reports whether two values are identical bit for bit: same kind
// and payload, floats by bit pattern.
func sameBits(a, b table.Value) bool {
	if a.Kind() == table.KindFloat && b.Kind() == table.KindFloat {
		return math.Float64bits(a.FloatVal()) == math.Float64bits(b.FloatVal())
	}
	return a == b
}

func requireSameBits(t *testing.T, name string, got, want *table.Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for i := 0; i < want.NumRows(); i++ {
		for j := 0; j < want.NumCols(); j++ {
			if g, w := got.Get(i, j), want.Get(i, j); !sameBits(g, w) {
				t.Errorf("%s: cell (%d,%d) = %#v, want %#v", name, i, j, g, w)
			}
		}
	}
}

// TestRepairMemoHitBitIdentical checks that a repair served from the
// repair-target memo is bit-identical to the black box's own answer, for
// changes SameContent cannot see: -0 written over 0, Int(5) to Float(5),
// and a NaN whose payload changed (a NaN left alone is no difference).
func TestRepairMemoHitBitIdentical(t *testing.T) {
	negZero := math.Copysign(0, -1)
	otherNaN := math.Float64frombits(0x7ff8000000000002)
	dirty := table.New(table.MustSchema(table.Column{Name: "A"}, table.Column{Name: "B"}))
	for _, row := range [][]table.Value{
		{table.String("x"), table.Float(0)},
		{table.String("y"), table.Int(5)},
		{table.String("z"), table.Float(math.NaN())},
		{table.String("w"), table.Float(math.NaN())},
		{table.String("v"), table.String("old")},
	} {
		if err := dirty.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	alg := repair.Func{AlgName: "bits", Fn: func(_ context.Context, _ []*dc.Constraint, d *table.Table) (*table.Table, error) {
		calls++
		clean := d.Clone()
		clean.Set(0, 1, table.Float(negZero))
		clean.Set(1, 1, table.Float(5))
		clean.Set(3, 1, table.Float(otherNaN))
		clean.Set(4, 1, table.String("new"))
		return clean, nil
	}}
	ctx := context.Background()
	want, err := alg.Repair(ctx, nil, dirty)
	if err != nil {
		t.Fatal(err)
	}
	calls = 0
	sess, err := NewSession(alg, nil, dirty)
	if err != nil {
		t.Fatal(err)
	}
	miss, missDiffs, err := sess.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hit, hitDiffs, err := sess.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("black box ran %d times, want 1 (the second Repair is a memo hit)", calls)
	}
	requireSameBits(t, "miss", miss, want)
	requireSameBits(t, "hit", hit, want)

	exact, repaired, err := sess.Explainer().RepairDiff(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var gotRefs []table.CellRef
	for _, d := range exact {
		gotRefs = append(gotRefs, d.Ref)
	}
	wantRefs := []table.CellRef{{Row: 0, Col: 1}, {Row: 1, Col: 1}, {Row: 3, Col: 1}, {Row: 4, Col: 1}}
	if len(gotRefs) != len(wantRefs) {
		t.Fatalf("exact diff cells %v, want %v", gotRefs, wantRefs)
	}
	for i := range wantRefs {
		if gotRefs[i] != wantRefs[i] {
			t.Fatalf("exact diff cells %v, want %v", gotRefs, wantRefs)
		}
	}
	// Content changes only: the payload-changed NaN (never SameContent) and
	// the string.
	for name, diffs := range map[string][]table.CellDiff{"miss": missDiffs, "hit": hitDiffs, "RepairDiff": repaired} {
		if len(diffs) != 2 || diffs[0].Ref != (table.CellRef{Row: 3, Col: 1}) || diffs[1].Ref != (table.CellRef{Row: 4, Col: 1}) {
			t.Errorf("%s repaired cells = %+v", name, diffs)
		}
	}
	v, wasRepaired, err := sess.Explainer().Target(ctx, table.CellRef{Row: 0, Col: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(v, table.Float(negZero)) || wasRepaired {
		t.Errorf("Target(-0 cell) = %#v, repaired %v; want -0, false", v, wasRepaired)
	}
}
