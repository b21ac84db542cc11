package dc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/table"
)

// assertIndexedMatchesExact compares the indexed/cached scan and the
// bucket-restricted per-row primitives against the naive reference scan on
// every row of tbl.
func assertIndexedMatchesExact(t *testing.T, label string, c *Constraint, tbl *table.Table, ix *ScanIndex) {
	t.Helper()
	want, err := c.Violations(tbl)
	if err != nil {
		t.Fatalf("%s: exact: %v", label, err)
	}
	got, err := c.AppendViolations(tbl, ix, nil)
	if err != nil {
		t.Fatalf("%s: cached: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d violations cached, %d exact\ncached: %v\nexact: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].Row1 != want[i].Row1 || got[i].Row2 != want[i].Row2 {
			t.Fatalf("%s: violation %d: cached (%d,%d), exact (%d,%d)",
				label, i, got[i].Row1, got[i].Row2, want[i].Row1, want[i].Row2)
		}
	}
	for row := 0; row < tbl.NumRows(); row++ {
		exact, err := c.ViolatesRow(tbl, row)
		if err != nil {
			t.Fatal(err)
		}
		indexed, err := c.ViolatesRowCached(tbl, row, ix)
		if err != nil {
			t.Fatal(err)
		}
		if exact != indexed {
			t.Fatalf("%s: row %d: exact %v, bucket-restricted %v", label, row, exact, indexed)
		}
		nExact, err := c.violationPairsForRowOracle(tbl, row)
		if err != nil {
			t.Fatal(err)
		}
		nIndexed, err := c.ViolationPairsForRow(tbl, row, ix)
		if err != nil {
			t.Fatal(err)
		}
		if nExact != nIndexed {
			t.Fatalf("%s: row %d: %d pairs exact, %d bucket-restricted", label, row, nExact, nIndexed)
		}
	}
}

// TestNaNJoinKeyExcludedFromPartition is the regression test for the NaN
// join-key bug: NaN cells used to share an equality bucket (every NaN row
// keyed to "NaN"), so partition consumers that trust the bucket as an
// equality grouping treated NaN rows as joined even though NaN = NaN is
// false. NaN join keys now exclude the row from the partition exactly like
// nulls, and every indexed primitive must agree with the naive scan.
func TestNaNJoinKeyExcludedFromPartition(t *testing.T) {
	c, err := Parse("C1: !(t1.A = t2.A & t1.B != t2.B)")
	if err != nil {
		t.Fatal(err)
	}
	tbl := table.New(mustSchema(t, "A", "B"))
	appendRow := func(a, b table.Value) {
		t.Helper()
		if err := tbl.Append([]table.Value{a, b}); err != nil {
			t.Fatal(err)
		}
	}
	nan := table.Float(math.NaN())
	appendRow(nan, table.String("x"))
	appendRow(nan, table.String("y")) // would violate if NaN = NaN held
	appendRow(table.Float(1), table.String("x"))
	appendRow(table.Int(1), table.String("y")) // real violation: 1 = 1.0
	appendRow(table.Null(), table.String("z"))
	ix := NewScanIndex()
	assertIndexedMatchesExact(t, "initial", c, tbl, ix)

	// The partition must place NaN rows nowhere: they cannot be probed into
	// a bucket, and the indexed scan must report exactly the one int/float
	// violating pair (both orders).
	want, err := c.Violations(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 {
		t.Fatalf("fixture: want the (2,3)/(3,2) pair only, got %v", want)
	}

	// NaN moving in and out of the join column must keep the delta-maintained
	// partition in agreement with the exact scan.
	tbl.Set(0, 0, table.Float(1))
	assertIndexedMatchesExact(t, "NaN -> 1.0", c, tbl, ix)
	tbl.Set(0, 0, nan)
	assertIndexedMatchesExact(t, "1.0 -> NaN", c, tbl, ix)
	tbl.Set(4, 0, nan)
	assertIndexedMatchesExact(t, "null -> NaN", c, tbl, ix)
	tbl.Set(4, 0, table.Null())
	assertIndexedMatchesExact(t, "NaN -> null", c, tbl, ix)
}

// TestNaNZeroMixedKindsFuzz fuzzes tables mixing NaN, ±0.0, int/float
// twins, nulls and strings in join and non-join columns: after every edit
// the cached scan must stay bit-identical to the naive reference for both
// an FD-shaped and a comparison-heavy constraint.
func TestNaNZeroMixedKindsFuzz(t *testing.T) {
	cs, err := ParseSet(`
C1: !(t1.A = t2.A & t1.B != t2.B)
C2: !(t1.A = t2.A & t1.C = t2.C & t1.B > t2.B)
`)
	if err != nil {
		t.Fatal(err)
	}
	values := []table.Value{
		table.Float(math.NaN()),
		table.Float(0.0),
		table.Float(math.Copysign(0, -1)),
		table.Int(0),
		table.Int(1),
		table.Float(1.0),
		table.Null(),
		table.String(""),
		table.String("NaN"), // string decoy: must never join the float NaN
		table.Bool(true),
	}
	rng := rand.New(rand.NewSource(42))
	tbl := table.New(mustSchema(t, "A", "B", "C"))
	for i := 0; i < 18; i++ {
		row := []table.Value{
			values[rng.Intn(len(values))],
			values[rng.Intn(len(values))],
			values[rng.Intn(len(values))],
		}
		if err := tbl.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	ix := NewScanIndex()
	for _, c := range cs {
		assertIndexedMatchesExact(t, "initial/"+c.ID, c, tbl, ix)
	}
	for step := 0; step < 250; step++ {
		tbl.Set(rng.Intn(tbl.NumRows()), rng.Intn(tbl.NumCols()), values[rng.Intn(len(values))])
		for _, c := range cs {
			assertIndexedMatchesExact(t, fmt.Sprintf("step %d/%s", step, c.ID), c, tbl, ix)
		}
	}
}
