package dc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/table"
)

// paperDirty reproduces the dirty La Liga table of Figure 2a closely enough
// for evaluator tests (the authoritative copy lives in internal/data).
func paperDirty(t *testing.T) *table.Table {
	t.Helper()
	return table.MustFromStrings(
		[]string{"Team", "City", "Country", "League", "Year", "Place"},
		[][]string{
			{"Barcelona", "Barcelona", "Spain", "La Liga", "2019", "1"},
			{"Atletico Madrid", "Capital", "Spain", "La Liga", "2019", "2"},
			{"Real Madrid", "Madrid", "Spain", "La Liga", "2019", "3"},
			{"Valencia", "Valencia", "Spain", "La Liga", "2019", "4"},
			{"Real Madrid", "Capital", "España", "La Liga", "2019", "3"},
			{"Real Madrid", "Madrid", "Spore", "La Liga", "2019", "3"},
		})
}

func paperDCs(t *testing.T) []*Constraint {
	t.Helper()
	cs, err := ParseSet(`
C1: !(t1.Team = t2.Team & t1.City != t2.City)
C2: !(t1.City = t2.City & t1.Country != t2.Country)
C3: !(t1.League = t2.League & t1.Country != t2.Country)
C4: !(t1.Team != t2.Team & t1.Year = t2.Year & t1.League = t2.League & t1.Place = t2.Place)
`)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestSatisfiedPair(t *testing.T) {
	tbl := paperDirty(t)
	c1 := MustParse("!(t1.Team = t2.Team & t1.City != t2.City)")
	// t3 (Real Madrid, Madrid) vs t5 (Real Madrid, Capital): violation body holds.
	sat, err := c1.SatisfiedPair(tbl, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !sat {
		t.Error("C1 body must hold for (t3, t5)")
	}
	// t1 vs t2: different teams, body fails.
	sat, _ = c1.SatisfiedPair(tbl, 0, 1)
	if sat {
		t.Error("C1 body must fail for (t1, t2)")
	}
}

func TestSatisfiedPairNullSemantics(t *testing.T) {
	tbl := paperDirty(t)
	tbl.SetByName(4, "City", table.Null())
	c1 := MustParse("!(t1.Team = t2.Team & t1.City != t2.City)")
	// t5's City is null: != is unknown, so no violation.
	sat, err := c1.SatisfiedPair(tbl, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sat {
		t.Error("null City must not produce a violation")
	}
}

func TestSatisfiedPairUnknownAttr(t *testing.T) {
	tbl := paperDirty(t)
	c := MustParse("!(t1.Nope = t2.Nope)")
	if _, err := c.SatisfiedPair(tbl, 0, 1); err == nil {
		t.Error("unknown attribute must error at evaluation")
	}
}

func TestViolationsPaperTable(t *testing.T) {
	tbl := paperDirty(t)
	cs := paperDCs(t)

	// C1: Real Madrid appears with Madrid (t3, t6) and Capital (t5);
	// Atletico's "Capital" is unique to its team. Ordered violating pairs:
	// (3,5),(5,3),(5,6),(6,5) in 1-based tuple numbering.
	v1, err := cs[0].Violations(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(v1) != 4 {
		t.Fatalf("C1 violations = %d (%v), want 4", len(v1), v1)
	}

	// C2: City=Capital pairs t2 (Spain) with t5 (España): 2 ordered pairs.
	// City=Madrid pairs t3 (Spain) with t6 (Spore): 2 ordered pairs.
	v2, _ := cs[1].Violations(tbl)
	if len(v2) != 4 {
		t.Fatalf("C2 violations = %d (%v), want 4", len(v2), v2)
	}

	// C3: League=La Liga everywhere; countries Spain(4), España(1), Spore(1).
	// Ordered pairs with differing country: 4*1*2 + 4*1*2 + 1*1*2 = 18.
	v3, _ := cs[2].Violations(tbl)
	if len(v3) != 18 {
		t.Fatalf("C3 violations = %d, want 18", len(v3))
	}

	// C4: places 1,2,3,4,3,3 — the three Real Madrid rows share place 3 but
	// have the same team, so no violation.
	v4, _ := cs[3].Violations(tbl)
	if len(v4) != 0 {
		t.Fatalf("C4 violations = %d (%v), want 0", len(v4), v4)
	}
}

func TestViolatesRow(t *testing.T) {
	tbl := paperDirty(t)
	cs := paperDCs(t)
	// t5 (index 4) violates C1 (vs t3/t6), C2 (vs t2), C3 (country España).
	for _, tc := range []struct {
		c    *Constraint
		row  int
		want bool
	}{
		{cs[0], 4, true},
		{cs[1], 4, true},
		{cs[2], 4, true},
		{cs[3], 4, false},
		{cs[0], 0, false}, // Barcelona consistent
		{cs[2], 0, true},  // Spain vs España/Spore conflicts involve t1 too
	} {
		got, err := tc.c.ViolatesRow(tbl, tc.row)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s.ViolatesRow(t%d) = %v, want %v", tc.c.ID, tc.row+1, got, tc.want)
		}
	}
}

func TestSingleTupleConstraint(t *testing.T) {
	tbl := paperDirty(t)
	c := MustParse("S1: !(t1.Year != 2019)")
	if !c.SingleTuple() {
		t.Fatal("must be single-tuple")
	}
	vs, err := c.Violations(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("no violations expected, got %v", vs)
	}
	tbl.SetByName(0, "Year", table.Int(2020))
	vs, _ = c.Violations(tbl)
	if len(vs) != 1 || vs[0].Row1 != 0 || vs[0].Row2 != 0 {
		t.Fatalf("violations = %v", vs)
	}
	got, err := c.ViolatesRow(tbl, 0)
	if err != nil || !got {
		t.Error("ViolatesRow must detect single-tuple violation")
	}
}

func TestViolationsIndexedMatchesNaive(t *testing.T) {
	tbl := paperDirty(t)
	for _, c := range paperDCs(t) {
		naive, err := c.Violations(tbl)
		if err != nil {
			t.Fatal(err)
		}
		indexed, err := c.AppendViolations(tbl, NewScanIndex(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(naive) != len(indexed) {
			t.Fatalf("%s: naive %d vs indexed %d", c.ID, len(naive), len(indexed))
		}
		for i := range naive {
			if naive[i].Row1 != indexed[i].Row1 || naive[i].Row2 != indexed[i].Row2 {
				t.Fatalf("%s: order mismatch at %d: %v vs %v", c.ID, i, naive[i], indexed[i])
			}
		}
	}
}

func TestViolationsIndexedMatchesNaiveProperty(t *testing.T) {
	// Random small tables, random FD-shaped constraints: both scans agree.
	c := MustParse("!(t1.A = t2.A & t1.B != t2.B)")
	f := func(seed int64, nRows uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRows)%12 + 1
		grid := make([][]string, n)
		letters := []string{"x", "y", "z"}
		for i := range grid {
			grid[i] = []string{letters[rng.Intn(3)], letters[rng.Intn(3)]}
			if rng.Intn(5) == 0 {
				grid[i][rng.Intn(2)] = "" // sprinkle nulls
			}
		}
		tbl := table.MustFromStrings([]string{"A", "B"}, grid)
		naive, err1 := c.Violations(tbl)
		indexed, err2 := c.AppendViolations(tbl, NewScanIndex(), nil)
		if err1 != nil || err2 != nil || len(naive) != len(indexed) {
			return false
		}
		for i := range naive {
			if naive[i] != indexed[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestViolationsIndexedNullJoinKey(t *testing.T) {
	tbl := table.MustFromStrings([]string{"A", "B"}, [][]string{{"", "1"}, {"", "2"}})
	c := MustParse("!(t1.A = t2.A & t1.B != t2.B)")
	vs, err := c.AppendViolations(tbl, NewScanIndex(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("null join keys must not match: %v", vs)
	}
}

func TestAllViolationsAndConsistent(t *testing.T) {
	tbl := paperDirty(t)
	cs := paperDCs(t)
	all, err := AllViolations(cs, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4+4+18 {
		t.Fatalf("total violations = %d, want 26", len(all))
	}
	ok, err := Consistent(cs, tbl)
	if err != nil || ok {
		t.Error("dirty table must be inconsistent")
	}
	clean := tbl.Clone()
	clean.SetByName(1, "City", table.String("Madrid"))
	clean.SetByName(4, "City", table.String("Madrid"))
	clean.SetByName(4, "Country", table.String("Spain"))
	clean.SetByName(5, "Country", table.String("Spain"))
	ok, err = Consistent(cs, clean)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		vs, _ := AllViolations(cs, clean)
		t.Fatalf("clean table must be consistent, got %v", vs)
	}
}

func TestViolationString(t *testing.T) {
	c := MustParse("C7: !(t1.A = t2.A)")
	v := Violation{Constraint: c, Row1: 2, Row2: 5}
	if v.String() != "C7 violated by (t3, t6)" {
		t.Errorf("String = %q", v.String())
	}
	s := Violation{Constraint: c, Row1: 1, Row2: 1}
	if s.String() != "C7 violated by t2" {
		t.Errorf("String = %q", s.String())
	}
}

func TestByIDAndWithout(t *testing.T) {
	cs := paperDCs(t)
	if ByID(cs, "C3") != cs[2] {
		t.Error("ByID(C3)")
	}
	if ByID(cs, "C9") != nil {
		t.Error("ByID missing must be nil")
	}
	rest := Without(cs, "C2")
	if len(rest) != 3 || ByID(rest, "C2") != nil {
		t.Errorf("Without = %v", rest)
	}
	if len(Without(cs, "C9")) != 4 {
		t.Error("Without missing ID must be a no-op copy")
	}
}

func TestValidateSet(t *testing.T) {
	tbl := paperDirty(t)
	cs := paperDCs(t)
	if err := ValidateSet(cs, tbl.Schema()); err != nil {
		t.Errorf("paper DCs must validate: %v", err)
	}
	dup := []*Constraint{MustParse("C1: !(t1.Team = t2.Team)"), MustParse("C1: !(t1.City = t2.City)")}
	if err := ValidateSet(dup, tbl.Schema()); err == nil {
		t.Error("duplicate IDs must be rejected")
	}
	bad := []*Constraint{MustParse("!(t1.Nope = t2.Nope)")}
	if err := ValidateSet(bad, tbl.Schema()); err == nil {
		t.Error("unknown attribute must be rejected")
	}
}

func TestOpEvalTruthTable(t *testing.T) {
	one, two := table.Int(1), table.Int(2)
	cases := []struct {
		op        Op
		a, b      table.Value
		sat, know bool
	}{
		{OpEq, one, one, true, true},
		{OpEq, one, two, false, true},
		{OpNeq, one, two, true, true},
		{OpLt, one, two, true, true},
		{OpLeq, one, one, true, true},
		{OpGt, two, one, true, true},
		{OpGeq, one, two, false, true},
		{OpEq, table.Null(), one, false, false},
		{OpNeq, one, table.Null(), false, false},
		{OpLt, table.String("a"), one, false, false},
		{OpEq, table.String("a"), table.String("a"), true, true},
	}
	for _, c := range cases {
		sat, know := c.op.Eval(c.a, c.b)
		if sat != c.sat || know != c.know {
			t.Errorf("%v.Eval(%v,%v) = (%v,%v), want (%v,%v)", c.op, c.a, c.b, sat, know, c.sat, c.know)
		}
	}
}

// TestViolationsIndexedCompositeKey exercises a two-attribute join where
// the FIRST attribute is non-selective (constant column) and the second
// carries all the selectivity. Bucketing on keys[0] alone would put every
// row in one bucket; the composite key must still produce exactly the
// naive scan's answer, and a probe constraint confirms rows differing only
// in the second join attribute never pair up.
func TestViolationsIndexedCompositeKey(t *testing.T) {
	c := MustParse("C1: !(t1.A = t2.A & t1.B = t2.B & t1.C != t2.C)")
	tbl := table.MustFromStrings([]string{"A", "B", "C"}, [][]string{
		{"k", "1", "x"},
		{"k", "1", "y"}, // violates with row 0 (same A,B; different C)
		{"k", "2", "x"},
		{"k", "2", "x"}, // same A,B as row 2 but same C: no violation
		{"k", "3", "z"},
		{"k", "", "w"}, // null second key: excluded from bucketing
	})
	naive, err := c.Violations(tbl)
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := c.AppendViolations(tbl, NewScanIndex(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(naive) != len(indexed) {
		t.Fatalf("naive %v vs indexed %v", naive, indexed)
	}
	for i := range naive {
		if naive[i] != indexed[i] {
			t.Fatalf("order mismatch at %d: %v vs %v", i, naive[i], indexed[i])
		}
	}
	if len(indexed) != 2 { // (0,1) and (1,0)
		t.Fatalf("violations = %v, want the (t1,t2) pair both ways", indexed)
	}
	if indexed[0].Row1 != 0 || indexed[0].Row2 != 1 {
		t.Fatalf("first violation = %v", indexed[0])
	}
}

// TestViolationsIndexedCompositeKeyProperty randomizes two-join-attribute
// tables (with nulls) and checks the composite-key scan against the naive
// one.
func TestViolationsIndexedCompositeKeyProperty(t *testing.T) {
	c := MustParse("!(t1.A = t2.A & t1.B = t2.B & t1.C != t2.C)")
	f := func(seed int64, nRows uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRows)%14 + 1
		letters := []string{"x", "y", ""}
		grid := make([][]string, n)
		for i := range grid {
			grid[i] = []string{letters[rng.Intn(3)], letters[rng.Intn(3)], letters[rng.Intn(3)]}
		}
		tbl := table.MustFromStrings([]string{"A", "B", "C"}, grid)
		naive, err1 := c.Violations(tbl)
		indexed, err2 := c.AppendViolations(tbl, NewScanIndex(), nil)
		if err1 != nil || err2 != nil || len(naive) != len(indexed) {
			return false
		}
		for i := range naive {
			if naive[i] != indexed[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestScanIndexReuse verifies the bucket cache: same generation -> reuse;
// any mutation -> rebuild. Reuse is observed through correctness after
// mutation (stale buckets would miss the new violation).
func TestScanIndexReuse(t *testing.T) {
	tbl := paperDirty(t)
	cs := paperDCs(t)
	ix := NewScanIndex()
	for _, c := range cs {
		cached, err := c.AppendViolations(tbl, ix, nil)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := c.Violations(tbl)
		if err != nil {
			t.Fatal(err)
		}
		if len(cached) != len(plain) {
			t.Fatalf("%s: cached %d vs plain %d", c.ID, len(cached), len(plain))
		}
		for i := range plain {
			if cached[i].Row1 != plain[i].Row1 || cached[i].Row2 != plain[i].Row2 {
				t.Fatalf("%s: mismatch at %d", c.ID, i)
			}
		}
	}
	// Mutate: a row that now collides on C1's join key (Team).
	gen := tbl.Generation()
	tbl.SetByName(3, "Team", table.String("Real Madrid"))
	if tbl.Generation() == gen {
		t.Fatal("Set must bump the generation")
	}
	c := ByID(cs, "C1")
	after, err := c.AppendViolations(tbl, ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := c.Violations(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(plain) {
		t.Fatalf("stale buckets after mutation: cached %d vs plain %d", len(after), len(plain))
	}
}

// TestViolatesRowCachedMatches checks the bucketed per-row violation test
// against the full-scan original on every row and constraint, with and
// without a shared index, across a mutation.
func TestViolatesRowCachedMatches(t *testing.T) {
	tbl := paperDirty(t)
	cs := paperDCs(t)
	ix := NewScanIndex()
	check := func() {
		t.Helper()
		for _, c := range cs {
			for i := 0; i < tbl.NumRows(); i++ {
				plain, err1 := c.ViolatesRow(tbl, i)
				cached, err2 := c.ViolatesRowCached(tbl, i, ix)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if plain != cached {
					t.Errorf("%s row %d: plain %v cached %v", c.ID, i, plain, cached)
				}
			}
		}
	}
	check()
	tbl.SetByName(4, "City", table.String("Madrid"))
	check()
	// Null join key: never a pair violation.
	tbl.SetByName(5, "Team", table.Null())
	check()
}
