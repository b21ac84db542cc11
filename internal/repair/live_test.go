package repair

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dc"
	"repro/internal/table"
)

// referenceChase is the pre-live-set FDChase pass: chase every join group
// of every FD, violating or not, until a fixpoint. It pins the
// ForEachViolatingGroup optimisation — skipping groups with no violating
// pair — to the exhaustive behaviour.
func referenceChase(t *testing.T, cs []*dc.Constraint, dirty *table.Table) *table.Table {
	t.Helper()
	work := dirty.Clone()
	dist := table.NewDistribution()
	var fds []chaseEntry
	for _, c := range cs {
		if d, ok := asFD(c, work.Schema()); ok {
			fds = append(fds, chaseEntry{c: c, d: d})
		}
	}
	for pass := 0; pass < 10; pass++ {
		changed := false
		for _, e := range fds {
			// Group rows by the FD's left-hand-side value, in order of first
			// appearance. Null and NaN keys join nothing under =.
			groupOf := make(map[string]int)
			var groups [][]int
			for i := 0; i < work.NumRows(); i++ {
				v := work.Get(i, e.d.lhs)
				if v.IsNull() || v.IsNaN() {
					continue
				}
				key := string(v.AppendJoinKey(nil))
				g, ok := groupOf[key]
				if !ok {
					g = len(groups)
					groupOf[key] = g
					groups = append(groups, nil)
				}
				groups[g] = append(groups[g], i)
			}
			for _, rows := range groups {
				if len(rows) < 2 {
					continue
				}
				dist.Reset()
				for _, i := range rows {
					dist.Observe(work.Get(i, e.d.rhs))
				}
				major, ok := dist.Mode()
				if !ok {
					continue
				}
				for _, i := range rows {
					cur := work.Get(i, e.d.rhs)
					if !cur.IsNull() && !cur.SameContent(major) {
						work.Set(i, e.d.rhs, major)
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	return work
}

// TestFDChaseViolatingGroupsEquivalence fuzzes FDChase (which now chases
// only groups containing a violating pair) against the exhaustive
// all-groups reference on randomized dirty tables.
func TestFDChaseViolatingGroupsEquivalence(t *testing.T) {
	cs, err := dc.ParseSet(`
C1: !(t1.Team = t2.Team & t1.City != t2.City)
C2: !(t1.City = t2.City & t1.Country != t2.Country)
`)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 40; trial++ {
		// Mix small tables with ones of 64 rows and more.
		rows := 4 + rng.Intn(20)
		if trial%4 == 0 {
			rows = 64 + rng.Intn(40)
		}
		grid := make([][]string, rows)
		for i := range grid {
			grid[i] = []string{
				fmt.Sprintf("team%d", rng.Intn(5)),
				fmt.Sprintf("city%d", rng.Intn(4)),
				fmt.Sprintf("country%d", rng.Intn(3)),
			}
			if rng.Intn(6) == 0 {
				grid[i][rng.Intn(3)] = "null"
			}
		}
		dirty := table.MustFromStrings([]string{"Team", "City", "Country"}, grid)
		want := referenceChase(t, cs, dirty)
		got, err := NewFDChase().Repair(context.Background(), cs, dirty)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: FDChase diverged from exhaustive chase\ndirty:\n%s\ngot:\n%s\nwant:\n%s",
				trial, dirty, got, want)
		}
	}
}

// tablesIdenticalNaN compares two tables cell-wise with NaN counted equal
// to NaN (Table.Equal uses SameContent, under which NaN never equals
// itself, so identical NaN-bearing tables would spuriously differ).
func tablesIdenticalNaN(a, b *table.Table) bool {
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		return false
	}
	for i := 0; i < a.NumRows(); i++ {
		for j := 0; j < a.NumCols(); j++ {
			av, bv := a.Get(i, j), b.Get(i, j)
			if av.IsNaN() && bv.IsNaN() {
				continue
			}
			if !av.SameContent(bv) {
				return false
			}
		}
	}
	return true
}

// TestBlackBoxesDeterministicWithNaNData runs every production black box
// twice on a table mixing NaN, ±0.0, int/float twins and nulls in join
// and value columns: no errors, stable shapes, and bit-identical outputs
// across runs (pooled run state must not leak).
func TestBlackBoxesDeterministicWithNaNData(t *testing.T) {
	schema := table.MustSchema(
		table.Column{Name: "Key"}, table.Column{Name: "Val"},
	)
	dirty := table.New(schema)
	nan := table.Float(math.NaN())
	for _, row := range [][]table.Value{
		{nan, table.String("a")},
		{nan, table.String("b")},
		{table.Float(0.0), table.String("a")},
		{table.Float(math.Copysign(0, -1)), table.String("b")},
		{table.Int(0), table.String("a")},
		{table.Int(1), table.String("c")},
		{table.Float(1.0), table.String("d")},
		{table.Null(), table.String("e")},
	} {
		if err := dirty.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := dc.ParseSet("C1: !(t1.Key = t2.Key & t1.Val != t2.Val)")
	if err != nil {
		t.Fatal(err)
	}
	before := dirty.Clone()
	algs := []Algorithm{NewRuleRepair(cs), NewHoloSim(7), NewGreedy(), NewFDChase()}
	for _, alg := range algs {
		first, err := alg.Repair(context.Background(), cs, dirty)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		second, err := alg.Repair(context.Background(), cs, dirty)
		if err != nil {
			t.Fatalf("%s: second run: %v", alg.Name(), err)
		}
		if !tablesIdenticalNaN(first, second) {
			t.Fatalf("%s: nondeterministic on NaN data\nfirst:\n%s\nsecond:\n%s", alg.Name(), first, second)
		}
		if !tablesIdenticalNaN(dirty, before) {
			t.Fatalf("%s: mutated the dirty input", alg.Name())
		}
		// NaN keys join nothing: the two NaN rows disagree on Val but do not
		// violate C1, so every repairer must leave them untouched.
		for row := 0; row < 2; row++ {
			if got := first.Get(row, 1); !got.SameContent(dirty.Get(row, 1)) {
				t.Fatalf("%s: repaired NaN-keyed row %d from %v to %v; NaN = NaN never holds",
					alg.Name(), row, dirty.Get(row, 1), got)
			}
		}
	}
}
