package bench

import (
	"fmt"
	"testing"

	"repro/internal/dc"
	"repro/internal/dc/plan"
	"repro/internal/exec"
	"repro/internal/table"
)

// The dcset scenario family measures the constraint-set query planner
// against the per-constraint reference on synthetic shared-join-key DC
// sets: every constraint joins on Key and carries a selective
// single-side constant predicate (pre-filter pushdown); a third also
// carries one extra join column (subset partition sharing, which the
// pushdown bitmap bounds), and a third is spelled with its cheap
// predicates last (selectivity reordering). Phases:
//
//   - dcset/scan/*: steady-state full derivation of the whole set over a
//     warm index — the coalition-evaluation inner loop;
//   - dcset/edit/*: one cell edit per iteration ahead of the set scan —
//     the session loop, where shared partitions also share delta replay;
//   - dcset/plan/*: the planner's own cost, compile-cold vs the
//     fingerprint+lookup a session actually pays per cache hit.
//
// Planned and per-constraint rows run bit-identical work (the plan
// contract), so each ns/op ratio is pure planning win; RatioGate checks
// the pairs dcsetRatios declares.

// dcsetAttrs is the secondary attribute pool of the synthetic sets.
const dcsetAttrs = 6

// dcsetTable builds the shared-key synthetic table: Key buckets of ~6
// rows, attribute columns over 5-value universes offset per column so
// constant predicates select ~20% of rows.
func dcsetTable(rows int) *table.Table {
	cols := []string{"Key"}
	for j := 0; j < dcsetAttrs; j++ {
		cols = append(cols, fmt.Sprintf("A%d", j))
	}
	grid := make([][]string, rows)
	keys := rows / 6
	if keys == 0 {
		keys = 1
	}
	for i := range grid {
		row := make([]string, 1+dcsetAttrs)
		row[0] = fmt.Sprintf("k%d", i%keys)
		for j := 0; j < dcsetAttrs; j++ {
			row[1+j] = fmt.Sprintf("v%d", (i*(j+3)+i/keys)%5)
		}
		grid[i] = row
	}
	return table.MustFromStrings(cols, grid)
}

// dcsetConstraints builds n constraints joining on Key in three shapes:
// an extra join column plus a constant pre-filter (subset partition
// sharing, bounded by the pushdown), a t1-side constant pre-filter
// alone, and a t2-side constant pre-filter declared after a leading ≠
// (so predicate reordering has work to do).
func dcsetConstraints(n int) []*dc.Constraint {
	cs := make([]*dc.Constraint, 0, n)
	for i := 0; i < n; i++ {
		a := i % dcsetAttrs
		b := (i + 1) % dcsetAttrs
		c := (i + 2) % dcsetAttrs
		var text string
		switch i % 3 {
		case 0:
			text = fmt.Sprintf(`D%d: !(t1.Key = t2.Key & t1.A%d = t2.A%d & t1.A%d = "v1" & t1.A%d != t2.A%d)`, i, a, a, b, c, c)
		case 1:
			text = fmt.Sprintf(`D%d: !(t1.Key = t2.Key & t1.A%d = "v1" & t1.A%d != t2.A%d)`, i, a, b, b)
		default:
			text = fmt.Sprintf(`D%d: !(t1.A%d != t2.A%d & t1.Key = t2.Key & t2.A%d = "v2")`, i, a, a, b)
		}
		cs = append(cs, dc.MustParse(text))
	}
	return cs
}

// dcsetScanAll runs one full-set derivation, reusing buf across
// constraints.
func dcsetScanAll(b *testing.B, cs []*dc.Constraint, tbl *table.Table, ix *dc.ScanIndex, buf []dc.Violation) []dc.Violation {
	for _, c := range cs {
		var err error
		buf, err = c.AppendViolations(tbl, ix, buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	return buf
}

// dcsetRows is the synthetic table size of the scan and edit phases.
const dcsetRows = 360

// dcsetSizes are the DC-set sizes of the scan and edit phases; short runs
// drop the last.
var dcsetSizes = []int{8, 32, 100}

// plannerFloor is the speedup every planned dcset scan row must keep over
// its per-constraint twin.
const plannerFloor = 1.5

// dcsetRatios pairs every planned dcset row with its per-constraint twin.
// The scan pairs gate at plannerFloor; the edit pairs are context only,
// because delta replay cost depends on the edit mix, which the synthetic
// scenarios fix arbitrarily.
func dcsetRatios() []ratioPair {
	var out []ratioPair
	for _, n := range dcsetSizes {
		for _, phase := range []string{"scan", "edit"} {
			out = append(out, ratioPair{
				fast:  fmt.Sprintf("dcset/%s/planned/n=%d", phase, n),
				slow:  fmt.Sprintf("dcset/%s/perconstraint/n=%d", phase, n),
				floor: plannerFloor,
				gated: phase == "scan",
			})
		}
	}
	return out
}

// dcsetScenarios returns the planner benchmark family. short drops the
// n=100 rows (CI smoke).
func dcsetScenarios(short bool) []perfScenario {
	sizes := dcsetSizes
	if short {
		sizes = sizes[:2]
	}
	var out []perfScenario
	for _, n := range sizes {
		n := n
		out = append(out,
			perfScenario{name: fmt.Sprintf("dcset/scan/perconstraint/n=%d", n), bench: func(b *testing.B) {
				tbl, cs := dcsetTable(dcsetRows), dcsetConstraints(n)
				ix := dc.NewScanIndex()
				buf := dcsetScanAll(b, cs, tbl, ix, nil)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = dcsetScanAll(b, cs, tbl, ix, buf)
				}
			}},
			perfScenario{name: fmt.Sprintf("dcset/scan/planned/n=%d", n), bench: func(b *testing.B) {
				tbl, cs := dcsetTable(dcsetRows), dcsetConstraints(n)
				p := plan.Compile(tbl.Schema(), cs)
				ix := dc.NewScanIndex()
				ix.UsePlan(p)
				buf := dcsetScanAll(b, cs, tbl, ix, nil)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = dcsetScanAll(b, cs, tbl, ix, buf)
				}
			}},
			perfScenario{name: fmt.Sprintf("dcset/edit/perconstraint/n=%d", n), bench: func(b *testing.B) {
				tbl, cs := dcsetTable(dcsetRows), dcsetConstraints(n)
				ix := dc.NewScanIndex()
				buf := dcsetScanAll(b, cs, tbl, ix, nil)
				edits := [2]table.Value{table.String("v0"), table.String("v3")}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tbl.Set(1, 2, edits[i%2])
					buf = dcsetScanAll(b, cs, tbl, ix, buf)
				}
			}},
			perfScenario{name: fmt.Sprintf("dcset/edit/planned/n=%d", n), bench: func(b *testing.B) {
				tbl, cs := dcsetTable(dcsetRows), dcsetConstraints(n)
				p := plan.Compile(tbl.Schema(), cs)
				ix := dc.NewScanIndex()
				ix.UsePlan(p)
				buf := dcsetScanAll(b, cs, tbl, ix, nil)
				edits := [2]table.Value{table.String("v0"), table.String("v3")}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tbl.Set(1, 2, edits[i%2])
					buf = dcsetScanAll(b, cs, tbl, ix, buf)
				}
			}},
		)
	}
	out = append(out,
		perfScenario{name: "dcset/plan/compile/n=32", bench: func(b *testing.B) {
			tbl, cs := dcsetTable(dcsetRows), dcsetConstraints(32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = plan.Compile(tbl.Schema(), cs)
			}
		}},
		perfScenario{name: "dcset/plan/cached/n=32", bench: func(b *testing.B) {
			tbl, cs := dcsetTable(dcsetRows), dcsetConstraints(32)
			pc := exec.NewPlanCache()
			key := exec.PlanKey{Schema: tbl.Schema(), Fingerprint: plan.Fingerprint(cs)}
			pc.Store(key, plan.Compile(tbl.Schema(), cs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// What a session pays on a plan-cache hit: re-fingerprint
				// the set, then one map lookup.
				k := exec.PlanKey{Schema: tbl.Schema(), Fingerprint: plan.Fingerprint(cs)}
				if _, ok := pc.Lookup(k); !ok {
					b.Fatal("plan cache miss")
				}
			}
		}},
	)
	return out
}
