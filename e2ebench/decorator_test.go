package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dc"
	"repro/internal/repair"
	"repro/internal/table"
)

// explainCellsInputs parses the explain-cells fixture of seed 1.
func explainCellsInputs(t *testing.T) (*table.Table, []*dc.Constraint) {
	t.Helper()
	w, err := findWorkload("explain-cells")
	if err != nil {
		t.Fatal(err)
	}
	fx, err := newFixture(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := table.ReadCSV(strings.NewReader(fx.csv))
	if err != nil {
		t.Fatal(err)
	}
	dcs, err := dc.ParseSet(fx.dcs)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, dcs
}

// TestTracedRepairerIsPlanned: a decorator that lost a repair protocol
// would send core down another code path than the undecorated black box.
func TestTracedRepairerIsPlanned(t *testing.T) {
	var alg repair.Algorithm = &tracedRepairer{inner: repair.NewAlgorithm1(), tr: newTracer(true)}
	if _, ok := alg.(repair.PlannedRepairer); !ok {
		t.Fatal("tracedRepairer does not satisfy repair.PlannedRepairer")
	}
}

// TestTracedRepairerMatchesBare checks that the decorated black box
// answers Repair and ExplainCells on the explain-cells fixture byte for
// byte like the bare one, and that core really ran it on the planned path.
func TestTracedRepairerMatchesBare(t *testing.T) {
	ctx := context.Background()
	tbl, dcs := explainCellsInputs(t)
	tr := newTracer(true)
	bare := repair.NewAlgorithm1()
	traced := &tracedRepairer{inner: repair.NewAlgorithm1(), tr: tr}

	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	repairOut := func(alg repair.Algorithm) []byte {
		clean, err := alg.Repair(ctx, dcs, tbl)
		if err != nil {
			t.Fatal(err)
		}
		return marshal(renderTable(clean))
	}
	if a, b := repairOut(bare), repairOut(traced); !bytes.Equal(a, b) {
		t.Fatalf("Repair differs:\nbare   %s\ntraced %s", a, b)
	}

	explainOut := func(alg repair.Algorithm) []byte {
		sess, err := core.NewSession(alg, dcs, tbl)
		if err != nil {
			t.Fatal(err)
		}
		_, diffs, err := sess.Repair(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(diffs) == 0 {
			t.Fatal("the fixture has no repaired cell")
		}
		rep, err := sess.Explainer().ExplainCells(ctx, diffs[0].Ref, core.CellExplainOptions{Samples: 16, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return marshal(renderExplain(rep))
	}
	if a, b := explainOut(bare), explainOut(traced); !bytes.Equal(a, b) {
		t.Fatalf("ExplainCells differs:\nbare   %s\ntraced %s", a, b)
	}

	names := make(map[string]int)
	for _, s := range tr.spans {
		names[s.name]++
	}
	if names["repair.Repair"] != 1 || names["repair.RepairIntoPlanned"] == 0 {
		t.Fatalf("decorator spans %v: want one Repair and the session's planned repairs", names)
	}
}

// TestSecondSeedCheck: two seeds of every workload answer the same
// requests per round, and a round that answered one request fewer is
// caught.
func TestSecondSeedCheck(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		a, err := roundCounts(ctx, w, 1, seedCheckRounds)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := roundCounts(ctx, w, 2, seedCheckRounds)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := sameRoundCounts(a, b, 1, 2); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		b[len(b)-1][opRepair]--
		if sameRoundCounts(a, b, 1, 2) == nil {
			t.Errorf("%s: a missing repair answer went unnoticed", w.name)
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
