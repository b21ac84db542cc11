package repair

import (
	"context"
	"testing"

	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/dc/plan"
	"repro/internal/exec"
	"repro/internal/table"
)

// methodRecorder forwards the repair protocols of a black box and records
// the last one called.
type methodRecorder struct {
	PlannedRepairer
	last string
}

func (m *methodRecorder) Repair(ctx context.Context, cs []*dc.Constraint, dirty *table.Table) (*table.Table, error) {
	m.last = "Repair"
	return m.PlannedRepairer.Repair(ctx, cs, dirty)
}

func (m *methodRecorder) RepairInto(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table) (*table.Table, error) {
	m.last = "RepairInto"
	return m.PlannedRepairer.RepairInto(ctx, cs, dirty, work)
}

func (m *methodRecorder) RepairIntoParallel(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool) (*table.Table, error) {
	m.last = "RepairIntoParallel"
	return m.PlannedRepairer.RepairIntoParallel(ctx, cs, dirty, work, pool)
}

func (m *methodRecorder) RepairIntoPlanned(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool, plan dc.SetPlanner) (*table.Table, error) {
	m.last = "RepairIntoPlanned"
	return m.PlannedRepairer.RepairIntoPlanned(ctx, cs, dirty, work, pool, plan)
}

// scratchOnly offers the in-place protocol but neither pools nor plans.
type scratchOnly struct{ rec *methodRecorder }

func (s scratchOnly) Name() string { return s.rec.Name() }

func (s scratchOnly) Repair(ctx context.Context, cs []*dc.Constraint, dirty *table.Table) (*table.Table, error) {
	return s.rec.Repair(ctx, cs, dirty)
}

func (s scratchOnly) RepairInto(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table) (*table.Table, error) {
	return s.rec.RepairInto(ctx, cs, dirty, work)
}

// repairOnly offers the plain black-box contract alone.
type repairOnly struct{ rec *methodRecorder }

func (r repairOnly) Name() string { return r.rec.Name() }

func (r repairOnly) Repair(ctx context.Context, cs []*dc.Constraint, dirty *table.Table) (*table.Table, error) {
	return r.rec.Repair(ctx, cs, dirty)
}

// TestDispatchMethod pins the one repair-dispatch decision: for every
// (protocols, plan, pool, work) combination, Dispatch calls the most
// specific method the black box implements, and CellRepairedPlanned, which
// always hands a scratch repairer a work table, never falls back to plain
// Repair for one.
func TestDispatchMethod(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	rec := &methodRecorder{PlannedRepairer: NewAlgorithm1()}
	pools := map[string]*exec.Pool{"serial": nil, "one": exec.NewPool(1), "two": exec.NewPool(2)}
	for _, alg := range []struct {
		name string
		alg  Algorithm
		// want returns the method Dispatch must call.
		want func(planned, parallel, work bool) string
	}{
		{"planned", rec, func(planned, parallel, work bool) string {
			switch {
			case planned:
				return "RepairIntoPlanned"
			case parallel:
				return "RepairIntoParallel"
			case work:
				return "RepairInto"
			}
			return "Repair"
		}},
		{"scratch", scratchOnly{rec}, func(_, _, work bool) string {
			if work {
				return "RepairInto"
			}
			return "Repair"
		}},
		{"plain", repairOnly{rec}, func(_, _, _ bool) string { return "Repair" }},
	} {
		for poolName, pool := range pools {
			for _, pl := range []dc.SetPlanner{nil, plan.Compile(ll.Dirty.Schema(), ll.DCs)} {
				for _, withWork := range []bool{false, true} {
					var work *table.Table
					if withWork {
						work = ll.Dirty.Clone()
					}
					rec.last = ""
					if _, err := Dispatch(ctx, alg.alg, ll.DCs, ll.Dirty, work, pool, pl); err != nil {
						t.Fatal(err)
					}
					want := alg.want(pl != nil, pool.Workers() > 1, withWork)
					if rec.last != want {
						t.Errorf("%s, pool %s, plan %v, work %v: called %s, want %s", alg.name, poolName, pl != nil, withWork, rec.last, want)
					}
					rec.last = ""
					if _, err := CellRepairedPlanned(ctx, alg.alg, ll.DCs, ll.Dirty, ll.CellOfInterest, table.String("Spain"), pool, pl); err != nil {
						t.Fatal(err)
					}
					if want := alg.want(pl != nil, pool.Workers() > 1, alg.name != "plain"); rec.last != want {
						t.Errorf("CellRepairedPlanned %s, pool %s, plan %v: called %s, want %s", alg.name, poolName, pl != nil, rec.last, want)
					}
				}
			}
		}
	}
}
