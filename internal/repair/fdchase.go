package repair

import (
	"context"
	"sync"

	"repro/internal/dc"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/table"
)

// FDChase is an equivalence-class chase baseline in the spirit of
// Bohannon et al.'s CFD repairs (ICDE 2007), restricted to FD-shaped DCs
// ¬(t1.A = t2.A ∧ t1.B ≠ t2.B), read as the functional dependency A → B.
// Rows are grouped by the left-hand side value; within each group the
// right-hand side is forced to the group's majority value (ties to the
// first-observed value). Groups are chased in constraint order until a
// fixpoint, since repairing one FD can re-group another.
//
// Constraints that are not FD-shaped are ignored by this black box — which
// is itself interesting to explain: T-REx assigns them zero contribution.
type FDChase struct {
	// MaxPasses bounds fixpoint iteration; 0 means the default (10).
	MaxPasses int
	// runs pools the per-run scratch state behind the ScratchRepairer
	// contract.
	runs sync.Pool
}

// chaseEntry pairs a recognized FD with the constraint it came from, so
// the chase can reuse the constraint's hash-join partition.
type chaseEntry struct {
	c *dc.Constraint
	d fd
}

// chaseRun is the reusable per-run state of one RepairInto invocation. The
// live violation set steers each chase pass to exactly the groups that
// currently contain a violating pair: a group whose non-null right-hand
// sides already agree is a chase no-op (the majority is the shared value
// and SameContent skips every row), so skipping violation-free groups
// leaves the output bit-identical while the fixpoint's final verification
// pass costs per-edit instead of per-group work.
type chaseRun struct {
	live *dc.LiveViolationSet
	fds  []chaseEntry
	dist *table.Distribution
	// groups and majors are the parallel pass's pooled buffers: the
	// violating-group partition borrowed from the live set and the
	// per-group majorities computed on the pool.
	groups [][]int
	majors []groupMajor
}

// groupMajor is one group's concurrently-computed fix.
type groupMajor struct {
	v  table.Value
	ok bool
}

// chaseDistPool recycles the per-task Distributions of parallel group
// passes; tasks on distinct goroutines cannot share the run's single
// scratch distribution.
var chaseDistPool = sync.Pool{New: func() any { return table.NewDistribution() }}

// minParallelGroups is the violating-group count below which the goroutine
// handoff of a parallel chase pass costs more than the pass.
const minParallelGroups = 8

// NewFDChase returns an FDChase with default limits.
func NewFDChase() *FDChase { return &FDChase{} }

// Name implements Algorithm.
func (f *FDChase) Name() string { return "fd-chase" }

// fd is one recognized functional dependency A → B.
type fd struct {
	lhs, rhs int
}

// asFD recognizes ¬(t1.A = t2.A ∧ t1.B ≠ t2.B) up to predicate order and
// returns the column indexes of A and B.
func asFD(c *dc.Constraint, schema *table.Schema) (fd, bool) {
	if len(c.Preds) != 2 {
		return fd{}, false
	}
	var eqAttr, neqAttr string
	for _, p := range c.Preds {
		if p.Left.IsConst || p.Right.IsConst || p.Left.Attr != p.Right.Attr || p.Left.Tuple == p.Right.Tuple {
			return fd{}, false
		}
		switch p.Op {
		case dc.OpEq:
			eqAttr = p.Left.Attr
		case dc.OpNeq:
			neqAttr = p.Left.Attr
		default:
			return fd{}, false
		}
	}
	if eqAttr == "" || neqAttr == "" {
		return fd{}, false
	}
	lhs, ok1 := schema.Index(eqAttr)
	rhs, ok2 := schema.Index(neqAttr)
	if !ok1 || !ok2 {
		return fd{}, false
	}
	return fd{lhs: lhs, rhs: rhs}, true
}

// Repair implements Algorithm.
func (f *FDChase) Repair(ctx context.Context, cs []*dc.Constraint, dirty *table.Table) (*table.Table, error) {
	return f.RepairInto(ctx, cs, dirty, nil)
}

// RepairInto implements ScratchRepairer: Repair writing into the
// caller-owned work table. The left-hand-side grouping reuses the live
// set's incrementally-maintained hash-join partition, and each pass
// visits only groups currently containing a violating pair (all non-empty
// groups below the live set's materialization threshold). Group visit
// order — first-violating-row order, or bucket-interning order on small
// tables — does not affect the result: groups are disjoint and each chase
// writes only its own group's right-hand sides, so the fixpoint is
// deterministic either way.
//
//lint:hotpath
func (f *FDChase) RepairInto(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table) (*table.Table, error) {
	return f.repairInto(ctx, cs, dirty, work, nil, nil)
}

// RepairIntoParallel implements PartitionedRepairer. The chase decomposes
// over the live set's bucket partition: within one FD pass every violating
// group reads and writes only its own rows, so the per-group majorities
// are computed concurrently on the session pool and the fixes applied
// serially in the serial pass's group order — bit-identical to RepairInto
// (TestParallelRepairGoldenEquivalence), with the full violation
// derivations bucket-parallel on the pool as well.
func (f *FDChase) RepairIntoParallel(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool) (*table.Table, error) {
	return f.repairInto(ctx, cs, dirty, work, pool, nil)
}

// RepairIntoPlanned implements PlannedRepairer: the run's live violation
// set executes behind the session's compiled constraint-set plan. Group
// enumeration stays on the exact join-column partition (its buckets are
// equivalence classes; a shared coarser partition would merge them), so
// the chase's fixes are untouched by partition sharing — output
// bit-identical to RepairInto by the plan contract.
func (f *FDChase) RepairIntoPlanned(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool, plan dc.SetPlanner) (*table.Table, error) {
	return f.repairInto(ctx, cs, dirty, work, pool, plan)
}

func (f *FDChase) repairInto(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool, plan dc.SetPlanner) (*table.Table, error) {
	work = prepareWork(dirty, work)
	st, ok := f.runs.Get().(*chaseRun)
	if !ok {
		st = &chaseRun{live: dc.NewLiveViolationSet(), dist: table.NewDistribution()}
	}
	defer f.runs.Put(st)
	st.live.UsePlan(plan)
	if pool != nil {
		st.live.Pool = pool
		defer func() { st.live.Pool = nil }()
	}
	st.fds = st.fds[:0]
	for _, c := range cs {
		if d, ok := asFD(c, work.Schema()); ok {
			st.fds = append(st.fds, chaseEntry{c: c, d: d})
		}
	}
	maxPasses := f.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 10
	}
	for pass := 0; pass < maxPasses; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		changed := false
		for _, e := range st.fds {
			chased, err := chaseFDWith(work, e, st, pool)
			if err != nil {
				return nil, err
			}
			if chased {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return work, nil
}

// chaseFDWith dispatches one FD pass to the parallel group path when a
// multi-worker pool is available and the partition is exposed, falling
// back to the serial chase otherwise.
func chaseFDWith(t *table.Table, e chaseEntry, st *chaseRun, pool *exec.Pool) (bool, error) {
	if pool.Workers() > 1 {
		changed, handled, err := chaseFDParallel(t, e, st, pool)
		if handled || err != nil {
			return changed, err
		}
	}
	return chaseFD(t, e, st)
}

// chaseFDParallel runs one FD pass with per-group majorities computed
// concurrently. The compute phase only reads the table; the apply phase
// then writes serially in the partition's group order, which is the serial
// chase's visit order — and since groups are disjoint in both the rows
// read and the (row, rhs) cells written, the resulting table is
// bit-identical to chaseFD's. handled is false when the live set declines
// to expose the partition (no join key); the caller then chases serially.
func chaseFDParallel(t *table.Table, e chaseEntry, st *chaseRun, pool *exec.Pool) (changed, handled bool, err error) {
	groups, ok, err := st.live.AppendViolatingGroups(e.c, t, st.groups[:0])
	st.groups = groups
	if err != nil || !ok {
		return false, false, err
	}
	if len(groups) < minParallelGroups {
		// Too few groups to amortize the fan-out; compute serially over the
		// same partition (still bit-identical: same groups, same order).
		for _, rows := range groups {
			if chaseGroup(t, e, st.dist, rows) {
				changed = true
			}
		}
		return changed, true, nil
	}
	if cap(st.majors) >= len(groups) {
		st.majors = st.majors[:len(groups)]
	} else {
		st.majors = make([]groupMajor, len(groups))
	}
	majors := st.majors
	faults.Hit(faults.SiteBucketPartition)
	//lint:allow allocfree one fan-out closure per parallel derivation pass, amortized over every group it partitions — not per coalition sample
	pool.Map(len(groups), func(i int) {
		rows := groups[i]
		if len(rows) < 2 {
			majors[i] = groupMajor{}
			return
		}
		dist := chaseDistPool.Get().(*table.Distribution)
		dist.Reset()
		for _, r := range rows {
			dist.Observe(t.Get(r, e.d.rhs))
		}
		majors[i].v, majors[i].ok = dist.Mode()
		chaseDistPool.Put(dist)
	})
	for i, rows := range groups {
		if len(rows) < 2 || !majors[i].ok {
			continue
		}
		major := majors[i].v
		for _, r := range rows {
			cur := t.Get(r, e.d.rhs)
			if !cur.IsNull() && !cur.SameContent(major) {
				t.Set(r, e.d.rhs, major)
				changed = true
			}
		}
	}
	return changed, true, nil
}

// chaseGroup forces one group's majority right-hand side, the shared
// kernel of the serial and small-partition paths.
func chaseGroup(t *table.Table, e chaseEntry, dist *table.Distribution, rows []int) bool {
	if len(rows) < 2 {
		return false
	}
	dist.Reset()
	for _, i := range rows {
		dist.Observe(t.Get(i, e.d.rhs))
	}
	major, ok := dist.Mode()
	if !ok {
		return false
	}
	changed := false
	for _, i := range rows {
		cur := t.Get(i, e.d.rhs)
		if !cur.IsNull() && !cur.SameContent(major) {
			t.Set(i, e.d.rhs, major)
			changed = true
		}
	}
	return changed
}

// chaseFD forces the majority right-hand side within every left-hand-side
// group that currently violates the FD; returns whether anything changed.
// Violation-free groups are provably no-ops (their non-null right-hand
// sides agree up to SameContent) and are skipped via the live set.
func chaseFD(t *table.Table, e chaseEntry, st *chaseRun) (bool, error) {
	changed := false
	//lint:allow allocfree one visitor closure per chase pass, amortized over every violating group — not per coalition sample
	ok, err := st.live.ForEachViolatingGroup(e.c, t, func(rows []int) error {
		if chaseGroup(t, e, st.dist, rows) {
			changed = true
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	if !ok {
		// Defensive: an FD-shaped constraint always has an equality join
		// key, so the partition must exist.
		return false, nil
	}
	return changed, nil
}
