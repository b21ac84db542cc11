// Package repair implements the repair algorithms that T-REx explains.
//
// T-REx treats the repairer as a black box: everything the explainer needs
// is the Algorithm interface below. The package provides five concrete
// black boxes spanning the approaches cited by the paper:
//
//   - Algorithm1: the paper's own worked example (rule per DC, most-common
//     and conditional-most-probable fixes) generalized to arbitrary DC sets;
//   - HoloSim: a HoloClean-style probabilistic cleaner (detect → candidate
//     domains → features → log-linear inference), substituting for the real
//     HoloClean system;
//   - Greedy: a holistic violation-hypergraph baseline in the spirit of
//     Chu, Ilyas and Papotti (ICDE 2013);
//   - FDChase: an equivalence-class chase for FD-shaped DCs in the spirit
//     of Bohannon et al. (ICDE 2007);
//   - plus test doubles (Func) for failure injection.
//
// # The in-place repair protocol
//
// All four production black boxes additionally implement ScratchRepairer,
// the zero-allocation contract the Shapley evaluation loop runs against:
// RepairInto refreshes a caller-owned work table from the dirty input and
// repairs it in place, while every per-run buffer the algorithm needs
// (statistics, scan indexes, candidate domains, violation lists) is pooled
// inside the implementation. The rules of the contract:
//
//   - dirty is never mutated; only work is. work == nil allocates a fresh
//     clone, so Repair(ctx, cs, dirty) ≡ RepairInto(ctx, cs, dirty, nil)
//     and the two paths are behaviourally identical (golden-tested).
//   - the returned table is work itself (or the fresh clone); callers that
//     recycle it across calls hit the steady-state zero-allocation path,
//     because the work-table refresh (table.CopyFrom) logs per-cell deltas
//     that keep the pooled dc.ScanIndex on its incremental bucket path.
//     When the dirty table changed shape since the last refresh (a row
//     insert or swap-delete renumbered tuples), CopyFrom resets the work
//     table's edit log instead, so the pooled index rebuilds rather than
//     replaying cell deltas against reshuffled row identities.
//   - determinism is preserved: for a fixed (cs, dirty) input the output
//     is byte-identical to Repair's, whatever state the pooled buffers
//     carry over — Shapley values are defined over a function, so any
//     carried-over nondeterminism would corrupt the explanation.
//   - implementations are safe for concurrent RepairInto calls (the run
//     state is a sync.Pool), but a single work table must not be shared by
//     concurrent callers.
package repair

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/dc"
	"repro/internal/exec"
	"repro/internal/table"
)

// Algorithm is the black-box contract: given constraints and a dirty table,
// produce a repaired table. Implementations must
//
//   - not mutate the input table (work on a clone),
//   - be deterministic for a fixed input (all randomness seeded at
//     construction), because Shapley values are defined over a function,
//   - respect context cancellation on long runs.
type Algorithm interface {
	// Name identifies the algorithm in reports and benchmarks.
	Name() string
	// Repair returns the cleaned version of dirty under the constraint set
	// cs. The returned table is freshly allocated.
	Repair(ctx context.Context, cs []*dc.Constraint, dirty *table.Table) (*table.Table, error)
}

// ScratchRepairer is the in-place extension of Algorithm: RepairInto
// copies dirty into work (allocating only when work is nil or its shape
// cannot be reused), repairs work in place, and returns it. See the package
// comment for the full contract. Run detects this interface and recycles
// one pooled work table across repairs, which removes the per-repair
// Clone() from the hot path.
type ScratchRepairer interface {
	Algorithm
	// RepairInto is Repair writing into caller-owned scratch storage. The
	// returned table is work when work != nil, a fresh table otherwise.
	RepairInto(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table) (*table.Table, error)
}

// PartitionedRepairer is the parallel extension of ScratchRepairer: the
// black box accepts a session worker pool and fans its disjoint-bucket
// passes across it — full violation derivations run bucket-parallel
// through the live set, and black boxes whose repair step itself
// decomposes over disjoint join groups (the FD chase) compute per-group
// fixes concurrently and apply them serially in the serial pass's order.
//
// The contract is strict bit-identity: for any (cs, dirty, pool),
// RepairIntoParallel produces exactly the table RepairInto produces — the
// serial path stays the golden cross-validation reference (see
// TestParallelRepairGoldenEquivalence). Parallelism is a scheduling
// choice, never a semantic one, because Shapley values are defined over a
// deterministic function of the input.
//
// All four production black boxes implement it. A nil pool (or a
// one-worker pool) degrades to the serial path.
type PartitionedRepairer interface {
	ScratchRepairer
	// RepairIntoParallel is RepairInto with disjoint-bucket passes fanned
	// across pool.
	RepairIntoParallel(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool) (*table.Table, error)
}

// PlannedRepairer is the constraint-set-plan extension of
// PartitionedRepairer: the black box accepts the session's compiled set
// plan (dc.SetPlanner) and installs it on its pooled live violation set,
// so every violation scan of the run shares partitions across
// constraints, evaluates selectivity-ordered kernels behind pre-filter
// bitmaps, and pre-sizes its hash maps from carried cardinalities.
//
// Like parallelism, planning is a scheduling choice, never a semantic
// one: for any (cs, dirty, pool, plan), RepairIntoPlanned produces
// exactly the table RepairInto produces — the unplanned serial path
// stays the golden cross-validation reference. A nil plan is exactly
// RepairIntoParallel. All four production black boxes implement it.
type PlannedRepairer interface {
	PartitionedRepairer
	// RepairIntoPlanned is RepairIntoParallel executing behind the
	// compiled constraint-set plan.
	RepairIntoPlanned(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool, plan dc.SetPlanner) (*table.Table, error)
}

// pooledStats is the generation-checked statistics snapshot shared by the
// black boxes' pooled run states: fresh returns statistics for work's
// current contents, catching the pooled snapshot up incrementally
// (table.Stats.Sync: per-column deltas from the work table's edit log,
// full rebuild on overrun) when the table pointer or generation moved
// since the last call.
type pooledStats struct {
	stats *table.Stats
}

func (p *pooledStats) fresh(work *table.Table) *table.Stats {
	if p.stats == nil {
		p.stats = table.NewStats(work)
		return p.stats
	}
	p.stats.Sync(work)
	return p.stats
}

// prepareWork refreshes work from dirty for an in-place repair run,
// handling the nil (allocate) and aliased (defensive clone) cases shared by
// every ScratchRepairer implementation.
func prepareWork(dirty, work *table.Table) *table.Table {
	if work == nil || work == dirty {
		return dirty.Clone()
	}
	work.CopyFrom(dirty)
	return work
}

// Func adapts a function to the Algorithm interface; used by tests for
// failure injection (errors, hangs, panics).
type Func struct {
	// AlgName is returned by Name.
	AlgName string
	// Fn is invoked by Repair.
	Fn func(ctx context.Context, cs []*dc.Constraint, dirty *table.Table) (*table.Table, error)
}

// Name implements Algorithm.
func (f Func) Name() string { return f.AlgName }

// Repair implements Algorithm.
func (f Func) Repair(ctx context.Context, cs []*dc.Constraint, dirty *table.Table) (*table.Table, error) {
	return f.Fn(ctx, cs, dirty)
}

// Passthrough is the identity black box: it returns the input table
// unchanged (and unallocated). It exists for benchmarks and allocation
// tests that need to isolate the coalition-evaluation harness from any
// repairer cost; it deliberately violates the "freshly allocated" return
// contract, which is harmless for measurement.
type Passthrough struct{}

// Name implements Algorithm.
func (Passthrough) Name() string { return "passthrough" }

// Repair implements Algorithm.
func (Passthrough) Repair(_ context.Context, _ []*dc.Constraint, dirty *table.Table) (*table.Table, error) {
	return dirty, nil
}

// workPool recycles the work tables Run hands to ScratchRepairer black
// boxes. Tables of any shape share the pool: RepairInto's refresh resizes a
// mismatched table in place, so a mixed workload merely warms the pool
// toward the shapes it actually evaluates.
var workPool sync.Pool

// CellRepaired is the binary view Alg|t[A] of the paper (§2.1): it runs the
// black box on (cs, dirty) and reports 1 when the cell of interest ends up
// with the target clean value, 0 otherwise. The target is the value the
// full repair assigned, so "repaired" means "repaired to the same value as
// under the complete input".
//
// The repair runs through Run, so a ScratchRepairer repairs a pooled work
// table instead of a fresh clone, making the whole evaluation→repair round
// trip allocation-free in steady state — the hot path of every Shapley
// sampling loop.
func CellRepaired(ctx context.Context, alg Algorithm, cs []*dc.Constraint, dirty *table.Table, cell table.CellRef, target table.Value) (float64, error) {
	return CellRepairedPlanned(ctx, alg, cs, dirty, cell, target, nil, nil)
}

// CellRepairedPlanned is CellRepaired with a session worker pool and a
// compiled constraint-set plan, handed to Run. A nil or one-worker pool and
// a nil plan are exactly CellRepaired.
func CellRepairedPlanned(ctx context.Context, alg Algorithm, cs []*dc.Constraint, dirty *table.Table, cell table.CellRef, target table.Value, pool *exec.Pool, plan dc.SetPlanner) (float64, error) {
	var out float64
	var resErr error
	err := Run(ctx, alg, cs, dirty, pool, plan, func(clean *table.Table) {
		out, resErr = cellRepairedResult(alg, dirty, clean, cell, target)
	})
	if err != nil {
		return 0, fmt.Errorf("repair: black box %s: %w", alg.Name(), err)
	}
	return out, resErr
}

// Run repairs (cs, dirty) once through Dispatch and hands the clean table
// to read; it is the one borrow-run-return path of every repair a caller
// only reads, the coalition evaluations and the full-input repair alike. A
// ScratchRepairer repairs a work table borrowed from a process-wide pool,
// never a throwaway clone, so its pooled run state stays bound to pooled
// tables and the next run catches up incrementally instead of rebuilding
// statistics and violation lists. The work table goes back to the pool when
// read returns, so read must not retain clean. A plain Algorithm runs
// through Repair. read is not called on error; the error is the black
// box's, unwrapped.
func Run(ctx context.Context, alg Algorithm, cs []*dc.Constraint, dirty *table.Table, pool *exec.Pool, plan dc.SetPlanner, read func(clean *table.Table)) error {
	// A scratch repairer always runs in place, so a cold pool hands it a
	// fresh clone rather than sending it down plain Repair.
	var work *table.Table
	if _, ok := alg.(ScratchRepairer); ok {
		if work, _ = workPool.Get().(*table.Table); work == nil {
			work = dirty.Clone()
		}
	}
	clean, err := Dispatch(ctx, alg, cs, dirty, work, pool, plan)
	if err != nil {
		if work != nil {
			workPool.Put(work)
		}
		return err
	}
	read(clean)
	if work != nil {
		workPool.Put(clean)
	}
	return nil
}

// Dispatch runs one repair of (cs, dirty) through the most specific
// protocol alg implements: RepairIntoPlanned behind a non-nil plan,
// RepairIntoParallel on a pool of more than one worker, RepairInto into a
// caller's work table, and plain Repair otherwise. The protocols are
// bit-identical by contract, so the choice only schedules the run. A
// non-nil work table is refreshed from dirty, repaired in place and
// returned; Run passes a nil one only for a plain Algorithm.
func Dispatch(ctx context.Context, alg Algorithm, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool, plan dc.SetPlanner) (*table.Table, error) {
	if plan != nil {
		if pl, ok := alg.(PlannedRepairer); ok {
			return pl.RepairIntoPlanned(ctx, cs, dirty, work, pool, plan)
		}
	}
	if pool.Workers() > 1 {
		if pr, ok := alg.(PartitionedRepairer); ok {
			return pr.RepairIntoParallel(ctx, cs, dirty, work, pool)
		}
	}
	if work != nil {
		if sr, ok := alg.(ScratchRepairer); ok {
			return sr.RepairInto(ctx, cs, dirty, work)
		}
	}
	return alg.Repair(ctx, cs, dirty)
}

// cellRepairedResult checks the repaired shape and reads off the binary
// view for the cell of interest.
func cellRepairedResult(alg Algorithm, dirty, clean *table.Table, cell table.CellRef, target table.Value) (float64, error) {
	if clean.NumRows() != dirty.NumRows() || clean.NumCols() != dirty.NumCols() {
		return 0, fmt.Errorf("repair: black box %s changed table shape", alg.Name())
	}
	if clean.GetRef(cell).SameContent(target) {
		return 1, nil
	}
	return 0, nil
}

// All returns one instance of every production algorithm, for the
// black-box-agnosticism experiment (E12).
func All(seed int64) []Algorithm {
	return []Algorithm{
		NewAlgorithm1(),
		NewHoloSim(seed),
		NewGreedy(),
		NewFDChase(),
	}
}
