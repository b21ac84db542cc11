package repair

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/dc"
	"repro/internal/exec"
	"repro/internal/table"
)

// FixKind selects how a rule computes its replacement value.
type FixKind uint8

const (
	// FixMode replaces with the column's most common value,
	// argmax_c P[Attr = c] — rules 1 and 3 of the paper's Algorithm 1.
	FixMode FixKind = iota
	// FixConditionalMode replaces with the most probable value given
	// another attribute of the same tuple,
	// argmax_c P[Attr = c | Given = t[Given]] — rules 2 and 4.
	FixConditionalMode
)

// Rule pairs a trigger constraint with a fix action: "if tuple t has a
// contradiction according to Constraint then Attr is modified".
type Rule struct {
	// ConstraintID names the DC that triggers the rule. The rule is active
	// only when a constraint with this ID is present in the input set —
	// that is how removing a DC from a Shapley coalition disables the
	// corresponding behaviour of the black box.
	ConstraintID string
	// Attr is the attribute modified by the rule.
	Attr string
	// Kind selects the replacement policy.
	Kind FixKind
	// Given is the conditioning attribute for FixConditionalMode.
	Given string
}

// String renders the rule for logs.
func (r Rule) String() string {
	switch r.Kind {
	case FixConditionalMode:
		return fmt.Sprintf("on %s: %s := argmax P[%s | %s]", r.ConstraintID, r.Attr, r.Attr, r.Given)
	default:
		return fmt.Sprintf("on %s: %s := argmax P[%s]", r.ConstraintID, r.Attr, r.Attr)
	}
}

// RuleRepair is the paper's Algorithm 1 generalized to an arbitrary rule
// list. Rules are applied in order, per tuple in order, re-evaluating
// contradictions against the current working table, and the whole pass
// repeats until a fixpoint (or MaxPasses). This reproduces the cascade of
// Example 1.1: C1 first changes t5[City] to "Madrid", which then makes C2
// fire and change t5[Country].
type RuleRepair struct {
	// AlgName is returned by Name.
	AlgName string
	// Rules is the ordered rule list.
	Rules []Rule
	// MaxPasses bounds fixpoint iteration; 0 means the default (10).
	MaxPasses int
	// runs pools the per-run scratch state (statistics, scan index,
	// violation and row buffers) behind the ScratchRepairer contract.
	runs sync.Pool
}

// ruleRun is the reusable per-run state of one RepairInto invocation. The
// live violation set answers the per-rule "what is violated now?" query
// from delta-maintained lists (each fix retracts and re-derives one row's
// pairs), and its inner scan index serves the point probes.
type ruleRun struct {
	live *dc.LiveViolationSet
	pooledStats
	// rules holds the run's active rules with their attributes resolved
	// for the inputs in resolvedFor.
	rules       []activeRule
	resolvedFor ruleInputs
	vsBuf       []dc.Violation
	badRows     []int
	seen        []bool
}

// ruleInputs is everything resolve's answer depends on: the rule list, the
// constraint set (pointers and IDs, as an ID names a rule's trigger) and
// the schema. The rules of one explain's thousands of coalition repairs are
// resolved once per pooled run state and input, not once per repair.
type ruleInputs struct {
	rules  []Rule
	cs     []*dc.Constraint
	ids    []string
	schema *table.Schema
}

// matches reports whether the inputs are exactly (rules, cs, schema).
func (in *ruleInputs) matches(rules []Rule, cs []*dc.Constraint, schema *table.Schema) bool {
	if in.schema != schema || !slices.Equal(in.rules, rules) || !slices.Equal(in.cs, cs) {
		return false
	}
	for i, c := range cs {
		if c.ID != in.ids[i] {
			return false
		}
	}
	return true
}

// set records (rules, cs, schema), reusing the buffers.
func (in *ruleInputs) set(rules []Rule, cs []*dc.Constraint, schema *table.Schema) {
	in.rules = append(in.rules[:0], rules...)
	in.cs = append(in.cs[:0], cs...)
	in.ids = in.ids[:0]
	for _, c := range cs {
		in.ids = append(in.ids, c.ID)
	}
	in.schema = schema
}

// activeRule is a rule whose trigger constraint is present in the run,
// with its fixed and conditioning attributes resolved to columns (given is
// -1 for FixMode).
type activeRule struct {
	Rule
	c           *dc.Constraint
	attr, given int
}

// NewAlgorithm1 returns the paper's Algorithm 1: the four rules for the
// soccer schema, triggered by C1..C4.
func NewAlgorithm1() *RuleRepair {
	return &RuleRepair{
		AlgName: "algorithm1",
		Rules: []Rule{
			{ConstraintID: "C1", Attr: "City", Kind: FixMode},
			{ConstraintID: "C2", Attr: "Country", Kind: FixConditionalMode, Given: "City"},
			{ConstraintID: "C3", Attr: "Country", Kind: FixMode},
			{ConstraintID: "C4", Attr: "Place", Kind: FixConditionalMode, Given: "Team"},
		},
	}
}

// DeriveRules builds a rule list from FD-shaped constraints automatically,
// so RuleRepair extends to any DC set (used by the synthetic experiments).
// For a constraint ¬(t1.A = t2.A ∧ t1.B ≠ t2.B) it emits
// "B := argmax P[B | A]"; for any other shape it picks the first attribute
// appearing in a ≠ predicate (or the first attribute at all) and emits an
// unconditional mode fix.
func DeriveRules(cs []*dc.Constraint) []Rule {
	rules := make([]Rule, 0, len(cs))
	for _, c := range cs {
		rules = append(rules, deriveRule(c))
	}
	return rules
}

func deriveRule(c *dc.Constraint) Rule {
	var eqAttr, neqAttr string
	for _, p := range c.Preds {
		if p.Left.IsConst || p.Right.IsConst {
			continue
		}
		if p.Left.Attr != p.Right.Attr || p.Left.Tuple == p.Right.Tuple {
			continue
		}
		switch p.Op {
		case dc.OpEq:
			if eqAttr == "" {
				eqAttr = p.Left.Attr
			}
		case dc.OpNeq:
			if neqAttr == "" {
				neqAttr = p.Left.Attr
			}
		}
	}
	switch {
	case neqAttr != "" && eqAttr != "":
		return Rule{ConstraintID: c.ID, Attr: neqAttr, Kind: FixConditionalMode, Given: eqAttr}
	case neqAttr != "":
		return Rule{ConstraintID: c.ID, Attr: neqAttr, Kind: FixMode}
	default:
		attrs := c.Attributes()
		if len(attrs) == 0 {
			return Rule{ConstraintID: c.ID}
		}
		return Rule{ConstraintID: c.ID, Attr: attrs[len(attrs)-1], Kind: FixMode}
	}
}

// NewRuleRepair builds a RuleRepair with rules derived from the constraint
// set.
func NewRuleRepair(cs []*dc.Constraint) *RuleRepair {
	return &RuleRepair{AlgName: "rule-repair", Rules: DeriveRules(cs)}
}

// Name implements Algorithm.
func (a *RuleRepair) Name() string {
	if a.AlgName == "" {
		return "rule-repair"
	}
	return a.AlgName
}

// Repair implements Algorithm. Only rules whose trigger constraint is
// present in cs are active; that is the sole way the constraint coalition
// influences this black box, exactly as in the paper's worked example.
func (a *RuleRepair) Repair(ctx context.Context, cs []*dc.Constraint, dirty *table.Table) (*table.Table, error) {
	return a.RepairInto(ctx, cs, dirty, nil)
}

// RepairInto implements ScratchRepairer: Repair writing into the
// caller-owned work table, with every per-run buffer pooled so steady-state
// invocations allocate nothing.
//
//lint:hotpath
func (a *RuleRepair) RepairInto(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table) (*table.Table, error) {
	return a.repairInto(ctx, cs, dirty, work, nil, nil)
}

// RepairIntoParallel implements PartitionedRepairer: the rule cascade
// itself is inherently sequential (each fix feeds the next rule's
// statistics), but the per-rule "what is violated now?" full derivations
// fan their disjoint buckets across the session pool on large tables —
// output bit-identical to RepairInto by the live set's contract.
func (a *RuleRepair) RepairIntoParallel(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool) (*table.Table, error) {
	return a.repairInto(ctx, cs, dirty, work, pool, nil)
}

// RepairIntoPlanned implements PlannedRepairer: the run's live violation
// set executes behind the session's compiled constraint-set plan —
// shared partitions, ordered kernels, pre-filter bitmaps — output
// bit-identical to RepairInto by the plan contract.
func (a *RuleRepair) RepairIntoPlanned(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool, plan dc.SetPlanner) (*table.Table, error) {
	return a.repairInto(ctx, cs, dirty, work, pool, plan)
}

func (a *RuleRepair) repairInto(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool, plan dc.SetPlanner) (*table.Table, error) {
	work = prepareWork(dirty, work)
	st, ok := a.runs.Get().(*ruleRun)
	if !ok {
		st = &ruleRun{live: dc.NewLiveViolationSet()}
	}
	defer a.runs.Put(st)
	// Install (or clear) the plan unconditionally: the run state is pooled
	// across sessions, so a stale plan must never survive into a run that
	// did not ask for one.
	st.live.UsePlan(plan)
	if pool != nil {
		st.live.Pool = pool
		defer func() { st.live.Pool = nil }()
	}
	// A canceled run reports the cancellation, even over a schema that
	// lacks a rule's attribute.
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	if err := a.resolve(st, cs, work.Schema()); err != nil {
		return nil, err
	}
	maxPasses := a.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 10
	}
	// One live violation set spans the whole run — and, being pooled, the
	// next run on the same work table: the work-table refresh logs per-cell
	// deltas, so only the violation pairs of refreshed or repaired rows are
	// retracted and re-derived between fixpoint steps.
	for pass := 0; pass < maxPasses; pass++ {
		if err := canceled(ctx); err != nil {
			return nil, err
		}
		changed, err := a.pass(ctx, st, work)
		if err != nil {
			return nil, err
		}
		if !changed {
			break
		}
	}
	return work, nil
}

// resolve lists the rules whose trigger constraint is in cs (the last
// one with the rule's ID), with their attributes resolved against the
// run's schema once instead of on every pass, and keeps the list while the
// next run's inputs are the same.
func (a *RuleRepair) resolve(st *ruleRun, cs []*dc.Constraint, schema *table.Schema) error {
	if st.resolvedFor.matches(a.Rules, cs, schema) {
		return nil
	}
	st.resolvedFor.schema = nil // no list is kept for a failed resolve
	st.rules = st.rules[:0]
	for _, rule := range a.Rules {
		r := activeRule{Rule: rule, given: -1}
		for _, c := range cs {
			if c.ID == rule.ConstraintID {
				r.c = c
			}
		}
		if r.c == nil || rule.Attr == "" {
			continue
		}
		var ok bool
		if r.attr, ok = schema.Index(rule.Attr); !ok {
			return fmt.Errorf("repair: rule %v: no attribute %q", rule, rule.Attr)
		}
		if rule.Kind == FixConditionalMode {
			if r.given, ok = schema.Index(rule.Given); !ok {
				return fmt.Errorf("repair: rule %v: no attribute %q", rule, rule.Given)
			}
		}
		st.rules = append(st.rules, r)
	}
	st.resolvedFor.set(a.Rules, cs, schema)
	return nil
}

// canceled polls ctx for cancellation without taking the context's lock:
// Err locks a cancelable context's mutex, which every worker of a sampled
// explain shares, while a non-blocking receive on Done does not.
func canceled(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

func (a *RuleRepair) pass(ctx context.Context, st *ruleRun, work *table.Table) (bool, error) {
	changed := false
	for i := range st.rules {
		if err := canceled(ctx); err != nil {
			return false, err
		}
		rule := &st.rules[i]
		c, attrIdx, givenIdx := rule.c, rule.attr, rule.given
		// The live set answers "what does this rule's trigger violate now?"
		// from its delta-maintained list; each row is re-verified against
		// the current state before fixing, since earlier fixes within the
		// rule may have resolved it. Rows that start violating mid-rule are
		// picked up by the next fixpoint pass.
		vs, err := st.live.Append(c, work, st.vsBuf[:0])
		st.vsBuf = vs
		if err != nil {
			return false, err
		}
		if cap(st.seen) >= work.NumRows() {
			st.seen = st.seen[:work.NumRows()]
		} else {
			st.seen = make([]bool, work.NumRows())
		}
		clear(st.seen) // pooled across runs; erase unconditionally
		st.badRows = st.badRows[:0]
		for _, v := range vs {
			for _, row := range []int{v.Row1, v.Row2} {
				if !st.seen[row] {
					st.seen[row] = true
					st.badRows = append(st.badRows, row)
				}
			}
		}
		sort.Ints(st.badRows)
		for _, row := range st.badRows {
			if err := canceled(ctx); err != nil {
				return false, err
			}
			violates, err := c.ViolatesRowCached(work, row, st.live.Index())
			if err != nil {
				return false, err
			}
			if !violates {
				continue
			}
			var fix table.Value
			var found bool
			// Statistics reflect the *current* working table so cascaded
			// repairs see each other's effects; the pooled snapshot is
			// rebuilt lazily after mutations.
			switch rule.Kind {
			case FixConditionalMode:
				fix, found = st.fresh(work).ConditionalMode(givenIdx, work.Get(row, givenIdx), attrIdx)
			default:
				fix, found = st.fresh(work).Column(attrIdx).Mode()
			}
			if !found {
				continue // empty column: nothing to repair with
			}
			if !work.Get(row, attrIdx).SameContent(fix) {
				work.Set(row, attrIdx, fix)
				changed = true
			}
		}
	}
	return changed, nil
}
