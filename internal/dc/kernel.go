package dc

import (
	"fmt"
	"strings"

	"repro/internal/table"
)

// Compiled columnar predicate kernels.
//
// A Kernel is the compiled form of one constraint body over one schema,
// and the only evaluator production code runs: full scans
// (AppendViolations), point probes (ViolatesRowCached,
// ViolationPairsForRow) and the live violation lists all answer "what
// does this DC violate now?" through it. Every operand's column index is
// resolved once at compile time, so no schema lookup, row view or
// three-valued-logic switch runs per predicate per pair. Bucket scans
// evaluate predicate-at-a-time over a bucket's candidate rows
// ("column-at-a-time"): the operand side that is fixed for the whole
// bucket scan — a constant, or an attribute of the anchored row — is
// hoisted out of the row loop and compared against the candidates through
// the table's typed column views (table.FloatCol/StringCol), so the common
// FD-shaped predicates reduce to a float or string comparison per
// candidate with no Value method dispatch.
//
// Kernels implement exactly the interpreted semantics — three-valued
// logic, numeric kind unification, NaN and ±0.0 behaviour. The
// interpreted evaluator survives only as the test oracle in
// export_test.go (Constraint.SatisfiedPair, ViolatesRow, Violations),
// and the property and fuzz tests check every production path against it
// over randomized schemas, tables and operators.

// kernelPred is one compiled conjunct: operand columns resolved, constants
// captured.
type kernelPred struct {
	op Op
	// lCol/rCol are the operand column indexes, -1 for constants.
	lCol, rCol int
	// lTuple/rTuple bind a non-const operand to tuple 0 (t1) or 1 (t2).
	lTuple, rTuple int
	// lConst/rConst hold constant operands.
	lConst, rConst table.Value
}

// Kernel is a constraint body compiled against one schema. Kernels are
// immutable after compilation and safe for concurrent use (the parallel
// full-derivation path of LiveViolationSet shares one kernel across
// workers).
type Kernel struct {
	preds []kernelPred
}

// compileKernel resolves every operand of c against schema. The error text
// for an unknown attribute matches the interpreter's, so callers surface
// the same failure whichever path runs.
func compileKernel(c *Constraint, schema *table.Schema) (*Kernel, error) {
	return compileKernelSeq(c, schema, nil)
}

// compileKernelSeq compiles the predicates of c selected by seq, in seq
// order, against schema — the planner's entry point: a full permutation
// yields the selectivity-ordered kernel, a subset yields the residual or
// pre-filter kernels of a planned bucket scan. A nil seq selects every
// predicate in declaration order. Reordering is sound because the body
// is a pure conjunction: Pair and Filter answer the same conjunction
// whatever the order, and the sorted output contract makes the order
// invisible to callers.
func compileKernelSeq(c *Constraint, schema *table.Schema, seq []int) (*Kernel, error) {
	n := len(seq)
	if seq == nil {
		n = len(c.Preds)
	}
	k := &Kernel{preds: make([]kernelPred, 0, n)}
	resolve := func(o Operand) (col, tuple int, cst table.Value, err error) {
		if o.IsConst {
			return -1, 0, o.Const, nil
		}
		idx, ok := schema.Index(o.Attr)
		if !ok {
			return 0, 0, table.Null(), fmt.Errorf("dc: attribute %q not in schema (%s)", o.Attr, schema)
		}
		return idx, o.Tuple, table.Null(), nil
	}
	compileOne := func(p Predicate) error {
		var kp kernelPred
		var err error
		kp.op = p.Op
		if kp.lCol, kp.lTuple, kp.lConst, err = resolve(p.Left); err != nil {
			return err
		}
		if kp.rCol, kp.rTuple, kp.rConst, err = resolve(p.Right); err != nil {
			return err
		}
		k.preds = append(k.preds, kp)
		return nil
	}
	if seq == nil {
		for _, p := range c.Preds {
			if err := compileOne(p); err != nil {
				return nil, err
			}
		}
		return k, nil
	}
	for _, idx := range seq {
		if idx < 0 || idx >= len(c.Preds) {
			return nil, fmt.Errorf("dc: predicate index %d out of range for %s", idx, c.ID)
		}
		if err := compileOne(c.Preds[idx]); err != nil {
			return nil, err
		}
	}
	return k, nil
}

// opSat applies op to two values under three-valued logic, collapsed to
// the conjunction's view: satisfied-and-known. Unknown (nulls,
// incomparable kinds) fails the conjunction, so it folds to false — nulls
// never create violations, matching the paper's coalition semantics where
// excluded cells are null.
func opSat(op Op, a, b table.Value) bool {
	switch op {
	case OpEq:
		return a.Equal(b) // Equal is already false on nulls
	case OpNeq:
		if a.IsNull() || b.IsNull() {
			return false
		}
		return !a.Equal(b)
	default:
		c, ok := a.Compare(b)
		if !ok {
			return false
		}
		return orderSat(op, c)
	}
}

// operand reads one compiled side for the pair binding (i=t1, j=t2).
func (p *kernelPred) left(t *table.Table, i, j int) table.Value {
	switch {
	case p.lCol < 0:
		return p.lConst
	case p.lTuple == 0:
		return t.Get(i, p.lCol)
	default:
		return t.Get(j, p.lCol)
	}
}

func (p *kernelPred) right(t *table.Table, i, j int) table.Value {
	switch {
	case p.rCol < 0:
		return p.rConst
	case p.rTuple == 0:
		return t.Get(i, p.rCol)
	default:
		return t.Get(j, p.rCol)
	}
}

// Pair reports whether the compiled body holds for rows (i, j) bound to
// (t1, t2). It has no error return: compilation already resolved every
// attribute.
func (k *Kernel) Pair(t *table.Table, i, j int) bool {
	for idx := range k.preds {
		p := &k.preds[idx]
		if !opSat(p.op, p.left(t, i, j), p.right(t, i, j)) {
			return false
		}
	}
	return true
}

// Filter evaluates the body column-at-a-time for the pairs that bind row
// fixed to tuple fixedTuple (0 = t1, 1 = t2) and each cand[n] to the other
// tuple, clearing alive[n] for every pair that fails the conjunction.
// Entries whose alive flag is already false are skipped, so callers can
// pre-mask (e.g. the candidate equal to fixed). len(alive) must equal
// len(cand). Predicates run in constraint order with an early exit once no
// candidate survives.
func (k *Kernel) Filter(t *table.Table, fixedTuple, fixed int, cand []int, alive []bool) {
	for idx := range k.preds {
		p := &k.preds[idx]
		lVaries := p.lCol >= 0 && p.lTuple != fixedTuple
		rVaries := p.rCol >= 0 && p.rTuple != fixedTuple
		var any bool
		switch {
		case !lVaries && !rVaries:
			// Both sides fixed for the whole bucket: one evaluation decides
			// every pair.
			a := fixedOperand(t, fixed, p.lCol, p.lConst)
			b := fixedOperand(t, fixed, p.rCol, p.rConst)
			if opSat(p.op, a, b) {
				any = anyAlive(alive)
			} else {
				clearAlive(alive)
			}
		case lVaries && rVaries:
			// Both sides read the candidate tuple (e.g. t2.A = t2.B).
			lv, rv := t.Col(p.lCol), t.Col(p.rCol)
			for n, r := range cand {
				if !alive[n] {
					continue
				}
				if !opSat(p.op, lv.Value(r), rv.Value(r)) {
					alive[n] = false
				} else {
					any = true
				}
			}
		case lVaries:
			b := fixedOperand(t, fixed, p.rCol, p.rConst)
			any = filterOne(t, p.op, b, p.lCol, true, cand, alive)
		default:
			a := fixedOperand(t, fixed, p.lCol, p.lConst)
			any = filterOne(t, p.op, a, p.rCol, false, cand, alive)
		}
		if !any {
			return
		}
	}
}

// fixedOperand resolves an operand that does not vary across the bucket
// scan: a constant, or an attribute of the anchored row.
func fixedOperand(t *table.Table, fixed, col int, cst table.Value) table.Value {
	if col < 0 {
		return cst
	}
	return t.Get(fixed, col)
}

// filterOne is the hoisted inner loop: compare the fixed value against
// column col of every alive candidate. varyingIsLeft selects the operand
// order (candidate op fixed vs fixed op candidate). Returns whether any
// candidate survived.
func filterOne(t *table.Table, op Op, fixed table.Value, col int, varyingIsLeft bool, cand []int, alive []bool) bool {
	any := false
	if fixed.IsNull() {
		// A null operand makes every comparison unknown: the predicate fails
		// for the whole bucket.
		clearAlive(alive)
		return false
	}
	switch op {
	case OpEq:
		// Equality is symmetric; specialize on the fixed side's kind so the
		// loop is a raw float or string comparison through the typed views.
		if f, ok := fixed.Num(); ok {
			fc := t.FloatCol(col)
			for n, r := range cand {
				if !alive[n] {
					continue
				}
				// !ok covers null and non-numeric kinds, both of which the =
				// predicate rejects against a numeric operand; NaN compares
				// unequal to itself, matching Value.Equal.
				if g, ok := fc.At(r); ok && g == f {
					any = true
				} else {
					alive[n] = false
				}
			}
			return any
		}
		if fixed.Kind() == table.KindString {
			s := fixed.Str()
			sc := t.StringCol(col)
			for n, r := range cand {
				if !alive[n] {
					continue
				}
				if g, ok := sc.At(r); ok && g == s {
					any = true
				} else {
					alive[n] = false
				}
			}
			return any
		}
		cv := t.Col(col)
		for n, r := range cand {
			if !alive[n] {
				continue
			}
			if fixed.Equal(cv.Value(r)) {
				any = true
			} else {
				alive[n] = false
			}
		}
		return any
	case OpNeq:
		// != is symmetric but needs the null distinction (null ≠ x is
		// unknown, string ≠ int is a known true), so it stays on the untyped
		// view; Value.Equal is a single switch.
		cv := t.Col(col)
		for n, r := range cand {
			if !alive[n] {
				continue
			}
			b := cv.Value(r)
			if !b.IsNull() && !fixed.Equal(b) {
				any = true
			} else {
				alive[n] = false
			}
		}
		return any
	}
	// Order comparisons: specialize numeric and string, mirroring
	// Value.Compare (numeric unification; NaN falls through both < and > to
	// the equal branch; incomparable kinds are unknown).
	if f, ok := fixed.Num(); ok {
		fc := t.FloatCol(col)
		for n, r := range cand {
			if !alive[n] {
				continue
			}
			g, ok := fc.At(r)
			if !ok {
				alive[n] = false
				continue
			}
			var c int
			a, b := f, g
			if varyingIsLeft {
				a, b = g, f
			}
			switch {
			case a < b:
				c = -1
			case a > b:
				c = 1
			}
			if orderSat(op, c) {
				any = true
			} else {
				alive[n] = false
			}
		}
		return any
	}
	if fixed.Kind() == table.KindString {
		s := fixed.Str()
		sc := t.StringCol(col)
		for n, r := range cand {
			if !alive[n] {
				continue
			}
			g, ok := sc.At(r)
			if !ok {
				alive[n] = false
				continue
			}
			var c int
			if varyingIsLeft {
				c = strings.Compare(g, s)
			} else {
				c = strings.Compare(s, g)
			}
			if orderSat(op, c) {
				any = true
			} else {
				alive[n] = false
			}
		}
		return any
	}
	// Bool (or exotic) fixed operand: generic comparison loop.
	cv := t.Col(col)
	for n, r := range cand {
		if !alive[n] {
			continue
		}
		a, b := fixed, cv.Value(r)
		if varyingIsLeft {
			a, b = b, a
		}
		if opSat(op, a, b) {
			any = true
		} else {
			alive[n] = false
		}
	}
	return any
}

// orderSat applies an order operator to a three-way comparison result.
func orderSat(op Op, c int) bool {
	switch op {
	case OpLt:
		return c < 0
	case OpLeq:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGeq:
		return c >= 0
	default:
		return false
	}
}

func anyAlive(alive []bool) bool {
	for _, a := range alive {
		if a {
			return true
		}
	}
	return false
}

func clearAlive(alive []bool) {
	for n := range alive {
		alive[n] = false
	}
}
