package dc

import (
	"fmt"

	"repro/internal/table"
)

// The interpreted reference evaluator: the test-only oracle every
// production path (the compiled kernel over a ScanIndex, point probes and
// the live violation set) is checked against bit for bit. It resolves
// attribute names through the schema on every predicate and scans all
// n² ordered pairs, which is what makes it obviously right.

// Eval applies the operator to two values under three-valued logic:
// (result, known). known is false when either side is null or the kinds are
// incomparable; the DC evaluator treats unknown as "predicate not satisfied",
// so nulls never create violations — matching the paper's coalition
// semantics where excluded cells are null.
func (o Op) Eval(a, b table.Value) (bool, bool) {
	switch o {
	case OpEq:
		if a.IsNull() || b.IsNull() {
			return false, false
		}
		return a.Equal(b), true
	case OpNeq:
		if a.IsNull() || b.IsNull() {
			return false, false
		}
		return !a.Equal(b), true
	default:
		c, ok := a.Compare(b)
		if !ok {
			return false, false
		}
		switch o {
		case OpLt:
			return c < 0, true
		case OpLeq:
			return c <= 0, true
		case OpGt:
			return c > 0, true
		case OpGeq:
			return c >= 0, true
		}
		return false, false
	}
}

// value resolves the operand against a pair of rows (row2 may equal row1
// for single-tuple DCs).
func (o Operand) value(row1, row2 []table.Value, schema *table.Schema) (table.Value, error) {
	if o.IsConst {
		return o.Const, nil
	}
	idx, ok := schema.Index(o.Attr)
	if !ok {
		return table.Null(), fmt.Errorf("dc: attribute %q not in schema (%s)", o.Attr, schema)
	}
	if o.Tuple == 0 {
		return row1[idx], nil
	}
	return row2[idx], nil
}

// Eval evaluates the predicate on a pair of rows under three-valued logic.
func (p Predicate) Eval(row1, row2 []table.Value, schema *table.Schema) (bool, bool, error) {
	a, err := p.Left.value(row1, row2, schema)
	if err != nil {
		return false, false, err
	}
	b, err := p.Right.value(row1, row2, schema)
	if err != nil {
		return false, false, err
	}
	sat, known := p.Op.Eval(a, b)
	return sat, known, nil
}

// SatisfiedPair reports whether the constraint body (the denied conjunction)
// holds for rows (i, j) bound to (t1, t2). Unknown predicates (null or
// incomparable operands) make the conjunction fail, so nulls never create
// violations.
func (c *Constraint) SatisfiedPair(t *table.Table, i, j int) (bool, error) {
	row1 := t.RowView(i)
	row2 := t.RowView(j)
	for _, p := range c.Preds {
		sat, known, err := p.Eval(row1, row2, t.Schema())
		if err != nil {
			return false, err
		}
		if !known || !sat {
			return false, nil
		}
	}
	return true, nil
}

// ViolatesRow reports whether row i participates in any violation of the
// constraint: as the single tuple for single-tuple DCs, or bound to either
// t1 or t2 against any other row for pair DCs. This is the "tuple t has a
// contradiction according to C" primitive of the paper's Algorithm 1.
func (c *Constraint) ViolatesRow(t *table.Table, i int) (bool, error) {
	if c.SingleTuple() {
		return c.SatisfiedPair(t, i, i)
	}
	for j := 0; j < t.NumRows(); j++ {
		if j == i {
			continue
		}
		if sat, err := c.SatisfiedPair(t, i, j); err != nil || sat {
			return sat, err
		}
		if sat, err := c.SatisfiedPair(t, j, i); err != nil || sat {
			return sat, err
		}
	}
	return false, nil
}

// Violations scans the whole table and returns every violation of the
// constraint. Pair violations are reported once per ordered pair (i, j)
// with i != j that satisfies the body; callers that want unordered pairs
// can deduplicate with min/max. The scan is the naive O(n²) reference.
func (c *Constraint) Violations(t *table.Table) ([]Violation, error) {
	var out []Violation
	if c.SingleTuple() {
		for i := 0; i < t.NumRows(); i++ {
			sat, err := c.SatisfiedPair(t, i, i)
			if err != nil {
				return nil, err
			}
			if sat {
				out = append(out, Violation{Constraint: c, Row1: i, Row2: i})
			}
		}
		return out, nil
	}
	for i := 0; i < t.NumRows(); i++ {
		for j := 0; j < t.NumRows(); j++ {
			if i == j {
				continue
			}
			sat, err := c.SatisfiedPair(t, i, j)
			if err != nil {
				return nil, err
			}
			if sat {
				out = append(out, Violation{Constraint: c, Row1: i, Row2: j})
			}
		}
	}
	return out, nil
}

// violationPairsForRowOracle counts the oracle's ordered violating pairs
// that row i takes part in: what ViolationPairsForRow must return.
func (c *Constraint) violationPairsForRowOracle(t *table.Table, i int) (int, error) {
	vs, err := c.Violations(t)
	n := 0
	for _, v := range vs {
		if v.Row1 == i || v.Row2 == i {
			n++
		}
	}
	return n, err
}
