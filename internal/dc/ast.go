// Package dc implements the denial-constraint (DC) language used by the
// paper: the predicate AST, a text parser for the ¬(p1 ∧ ... ∧ pk) form,
// and violation detection over tables with SQL-style null semantics: one
// compiled predicate kernel run over incrementally-maintained hash
// partitions, for full scans, point probes and live violation lists.
//
// A denial constraint ∀t1,t2. ¬(p1 ∧ ... ∧ pk) states that no pair of
// distinct tuples may jointly satisfy all predicates. Constraints that only
// mention t1 are single-tuple DCs and are checked per tuple.
package dc

import (
	"fmt"
	"strings"

	"repro/internal/table"
)

// Op is a comparison operator of a DC predicate.
type Op uint8

// The six comparison operators of the standard DC fragment.
const (
	OpEq Op = iota
	OpNeq
	OpLt
	OpLeq
	OpGt
	OpGeq
)

// String renders the operator in ASCII form.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNeq:
		return "!="
	case OpLt:
		return "<"
	case OpLeq:
		return "<="
	case OpGt:
		return ">"
	case OpGeq:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Negate returns the logical negation of the operator (= ↔ !=, < ↔ >=, ...).
func (o Op) Negate() Op {
	switch o {
	case OpEq:
		return OpNeq
	case OpNeq:
		return OpEq
	case OpLt:
		return OpGeq
	case OpLeq:
		return OpGt
	case OpGt:
		return OpLeq
	case OpGeq:
		return OpLt
	default:
		return o
	}
}

// Operand is one side of a predicate: either a tuple attribute reference
// (t1.Attr or t2.Attr) or a constant.
type Operand struct {
	// IsConst selects between the two variants.
	IsConst bool
	// Const is the constant value when IsConst.
	Const table.Value
	// Tuple is 0 for t1 and 1 for t2 when !IsConst.
	Tuple int
	// Attr is the attribute name when !IsConst.
	Attr string
}

// ConstOperand builds a constant operand.
func ConstOperand(v table.Value) Operand { return Operand{IsConst: true, Const: v} }

// AttrOperand builds a tuple-attribute operand; tuple is 0 (t1) or 1 (t2).
func AttrOperand(tuple int, attr string) Operand { return Operand{Tuple: tuple, Attr: attr} }

// String renders the operand in parser syntax.
func (o Operand) String() string {
	if o.IsConst {
		if o.Const.Kind() == table.KindString {
			return fmt.Sprintf("%q", o.Const.Str())
		}
		return o.Const.String()
	}
	return fmt.Sprintf("t%d.%s", o.Tuple+1, o.Attr)
}

// Predicate is one conjunct of a DC body: Left Op Right.
type Predicate struct {
	Left  Operand
	Op    Op
	Right Operand
}

// String renders the predicate in parser syntax.
func (p Predicate) String() string {
	return fmt.Sprintf("%s %s %s", p.Left, p.Op, p.Right)
}

// mentionsT2 reports whether the predicate references tuple variable t2.
func (p Predicate) mentionsT2() bool {
	return (!p.Left.IsConst && p.Left.Tuple == 1) || (!p.Right.IsConst && p.Right.Tuple == 1)
}

// Constraint is a denial constraint ∀t1[,t2]. ¬(p1 ∧ ... ∧ pk).
type Constraint struct {
	// ID is a short name such as "C1". IDs are unique within a Set.
	ID string
	// Preds is the conjunction being denied; it must be non-empty.
	Preds []Predicate
	// Comment is optional free text describing the constraint's intent.
	Comment string
}

// SingleTuple reports whether the constraint only references t1 and is
// therefore checked per tuple instead of per pair.
func (c *Constraint) SingleTuple() bool {
	for _, p := range c.Preds {
		if p.mentionsT2() {
			return false
		}
	}
	return true
}

// Attributes returns the distinct attribute names mentioned by the
// constraint, in first-mention order.
func (c *Constraint) Attributes() []string {
	var out []string
	seen := make(map[string]bool)
	add := func(o Operand) {
		if !o.IsConst && !seen[o.Attr] {
			seen[o.Attr] = true
			out = append(out, o.Attr)
		}
	}
	for _, p := range c.Preds {
		add(p.Left)
		add(p.Right)
	}
	return out
}

// String renders the constraint in parser syntax, e.g.
//
//	C1: !(t1.Team = t2.Team & t1.City != t2.City)
func (c *Constraint) String() string {
	parts := make([]string, len(c.Preds))
	for i, p := range c.Preds {
		parts[i] = p.String()
	}
	body := "!(" + strings.Join(parts, " & ") + ")"
	if c.ID == "" {
		return body
	}
	return c.ID + ": " + body
}

// Validate checks the constraint is well-formed against a schema: non-empty
// body, known attributes, and t2 references only in pair constraints.
func (c *Constraint) Validate(schema *table.Schema) error {
	if len(c.Preds) == 0 {
		return fmt.Errorf("dc: constraint %s has no predicates", c.ID)
	}
	for _, p := range c.Preds {
		for _, o := range []Operand{p.Left, p.Right} {
			if o.IsConst {
				continue
			}
			if o.Tuple != 0 && o.Tuple != 1 {
				return fmt.Errorf("dc: constraint %s references tuple t%d", c.ID, o.Tuple+1)
			}
			if _, ok := schema.Index(o.Attr); !ok {
				return fmt.Errorf("dc: constraint %s references unknown attribute %q", c.ID, o.Attr)
			}
		}
	}
	return nil
}
