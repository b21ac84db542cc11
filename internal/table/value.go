// Package table implements the in-memory typed table substrate used by
// every other component of the T-REx reproduction: schemas, typed cell
// values with SQL-style null semantics, cell addressing, CSV interchange,
// column statistics and empirical distributions, and dirty/clean diffing.
//
// The paper's prototype stored its working tables in PostgreSQL; the repair
// and explanation workloads only ever read and perturb a single small table,
// so an in-memory representation preserves all behaviour that matters to
// the explainer while removing the external dependency.
package table

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime types a cell value can take.
type Kind uint8

// The supported value kinds. KindNull is the zero value so that a
// zero-initialized Value is null, matching the paper's convention that a
// cell excluded from a coalition "is null".
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is an immutable typed cell value. The zero Value is null.
//
// Values follow SQL three-valued logic at the comparison layer: any
// comparison involving a null is "unknown", which the denial-constraint
// evaluator treats as not-a-violation.
type Value struct {
	kind Kind
	s    string
	i    int64
	f    float64
	b    bool
}

// Null returns the null value.
func Null() Value { return Value{} }

// String wraps a string as a Value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int wraps an int64 as a Value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float wraps a float64 as a Value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Bool wraps a bool as a Value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// identical reports bit-for-bit equality: same kind and same payload,
// with floats compared by bit pattern, so -0 and 0 differ and a NaN
// equals a NaN with the same bits. It is the copy test of CopyFrom.
func identical(a, b Value) bool {
	return a.kind == b.kind && a.s == b.s && a.i == b.i && a.b == b.b &&
		math.Float64bits(a.f) == math.Float64bits(b.f)
}

// Kind reports the runtime kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the underlying string; it is only meaningful for KindString.
func (v Value) Str() string { return v.s }

// IntVal returns the underlying integer; it is only meaningful for KindInt.
func (v Value) IntVal() int64 { return v.i }

// FloatVal returns the underlying float; it is only meaningful for KindFloat.
func (v Value) FloatVal() float64 { return v.f }

// BoolVal returns the underlying bool; it is only meaningful for KindBool.
func (v Value) BoolVal() bool { return v.b }

// IsNaN reports whether the value is a float NaN. NaN is the one non-null
// value the = predicate can never satisfy (NaN ≠ NaN), so hash-join
// partitions treat it like null — see dc's appendCompositeKey.
func (v Value) IsNaN() bool { return v.kind == KindFloat && math.IsNaN(v.f) }

// Num returns the value as a float64 under the numeric unification the =
// predicate and Compare use (ints promote); ok is false for nulls and
// non-numeric kinds.
func (v Value) Num() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return v.f, true
	case KindInt:
		return float64(v.i), true
	default:
		return 0, false
	}
}

// String renders the value for display. Null renders as the SQL-ish "NULL".
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.b)
	default:
		return "?"
	}
}

// Key returns a canonical string usable as a map key: it is injective
// across kinds (the same text as an int and as a string map to different
// keys), which plain String() is not.
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "\x00N"
	case KindString:
		return "\x00S" + v.s
	case KindInt:
		return "\x00I" + strconv.FormatInt(v.i, 10)
	case KindFloat:
		return "\x00F" + strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return "\x00B" + strconv.FormatBool(v.b)
	default:
		return "\x00?"
	}
}

// AppendKey appends the canonical Key bytes to buf and returns the extended
// slice. It exists for hot paths (distribution maintenance, hash-join
// bucketing) that look keys up via the compiler's alloc-free
// map[string(bytes)] access instead of materializing a fresh string per
// probe; Key is AppendKey into an empty buffer.
func (v Value) AppendKey(buf []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(buf, "\x00N"...)
	case KindString:
		return append(append(buf, "\x00S"...), v.s...)
	case KindInt:
		return strconv.AppendInt(append(buf, "\x00I"...), v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(append(buf, "\x00F"...), v.f, 'g', -1, 64)
	case KindBool:
		return strconv.AppendBool(append(buf, "\x00B"...), v.b)
	default:
		return append(buf, "\x00?"...)
	}
}

// AppendJoinKey appends a key canonical under the = predicate's equality
// relation: two non-null values satisfy Equal if and only if their join
// keys match. Numerics collapse to one tag with a normalized float64
// rendering (the exact relation sameNonNull uses, with -0 folded into 0),
// unlike AppendKey, whose identity keys keep int 1 and float 1.0 distinct.
// Hash-join bucketing must use this form: a kind-sensitive key would
// separate rows the equality predicate joins, silently dropping
// violations. NaN never equals anything, so partition builders exclude NaN
// cells before keying (IsNaN), the same way they exclude nulls.
func (v Value) AppendJoinKey(buf []byte) []byte {
	if isNumeric(v.kind) {
		f := v.asFloat()
		if f == 0 {
			f = 0 // fold -0.0 into 0.0: they are = under the predicate
		}
		return strconv.AppendFloat(append(buf, "\x00#"...), f, 'g', -1, 64)
	}
	return v.AppendKey(buf)
}

// Equal reports strict equality: both values non-null, same kind (with
// int/float unified numerically), same content. Null never equals anything,
// including another null — mirroring SQL's NULL = NULL → unknown. Use
// IsNull for null checks and SameContent when null==null is desired.
func (v Value) Equal(o Value) bool {
	if v.kind == KindNull || o.kind == KindNull {
		return false
	}
	return v.sameNonNull(o)
}

// SameContent reports equality treating null as equal to null. It is the
// right notion for diffing two tables cell-by-cell.
func (v Value) SameContent(o Value) bool {
	if v.kind == KindNull && o.kind == KindNull {
		return true
	}
	if v.kind == KindNull || o.kind == KindNull {
		return false
	}
	return v.sameNonNull(o)
}

func (v Value) sameNonNull(o Value) bool {
	if isNumeric(v.kind) && isNumeric(o.kind) {
		return v.asFloat() == o.asFloat()
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindString:
		return v.s == o.s
	case KindBool:
		return v.b == o.b
	default:
		return false
	}
}

func isNumeric(k Kind) bool { return k == KindInt || k == KindFloat }

func (v Value) asFloat() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// Compare orders two non-null values of comparable kinds. It returns
// (-1|0|+1, true) on success and (0, false) when the comparison is unknown:
// either operand null, or kinds incomparable (e.g. string vs int). Strings
// compare lexicographically, numerics numerically, bools false<true.
func (v Value) Compare(o Value) (int, bool) {
	if v.kind == KindNull || o.kind == KindNull {
		return 0, false
	}
	if isNumeric(v.kind) && isNumeric(o.kind) {
		a, b := v.asFloat(), o.asFloat()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		default:
			return 0, true
		}
	}
	if v.kind != o.kind {
		return 0, false
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.s, o.s), true
	case KindBool:
		switch {
		case v.b == o.b:
			return 0, true
		case !v.b:
			return -1, true
		default:
			return 1, true
		}
	default:
		return 0, false
	}
}

// ParseValue converts raw text into the most specific Value it can:
// int, then float, then bool, then string. Empty text and the literals
// "null"/"NULL" parse to the null value.
func ParseValue(text string) Value {
	trimmed := strings.TrimSpace(text)
	if trimmed == "" || strings.EqualFold(trimmed, "null") {
		return Null()
	}
	if i, err := strconv.ParseInt(trimmed, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(trimmed, 64); err == nil && !math.IsInf(f, 0) {
		return Float(f)
	}
	if trimmed == "true" || trimmed == "false" {
		return Bool(trimmed == "true")
	}
	return String(text)
}

// ParseValueAs converts raw text into a Value of the requested kind,
// erroring when the text does not fit.
func ParseValueAs(text string, k Kind) (Value, error) {
	trimmed := strings.TrimSpace(text)
	if trimmed == "" || strings.EqualFold(trimmed, "null") {
		return Null(), nil
	}
	switch k {
	case KindString:
		return String(text), nil
	case KindInt:
		i, err := strconv.ParseInt(trimmed, 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("table: %q is not an int: %w", text, err)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(trimmed, 64)
		if err != nil {
			return Null(), fmt.Errorf("table: %q is not a float: %w", text, err)
		}
		return Float(f), nil
	case KindBool:
		b, err := strconv.ParseBool(trimmed)
		if err != nil {
			return Null(), fmt.Errorf("table: %q is not a bool: %w", text, err)
		}
		return Bool(b), nil
	case KindNull:
		return Null(), nil
	default:
		return Null(), fmt.Errorf("table: unknown kind %v", k)
	}
}
