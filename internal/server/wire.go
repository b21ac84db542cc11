package server

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/dc"
	"repro/internal/table"
)

// The wire encoder. Every answer is appended into a pooled buffer by one
// append-style writer per answer type and sent with a single Write, so an
// answer costs no reflection and no per-cell strings: table cells are
// appended straight from the *table.Table. The bytes are exactly what
// json.NewEncoder(w).Encode would write for the wire structs in server.go
// (key order, HTML-safe escaping, U+2028/U+2029, invalid UTF-8 as \ufffd,
// float format, null for nil slices, trailing newline) — those structs
// stay as the decoding side of the API and as the oracle of
// TestWireByteIdentity. The one departure is a non-finite float, which
// encoding/json refuses to encode and the writers send as null.

// wireBuf is one pooled answer buffer. It is pooled by pointer so Get and
// Put never box a slice header.
type wireBuf struct{ b []byte }

// maxPooledWire bounds the buffers kept for reuse: one huge answer must
// not pin its buffer for the life of the process.
const maxPooledWire = 1 << 20

var wirePool = sync.Pool{New: func() any { return &wireBuf{b: make([]byte, 0, 4096)} }}

// getWire takes an empty answer buffer from the pool.
func getWire() *wireBuf {
	wb := wirePool.Get().(*wireBuf)
	wb.b = wb.b[:0]
	return wb
}

// send writes a complete answer: the headers, including Content-Length so
// large answers are not sent chunked, then the status, then the body in
// one Write. The buffer goes back to the pool.
func send(w http.ResponseWriter, status int, wb *wireBuf) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(wb.b)))
	w.WriteHeader(status)
	// A failed write means the client is gone; there is no one to answer.
	_, _ = w.Write(wb.b)
	if cap(wb.b) <= maxPooledWire {
		wirePool.Put(wb)
	}
}

// writeError answers {"error": err.Error()} with the given status.
func writeError(w http.ResponseWriter, status int, err error) {
	wb := getWire()
	wb.b = append(wb.b, `{"error":`...)
	wb.b = appendString(wb.b, err.Error())
	wb.b = append(wb.b, "}\n"...)
	send(w, status, wb)
}

// The answer writers below each fill a pooled buffer with one complete
// answer, trailing newline included; send writes it. Encoding before
// anything is written means a handler can still answer an error, and a
// handler holding a session lock only for the encoding can release it
// before the network write.

// algorithmsAnswer encodes the sorted algorithm list.
func algorithmsAnswer(names []string) *wireBuf {
	wb := getWire()
	wb.b = append(wb.b, `{"algorithms":`...)
	wb.b = appendStrings(wb.b, names)
	wb.b = append(wb.b, "}\n"...)
	return wb
}

// sessionAnswer encodes a session (sessionJSON): the answer of create, get
// and edit.
//
//lint:hotpath
func sessionAnswer(id string, sess *core.Session) *wireBuf {
	wb := getWire()
	wb.b = appendSession(wb.b, id, sess)
	wb.b = append(wb.b, '\n')
	return wb
}

// ingestAnswer encodes an ingest (ingestResponse).
func ingestAnswer(appended int, id string, sess *core.Session) *wireBuf {
	wb := getWire()
	wb.b = append(wb.b, `{"appended":`...)
	wb.b = strconv.AppendInt(wb.b, int64(appended), 10)
	wb.b = append(wb.b, `,"session":`...)
	wb.b = appendSession(wb.b, id, sess)
	wb.b = append(wb.b, "}\n"...)
	return wb
}

// repairAnswer encodes a repair (repairResponse) from the repair's exact
// diff against dirty: the clean table is dirty with exact patched in, and
// the repaired cells are named in paper notation (null when there are
// none).
//
//lint:hotpath
func repairAnswer(dirty *table.Table, exact, repaired []table.CellDiff) *wireBuf {
	wb := getWire()
	wb.b = append(wb.b, `{"clean":`...)
	wb.b = appendTable(wb.b, dirty, exact)
	wb.b = append(wb.b, `,"repaired":`...)
	if len(repaired) == 0 {
		wb.b = append(wb.b, "null"...)
	} else {
		wb.b = append(wb.b, '[')
		for i, d := range repaired {
			if i > 0 {
				wb.b = append(wb.b, ',')
			}
			wb.b = appendRefName(wb.b, dirty, d.Ref)
		}
		wb.b = append(wb.b, ']')
	}
	wb.b = append(wb.b, "}\n"...)
	return wb
}

// violationsAnswer encodes a violation list (violationsResponse), rows
// 1-based; an empty list is [] rather than null.
//
//lint:hotpath
func violationsAnswer(vs []dc.Violation) *wireBuf {
	wb := getWire()
	wb.b = append(wb.b, `{"consistent":`...)
	wb.b = strconv.AppendBool(wb.b, len(vs) == 0)
	wb.b = append(wb.b, `,"violations":[`...)
	for i, v := range vs {
		if i > 0 {
			wb.b = append(wb.b, ',')
		}
		wb.b = append(wb.b, `{"constraint":`...)
		wb.b = appendString(wb.b, v.Constraint.ID)
		wb.b = append(wb.b, `,"row1":`...)
		wb.b = strconv.AppendInt(wb.b, int64(v.Row1+1), 10)
		wb.b = append(wb.b, `,"row2":`...)
		wb.b = strconv.AppendInt(wb.b, int64(v.Row2+1), 10)
		wb.b = append(wb.b, '}')
	}
	wb.b = append(wb.b, "]}\n"...)
	return wb
}

// explainAnswer encodes a report (explainResponse). A non-finite CI95 —
// a sampled estimate from a single sample has an unbounded interval — is
// written as null.
//
//lint:hotpath
func explainAnswer(r *core.Report) *wireBuf {
	wb := getWire()
	wb.b = append(wb.b, `{"cell":`...)
	wb.b = appendString(wb.b, r.Cell)
	wb.b = append(wb.b, `,"target":`...)
	wb.b = appendString(wb.b, r.Target)
	wb.b = append(wb.b, `,"kind":`...)
	wb.b = appendString(wb.b, r.Kind)
	wb.b = append(wb.b, `,"algorithm":`...)
	wb.b = appendString(wb.b, r.Algorithm)
	wb.b = append(wb.b, `,"entries":`...)
	if r.Entries == nil {
		wb.b = append(wb.b, "null"...)
	} else {
		wb.b = append(wb.b, '[')
		for i, e := range r.Entries {
			if i > 0 {
				wb.b = append(wb.b, ',')
			}
			wb.b = append(wb.b, `{"Name":`...)
			wb.b = appendString(wb.b, e.Name)
			wb.b = append(wb.b, `,"Shapley":`...)
			wb.b = appendFloat(wb.b, e.Shapley)
			wb.b = append(wb.b, `,"CI95":`...)
			wb.b = appendFloat(wb.b, e.CI95)
			wb.b = append(wb.b, `,"Samples":`...)
			wb.b = strconv.AppendInt(wb.b, int64(e.Samples), 10)
			wb.b = append(wb.b, '}')
		}
		wb.b = append(wb.b, ']')
	}
	wb.b = append(wb.b, "}\n"...)
	return wb
}

// appendSession appends a sessionJSON object: the dirty table, the
// constraints in their text form and the edit history.
func appendSession(b []byte, id string, sess *core.Session) []byte {
	b = append(b, `{"id":`...)
	b = appendString(b, id)
	b = append(b, `,"table":`...)
	b = appendTable(b, sess.Dirty(), nil)
	b = append(b, `,"dcs":`...)
	dcs := sess.DCs()
	if len(dcs) == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, c := range dcs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, c.String())
		}
		b = append(b, ']')
	}
	b = append(b, `,"history":`...)
	b = appendStrings(b, sess.History)
	return append(b, '}')
}

// appendTable appends a tableJSON object for t with patch applied: patch
// is a row-major diff against t (table.DiffExact's order) whose Clean
// values replace t's cells, so a repair answer is written from the dirty
// table and the repair's diff without a clean table. Null cells are
// written as "" and every other cell as its Value.String text.
//
//lint:hotpath
func appendTable(b []byte, t *table.Table, patch []table.CellDiff) []byte {
	schema := t.Schema()
	b = append(b, `{"columns":[`...)
	for j := 0; j < schema.Len(); j++ {
		if j > 0 {
			b = append(b, ',')
		}
		b = appendString(b, schema.Col(j).Name)
	}
	b = append(b, `],"rows":`...)
	if t.NumRows() == 0 {
		return append(b, "null}"...)
	}
	b = append(b, '[')
	k := 0
	for i := 0; i < t.NumRows(); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range t.RowView(i) {
			if j > 0 {
				b = append(b, ',')
			}
			if k < len(patch) && patch[k].Ref.Row == i && patch[k].Ref.Col == j {
				v = patch[k].Clean
				k++
			}
			b = appendCell(b, v)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// appendCell appends one cell as a JSON string of its display text. Only
// string cells can hold characters that need escaping; the text of the
// other kinds is plain ASCII.
func appendCell(b []byte, v table.Value) []byte {
	switch v.Kind() {
	case table.KindNull:
		return append(b, `""`...)
	case table.KindString:
		return appendString(b, v.Str())
	case table.KindInt:
		b = append(b, '"')
		b = strconv.AppendInt(b, v.IntVal(), 10)
	case table.KindFloat:
		b = append(b, '"')
		b = strconv.AppendFloat(b, v.FloatVal(), 'g', -1, 64)
	case table.KindBool:
		b = append(b, '"')
		b = strconv.AppendBool(b, v.BoolVal())
	default:
		return appendString(b, v.String())
	}
	return append(b, '"')
}

// appendRefName appends t.RefName(ref) — t<row>[<Attr>] — as a JSON
// string. Escaping the attribute alone is escaping the whole name: the
// rest is plain ASCII, and UTF-8 decoding never joins an ASCII byte to
// its neighbours.
func appendRefName(b []byte, t *table.Table, ref table.CellRef) []byte {
	b = append(b, `"t`...)
	b = strconv.AppendInt(b, int64(ref.Row+1), 10)
	b = append(b, '[')
	b = appendStringBody(b, t.Schema().Col(ref.Col).Name)
	return append(b, `]"`...)
}

// appendStrings appends a string list; nil is null, as encoding/json
// writes a nil slice.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// appendFloat appends f as encoding/json formats a float64: the shortest
// 'f' form, or the 'e' form outside [1e-6, 1e21) with a one-digit
// negative exponent's leading zero dropped (1e-07 becomes 1e-7). A
// non-finite f, which encoding/json cannot encode, is written as null.
func appendFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a quoted JSON string.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	b = appendStringBody(b, s)
	return append(b, '"')
}

const hexDigits = "0123456789abcdef"

// wireSafe marks the bytes appendStringBody copies verbatim: printable
// ASCII except '"', '\\', '<', '>' and '&'. Control bytes and those five
// are escaped; bytes from utf8.RuneSelf up start a multi-byte sequence,
// which is decoded. One table load per byte replaces six comparisons.
var wireSafe = func() (safe [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	for _, c := range "\"\\<>&" {
		safe[c] = false
	}
	return safe
}()

// appendStringBody appends s escaped as encoding/json escapes it with
// HTML escaping on (the Encoder default): '"' and '\\' backslashed;
// \b, \f, \n, \r and \t by name; other control bytes and '<', '>' and
// '&' as \u00XX; U+2028 and U+2029 as \u2028 and \u2029; each byte of
// invalid UTF-8 as \ufffd; everything else verbatim.
func appendStringBody(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if wireSafe[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(b, s[start:]...)
}
