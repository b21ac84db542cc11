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
// answer costs no reflection and no per-cell strings. Table cells are
// appended straight from the *table.Table, and a session's table,
// constraint and history bytes are kept current across edits by its
// answerEncoder, so an answer re-encodes only what changed. The bytes are exactly what
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

// answerEncoder keeps one session's answer bytes current under edits: the
// encoded rows of the dirty table, each constraint's encoded text keyed
// by constraint pointer, and the encoded history prefix. Like
// table.Stats.Sync it catches up from the table's edit log: a window of
// cell edits re-encodes only the rows it names, and a structural window,
// a log overrun, a different table or schema, or a different
// *core.Session (a restore) re-encodes everything. So an answer after a
// one-cell edit costs one row's encoding plus copying the rest.
//
// The zero value is ready to use. A session entry's encoder is guarded by
// session.mu and dropped with the session on eviction.
type answerEncoder struct {
	sess   *core.Session
	tbl    *table.Table
	schema *table.Schema
	// gen is the table generation rows encode.
	gen uint64
	// columns is the head of a table object: {"columns":[...],"rows":
	columns []byte
	// rows holds each row of tbl at gen as a JSON array of cell texts,
	// most of them windows of slab (see encodeRows).
	rows [][]byte
	slab []byte
	// dcs holds each constraint of the session as a JSON string.
	dcs map[*dc.Constraint][]byte
	// history holds the first histLen history lines as JSON strings
	// joined by commas; histLast is the last of them. Session history
	// only grows, so a shorter history or a different last line means
	// another history and is re-encoded.
	history  []byte
	histLen  int
	histLast string
	// edits is the pooled buffer of the edit-log catch-up.
	edits []table.Edit
}

// session encodes a session (sessionJSON): the answer of create, get and
// edit.
//
//lint:hotpath
func (e *answerEncoder) session(id string, sess *core.Session) *wireBuf {
	wb := getWire()
	wb.b = e.appendSession(wb.b, id, sess)
	wb.b = append(wb.b, '\n')
	return wb
}

// ingest encodes an ingest (ingestResponse).
func (e *answerEncoder) ingest(appended int, id string, sess *core.Session) *wireBuf {
	wb := getWire()
	wb.b = append(wb.b, `{"appended":`...)
	wb.b = strconv.AppendInt(wb.b, int64(appended), 10)
	wb.b = append(wb.b, `,"session":`...)
	wb.b = e.appendSession(wb.b, id, sess)
	wb.b = append(wb.b, "}\n"...)
	return wb
}

// repair encodes a repair (repairResponse) from the repair's exact diff
// against the session's dirty table: the clean table is the dirty rows
// with exact patched in, so only the rows holding a patched cell are
// encoded and the rest are copied. The repaired cells are named in paper
// notation (null when there are none).
//
//lint:hotpath
func (e *answerEncoder) repair(sess *core.Session, exact, repaired []table.CellDiff) *wireBuf {
	e.sync(sess)
	dirty := sess.Dirty()
	wb := getWire()
	wb.b = append(wb.b, `{"clean":`...)
	wb.b = e.appendTable(wb.b, dirty, exact)
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

// appendSession appends a sessionJSON object: the dirty table, the
// constraints in their text form and the edit history.
func (e *answerEncoder) appendSession(b []byte, id string, sess *core.Session) []byte {
	e.sync(sess)
	b = append(b, `{"id":`...)
	b = appendString(b, id)
	b = append(b, `,"table":`...)
	b = e.appendTable(b, sess.Dirty(), nil)
	b = append(b, `,"dcs":`...)
	b = e.appendDCs(b, sess.DCs())
	b = append(b, `,"history":`...)
	b = e.appendHistory(b, sess.History)
	return append(b, '}')
}

// sync brings the encoded rows up to sess's dirty table.
func (e *answerEncoder) sync(sess *core.Session) {
	t := sess.Dirty()
	if e.sess != sess || e.tbl != t || e.schema != t.Schema() {
		e.reset(sess)
		return
	}
	gen := t.Generation()
	if gen == e.gen {
		return
	}
	edits, ok := t.EditsSince(e.gen, e.edits[:0])
	e.edits = edits[:0]
	e.gen = gen
	if !ok || table.Structural(edits) || len(edits) > len(e.rows) || len(e.rows) != t.NumRows() {
		e.encodeRows(t)
		return
	}
	for _, ed := range edits {
		e.rows[ed.Row] = appendRow(e.rows[ed.Row][:0], t.RowView(ed.Row), ed.Row, nil)
	}
}

// reset re-encodes everything for sess: the column head, every row, and
// (on their next answer) the constraints and the history.
func (e *answerEncoder) reset(sess *core.Session) {
	t := sess.Dirty()
	e.sess, e.tbl, e.schema, e.gen = sess, t, t.Schema(), t.Generation()
	e.columns = append(e.columns[:0], `{"columns":[`...)
	for j := 0; j < e.schema.Len(); j++ {
		if j > 0 {
			e.columns = append(e.columns, ',')
		}
		e.columns = appendString(e.columns, e.schema.Col(j).Name)
	}
	e.columns = append(e.columns, `],"rows":`...)
	e.encodeRows(t)
	clear(e.dcs)
	e.history, e.histLen, e.histLast = e.history[:0], 0, ""
}

// encodeRows re-encodes every row of t into one shared buffer. Row i is
// a window of it capped at its own length, so a later re-encode of the
// row writes in place when it fits and moves the row out when it does
// not, never into its neighbour.
func (e *answerEncoder) encodeRows(t *table.Table) {
	n := t.NumRows()
	if n > cap(e.rows) {
		e.rows = make([][]byte, n)
	}
	e.rows = e.rows[:n]
	// Encode first and cut the windows after: the buffer may move while
	// it grows, so the loop records only each row's length.
	slab := e.slab[:0]
	for i := range e.rows {
		start := len(slab)
		slab = appendRow(slab, t.RowView(i), i, nil)
		e.rows[i] = slab[start:]
	}
	off := 0
	for i, row := range e.rows {
		end := off + len(row)
		e.rows[i] = slab[off:end:end]
		off = end
	}
	e.slab = slab
}

// appendTable appends a tableJSON object of the encoded rows with patch
// applied: patch is a row-major diff against t (table.DiffExact's order)
// whose Clean values replace t's cells, so a repair answer is written from
// the dirty table and the repair's diff without a clean table. Null cells
// are written as "" and every other cell as its Value.String text.
func (e *answerEncoder) appendTable(b []byte, t *table.Table, patch []table.CellDiff) []byte {
	b = append(b, e.columns...)
	if len(e.rows) == 0 {
		return append(b, "null}"...)
	}
	b = append(b, '[')
	for i, row := range e.rows {
		if i > 0 {
			b = append(b, ',')
		}
		if len(patch) > 0 && patch[0].Ref.Row == i {
			b = appendRow(b, t.RowView(i), i, patch)
			for len(patch) > 0 && patch[0].Ref.Row == i {
				patch = patch[1:]
			}
			continue
		}
		b = append(b, row...)
	}
	return append(b, "]}"...)
}

// appendRow appends row i of a table as a JSON array of cell texts, with
// the leading entries of patch that name row i replacing its cells.
func appendRow(b []byte, vals []table.Value, i int, patch []table.CellDiff) []byte {
	b = append(b, '[')
	for j, v := range vals {
		if j > 0 {
			b = append(b, ',')
		}
		if len(patch) > 0 && patch[0].Ref.Row == i && patch[0].Ref.Col == j {
			v = patch[0].Clean
			patch = patch[1:]
		}
		b = appendCell(b, v)
	}
	return append(b, ']')
}

// appendDCs appends the constraints' texts; no constraints is null.
func (e *answerEncoder) appendDCs(b []byte, dcs []*dc.Constraint) []byte {
	if len(dcs) == 0 {
		return append(b, "null"...)
	}
	e.syncDCs(dcs)
	b = append(b, '[')
	for i, c := range dcs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, e.dcs[c]...)
	}
	return append(b, ']')
}

// syncDCs makes dcs the encoded constraint set: a constraint seen before
// keeps its encoding, a new one is rendered once, and a removed one is
// dropped.
func (e *answerEncoder) syncDCs(dcs []*dc.Constraint) {
	current := len(e.dcs) == len(dcs)
	for _, c := range dcs {
		if _, ok := e.dcs[c]; !ok {
			current = false
			break
		}
	}
	if current {
		return
	}
	//lint:allow allocfree once per constraint-set change, not per answer
	m := make(map[*dc.Constraint][]byte, len(dcs))
	for _, c := range dcs {
		text, ok := e.dcs[c]
		if !ok {
			text = appendString(nil, c.String())
		}
		m[c] = text
	}
	e.dcs = m
}

// appendHistory appends the history lines, encoding only the lines added
// since the last answer; a nil history is null, as encoding/json writes a
// nil slice.
func (e *answerEncoder) appendHistory(b []byte, history []string) []byte {
	if history == nil {
		return append(b, "null"...)
	}
	if len(history) < e.histLen || (e.histLen > 0 && history[e.histLen-1] != e.histLast) {
		e.history, e.histLen = e.history[:0], 0
	}
	for _, line := range history[e.histLen:] {
		if e.histLen > 0 {
			e.history = append(e.history, ',')
		}
		e.history = appendString(e.history, line)
		e.histLen++
	}
	if e.histLen > 0 {
		e.histLast = history[e.histLen-1]
	}
	b = append(b, '[')
	b = append(b, e.history...)
	return append(b, ']')
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
