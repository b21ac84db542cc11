package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/repair"
	"repro/internal/table"
)

// hostileStrings exercise every branch of the string escaper: HTML
// characters, quotes and backslashes, every named and unnamed control
// byte, U+2028 and U+2029, invalid and truncated UTF-8, multi-byte runes.
var hostileStrings = []string{
	"",
	"plain",
	`<script>alert("x") & 'y'</script>`,
	`back\slash "quoted"`,
	"\x00\x01\x07\b\t\n\v\f\r\x1b\x1f\x7f",
	"line\u2028sep\u2029para",
	"bad \xff\xfe utf8",
	"truncated \xe2\x80",
	"\xe2\x80\xa8 vs \xe2\x80",
	"España 日本語 🙂",
	"\xf0\x9f\x99",
	"ends with \\",
}

// encodeOracle is what the server wrote before the wire encoder: the
// encoding/json Encoder's output for v.
func encodeOracle(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("oracle encode: %v", err)
	}
	return buf.Bytes()
}

// oracleTable is the wire table as the server built it before the wire
// encoder: one []string per row, one string per cell.
func oracleTable(t *table.Table) tableJSON {
	out := tableJSON{Columns: t.Schema().Names()}
	for i := 0; i < t.NumRows(); i++ {
		row := make([]string, t.NumCols())
		for j := 0; j < t.NumCols(); j++ {
			if v := t.Get(i, j); !v.IsNull() {
				row[j] = v.String()
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

func oracleSession(id string, sess *core.Session) sessionJSON {
	out := sessionJSON{ID: id, Table: oracleTable(sess.Dirty()), History: sess.History}
	for _, c := range sess.DCs() {
		out.DCs = append(out.DCs, c.String())
	}
	return out
}

// oracleRepair encodes the black box's own clean table and table.Diff's
// repaired cells, independently of the session's memo.
func oracleRepair(dirty, clean *table.Table) (repairResponse, error) {
	diffs, err := table.Diff(dirty, clean)
	if err != nil {
		return repairResponse{}, err
	}
	out := repairResponse{Clean: oracleTable(clean)}
	for _, d := range diffs {
		out.Repaired = append(out.Repaired, dirty.RefName(d.Ref))
	}
	return out, nil
}

func oracleViolations(vs []dc.Violation) violationsResponse {
	out := violationsResponse{Consistent: len(vs) == 0, Violations: []violationJSON{}}
	for _, v := range vs {
		out.Violations = append(out.Violations, violationJSON{Constraint: v.Constraint.ID, Row1: v.Row1 + 1, Row2: v.Row2 + 1})
	}
	return out
}

// checkBytes compares an answer buffer with the oracle bytes and returns
// the buffer to the pool.
func checkBytes(t *testing.T, name string, wb *wireBuf, want []byte) {
	t.Helper()
	got := append([]byte(nil), wb.b...)
	wirePool.Put(wb)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-40)
		t.Errorf("%s: bytes differ at %d:\n got %q\nwant %q", name, i, got[lo:min(len(got), i+40)], want[lo:min(len(want), i+40)])
	}
}

// hostileTable has hostile column names and one cell of every kind and
// edge the wire writes: strings from hostileStrings, NULL, ints, floats
// (-0, tiny, huge, NaN, ±Inf) and bools.
func hostileTable(t *testing.T) *table.Table {
	t.Helper()
	schema, err := table.NewSchema(
		table.Column{Name: "Name<&>"}, table.Column{Name: "Val\u2028"},
		table.Column{Name: "Bad\xffCol"}, table.Column{Name: "Flag"},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl := table.New(schema)
	nums := []table.Value{
		table.Float(0), table.Float(math.Copysign(0, -1)), table.Int(-42), table.Int(math.MaxInt64),
		table.Float(1e-7), table.Float(1e21), table.Float(math.NaN()), table.Float(math.Inf(-1)),
		table.Float(0.1), table.Null(), table.Float(123456789.125), table.Int(5),
	}
	for i, s := range hostileStrings {
		row := []table.Value{table.String(s), nums[i%len(nums)], table.String(hostileStrings[(i+3)%len(hostileStrings)]), table.Bool(i%2 == 0)}
		if i%5 == 4 {
			row[0] = table.Null()
		}
		if err := tbl.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// hostileRepair is a black box that rewrites the hostile table: -0 over
// 0, Int(5) to Float(5) (a kind-only change), new hostile strings and a
// NULL, leaving the NaN cells alone.
var hostileRepair = repair.Func{
	AlgName: "hostile",
	Fn: func(_ context.Context, _ []*dc.Constraint, dirty *table.Table) (*table.Table, error) {
		clean := dirty.Clone()
		for i := 0; i < clean.NumRows(); i++ {
			v := clean.Get(i, 1)
			switch {
			case v.Kind() == table.KindFloat && v.FloatVal() == 0 && !math.Signbit(v.FloatVal()):
				clean.Set(i, 1, table.Float(math.Copysign(0, -1)))
			case v.Kind() == table.KindInt && v.IntVal() == 5:
				clean.Set(i, 1, table.Float(5))
			}
			if i%3 == 0 {
				clean.Set(i, 2, table.String("<fixed & \u2029 \xc3>"))
			}
			if i%4 == 1 {
				clean.Set(i, 0, table.Null())
			}
		}
		return clean, nil
	},
}

// soccerFixture is a 192-row generated standings table with injected
// errors, under the paper's four constraints.
func soccerFixture(t testing.TB) (*table.Table, []*dc.Constraint) {
	t.Helper()
	clean := data.GenerateSoccer(data.SoccerConfig{Leagues: 8, TeamsPerLeague: 24, Seed: 3})
	dirty, _, err := data.Inject(clean, data.InjectSpec{Rate: 0.02, Columns: []string{"City", "Country"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return dirty, data.SoccerDCs()
}

func algorithm1(t testing.TB) repair.Algorithm {
	t.Helper()
	for _, alg := range repair.All(1) {
		if alg.Name() == "algorithm1" {
			return alg
		}
	}
	t.Fatal("no algorithm1")
	return nil
}

// TestWireByteIdentity checks every answer writer against encoding/json's
// encoding of the wire structs, on the paper table, a generated 192-row
// table and a table of hostile values: session answers before and after
// edits (including an empty history and no constraints), ingest, repair
// on a memo miss and a memo hit, violations, explain, algorithms and
// errors.
func TestWireByteIdentity(t *testing.T) {
	ctx := context.Background()
	paper, err := table.ReadCSV(strings.NewReader(paperCSV))
	if err != nil {
		t.Fatal(err)
	}
	paperDCs, err := dc.ParseSet(paperDCText)
	if err != nil {
		t.Fatal(err)
	}
	soccer, soccerDCs := soccerFixture(t)
	cases := []struct {
		name string
		alg  repair.Algorithm
		dcs  []*dc.Constraint
		tbl  *table.Table
	}{
		{"paper", algorithm1(t), paperDCs, paper},
		{"soccer192", algorithm1(t), soccerDCs, soccer},
		{"hostile", hostileRepair, nil, hostileTable(t)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := core.NewSessionWith(tc.alg, tc.dcs, tc.tbl, core.SessionOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			id := "s<1>&\u2028"
			// enc answers every request of the case, as a session entry's
			// encoder does; the edits below reach it through the edit log.
			var enc answerEncoder
			checkBytes(t, "session", enc.session(id, sess), encodeOracle(t, oracleSession(id, sess)))

			// The black box's own output is the oracle of both the memo miss
			// and the memo hit.
			bb, err := tc.alg.Repair(ctx, sess.DCs(), sess.Dirty())
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleRepair(sess.Dirty(), bb)
			if err != nil {
				t.Fatal(err)
			}
			for _, pass := range []string{"miss", "hit"} {
				exact, repaired, err := sess.Explainer().RepairDiff(ctx)
				if err != nil {
					t.Fatal(err)
				}
				checkBytes(t, "repair "+pass, enc.repair(sess, exact, repaired), encodeOracle(t, want))
			}

			vs, err := sess.Violations()
			if err != nil {
				t.Fatal(err)
			}
			checkBytes(t, "violations", violationsAnswer(vs), encodeOracle(t, oracleViolations(vs)))

			// Edits put hostile text into the history and the table: cell
			// edits re-encode their row, the insert everything.
			for _, s := range hostileStrings[:4] {
				if err := sess.SetCell(table.CellRef{Row: 1, Col: 0}, table.ParseValue(s)); err != nil {
					t.Fatal(err)
				}
			}
			checkBytes(t, "session after cell edits", enc.session(id, sess), encodeOracle(t, oracleSession(id, sess)))
			if err := sess.InsertRow(sess.Dirty().Row(0)); err != nil {
				t.Fatal(err)
			}
			checkBytes(t, "session after edits", enc.session(id, sess), encodeOracle(t, oracleSession(id, sess)))
			checkBytes(t, "ingest", enc.ingest(3, id, sess), encodeOracle(t, ingestResponse{Appended: 3, Session: oracleSession(id, sess)}))
			var fresh answerEncoder
			checkBytes(t, "fresh encoder", fresh.session(id, sess), encodeOracle(t, oracleSession(id, sess)))
		})
	}

	t.Run("violations-empty", func(t *testing.T) {
		checkBytes(t, "violations", violationsAnswer(nil), encodeOracle(t, oracleViolations(nil)))
	})
	t.Run("explain", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 2.0 / 3, 1e-6, 9.999e-7, 1e-7, -1e-7, 1e-9,
			1.5e-10, 1e20, 1e21, -1e21, 1.2345e22, 1e25, 123456789.123, math.MaxFloat64, math.SmallestNonzeroFloat64}
		for i := 0; i < 2000; i++ {
			// Log-uniform over [1e-9, 1e25], either sign.
			f := math.Pow(10, -9+34*rng.Float64())
			if rng.Intn(2) == 0 {
				f = -f
			}
			floats = append(floats, f)
		}
		report := &core.Report{Kind: "cells", Cell: "t5[Country<&>]", Target: "Spain\u2028\xff", Algorithm: "algorithm1"}
		for i, f := range floats {
			report.Entries = append(report.Entries, core.Entry{
				Name: hostileStrings[i%len(hostileStrings)], Shapley: f, CI95: floats[(i+1)%len(floats)], Samples: i,
			})
		}
		want := encodeOracle(t, explainResponse{Cell: report.Cell, Target: report.Target, Kind: report.Kind, Algorithm: report.Algorithm, Entries: report.Entries})
		checkBytes(t, "explain", explainAnswer(report), want)
		for _, entries := range [][]core.Entry{nil, {}} {
			r := &core.Report{Kind: "constraints", Entries: entries}
			checkBytes(t, fmt.Sprintf("explain entries=%#v", entries), explainAnswer(r), encodeOracle(t, explainResponse{Kind: r.Kind, Entries: r.Entries}))
		}
	})
	t.Run("algorithms", func(t *testing.T) {
		for _, names := range [][]string{{}, {"algorithm1", "fd-chase", "holo<sim>"}} {
			checkBytes(t, "algorithms", algorithmsAnswer(names), encodeOracle(t, map[string][]string{"algorithms": names}))
		}
	})
	t.Run("error", func(t *testing.T) {
		for _, s := range hostileStrings {
			rec := httptest.NewRecorder()
			writeError(rec, 400, errors.New(s))
			if want := encodeOracle(t, map[string]string{"error": s}); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("error %q: got %q want %q", s, rec.Body.Bytes(), want)
			}
		}
	})
}

// TestWireNonFiniteCI95 checks the one departure from encoding/json: a
// non-finite float, which it cannot encode, is written as null and the
// answer still decodes.
func TestWireNonFiniteCI95(t *testing.T) {
	r := &core.Report{Kind: "cells", Entries: []core.Entry{
		{Name: "a", Shapley: 0.5, CI95: math.Inf(1), Samples: 1},
		{Name: "b", Shapley: math.NaN(), CI95: math.Inf(-1), Samples: 1},
	}}
	wb := explainAnswer(r)
	body := append([]byte(nil), wb.b...)
	wirePool.Put(wb)
	if !bytes.Contains(body, []byte(`"Shapley":0.5,"CI95":null`)) {
		t.Errorf("non-finite CI95 not null: %s", body)
	}
	var out explainResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if len(out.Entries) != 2 || out.Entries[0].Shapley != 0.5 {
		t.Errorf("decoded %+v", out)
	}
}

// FuzzWireString compares the string writer with encoding/json on
// arbitrary bytes.
func FuzzWireString(f *testing.F) {
	for _, s := range hostileStrings {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		s := string(raw)
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(s); err != nil {
			t.Fatal(err)
		}
		want := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendString(%q) = %q, want %q", s, got, want)
		}
	})
}

// TestWireAllocs guards the encoder's allocations on a 192-row session.
// After a one-cell edit the session answer re-encodes one row and copies
// the rest: it allocates at most once (Session.DCs copies the constraint
// list), however large the table. A repair answer allocates nothing.
func TestWireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	dirty, dcs := soccerFixture(t)
	sess, err := core.NewSessionWith(algorithm1(t), dcs, dirty, core.SessionOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	exact, repaired, err := sess.Explainer().RepairDiff(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) == 0 {
		t.Fatal("fixture repairs nothing")
	}
	var enc answerEncoder
	wirePool.Put(enc.session("s1", sess))
	ref := table.CellRef{Row: 0, Col: dirty.Schema().MustIndex("Country")}
	toggle := [2]table.Value{table.String("Wrongland"), sess.Dirty().GetRef(ref)}
	n := 0
	edit := func() {
		n++
		if err := sess.SetCell(ref, toggle[n%2]); err != nil {
			t.Fatal(err)
		}
	}
	editOnly := testing.AllocsPerRun(50, edit)
	withAnswer := testing.AllocsPerRun(50, func() {
		edit()
		wirePool.Put(enc.session("s1", sess))
	})
	if got := withAnswer - editOnly; got > 1 {
		t.Errorf("session answer after a one-cell edit: %v allocs/op, want <= 1 (%d rows)", got, dirty.NumRows())
	}
	if got := testing.AllocsPerRun(50, func() { wirePool.Put(enc.repair(sess, exact, repaired)) }); got != 0 {
		t.Errorf("repair answer: %v allocs/op, want 0", got)
	}
}

// BenchmarkSessionAnswerAfterEdit is the session answer of a 192-row
// session after a one-cell edit; the edit itself is not timed. Every 256
// edits a new session starts, as a long edit loop's analyst does, so the
// history the answer echoes stays short.
func BenchmarkSessionAnswerAfterEdit(b *testing.B) {
	dirty, dcs := soccerFixture(b)
	ref := table.CellRef{Row: 0, Col: dirty.Schema().MustIndex("Country")}
	toggle := [2]table.Value{table.String("Wrongland"), dirty.GetRef(ref)}
	var sess *core.Session
	var enc answerEncoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i%256 == 0 {
			var err error
			if sess, err = core.NewSessionWith(algorithm1(b), dcs, dirty, core.SessionOptions{Workers: 1}); err != nil {
				b.Fatal(err)
			}
			wirePool.Put(enc.session("s1", sess))
		}
		if err := sess.SetCell(ref, toggle[i%2]); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		wirePool.Put(enc.session("s1", sess))
	}
}

// TestExplainSingleSampleAnswers is the regression test of a sampled
// explain with one sample: its CI95 is +Inf, which encoding/json failed on
// after the 200 status was written, leaving an empty body. Every sampled
// kind must answer 200 with a body that decodes.
func TestExplainSingleSampleAnswers(t *testing.T) {
	ts := newTestServer(t)
	sess := createSession(t, ts)
	for _, kind := range []string{"cells", "cells-topk", "rows"} {
		var rep explainResponse
		status, raw := post(t, ts.URL+"/api/session/"+sess.ID+"/explain", explainRequest{Cell: "t5[Country]", Kind: kind, Samples: 1, Seed: 1}, &rep)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d %s", kind, status, raw)
		}
		if len(rep.Entries) == 0 || rep.Kind == "" {
			t.Errorf("%s: answer %s decodes to %+v", kind, raw, rep)
		}
	}
}

// TestRepairAnswerMemoHitIdentical checks that a repair answered from the
// memoized diff is byte-identical to the first, computed one, for a black
// box that writes -0 over 0 (bit-different, SameContent-equal).
func TestRepairAnswerMemoHitIdentical(t *testing.T) {
	srv := New()
	srv.algs["negzero"] = repair.Func{
		AlgName: "negzero",
		Fn: func(_ context.Context, _ []*dc.Constraint, dirty *table.Table) (*table.Table, error) {
			clean := dirty.Clone()
			clean.Set(0, 1, table.Float(math.Copysign(0, -1)))
			return clean, nil
		},
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	var sess sessionJSON
	req := createSessionRequest{CSV: "A,B\nx,0.0\ny,1\n", DCs: "C1: !(t1.A = t2.A & t1.B != t2.B)", Algorithm: "negzero"}
	if status, raw := post(t, ts.URL+"/api/session", req, &sess); status != http.StatusOK {
		t.Fatalf("create: %d %s", status, raw)
	}
	_, miss := post(t, ts.URL+"/api/session/"+sess.ID+"/repair", struct{}{}, nil)
	_, hit := post(t, ts.URL+"/api/session/"+sess.ID+"/repair", struct{}{}, nil)
	if want := `{"clean":{"columns":["A","B"],"rows":[["x","-0"],["y","1"]]},"repaired":null}` + "\n"; miss != want {
		t.Errorf("memo miss answered %q, want %q", miss, want)
	}
	if hit != miss {
		t.Errorf("memo hit answered %q, miss %q", hit, miss)
	}
}

// TestAnswerContentLength checks that answers carry Content-Length, so a
// large session answer is not sent chunked.
func TestAnswerContentLength(t *testing.T) {
	dirty, _ := soccerFixture(t)
	var csv strings.Builder
	if err := dirty.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t)
	buf, err := json.Marshal(createSessionRequest{CSV: csv.String(), DCs: paperDCText, Algorithm: "algorithm1"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/session", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(body) < 4<<10 {
		t.Fatalf("status %d, %d bytes", resp.StatusCode, len(body))
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("Content-Length %d, Transfer-Encoding %v for a %d-byte answer", resp.ContentLength, resp.TransferEncoding, len(body))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
}
