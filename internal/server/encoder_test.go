package server

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dc"
	"repro/internal/repair"
	"repro/internal/table"
)

// fuzzValues are the cell values the session answer fuzz writes: NULL,
// NaN, ±0, ±Inf, ints and floats that print alike, bools, and strings
// that need escaping.
var fuzzValues = func() []table.Value {
	vs := []table.Value{
		table.Null(), table.Float(math.NaN()), table.Float(math.Copysign(0, -1)), table.Float(0),
		table.Float(math.Inf(1)), table.Int(1), table.Float(1), table.String("1"), table.Bool(true),
		table.Int(-42), table.Float(1e-7), table.Float(1e21),
	}
	for _, s := range hostileStrings {
		vs = append(vs, table.String(s))
	}
	return vs
}()

// fuzzIngestFields are CSV fields the ingest op streams: text that the
// answer must escape, written through encoding/csv so quoting is exact.
var fuzzIngestFields = []string{"", "x", "1", "-0", "NaN", `<a&b>`, `quote"d`, "tab\there", "line\u2028sep", "España"}

// fuzzDCs are the constraints the AddDC op adds (an ID-less one takes the
// first free C<n>; a taken ID fails and changes nothing).
var fuzzDCs = []string{
	"C2: !(t1.B = t2.B & t1.C != t2.C)",
	"C3: !(t1.A = t2.A & t1.C != t2.C)",
	"!(t1.C = t2.C & t1.A != t2.A)",
	`C9: !(t1.A = "<x&y>" & t1.B = t2.B & t1.C != t2.C)`,
}

// newAnswerFuzzSession is a 4-row session over four untyped columns, one
// with a name that needs escaping, under an FD the FD chase repairs, so
// repair answers patch cells.
func newAnswerFuzzSession(t testing.TB) *core.Session {
	t.Helper()
	schema, err := table.NewSchema(table.Column{Name: "A"}, table.Column{Name: "B"}, table.Column{Name: "C"}, table.Column{Name: "Note<&>\u2028"})
	if err != nil {
		t.Fatal(err)
	}
	tbl := table.New(schema)
	for i := 0; i < 4; i++ {
		row := []table.Value{table.String("x"), fuzzValues[i], fuzzValues[i+5], table.String(hostileStrings[i])}
		if err := tbl.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := dc.ParseSet("C1: !(t1.A = t2.A & t1.B != t2.B)")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSessionWith(repair.NewFDChase(), cs, tbl, core.SessionOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// checkAnswers compares entry's encoder against a fresh encoder and the
// encoding/json oracle, for the session answer, the ingest answer and the
// repair answer.
func checkAnswers(t *testing.T, step, id string, entry *session) {
	t.Helper()
	ctx := context.Background()
	sess := entry.sess
	want := encodeOracle(t, oracleSession(id, sess))
	var fresh answerEncoder
	checkBytes(t, step+": fresh session", fresh.session(id, sess), want)
	checkBytes(t, step+": session", entry.enc.session(id, sess), want)
	checkBytes(t, step+": ingest", entry.enc.ingest(2, id, sess), encodeOracle(t, ingestResponse{Appended: 2, Session: oracleSession(id, sess)}))

	exact, repaired, err := sess.Explainer().RepairDiff(ctx)
	if err != nil {
		t.Fatalf("%s: repair: %v", step, err)
	}
	clean, err := repair.NewFDChase().Repair(ctx, sess.DCs(), sess.Dirty())
	if err != nil {
		t.Fatalf("%s: oracle repair: %v", step, err)
	}
	oracle, err := oracleRepair(sess.Dirty(), clean)
	if err != nil {
		t.Fatal(err)
	}
	want = encodeOracle(t, oracle)
	checkBytes(t, step+": fresh repair", fresh.repair(sess, exact, repaired), want)
	checkBytes(t, step+": repair", entry.enc.repair(sess, exact, repaired), want)
}

// FuzzSessionAnswer runs random edit sequences against a session entry
// and checks after every operation that its encoder answers byte for byte
// what a fresh encoder and encoding/json answer. Each pair of input bytes
// is one operation and its argument: SetCell, InsertRow, DeleteRow, a
// batch, AddDC, RemoveDC, a CSV ingest, or an evict-to-spool and restore.
func FuzzSessionAnswer(f *testing.F) {
	srv := New()
	srv.SpoolDir = f.TempDir()
	f.Add([]byte{0, 3, 0, 17, 1, 5, 2, 1, 7, 0})
	f.Add([]byte{3, 9, 4, 1, 5, 0, 6, 4, 0, 200})
	f.Add([]byte{4, 3, 4, 0, 5, 1, 7, 2, 0, 44, 3, 3})
	f.Add([]byte{1, 1, 1, 2, 2, 0, 2, 0, 6, 7, 7, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		const id = "s1"
		entry := &session{sess: newAnswerFuzzSession(t)}
		checkAnswers(t, "create", id, entry)
		for k := 0; k+1 < len(ops); k += 2 {
			op, arg := ops[k]%8, int(ops[k+1])
			sess := entry.sess
			n, m := sess.Dirty().NumRows(), sess.Dirty().NumCols()
			value := fuzzValues[arg%len(fuzzValues)]
			row := func(seed int) []table.Value {
				vals := make([]table.Value, m)
				for j := range vals {
					vals[j] = fuzzValues[(seed+j*7)%len(fuzzValues)]
				}
				return vals
			}
			var step string
			switch op {
			case 0:
				step = "set"
				if n > 0 {
					_ = sess.SetCell(table.CellRef{Row: arg % n, Col: arg % m}, value)
				}
			case 1:
				step = "insert"
				_ = sess.InsertRow(row(arg))
			case 2:
				step = "delete"
				if n > 1 {
					_ = sess.DeleteRow(arg % n)
				}
			case 3:
				step = "batch"
				batch := []core.BatchOp{{Kind: core.BatchInsert, Vals: row(arg)}}
				if n > 0 {
					batch = append(batch,
						core.BatchOp{Kind: core.BatchSet, Ref: table.CellRef{Row: arg % n, Col: (arg / 3) % m}, Value: value},
						core.BatchOp{Kind: core.BatchDelete, Row: (arg / 5) % n})
				}
				_ = sess.ApplyBatch(batch)
			case 4:
				step = "add-dc"
				_ = sess.AddDC(fuzzDCs[arg%len(fuzzDCs)])
			case 5:
				step = "remove-dc"
				if dcs := sess.DCs(); len(dcs) > 0 {
					_ = sess.RemoveDC(dcs[arg%len(dcs)].ID)
				}
			case 6:
				step = "ingest"
				var buf bytes.Buffer
				w := csv.NewWriter(&buf)
				_ = w.Write(sess.Dirty().Schema().Names())
				for r := 0; r < 1+arg%2; r++ {
					rec := make([]string, m)
					for j := range rec {
						rec[j] = fuzzIngestFields[(arg+r+j)%len(fuzzIngestFields)]
					}
					_ = w.Write(rec)
				}
				w.Flush()
				if _, err := sess.IngestCSV(&buf); err != nil {
					t.Fatalf("ingest: %v", err)
				}
			case 7:
				step = "spool-restore"
				if !srv.evictLocked(id, entry) {
					t.Fatal("eviction failed")
				}
				if entry.enc.sess != nil || entry.enc.rows != nil || entry.enc.dcs != nil {
					t.Fatal("evicted session kept its encoder")
				}
				if err := srv.ensureLive(id, entry); err != nil {
					t.Fatal(err)
				}
			}
			checkAnswers(t, step, id, entry)
		}
	})
}

// TestEvictDropsEncoder checks that LRU eviction drops a session's answer
// encoder together with the session, and that the restored session
// answers get, edit and repair byte for byte as before the eviction.
func TestEvictDropsEncoder(t *testing.T) {
	srv := New()
	srv.SpoolDir = t.TempDir()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	sess := createSession(t, ts)
	base := ts.URL + "/api/session/" + sess.ID
	if status, raw := post(t, base+"/edit", editRequest{SetCell: "t2[City]", Value: "Madrid <&>"}, nil); status != http.StatusOK {
		t.Fatalf("edit: %d %s", status, raw)
	}
	get := func() string {
		t.Helper()
		resp, err := http.Get(base)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	beforeGet := get()
	_, beforeRepair := post(t, base+"/repair", struct{}{}, nil)

	srv.mu.Lock()
	entry := srv.sessions[sess.ID]
	srv.mu.Unlock()
	entry.mu.Lock()
	if entry.enc.sess == nil {
		t.Fatal("live session has no encoder state")
	}
	if !srv.evictLocked(sess.ID, entry) {
		t.Fatal("eviction failed")
	}
	if entry.enc.sess != nil || entry.enc.rows != nil || entry.enc.history != nil || entry.enc.dcs != nil {
		t.Error("evicted session kept its encoder")
	}
	entry.mu.Unlock()

	if got := get(); got != beforeGet {
		t.Errorf("restored session answers\n%s\nwant\n%s", got, beforeGet)
	}
	if _, got := post(t, base+"/repair", struct{}{}, nil); got != beforeRepair {
		t.Errorf("restored repair answers\n%s\nwant\n%s", got, beforeRepair)
	}
	// An edit after the restore is answered from the restored session's
	// encoder and still matches the oracle.
	var after sessionJSON
	status, raw := post(t, base+"/edit", editRequest{SetCell: "t2[City]", Value: "Barcelona"}, &after)
	if status != http.StatusOK {
		t.Fatalf("edit after restore: %d %s", status, raw)
	}
	entry.mu.Lock()
	want := encodeOracle(t, oracleSession(sess.ID, entry.sess))
	entry.mu.Unlock()
	if raw != string(want) {
		t.Errorf("edit after restore answers\n%s\nwant\n%s", raw, want)
	}
}

// TestEncoderConcurrentRequests drives one session's encoder from several
// clients at once (edits, gets and repairs interleaved): every answer must
// decode, and the final answer must match the oracle. Run it under -race.
func TestEncoderConcurrentRequests(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	base := ts.URL + "/api/session/" + createSession(t, ts).ID
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var out sessionJSON
				edit := editRequest{SetCell: "t" + strconv.Itoa(1+(w+i)%6) + "[City]", Value: []string{"Madrid", "Capital <&>", "Sevilla"}[(w+i)%3]}
				if status, raw := postQuiet(base+"/edit", edit, &out); status != http.StatusOK || len(out.Table.Rows) == 0 {
					t.Errorf("edit: %d %s", status, raw)
					return
				}
				var rep repairResponse
				if status, raw := postQuiet(base+"/repair", struct{}{}, &rep); status != http.StatusOK || len(rep.Clean.Rows) == 0 {
					t.Errorf("repair: %d %s", status, raw)
					return
				}
				resp, err := http.Get(base)
				if err != nil {
					t.Error(err)
					return
				}
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("get: %d %v", resp.StatusCode, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	srv.mu.Lock()
	entry := srv.sessions["s1"]
	srv.mu.Unlock()
	entry.mu.Lock()
	want := string(encodeOracle(t, oracleSession("s1", entry.sess)))
	entry.mu.Unlock()
	resp, err := http.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("final answer\n%s\nwant\n%s", got, want)
	}
}

// postQuiet is post for use off the test goroutine: it reports failures
// as a status instead of calling t.Fatal.
func postQuiet(url string, body, out any) (int, string) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err.Error()
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err.Error()
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return 0, err.Error()
		}
	}
	return resp.StatusCode, string(raw)
}
