package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

const paperCSV = `Team,City,Country,League,Year,Place
Barcelona,Barcelona,Spain,La Liga,2019,1
Atletico Madrid,Madrid,Spain,La Liga,2019,2
Real Madrid,Madrid,Spain,La Liga,2019,3
Sevilla,Sevilla,Spian,La Liga,2019,4
Real Madrid,Capital,España,La Liga,2018,1
Real Madrid,Madrid,Spain,La Liga,2017,1
`

const paperDCText = `C1: !(t1.Team = t2.Team & t1.City != t2.City)
C2: !(t1.City = t2.City & t1.Country != t2.Country)
C3: !(t1.League = t2.League & t1.Country != t2.Country)
C4: !(t1.Team != t2.Team & t1.Year = t2.Year & t1.League = t2.League & t1.Place = t2.Place)
`

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New().Handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw.Bytes(), out); err != nil {
			t.Fatalf("decoding %s: %v", raw.String(), err)
		}
	}
	return resp.StatusCode, raw.String()
}

func createSession(t *testing.T, ts *httptest.Server) sessionJSON {
	t.Helper()
	var sess sessionJSON
	status, raw := post(t, ts.URL+"/api/session", createSessionRequest{CSV: paperCSV, DCs: paperDCText}, &sess)
	if status != http.StatusOK {
		t.Fatalf("create session: %d %s", status, raw)
	}
	return sess
}

func TestIndexServed(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(body.String(), "T-REx") {
		t.Fatalf("index: %d", resp.StatusCode)
	}
	if resp.Header.Get("Content-Type") != "text/html; charset=utf-8" {
		t.Errorf("content type %q", resp.Header.Get("Content-Type"))
	}
	notFound, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	notFound.Body.Close()
	if notFound.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: %d", notFound.StatusCode)
	}
}

func TestAlgorithmsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/api/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Algorithms []string `json:"algorithms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Algorithms) != 4 {
		t.Fatalf("algorithms = %v", out.Algorithms)
	}
	for i := 1; i < len(out.Algorithms); i++ {
		if out.Algorithms[i] < out.Algorithms[i-1] {
			t.Fatal("algorithm list must be sorted")
		}
	}
}

func TestCreateSessionAndGet(t *testing.T) {
	ts := newTestServer(t)
	sess := createSession(t, ts)
	if sess.ID == "" || len(sess.Table.Rows) != 6 || len(sess.DCs) != 4 {
		t.Fatalf("session = %+v", sess)
	}
	resp, err := http.Get(ts.URL + "/api/session/" + sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get session: %d", resp.StatusCode)
	}
	missing, err := http.Get(ts.URL + "/api/session/s999")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("missing session: %d", missing.StatusCode)
	}
}

func TestCreateSessionValidation(t *testing.T) {
	ts := newTestServer(t)
	cases := []createSessionRequest{
		{CSV: "", DCs: paperDCText},
		{CSV: paperCSV, DCs: "C1: !(t1.Nope = t2.Nope)"},
		{CSV: paperCSV, DCs: "garbage("},
		{CSV: paperCSV, DCs: paperDCText, Algorithm: "nope"},
	}
	for i, req := range cases {
		status, _ := post(t, ts.URL+"/api/session", req, nil)
		if status != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, want 400", i, status)
		}
	}
}

func TestRepairEndpoint(t *testing.T) {
	ts := newTestServer(t)
	sess := createSession(t, ts)
	var rep repairResponse
	status, raw := post(t, ts.URL+"/api/session/"+sess.ID+"/repair", struct{}{}, &rep)
	if status != http.StatusOK {
		t.Fatalf("repair: %d %s", status, raw)
	}
	want := map[string]bool{"t4[Country]": true, "t5[City]": true, "t5[Country]": true}
	if len(rep.Repaired) != len(want) {
		t.Fatalf("repaired = %v", rep.Repaired)
	}
	for _, name := range rep.Repaired {
		if !want[name] {
			t.Errorf("unexpected repaired cell %s", name)
		}
	}
	if rep.Clean.Rows[4][2] != "Spain" {
		t.Errorf("clean t5[Country] = %q", rep.Clean.Rows[4][2])
	}
}

func TestExplainConstraintsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	sess := createSession(t, ts)
	var rep explainResponse
	status, raw := post(t, ts.URL+"/api/session/"+sess.ID+"/explain",
		explainRequest{Cell: "t5[Country]", Kind: "constraints"}, &rep)
	if status != http.StatusOK {
		t.Fatalf("explain: %d %s", status, raw)
	}
	if rep.Kind != "constraints" || rep.Target != "Spain" || len(rep.Entries) != 4 {
		t.Fatalf("response = %+v", rep)
	}
	if rep.Entries[0].Name != "C3" {
		t.Errorf("top = %s, want C3", rep.Entries[0].Name)
	}
}

func TestExplainCellsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	sess := createSession(t, ts)
	var rep explainResponse
	status, raw := post(t, ts.URL+"/api/session/"+sess.ID+"/explain",
		explainRequest{Cell: "t5[Country]", Kind: "cells", Samples: 300, Seed: 42}, &rep)
	if status != http.StatusOK {
		t.Fatalf("explain: %d %s", status, raw)
	}
	if len(rep.Entries) != 35 {
		t.Fatalf("entries = %d", len(rep.Entries))
	}
	if rep.Entries[0].Name != "t5[League]" {
		t.Errorf("top = %s, want t5[League]", rep.Entries[0].Name)
	}
}

func TestExplainExtendedKinds(t *testing.T) {
	ts := newTestServer(t)
	sess := createSession(t, ts)
	url := ts.URL + "/api/session/" + sess.ID + "/explain"

	var topk explainResponse
	if status, raw := post(t, url, explainRequest{Cell: "t5[Country]", Kind: "cells-topk", K: 3, Samples: 400, Seed: 42}, &topk); status != 200 {
		t.Fatalf("cells-topk: %d %s", status, raw)
	}
	if len(topk.Entries) != 3 || topk.Entries[0].Name != "t5[League]" {
		t.Errorf("topk = %+v", topk.Entries)
	}

	var rows explainResponse
	if status, raw := post(t, url, explainRequest{Cell: "t5[Country]", Kind: "rows"}, &rows); status != 200 {
		t.Fatalf("rows: %d %s", status, raw)
	}
	if len(rows.Entries) != 6 || rows.Entries[0].Name != "row t5" {
		t.Errorf("rows = %+v", rows.Entries)
	}

	var cols explainResponse
	if status, raw := post(t, url, explainRequest{Cell: "t5[Country]", Kind: "columns"}, &cols); status != 200 {
		t.Fatalf("columns: %d %s", status, raw)
	}
	if len(cols.Entries) != 6 {
		t.Errorf("columns = %+v", cols.Entries)
	}

	var inter explainResponse
	if status, raw := post(t, url, explainRequest{Cell: "t5[Country]", Kind: "interaction"}, &inter); status != 200 {
		t.Fatalf("interaction: %d %s", status, raw)
	}
	if len(inter.Entries) != 6 || inter.Entries[0].Name != "I(C1,C2)" {
		t.Errorf("interaction = %+v", inter.Entries)
	}

	var toward explainResponse
	if status, raw := post(t, url, explainRequest{Cell: "t5[Country]", Kind: "toward", Desired: "Portugal"}, &toward); status != 200 {
		t.Fatalf("toward: %d %s", status, raw)
	}
	for _, e := range toward.Entries {
		if e.Shapley != 0 {
			t.Errorf("toward Portugal: %s = %v, want 0", e.Name, e.Shapley)
		}
	}
	// toward without a desired value is a 400.
	if status, _ := post(t, url, explainRequest{Cell: "t5[Country]", Kind: "toward"}, nil); status != http.StatusBadRequest {
		t.Errorf("toward without desired: %d", status)
	}
}

func TestExplainValidation(t *testing.T) {
	ts := newTestServer(t)
	sess := createSession(t, ts)
	for i, req := range []explainRequest{
		{Cell: "nonsense"},
		{Cell: "t1[Nope]"},
		{Cell: "t5[Country]", Kind: "martians"},
		{Cell: "t5[Country]", Kind: "toward", Desired: "null"},
	} {
		status, _ := post(t, ts.URL+"/api/session/"+sess.ID+"/explain", req, nil)
		if status != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, want 400", i, status)
		}
	}
	// Unrepaired cell: well-formed but unexplainable.
	status, _ := post(t, ts.URL+"/api/session/"+sess.ID+"/explain", explainRequest{Cell: "t1[Team]"}, nil)
	if status != http.StatusUnprocessableEntity {
		t.Errorf("unrepaired cell: status = %d, want 422", status)
	}
}

// TestExplainTopKOverflowIs422: kind cells-topk runs rounds of Samples/8
// draws for each of the 35 other cells of the paper table. A budget whose
// draw count overflows int (here it would wrap to a negative count) is
// rejected with 422, not answered with zero-sample entries.
func TestExplainTopKOverflowIs422(t *testing.T) {
	ts := newTestServer(t)
	sess := createSession(t, ts)
	samples := 8 * (math.MaxInt/35 + 1)
	status, raw := post(t, ts.URL+"/api/session/"+sess.ID+"/explain",
		explainRequest{Cell: "t5[Country]", Kind: "cells-topk", K: 3, Samples: samples, Seed: 42}, nil)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", status, raw)
	}
}

func TestEditLoop(t *testing.T) {
	// The full Figure 4 loop over HTTP: repair → explain → remove top DC →
	// re-repair and observe the changed output.
	ts := newTestServer(t)
	sess := createSession(t, ts)
	url := ts.URL + "/api/session/" + sess.ID

	var rep explainResponse
	if status, raw := post(t, url+"/explain", explainRequest{Cell: "t5[Country]"}, &rep); status != 200 {
		t.Fatalf("explain: %d %s", status, raw)
	}
	top := rep.Entries[0].Name

	var after sessionJSON
	if status, raw := post(t, url+"/edit", editRequest{RemoveDC: top}, &after); status != 200 {
		t.Fatalf("edit: %d %s", status, raw)
	}
	if len(after.DCs) != 3 || len(after.History) != 1 {
		t.Fatalf("after = %+v", after)
	}

	// Also edit a cell: fix t5[League] so the C3 pathway is gone.
	if status, raw := post(t, url+"/edit", editRequest{SetCell: "t5[League]", Value: "Liga X"}, &after); status != 200 {
		t.Fatalf("edit cell: %d %s", status, raw)
	}
	if after.Table.Rows[4][3] != "Liga X" {
		t.Fatalf("cell edit not applied: %+v", after.Table.Rows[4])
	}

	var r2 repairResponse
	if status, raw := post(t, url+"/repair", struct{}{}, &r2); status != 200 {
		t.Fatalf("re-repair: %d %s", status, raw)
	}
	// With C3 removed and the League link broken, the repair of
	// t5[Country] must still happen via C1+C2 (City pathway).
	if r2.Clean.Rows[4][2] != "Spain" {
		t.Errorf("t5[Country] after edits = %q (City pathway should still fix it)", r2.Clean.Rows[4][2])
	}
}

func TestEditValidation(t *testing.T) {
	ts := newTestServer(t)
	sess := createSession(t, ts)
	url := ts.URL + "/api/session/" + sess.ID + "/edit"
	for i, req := range []editRequest{
		{},
		{SetCell: "bogus", Value: "x"},
		{RemoveDC: "C99"},
		{AddDC: "not a dc"},
	} {
		status, _ := post(t, url, req, nil)
		if status != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, want 400", i, status)
		}
	}
}

// TestEditAddDCUnnamedAfterRemove: the addDC edit names an unnamed
// constraint with the first free C<n>, so adding one after a removeDC
// cannot collide with a surviving ID.
func TestEditAddDCUnnamedAfterRemove(t *testing.T) {
	ts := newTestServer(t)
	sess := createSession(t, ts)
	url := ts.URL + "/api/session/" + sess.ID + "/edit"
	var after sessionJSON
	if status, raw := post(t, url, editRequest{RemoveDC: "C2"}, &after); status != 200 {
		t.Fatalf("removeDC: %d %s", status, raw)
	}
	if status, raw := post(t, url, editRequest{AddDC: "!(t1.Year != t2.Year & t1.League = t2.League)"}, &after); status != 200 {
		t.Fatalf("unnamed addDC after removeDC: %d %s", status, raw)
	}
	if len(after.DCs) != 4 || !strings.HasPrefix(after.DCs[3], "C5: ") {
		t.Fatalf("dcs = %q, want the new constraint named C5", after.DCs)
	}
}

func TestMalformedJSONBody(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/api/session", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestConcurrentSessions(t *testing.T) {
	ts := newTestServer(t)
	const n = 8
	done := make(chan error, n)
	for w := 0; w < n; w++ {
		go func() {
			done <- func() error {
				var sess sessionJSON
				status, raw := post(t, ts.URL+"/api/session", createSessionRequest{CSV: paperCSV, DCs: paperDCText}, &sess)
				if status != 200 {
					return fmt.Errorf("create: %d %s", status, raw)
				}
				var rep repairResponse
				if status, raw := post(t, ts.URL+"/api/session/"+sess.ID+"/repair", struct{}{}, &rep); status != 200 {
					return fmt.Errorf("repair: %d %s", status, raw)
				}
				return nil
			}()
		}()
	}
	ids := map[string]bool{}
	for w := 0; w < n; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		_ = ids
	}
}
