package server

import (
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/data"
	"repro/internal/table"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden explain answers under testdata/golden")

// soccerGoldenCSV is a 24-row generated standings table (more rows than
// core.MaxExactPlayers, so a "rows" explain takes the sampled fallback)
// with one Country typo for the constraints to repair.
func soccerGoldenCSV(t *testing.T) string {
	t.Helper()
	tbl := data.GenerateSoccer(data.SoccerConfig{Leagues: 1, TeamsPerLeague: 24, Seed: 3})
	tbl.Set(3, 2, table.String("Spian"))
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestExplainGoldenAnswers pins the exact answer bytes of every explain
// kind: exact constraint, group and interaction rankings, seeded sampled
// and top-k cell rankings, the why-not ranking, and the sampled fallback
// of a row explain over more rows than exact enumeration allows. A repeat
// of each request, answered from the session's caches and memo, must send
// the same bytes. Run with -update to rewrite testdata/golden after an
// intended answer change.
func TestExplainGoldenAnswers(t *testing.T) {
	ts := newTestServer(t)
	laliga := createSession(t, ts).ID
	var soccer sessionJSON
	if status, raw := post(t, ts.URL+"/api/session", createSessionRequest{CSV: soccerGoldenCSV(t), DCs: paperDCText}, &soccer); status != http.StatusOK {
		t.Fatalf("create soccer session: %d %s", status, raw)
	}
	for _, c := range []struct {
		name    string
		session string
		req     explainRequest
	}{
		{"default", laliga, explainRequest{Cell: "t5[Country]"}},
		{"constraints", laliga, explainRequest{Cell: "t5[Country]", Kind: "constraints"}},
		{"cells", laliga, explainRequest{Cell: "t5[Country]", Kind: "cells", Samples: 40, Seed: 7}},
		{"cells-topk", laliga, explainRequest{Cell: "t5[Country]", Kind: "cells-topk", K: 3, Samples: 160, Seed: 7}},
		{"rows", laliga, explainRequest{Cell: "t5[Country]", Kind: "rows"}},
		{"columns", laliga, explainRequest{Cell: "t5[Country]", Kind: "columns"}},
		{"interaction", laliga, explainRequest{Cell: "t5[Country]", Kind: "interaction"}},
		{"toward", laliga, explainRequest{Cell: "t5[Country]", Kind: "toward", Desired: "Portugal"}},
		{"rows-sampled", soccer.ID, explainRequest{Cell: "t4[Country]", Kind: "rows", Samples: 8, Seed: 11}},
	} {
		t.Run(c.name, func(t *testing.T) {
			status, raw := post(t, ts.URL+"/api/session/"+c.session+"/explain", c.req, nil)
			if status != http.StatusOK {
				t.Fatalf("explain: %d %s", status, raw)
			}
			path := filepath.Join("testdata", "golden", "explain-"+c.name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if raw != string(want) {
				t.Errorf("answer differs from %s\n got: %s\nwant: %s", path, raw, want)
			}
			if status, repeat := post(t, ts.URL+"/api/session/"+c.session+"/explain", c.req, nil); status != http.StatusOK || repeat != raw {
				t.Errorf("repeat answered %d %s, first answered %s", status, repeat, raw)
			}
		})
	}
}
