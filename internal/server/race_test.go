package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// raceCSV is a small soccer-schema instance with one dirty cell, cheap
// enough to repair and explain hundreds of times under the race detector.
// It uses the paper's schema so the fixed rule set of the registry's
// algorithm1 applies.
const raceCSV = "Team,City,Country,League,Year,Place\n" +
	"Real,Madrid,Spain,La Liga,2019,1\n" +
	"Real,Capital,Spain,La Liga,2018,1\n" +
	"Real,Madrid,Spain,La Liga,2017,2\n" +
	"Betis,Sevilla,Spain,La Liga,2019,3\n"

const raceDCs = "C1: !(t1.Team = t2.Team & t1.City != t2.City)\n" +
	"C2: !(t1.City = t2.City & t1.Country != t2.Country)"

func raceDo(t *testing.T, client *http.Client, method, url string, body any) *http.Response {
	t.Helper()
	var reader *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reader = bytes.NewReader(raw)
	} else {
		reader = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, reader)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServerConcurrentSessions hammers parallel /repair + /explain + /edit
// traffic across several sessions that share the repair.All(1) registry,
// plus /algorithms and session creation churn. Run under -race (the CI
// race job does) it proves the per-session locking and the pooled
// per-run repair state are sound; without -race it still exercises the
// locking for deadlocks and non-2xx responses.
func TestServerConcurrentSessions(t *testing.T) {
	// Every production algorithm from the shared registry gets a session,
	// plus a second session on the same algorithm to share pooled state.
	algs := []string{"algorithm1", "holosim", "greedy-holistic", "fd-chase", "algorithm1"}
	srv := New()
	srv.ExplainSamples = 4 // keep explains cheap; we are testing safety, not accuracy
	// One admission slot per session: every repair and explain may be in
	// flight at once, and a 429 shed here would be a correct answer, not a
	// race. Shedding has its own tests (TestSaturationReturns429, chaos).
	srv.MaxInFlight = len(algs)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	ids := make([]string, len(algs))
	for i, alg := range algs {
		resp := raceDo(t, client, http.MethodPost, ts.URL+"/api/session", map[string]string{
			"csv": raceCSV, "dcs": raceDCs, "algorithm": alg,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("create session (%s): status %d", alg, resp.StatusCode)
		}
		var out struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ids[i] = out.ID
	}

	const perSession = 8
	var wg sync.WaitGroup
	errs := make(chan string, len(ids)*perSession*4)
	for w, id := range ids {
		wg.Add(1)
		go func(w int, id string) {
			defer wg.Done()
			base := ts.URL + "/api/session/" + id
			for i := 0; i < perSession; i++ {
				// Edit: flip the dirty cell back and forth so repairs and
				// explains race genuine table mutations.
				resp := raceDo(t, client, http.MethodPost, base+"/edit", map[string]string{
					"setCell": "t2[City]", "value": []string{"Capital", "Centro", "Madrid"}[(w+i)%3],
				})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("edit: status %d", resp.StatusCode)
				}
				resp.Body.Close()

				resp = raceDo(t, client, http.MethodPost, base+"/repair", nil)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("repair: status %d", resp.StatusCode)
				}
				resp.Body.Close()

				resp = raceDo(t, client, http.MethodPost, base+"/explain", map[string]any{
					"cell": "t2[City]", "kind": "constraints",
				})
				// 422 is legitimate: a concurrent edit may have made the
				// cell clean, leaving nothing to explain.
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
					errs <- fmt.Sprintf("explain: status %d", resp.StatusCode)
				}
				resp.Body.Close()

				resp = raceDo(t, client, http.MethodGet, ts.URL+"/api/algorithms", nil)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("algorithms: status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(w, id)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestAlgorithmsSorted pins the deterministic dropdown order (sort.Strings
// replaced a hand-rolled insertion sort).
func TestAlgorithmsSorted(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/api/algorithms")
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
	want := []string{"algorithm1", "fd-chase", "greedy-holistic", "holosim"}
	if strings.Join(out.Algorithms, ",") != strings.Join(want, ",") {
		t.Fatalf("algorithms = %v, want %v", out.Algorithms, want)
	}
}
