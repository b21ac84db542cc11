// Package server exposes T-REx over HTTP: a JSON API plus an embedded
// single-page GUI with the three screens of Figure 3 (input, repair,
// explanation) and the iterative edit loop of Figure 4. It substitutes a
// stdlib net/http implementation for the paper's JavaScript/CSS/HTML
// front-end and Python backend.
//
// Answers are JSON, written by the append-style encoder in wire.go with
// Content-Length set; they are byte-identical to encoding/json's encoding
// of the wire structs declared here, except that a non-finite float is
// written as null. The one non-finite value an answer carries is the CI95
// of an explain entry estimated from a single sample.
//
// Each session keeps one answer encoder next to its core.Session. It
// holds the encoded rows of the dirty table, constraint texts and history
// and catches up from the table's edit log, as the statistics and scan
// indexes do: after a cell edit, the session answer (create, get, edit,
// ingest) and the repair answer re-encode only the rows the edits name,
// and copy the rest. A structural edit, a log overrun or a restored
// session re-encodes everything. FuzzSessionAnswer pins the encoder to a
// fresh encode and to encoding/json after every kind of edit.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dc"
	"repro/internal/repair"
	"repro/internal/table"
)

// session pairs one core.Session with the mutex that serializes access to
// it: core.Session is not safe for concurrent use, and concurrent requests
// against one session id (repair racing an edit) are routine for a shared
// server. Distinct sessions proceed in parallel; only the registry map is
// behind the server-wide lock.
type session struct {
	mu   sync.Mutex
	sess *core.Session
	// enc keeps sess's answer bytes current across edits. Guarded by mu;
	// dropped with sess on eviction.
	enc answerEncoder
	// quarantined is set when a request against this session panicked;
	// every later request answers 409 with the diagnostics until restart
	// (the panic may have left black-box scratch state torn, so the
	// session is fenced rather than trusted).
	//
	// quarantined and spooled are written holding both mu and Server.mu
	// (taken in that order) and read holding either: request paths read
	// them under mu, the LRU scan in enforceBudget under Server.mu.
	quarantined error
	// spooled marks a session evicted to the spool directory (sess is
	// nil); the next request restores it. Locking as for quarantined.
	spooled bool
	// lastTouch is the server clock tick of the last request — the LRU
	// eviction key. Guarded by Server.mu.
	lastTouch uint64
}

// Server holds the in-memory session store. Create with New. The handler
// is safe for concurrent requests across and within sessions; the repair
// black boxes in the shared registry are stateless per run (their scratch
// state is pooled internally), so sessions share them freely.
//
// Each session owns its own exec.Engine (coalition cache + worker pool):
// engines are never shared across sessions, so one session's generation
// bumps cannot evict another's cache and the per-session mutex keeps the
// core.Session discipline (concurrent explains fine, edits exclusive)
// intact. The engine itself is safe for the concurrent sampler/repair
// goroutines a single request fans out.
type Server struct {
	mu       sync.Mutex
	sessions map[string]*session
	algs     map[string]repair.Algorithm
	nextID   int
	// ExplainSamples is the sampling budget for cell explanations.
	ExplainSamples int
	// Workers is the per-session engine parallelism (sampling fan-out and
	// repair bucket passes); 0 means GOMAXPROCS. Set before serving.
	// Parallelism never changes results (determinism contracts in shapley
	// and repair), so two servers with different Workers serve identical
	// answers for identical requests.
	Workers int
	// MaxInFlight bounds concurrently executing explain/repair requests;
	// excess requests answer 429 + Retry-After (0 means
	// defaultMaxInFlight). Set before serving.
	MaxInFlight int
	// RequestTimeout, when positive, bounds each explain/repair request's
	// computation; expiry cancels the computation and answers 408.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies (0 means defaultMaxBodyBytes).
	MaxBodyBytes int64
	// SpoolDir, when set, enables session survival: LRU-evicted and
	// drained sessions are snapshotted there and restored on demand.
	SpoolDir string
	// MaxLiveSessions is the in-memory session budget behind LRU eviction;
	// 0 disables eviction (sessions only spool at drain).
	MaxLiveSessions int

	// inflight is the admission semaphore (lazily sized from MaxInFlight).
	inflight chan struct{}
	// clock is the LRU recency counter. Guarded by mu.
	clock uint64
}

// New builds a Server with the standard algorithm registry.
func New() *Server {
	s := &Server{
		sessions:       make(map[string]*session),
		algs:           make(map[string]repair.Algorithm),
		ExplainSamples: 400,
	}
	for _, alg := range repair.All(1) {
		s.algs[alg.Name()] = alg
	}
	return s
}

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /", s.handleIndex)
	mux.HandleFunc("GET /api/algorithms", s.handleAlgorithms)
	mux.HandleFunc("POST /api/session", s.handleCreateSession)
	mux.HandleFunc("GET /api/session/{id}", s.handleGetSession)
	mux.HandleFunc("POST /api/session/{id}/repair", s.handleRepair)
	mux.HandleFunc("GET /api/session/{id}/violations", s.handleViolations)
	mux.HandleFunc("POST /api/session/{id}/explain", s.handleExplain)
	mux.HandleFunc("POST /api/session/{id}/edit", s.handleEdit)
	mux.HandleFunc("POST /api/session/{id}/ingest", s.handleIngest)
	return recoverAll(s.limitBody(mux))
}

// The wire structs below document the JSON answers and are what clients
// (and the tests) decode into; the answers themselves are written by the
// append-style writers in wire.go, byte-identical to encoding/json's
// encoding of these structs.

// tableJSON is the wire form of a table: null cells are "", every other
// cell is its display text.
type tableJSON struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

type sessionJSON struct {
	ID      string    `json:"id"`
	Table   tableJSON `json:"table"`
	DCs     []string  `json:"dcs"`
	History []string  `json:"history"`
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	names := make([]string, 0, len(s.algs))
	for name := range s.algs {
		names = append(names, name)
	}
	s.mu.Unlock()
	// Deterministic order for the UI dropdown.
	sort.Strings(names)
	send(w, http.StatusOK, algorithmsAnswer(names))
}

type createSessionRequest struct {
	CSV       string `json:"csv"`
	DCs       string `json:"dcs"`
	Algorithm string `json:"algorithm"`
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req createSessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	tbl, err := table.ReadCSV(strings.NewReader(req.CSV))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	dcs, err := dc.ParseSet(req.DCs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	algName := req.Algorithm
	if algName == "" {
		algName = "algorithm1"
	}
	s.mu.Lock()
	alg, ok := s.algs[algName]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown algorithm %q", algName))
		return
	}
	sess, err := core.NewSessionWith(alg, dcs, tbl, core.SessionOptions{Workers: s.Workers})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	entry := &session{sess: sess}
	s.mu.Lock()
	s.nextID++
	id := "s" + strconv.Itoa(s.nextID)
	s.sessions[id] = entry
	s.mu.Unlock()
	s.touch(entry)
	entry.mu.Lock()
	wb := entry.enc.session(id, sess)
	entry.mu.Unlock()
	send(w, http.StatusOK, wb)
}

func (s *Server) session(r *http.Request) (string, *session, error) {
	id := r.PathValue("id")
	s.mu.Lock()
	entry, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		return "", nil, fmt.Errorf("no session %q", id)
	}
	// A spooled (LRU-evicted or drained-and-restarted) session is restored
	// on first touch; the restored session answers bit-identically (the
	// snapshot codec's contract), it just starts with cold caches.
	entry.mu.Lock()
	if entry.spooled {
		if err := s.restoreLocked(id, entry); err != nil {
			entry.mu.Unlock()
			return "", nil, err
		}
	}
	entry.mu.Unlock()
	s.touch(entry)
	return id, entry, nil
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	id, entry, err := s.session(r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	entry.mu.Lock()
	if err := s.ensureLive(id, entry); err != nil {
		entry.mu.Unlock()
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	wb := entry.enc.session(id, entry.sess)
	entry.mu.Unlock()
	send(w, http.StatusOK, wb)
}

type repairResponse struct {
	Clean    tableJSON `json:"clean"`
	Repaired []string  `json:"repaired"` // cell names in paper notation
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	id, entry, err := s.session(r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	release, ok := s.admit()
	if !ok {
		reject429(w)
		return
	}
	defer release()
	ctx, cancel := s.reqContext(r)
	defer cancel()
	entry.mu.Lock()
	defer entry.mu.Unlock()
	defer s.guard(w, id, entry)()
	if checkQuarantine(w, entry) {
		return
	}
	if err := s.ensureLive(id, entry); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	sess := entry.sess
	exact, repaired, err := sess.Explainer().RepairDiff(ctx)
	if err != nil {
		if ctx.Err() != nil {
			writeError(w, http.StatusRequestTimeout, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	send(w, http.StatusOK, entry.enc.repair(sess, exact, repaired))
}

// violationJSON is the wire form of one violating pair.
type violationJSON struct {
	Constraint string `json:"constraint"`
	Row1       int    `json:"row1"`
	Row2       int    `json:"row2"`
}

type violationsResponse struct {
	Consistent bool            `json:"consistent"`
	Violations []violationJSON `json:"violations"`
}

// handleViolations answers "what is still broken?" for the edit loop: the
// session's live violation lists, maintained incrementally across edits
// rather than rescanned per poll.
func (s *Server) handleViolations(w http.ResponseWriter, r *http.Request) {
	id, entry, err := s.session(r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	entry.mu.Lock()
	if err := s.ensureLive(id, entry); err != nil {
		entry.mu.Unlock()
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	vs, err := entry.sess.Violations()
	entry.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	send(w, http.StatusOK, violationsAnswer(vs))
}

type explainRequest struct {
	// Cell is the cell of interest in paper notation, e.g. "t5[Country]".
	Cell string `json:"cell"`
	// Kind selects the report: "constraints" (default), "cells",
	// "cells-topk", "rows", "columns", "interaction" or "toward".
	Kind string `json:"kind"`
	// Samples is the sampling budget for cell-based kinds.
	Samples int `json:"samples"`
	// Seed makes sampled reports reproducible.
	Seed int64 `json:"seed"`
	// K is the cutoff for "cells-topk" (default 5).
	K int `json:"k"`
	// Desired is the hypothetical value for "toward" (why-not analysis).
	Desired string `json:"desired"`
}

// explainKinds maps each request kind onto the query it asks for; the
// request fills in the cell, the sampling budget and seed, K, and for
// kinds marked desired the hypothetical value. Rows and columns are ranked
// exactly when feasible; the request's budget and seed apply to the
// sampled fallback.
var explainKinds = map[string]struct {
	query   core.Query
	desired bool
}{
	"":            {query: core.Query{}},
	"constraints": {query: core.Query{}},
	"cells":       {query: core.Query{Players: core.CellPlayers, Estimator: core.SampledShapley}},
	"cells-topk":  {query: core.Query{Players: core.CellPlayers, Estimator: core.TopKShapley}},
	"rows":        {query: core.Query{Players: core.RowPlayers, Estimator: core.AutoShapley}},
	"columns":     {query: core.Query{Players: core.ColumnPlayers, Estimator: core.AutoShapley}},
	"interaction": {query: core.Query{Estimator: core.InteractionIndex}},
	"toward":      {query: core.Query{}, desired: true},
}

// explainResponse is the wire form of a report. A sampled entry's CI95 is
// null when it is not finite: an estimate from a single sample has no
// bounded interval (encoding/json cannot encode +Inf).
type explainResponse struct {
	Cell      string       `json:"cell"`
	Target    string       `json:"target"`
	Kind      string       `json:"kind"`
	Algorithm string       `json:"algorithm"`
	Entries   []core.Entry `json:"entries"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	id, entry, err := s.session(r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	var req explainRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	release, ok := s.admit()
	if !ok {
		reject429(w)
		return
	}
	defer release()
	// The derived context is cancelled when this handler returns, so a
	// timed-out or abandoned request releases its sampler workers instead
	// of computing into the void (TestTimeoutReleasesWorkers).
	ctx, cancel := s.reqContext(r)
	defer cancel()
	entry.mu.Lock()
	defer entry.mu.Unlock()
	defer s.guard(w, id, entry)()
	if checkQuarantine(w, entry) {
		return
	}
	if err := s.ensureLive(id, entry); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	sess := entry.sess
	cell, err := sess.Dirty().ParseRefName(req.Cell)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	kind, ok := explainKinds[req.Kind]
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown kind %q", req.Kind))
		return
	}
	q := kind.query
	q.Cell = cell
	if kind.desired {
		// A null Desired would silently explain the actual repair instead.
		if q.Desired = table.ParseValue(req.Desired); q.Desired.IsNull() {
			writeError(w, http.StatusBadRequest, fmt.Errorf("kind %s needs a non-null desired value", req.Kind))
			return
		}
	}
	if q.Samples = req.Samples; q.Samples <= 0 {
		q.Samples = s.ExplainSamples
	}
	if q.K = req.K; q.K <= 0 {
		q.K = 5
	}
	q.Seed, q.Workers = req.Seed, s.Workers
	report, err := sess.Explainer().Explain(ctx, q)
	if err != nil {
		if ctx.Err() != nil {
			writeError(w, http.StatusRequestTimeout, err)
			return
		}
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	send(w, http.StatusOK, explainAnswer(report))
}

type editRequest struct {
	// SetCell + Value edit one table cell (paper notation).
	SetCell string `json:"setCell"`
	Value   string `json:"value"`
	// InsertRow appends one row; fields are parsed like CSV cells.
	InsertRow []string `json:"insertRow"`
	// DeleteRow removes one row by 1-based index (matching the tuple
	// numbering of violations and cell notation). The table's swap-delete
	// rule applies: the last row takes the vacated index, and the session
	// history line names the remap.
	DeleteRow *int `json:"deleteRow"`
	// Batch applies several ops under one table generation.
	Batch []batchOpJSON `json:"batch"`
	// RemoveDC removes a constraint by ID.
	RemoveDC string `json:"removeDC"`
	// AddDC parses and adds a constraint.
	AddDC string `json:"addDC"`
}

// batchOpJSON is one wire-form batch operation. Rows are 1-based and
// address the table as it stands when the op runs (earlier ops in the
// same batch shift them); columns go by attribute name, so a set can
// target a row inserted earlier in the same batch, which the t<row>[...]
// parser (bounds-checked against the pre-batch table) could not express.
type batchOpJSON struct {
	Op     string   `json:"op"`               // "set", "insert" or "delete"
	Row    int      `json:"row,omitempty"`    // set, delete: 1-based row
	Col    string   `json:"col,omitempty"`    // set: attribute name
	Value  string   `json:"value,omitempty"`  // set: new value
	Values []string `json:"values,omitempty"` // insert: the new row's fields
}

// batchOps converts the wire ops into core batch ops; bounds are
// validated by Session.ApplyBatch against the simulated row count.
func batchOps(sess *core.Session, ops []batchOpJSON) ([]core.BatchOp, error) {
	out := make([]core.BatchOp, 0, len(ops))
	for i, op := range ops {
		switch op.Op {
		case string(core.BatchSet):
			col, ok := sess.Dirty().Schema().Index(op.Col)
			if !ok {
				return nil, fmt.Errorf("batch op %d: no attribute %q", i, op.Col)
			}
			out = append(out, core.BatchOp{
				Kind:  core.BatchSet,
				Ref:   table.CellRef{Row: op.Row - 1, Col: col},
				Value: table.ParseValue(op.Value),
			})
		case string(core.BatchInsert):
			vals := make([]table.Value, len(op.Values))
			for j, f := range op.Values {
				vals[j] = table.ParseValue(f)
			}
			out = append(out, core.BatchOp{Kind: core.BatchInsert, Vals: vals})
		case string(core.BatchDelete):
			out = append(out, core.BatchOp{Kind: core.BatchDelete, Row: op.Row - 1})
		default:
			return nil, fmt.Errorf("batch op %d: unknown op %q", i, op.Op)
		}
	}
	return out, nil
}

func (s *Server) handleEdit(w http.ResponseWriter, r *http.Request) {
	id, entry, err := s.session(r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	var req editRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	entry.mu.Lock()
	defer entry.mu.Unlock()
	defer s.guard(w, id, entry)()
	if checkQuarantine(w, entry) {
		return
	}
	if err := s.ensureLive(id, entry); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	sess := entry.sess
	switch {
	case req.SetCell != "":
		ref, err := sess.Dirty().ParseRefName(req.SetCell)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if err := sess.SetCell(ref, table.ParseValue(req.Value)); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	case req.InsertRow != nil:
		vals := make([]table.Value, len(req.InsertRow))
		for j, f := range req.InsertRow {
			vals[j] = table.ParseValue(f)
		}
		if err := sess.InsertRow(vals); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	case req.DeleteRow != nil:
		if err := sess.DeleteRow(*req.DeleteRow - 1); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	case req.Batch != nil:
		ops, err := batchOps(sess, req.Batch)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if err := sess.ApplyBatch(ops); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	case req.RemoveDC != "":
		if err := sess.RemoveDC(req.RemoveDC); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	case req.AddDC != "":
		if err := sess.AddDC(req.AddDC); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty edit"))
		return
	}
	send(w, http.StatusOK, entry.enc.session(id, sess))
}

type ingestResponse struct {
	Appended int         `json:"appended"`
	Session  sessionJSON `json:"session"`
}

// handleIngest streams a raw CSV request body (header matching the
// session schema, then data rows) into the session's dirty table as one
// batch bracket: rows are decoded and appended straight off the wire
// without buffering the document, the whole ingest shares one table
// generation, and incremental consumers replay it as a single structural
// delta. MaxBodyBytes still bounds the stream (limitBody wraps every
// route). A mid-stream decode error leaves the already-appended prefix
// applied — the response is an error, but the appended count in the
// session history records the partial ingest.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	id, entry, err := s.session(r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	entry.mu.Lock()
	defer entry.mu.Unlock()
	defer s.guard(w, id, entry)()
	if checkQuarantine(w, entry) {
		return
	}
	if err := s.ensureLive(id, entry); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	sess := entry.sess
	n, err := sess.IngestCSV(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("after %d rows: %w", n, err))
		return
	}
	send(w, http.StatusOK, entry.enc.ingest(n, id, sess))
}

// ListenAndServe runs the server until the context is cancelled, then
// drains: it stops accepting, gives in-flight requests drainTimeout to
// finish (their computation contexts are cancelled with the base context,
// so cooperative cancellation ends them promptly), snapshots every live
// session to the spool, and returns nil — the clean-exit half of the
// SIGTERM contract (cmd/trex-server turns that nil into exit code 0).
//
// The listener carries conservative timeouts so one slow or stuck client
// cannot pin a connection forever: header reads, whole-request reads and
// idle keep-alives are each bounded.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
		// Request handlers observe the serve context: Shutdown cancels it
		// after the drain deadline, releasing any still-running computation.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	if err := s.LoadSpool(); err != nil {
		return fmt.Errorf("loading spool: %w", err)
	}
	errCh := make(chan error, 1)
	//lint:allow ctxflow the listener goroutine is reaped through ctx.Done below: Shutdown/Close unblock ListenAndServe
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			// Deadline hit: force-close the stragglers; their computations
			// die with the base context. Drain still runs — idle sessions
			// must not lose state because one request hung.
			_ = srv.Close()
		}
		return s.Drain()
	}
}
