package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dc"
	"repro/internal/repair"
	"repro/internal/server"
	"repro/internal/table"
)

// result is one answered request.
type result struct {
	// lat is the request's time: the HTTP round trip including reading
	// the whole body, or the direct side's core calls.
	lat time.Duration
	// canon is the canonical answer (see answers.go).
	canon []byte
	// size is the response body's length in bytes (HTTP side).
	size int
	// top is an explain answer's top-ranked entry.
	top string
	// repaired is the set-up's first repair's repaired cells.
	repaired []string
}

// side executes a schedule against one session: over HTTP or by direct calls.
type side interface {
	setup(ctx context.Context) (result, error)
	do(ctx context.Context, o op) (result, error)
}

// httpSide talks to an in-process trex-server handler with the server
// defaults, over loopback, like the GUI does. Every set-up starts a new
// server, so the run's session is the only one the server holds, and
// opens the client's connection to it before the timed requests: an
// analyst opens a session on a server that is already running.
type httpSide struct {
	fx     *fixture
	srv    *httptest.Server
	client *http.Client
	id     string
}

func newHTTPSide(fx *fixture) *httpSide { return &httpSide{fx: fx} }

func (d *httpSide) close() {
	if d.srv != nil {
		d.client.CloseIdleConnections()
		d.srv.Close()
		d.srv = nil
	}
}

// send makes one request and reads the whole answer; a status other than
// 200 is an error.
func (d *httpSide) send(ctx context.Context, method, path, ctype string, body []byte) ([]byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, lat, fmt.Errorf("%s %s: reading answer: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return b, lat, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, lat, nil
}

func (d *httpSide) path(suffix string) string { return "/api/session/" + d.id + suffix }

func (d *httpSide) setup(ctx context.Context) (result, error) {
	d.close()
	d.srv = httptest.NewServer(server.New().Handler())
	d.client = d.srv.Client()
	if _, _, err := d.send(ctx, http.MethodGet, "/api/algorithms", "", nil); err != nil {
		return result{}, err
	}
	b1, l1, err := d.send(ctx, http.MethodPost, "/api/session", "application/json", d.fx.createBody)
	if err != nil {
		return result{}, err
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b1, &created); err != nil {
		return result{}, fmt.Errorf("decoding session: %w", err)
	}
	d.id = created.ID
	b2, l2, err := d.send(ctx, http.MethodPost, d.path("/repair"), "application/json", []byte("{}"))
	if err != nil {
		return result{}, err
	}
	b3, l3, err := d.send(ctx, http.MethodGet, d.path("/violations"), "", nil)
	if err != nil {
		return result{}, err
	}
	c1, _, err := canonical(b1, (*sessionAnswer).normalize)
	if err != nil {
		return result{}, err
	}
	c2, rep, err := canonical(b2, (*repairAnswer).normalize)
	if err != nil {
		return result{}, err
	}
	c3, _, err := canonical[violationsAnswer](b3, nil)
	if err != nil {
		return result{}, err
	}
	return result{
		lat:      l1 + l2 + l3,
		canon:    bytes.Join([][]byte{c1, c2, c3}, []byte("\n")),
		size:     len(b1) + len(b2) + len(b3),
		repaired: rep.Repaired,
	}, nil
}

func (d *httpSide) do(ctx context.Context, o op) (result, error) {
	var (
		body []byte
		lat  time.Duration
		err  error
		res  result
	)
	switch {
	case o.explain != nil:
		req, _ := json.Marshal(o.explain)
		if body, lat, err = d.send(ctx, http.MethodPost, d.path("/explain"), "application/json", req); err != nil {
			return result{}, err
		}
		var a *explainAnswer
		if res.canon, a, err = canonical(body, normExplain); err == nil && len(a.Entries) > 0 {
			res.top = a.Entries[0].Name
		}
	case o.kind == opViolations:
		if body, lat, err = d.send(ctx, http.MethodGet, d.path("/violations"), "", nil); err != nil {
			return result{}, err
		}
		res.canon, _, err = canonical[violationsAnswer](body, nil)
	case o.kind == opRepair:
		if body, lat, err = d.send(ctx, http.MethodPost, d.path("/repair"), "application/json", []byte("{}")); err != nil {
			return result{}, err
		}
		res.canon, _, err = canonical(body, (*repairAnswer).normalize)
	default:
		req, _ := json.Marshal(o.edit)
		if body, lat, err = d.send(ctx, http.MethodPost, d.path("/edit"), "application/json", req); err != nil {
			return result{}, err
		}
		res.canon, _, err = canonical(body, (*sessionAnswer).normalize)
	}
	res.lat, res.size = lat, len(body)
	return res, err
}

// directSide calls what the handlers call, in process and without
// HTTP. With a tracer it records spans around every call and, through
// the repair decorator, around every black-box run; without one it is
// the untraced baseline the server's self time is measured against.
type directSide struct {
	fx   *fixture
	alg  repair.Algorithm
	tr   *tracer
	sess *core.Session
}

func newDirectSide(fx *fixture, tr *tracer) *directSide {
	bare := repair.NewAlgorithm1()
	d := &directSide{fx: fx, alg: bare, tr: tr}
	if tr != nil {
		d.alg = &tracedRepairer{inner: bare, tr: tr}
	}
	return d
}

// call times fn, inside a span named name when tracing.
func (d *directSide) call(name string, lat *time.Duration, fn func() error) error {
	i := int32(-1)
	if d.tr != nil {
		i = d.tr.begin(name)
	}
	start := time.Now()
	err := fn()
	*lat += time.Since(start)
	if i >= 0 {
		d.tr.end(i)
	}
	return err
}

func (d *directSide) startRequest(kind string) {
	if d.tr != nil {
		d.tr.startRequest(kind, d.sess)
	}
}

func (d *directSide) finishRequest(pairs int) {
	if d.tr != nil {
		d.tr.finishRequest(d.sess, pairs)
	}
}

func (d *directSide) setup(ctx context.Context) (result, error) {
	var (
		lat   time.Duration
		tbl   *table.Table
		dcs   []*dc.Constraint
		clean *table.Table
		diffs []table.CellDiff
		vs    []dc.Violation
	)
	d.sess = nil
	d.startRequest(opSetup)
	err := d.call("table.ReadCSV", &lat, func() (err error) {
		tbl, err = table.ReadCSV(strings.NewReader(d.fx.csv))
		return err
	})
	if err == nil {
		err = d.call("dc.ParseSet", &lat, func() (err error) {
			dcs, err = dc.ParseSet(d.fx.dcs)
			return err
		})
	}
	if err == nil {
		err = d.call("core.NewSessionWith", &lat, func() (err error) {
			d.sess, err = core.NewSessionWith(d.alg, dcs, tbl, core.SessionOptions{})
			return err
		})
	}
	if err == nil {
		err = d.call("core.Repair", &lat, func() (err error) {
			clean, diffs, err = d.sess.Repair(ctx)
			return err
		})
	}
	if err == nil {
		err = d.call("core.Violations", &lat, func() (err error) {
			vs, err = d.sess.Violations()
			return err
		})
	}
	d.finishRequest(len(vs))
	if err != nil {
		return result{}, err
	}
	created := renderSession(d.sess)
	rep := renderRepair(d.sess, clean, diffs)
	var parts [][]byte
	for _, v := range []any{created, rep, renderViolations(vs)} {
		b, err := json.Marshal(v)
		if err != nil {
			return result{}, err
		}
		parts = append(parts, b)
	}
	return result{lat: lat, canon: bytes.Join(parts, []byte("\n")), repaired: rep.Repaired}, nil
}

func (d *directSide) do(ctx context.Context, o op) (result, error) {
	var lat time.Duration
	d.startRequest(o.kind)
	answer, pairs, err := d.apply(ctx, o, &lat)
	d.finishRequest(pairs)
	if err != nil {
		return result{}, err
	}
	res := result{lat: lat}
	if a, ok := answer.(explainAnswer); ok && len(a.Entries) > 0 {
		res.top = a.Entries[0].Name
	}
	res.canon, err = json.Marshal(answer)
	return res, err
}

// apply runs one op the way the server's handler does: the same parsing,
// the same Session or Explainer call, the same answer. It adds the calls'
// time to lat and returns the answer and, for violations, the pair count.
func (d *directSide) apply(ctx context.Context, o op, lat *time.Duration) (any, int, error) {
	sess := d.sess
	switch {
	case o.explain != nil:
		cell, err := sess.Dirty().ParseRefName(o.explain.Cell)
		if err != nil {
			return nil, 0, err
		}
		exp := sess.Explainer()
		var rep *core.Report
		if o.explain.Kind == "cells" {
			err = d.call("core.ExplainCells", lat, func() (err error) {
				rep, err = exp.ExplainCells(ctx, cell, core.CellExplainOptions{Samples: o.explain.Samples, Seed: o.explain.Seed})
				return err
			})
		} else {
			err = d.call("core.ExplainConstraints", lat, func() (err error) {
				rep, err = exp.ExplainConstraints(ctx, cell)
				return err
			})
		}
		if err != nil {
			return nil, 0, err
		}
		return renderExplain(rep), 0, nil
	case o.kind == opViolations:
		var vs []dc.Violation
		err := d.call("core.Violations", lat, func() (err error) {
			vs, err = sess.Violations()
			return err
		})
		return renderViolations(vs), len(vs), err
	case o.kind == opRepair:
		var clean *table.Table
		var diffs []table.CellDiff
		if err := d.call("core.Repair", lat, func() (err error) {
			clean, diffs, err = sess.Repair(ctx)
			return err
		}); err != nil {
			return nil, 0, err
		}
		return renderRepair(sess, clean, diffs), 0, nil
	}
	err := d.edit(o.edit, lat)
	return renderSession(sess), 0, err
}

// edit mirrors the edit handler's dispatch.
func (d *directSide) edit(e *editRequest, lat *time.Duration) error {
	sess := d.sess
	switch {
	case e.SetCell != "":
		ref, err := sess.Dirty().ParseRefName(e.SetCell)
		if err != nil {
			return err
		}
		return d.call("core.SetCell", lat, func() error { return sess.SetCell(ref, table.ParseValue(e.Value)) })
	case e.InsertRow != nil:
		vals := make([]table.Value, len(e.InsertRow))
		for j, f := range e.InsertRow {
			vals[j] = table.ParseValue(f)
		}
		return d.call("core.InsertRow", lat, func() error { return sess.InsertRow(vals) })
	case e.DeleteRow != nil:
		return d.call("core.DeleteRow", lat, func() error { return sess.DeleteRow(*e.DeleteRow - 1) })
	case e.RemoveDC != "":
		return d.call("core.RemoveDC", lat, func() error { return sess.RemoveDC(e.RemoveDC) })
	case e.AddDC != "":
		return d.call("core.AddDC", lat, func() error { return sess.AddDC(e.AddDC) })
	}
	return fmt.Errorf("empty edit")
}
