package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/dc"
	"repro/internal/table"
)

// The answer types are the benchmark's canonical projection of the
// server's JSON answers: the HTTP side decodes a response into one of
// them, the direct sides build the same value from the Session and
// Explainer results, and both marshal it. Equal bytes mean equal report
// entries, Shapley values, targets, repaired-cell lists, violation lists
// and tables. The session id is left out; it is the only field the two
// sides may legitimately differ in.

type tableAnswer struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

type sessionAnswer struct {
	Table   tableAnswer `json:"table"`
	DCs     []string    `json:"dcs"`
	History []string    `json:"history"`
}

type repairAnswer struct {
	Clean    tableAnswer `json:"clean"`
	Repaired []string    `json:"repaired"`
}

type violationAnswer struct {
	Constraint string `json:"constraint"`
	Row1       int    `json:"row1"`
	Row2       int    `json:"row2"`
}

type violationsAnswer struct {
	Consistent bool              `json:"consistent"`
	Violations []violationAnswer `json:"violations"`
}

type explainAnswer struct {
	Cell      string       `json:"cell"`
	Target    string       `json:"target"`
	Kind      string       `json:"kind"`
	Algorithm string       `json:"algorithm"`
	Entries   []core.Entry `json:"entries"`
}

// nonNil makes nil and empty slices marshal alike.
func nonNil[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}

func (a *sessionAnswer) normalize() {
	a.Table.Rows, a.DCs, a.History = nonNil(a.Table.Rows), nonNil(a.DCs), nonNil(a.History)
}

func (a *repairAnswer) normalize() {
	a.Clean.Rows, a.Repaired = nonNil(a.Clean.Rows), nonNil(a.Repaired)
}

// canonical decodes a server answer into v's type, normalizes it and
// re-marshals it; the result is comparable with the direct side's bytes.
func canonical[T any](body []byte, norm func(*T)) ([]byte, *T, error) {
	v := new(T)
	if err := json.Unmarshal(body, v); err != nil {
		return nil, nil, fmt.Errorf("decoding answer: %w", err)
	}
	if norm != nil {
		norm(v)
	}
	b, err := json.Marshal(v)
	return b, v, err
}

// renderTable is the server's wire form of a table: null cells render
// empty, others by Value.String.
func renderTable(t *table.Table) tableAnswer {
	out := tableAnswer{Columns: t.Schema().Names(), Rows: make([][]string, 0, t.NumRows())}
	for i := 0; i < t.NumRows(); i++ {
		row := make([]string, t.NumCols())
		for j := range row {
			if v := t.Get(i, j); !v.IsNull() {
				row[j] = v.String()
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

func renderSession(sess *core.Session) sessionAnswer {
	a := sessionAnswer{Table: renderTable(sess.Dirty()), History: append([]string(nil), sess.History...)}
	for _, c := range sess.DCs() {
		a.DCs = append(a.DCs, c.String())
	}
	a.normalize()
	return a
}

func renderRepair(sess *core.Session, clean *table.Table, diffs []table.CellDiff) repairAnswer {
	a := repairAnswer{Clean: renderTable(clean)}
	for _, d := range diffs {
		a.Repaired = append(a.Repaired, sess.Dirty().RefName(d.Ref))
	}
	a.normalize()
	return a
}

func renderViolations(vs []dc.Violation) violationsAnswer {
	a := violationsAnswer{Consistent: len(vs) == 0, Violations: []violationAnswer{}}
	for _, v := range vs {
		a.Violations = append(a.Violations, violationAnswer{Constraint: v.Constraint.ID, Row1: v.Row1 + 1, Row2: v.Row2 + 1})
	}
	return a
}

func renderExplain(r *core.Report) explainAnswer {
	return explainAnswer{Cell: r.Cell, Target: r.Target, Kind: r.Kind, Algorithm: r.Algorithm, Entries: nonNil(r.Entries)}
}

func normExplain(a *explainAnswer) { a.Entries = nonNil(a.Entries) }
