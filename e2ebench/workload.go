package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/data"
	"repro/internal/table"
)

// The operation types a round is made of. Each names the end-to-end
// latency metric its requests are reported under; setup is measured
// separately, before the timed phase.
const (
	opSetup      = "setup"
	opExplain    = "explain"
	opReexplain  = "reexplain"
	opEdit       = "edit"
	opViolations = "violations"
	opRepair     = "repair"
)

// opKinds lists the timed operation types in report order.
var opKinds = []string{opExplain, opReexplain, opEdit, opViolations, opRepair}

// tailPct is the percentile reported as <op>.tail_ms. A 50-second run
// leaves more than ten samples of every operation above p95, but p90 and
// p95 moved by a quarter or more from run to run: the small requests'
// upper tail is a mix of modes (requests overlapping a garbage
// collection after an explain, the first violations after a constraint
// edit, a session's growing history), and a high percentile falls where
// one of them thins out. p75 lies inside the main mode of every
// operation on both workloads.
const tailPct = 75

// editRequest is the wire form of POST /edit. The direct sides
// interpret the same value the way the handler does, so both sides of a
// run execute one schedule.
type editRequest struct {
	SetCell   string   `json:"setCell,omitempty"`
	Value     string   `json:"value,omitempty"`
	InsertRow []string `json:"insertRow,omitempty"`
	DeleteRow *int     `json:"deleteRow,omitempty"`
	RemoveDC  string   `json:"removeDC,omitempty"`
	AddDC     string   `json:"addDC,omitempty"`
}

// explainRequest is the wire form of POST /explain.
type explainRequest struct {
	Cell    string `json:"cell"`
	Kind    string `json:"kind"`
	Samples int    `json:"samples,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
}

// op is one scheduled request. kind is the metric it reports under;
// exactly one of the request fields is set (none for violations and
// repair).
type op struct {
	kind    string
	explain *explainRequest
	edit    *editRequest
	// removeTop and addBack are resolved when the op runs: remove the
	// top-ranked constraint of the last explain answer, and add the last
	// removed constraint back.
	removeTop, addBack bool
}

// fixture is everything a workload's seed generates: the inputs the
// program receives and the fixed edit values of the schedule. Nothing in
// it is computed by the program under test.
type fixture struct {
	seed int64
	rows int
	csv  string
	dcs  string
	// dcText maps a constraint ID to its text, for adding it back.
	dcText map[string]string
	// createBody is the prebuilt POST /api/session body.
	createBody []byte
	// dirty is the generated dirty table; the schedule reads league
	// membership and values from it.
	dirty *table.Table
	// injections are the injected errors.
	injections []data.Injection
}

// workload is one benchmark traffic mix: a table size and a round
// schedule. Every round issues the same operation types in the same
// counts whatever the seed (see secondSeedCheck).
type workload struct {
	name           string
	leagues, teams int
	// sessionRounds is how many rounds a session lasts before the analyst
	// opens a new one. A session's history grows with every edit and the
	// server echoes it, so without a limit the cost of a round would grow
	// with the number of rounds a run gets through, and so with the speed
	// of the machine.
	sessionRounds int
	// procs is the GOMAXPROCS the workload runs at; 0 keeps Go's default,
	// the number of CPUs.
	procs int
	round func(s *schedule, r int) []op
}

// explain-cells runs at the number of CPUs, as a server with default
// settings does, so the sampler fans coalitions out over the engine's
// pool. In four 30-second runs on a 2-vCPU share of a busy host, its
// median explain moved between 91 and 108 ms at GOMAXPROCS=1 and within
// 75-77 ms at GOMAXPROCS=2, and its small requests' medians spread half
// as much.
//
// edit-loop runs at GOMAXPROCS=1, so the engine's pool runs its tasks
// inline. Its requests are short, and in three 30-second runs each on the
// same host GOMAXPROCS=2 made them about 40% slower and their spread two
// to three times as wide, most likely from handing every request over
// between the client's and the server's goroutines on two CPUs.
var workloads = []*workload{
	{name: "explain-cells", leagues: 4, teams: 12, sessionRounds: 64, round: explainCellsRound},
	{name: "edit-loop", leagues: 8, teams: 24, sessionRounds: 128, procs: 1, round: editLoopRound},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// errorSeed is the first injection seed tried; see newFixture.
const errorSeed = 1

// newFixture generates the workload's inputs: a soccer standings table
// from seed with 2% of its City and Country cells corrupted by
// data.Inject, and the paper's four constraints.
//
// The seed generates the table (each league's final places) and picks
// the explain seeds; the injected errors are the same cells, with the
// same dirty values, for every seed. At 2% of 48 or 192 rows there are
// 1 or 7 errors, and drawing them per seed made the repair work per
// round differ by a quarter or more from seed to seed, more than the
// metrics' bounds: the work depends on which leagues the errors share
// and on how the black box breaks ties between them. The injection seed
// is the first of errorSeed, errorSeed+1e6, ... whose errors hit Country
// in half of the cells (rounded up): a Country error always violates C3
// and is repaired, while a corrupted City may agree with every
// constraint.
func newFixture(w *workload, seed int64) (*fixture, error) {
	clean := data.GenerateSoccer(data.SoccerConfig{Leagues: w.leagues, TeamsPerLeague: w.teams, Seed: seed})
	country := clean.Schema().MustIndex("Country")
	var (
		dirty *table.Table
		inj   []data.Injection
		err   error
	)
	for k := int64(0); ; k++ {
		if k == 1000 {
			return nil, fmt.Errorf("no injection seed gives the error mix")
		}
		dirty, inj, err = data.Inject(clean, data.InjectSpec{Rate: 0.02, Columns: []string{"City", "Country"}, Seed: errorSeed + k*1_000_000})
		if err != nil {
			return nil, fmt.Errorf("injecting errors: %w", err)
		}
		if countCol(inj, country) == (len(inj)+1)/2 {
			break
		}
	}
	var csvBuf bytes.Buffer
	if err := dirty.WriteCSV(&csvBuf); err != nil {
		return nil, fmt.Errorf("writing CSV: %w", err)
	}
	fx := &fixture{
		seed:       seed,
		rows:       dirty.NumRows(),
		csv:        csvBuf.String(),
		dcText:     make(map[string]string),
		dirty:      dirty,
		injections: inj,
	}
	var lines []string
	for _, c := range data.SoccerDCs() {
		lines = append(lines, c.String())
		fx.dcText[c.ID] = c.String()
	}
	fx.dcs = strings.Join(lines, "\n")
	fx.createBody, err = json.Marshal(map[string]string{"csv": fx.csv, "dcs": fx.dcs, "algorithm": "algorithm1"})
	if err != nil {
		return nil, err
	}
	return fx, nil
}

func countCol(inj []data.Injection, col int) int {
	n := 0
	for _, in := range inj {
		if in.Ref.Col == col {
			n++
		}
	}
	return n
}

// schedule is a workload's rounds for one fixture and one first screen:
// the repaired cells the first repair reported, which is what the analyst
// picks cells of interest from.
type schedule struct {
	w  *workload
	fx *fixture
	// rotation is the cells explained in turn (explain-cells) or the one
	// cell of interest (edit-loop).
	rotation []string
	// toggle is the Country cell edit-loop flips between its clean and a
	// dirty value; rename is the City cell of the same row, which
	// explain-cells renames and restores.
	toggle          string
	toggleClean     string
	toggleDirty     string
	rename          string
	renameClean     string
	insertRow       []string
	explainSeedBase int64
}

// newSchedule fixes a run's choices from the fixture and the first
// screen's repaired cells; every seed picks the same cells.
func newSchedule(w *workload, fx *fixture, repaired []string) (*schedule, error) {
	s := &schedule{w: w, fx: fx, explainSeedBase: fx.seed * 1_000_003}
	t := fx.dirty
	league := t.Schema().MustIndex("League")
	country := t.Schema().MustIndex("Country")
	if len(repaired) == 0 {
		return nil, fmt.Errorf("first repair reported no repaired cells")
	}
	interestRow := -1
	switch w.name {
	case "explain-cells":
		s.rotation = repaired
	case "edit-loop":
		// The cell of interest is the first injected Country error the
		// first repair fixed.
		isRepaired := make(map[string]bool)
		for _, c := range repaired {
			isRepaired[c] = true
		}
		for _, in := range fx.injections {
			if in.Ref.Col == country && isRepaired[t.RefName(in.Ref)] {
				s.rotation = []string{t.RefName(in.Ref)}
				interestRow = in.Ref.Row
				break
			}
		}
		if interestRow < 0 {
			return nil, fmt.Errorf("the first repair fixed no injected Country error")
		}
	}
	// The toggled cell is the Country of the first row of a league with
	// no injected error (so never the cell of interest's league); its
	// dirty value is another league's country, so the edit creates
	// violations inside that league only.
	errLeagues := make(map[string]bool)
	for _, in := range fx.injections {
		errLeagues[t.Get(in.Ref.Row, league).String()] = true
	}
	row := -1
	for r := 0; r < t.NumRows(); r++ {
		if !errLeagues[t.Get(r, league).String()] {
			row = r
			break
		}
	}
	if row < 0 {
		return nil, fmt.Errorf("no league without errors to toggle a cell in")
	}
	s.toggle = t.RefName(table.CellRef{Row: row, Col: country})
	city := t.Schema().MustIndex("City")
	s.rename = t.RefName(table.CellRef{Row: row, Col: city})
	s.renameClean = t.Get(row, city).String()
	s.toggleClean = t.Get(row, country).String()
	for r := 0; r < t.NumRows(); r++ {
		if v := t.Get(r, country).String(); !t.Get(r, league).SameContent(t.Get(row, league)) && v != s.toggleClean {
			s.toggleDirty = v
			break
		}
	}
	// The inserted row joins the toggled row's league as a new, consistent
	// team with a place no other team holds.
	r := t.Row(row)
	s.insertRow = []string{"Team-new", "City-new", r[2].String(), r[3].String(), r[4].String(), strconv.Itoa(w.teams + 1)}
	return s, nil
}

func (s *schedule) explainSeed(r int) int64 { return s.explainSeedBase + int64(r) + 1 }

func setCell(ref, value string) op {
	return op{kind: opEdit, edit: &editRequest{SetCell: ref, Value: value}}
}

// renamedCity is the City explain-cells gives the renamed cell. Generated
// cities are City-<league>-<team>, so no other row holds this one and the
// renamed cell violates no constraint.
const renamedCity = "City-renamed"

// explainCellsRound: explain one repaired cell's cells with a fresh
// seed, repeat it (served from the coalition cache), then rename a city
// in a row without errors, look at the violations and the repair, and
// restore the name, so every explain sees the start table's contents.
// Neither edit creates a violation, so both cost about the same and
// edit.p50_ms sits inside one mode rather than between two.
func explainCellsRound(s *schedule, r int) []op {
	req := &explainRequest{Cell: s.rotation[r%len(s.rotation)], Kind: "cells", Samples: 16, Seed: s.explainSeed(r)}
	return []op{
		{kind: opExplain, explain: req},
		{kind: opReexplain, explain: req},
		setCell(s.rename, renamedCity),
		{kind: opViolations},
		{kind: opRepair},
		setCell(s.rename, s.renameClean),
	}
}

// editLoopRound is the paper's debugging loop: edit, look at the
// violations, explain the cell of interest, look again (cache-served),
// repair, and undo the edit. Every 4th round also adds and removes a row;
// every 8th also removes the top-ranked constraint, repairs, and adds it
// back.
//
// The edit is undone in the same round, so every explain, violations
// and repair request sees the same table: explains of the dirty and the
// clean table differ by half, and a schedule alternating them would put
// explain.p50_ms in the gap between two modes.
func editLoopRound(s *schedule, r int) []op {
	ops := []op{setCell(s.toggle, s.toggleDirty)}
	if r%4 == 3 {
		del := s.fx.rows + 1
		ops = append(ops,
			op{kind: opEdit, edit: &editRequest{InsertRow: s.insertRow}},
			op{kind: opEdit, edit: &editRequest{DeleteRow: &del}})
	}
	req := &explainRequest{Cell: s.rotation[0], Kind: "constraints"}
	ops = append(ops,
		op{kind: opViolations},
		op{kind: opExplain, explain: req},
		op{kind: opReexplain, explain: req},
		op{kind: opRepair})
	if r%8 == 7 {
		ops = append(ops,
			op{kind: opEdit, edit: &editRequest{}, removeTop: true},
			op{kind: opRepair},
			op{kind: opEdit, edit: &editRequest{}, addBack: true})
	}
	return append(ops, setCell(s.toggle, s.toggleClean))
}

// laLigaFixture is the paper's Figure 1 table for the anchor check.
func laLigaFixture() ([]byte, string, error) {
	ll := data.NewLaLiga()
	var csvBuf bytes.Buffer
	if err := ll.Dirty.WriteCSV(&csvBuf); err != nil {
		return nil, "", err
	}
	var lines []string
	for _, c := range ll.DCs {
		lines = append(lines, c.String())
	}
	body, err := json.Marshal(map[string]string{"csv": csvBuf.String(), "dcs": strings.Join(lines, "\n"), "algorithm": "algorithm1"})
	return body, ll.Dirty.RefName(ll.CellOfInterest), err
}
