package dc

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/table"
)

// testRunner is a minimal Runner for dc-level tests (the real one is
// exec.Pool, which lives above this package).
type testRunner struct {
	workers int
	calls   atomic.Int64
}

func (r *testRunner) Workers() int { return r.workers }

func (r *testRunner) Map(tasks int, fn func(task int)) {
	r.calls.Add(1)
	var wg sync.WaitGroup
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// TestAppendViolatingGroupsMatchesIterator pins the partition exposure to
// the serial iterator: same groups, same order, same rows.
func TestAppendViolatingGroupsMatchesIterator(t *testing.T) {
	tbl := deltaTable(t, 40, 3)
	cs := liveConstraints(t)
	live := NewLiveViolationSet()
	for _, c := range cs {
		var want [][]int
		okIter, err := live.ForEachViolatingGroup(c, tbl, func(rows []int) error {
			want = append(want, append([]int(nil), rows...))
			return nil
		})
		if err != nil {
			t.Fatalf("%s: iterator: %v", c.ID, err)
		}
		got, okAppend, err := live.AppendViolatingGroups(c, tbl, nil)
		if err != nil {
			t.Fatalf("%s: append: %v", c.ID, err)
		}
		if okIter != okAppend {
			t.Fatalf("%s: ok mismatch: iterator %v, append %v", c.ID, okIter, okAppend)
		}
		if !okAppend {
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups vs iterator's %d", c.ID, len(got), len(want))
		}
		for i := range got {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("%s: group %d has %d rows, want %d", c.ID, i, len(got[i]), len(want[i]))
			}
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("%s: group %d row %d: %d vs %d", c.ID, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestAppendViolatingGroupsSmallTable: an 8-row table exposes its
// violating groups like any other, and they are exactly the join groups a
// full rescan finds violating pairs in, ascending by first violating row.
func TestAppendViolatingGroupsSmallTable(t *testing.T) {
	tbl := deltaTable(t, 8, 5)
	c := liveConstraints(t)[0]
	live := NewLiveViolationSet()
	dst := [][]int{{99}}
	got, ok, err := live.AppendViolatingGroups(c, tbl, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("a keyed constraint must expose its groups on a small table")
	}
	if len(got) < 1 || len(got[0]) != 1 || got[0][0] != 99 {
		t.Fatal("dst's prefix must be kept")
	}
	got = got[1:]

	// Reference: the groups of the rescan's violating pairs, in order of
	// each group's first violating row.
	want, err := c.Violations(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture assumption: the 8-row table violates C1")
	}
	team := tbl.Schema().MustIndex("Team")
	var wantKeys []string
	seen := map[string]bool{}
	for _, v := range want {
		k := tbl.Get(v.Row1, team).Key()
		if !seen[k] {
			seen[k] = true
			wantKeys = append(wantKeys, k)
		}
	}
	if len(got) != len(wantKeys) {
		t.Fatalf("%d groups exposed, rescan has %d violating groups", len(got), len(wantKeys))
	}
	for i, rows := range got {
		members := 0
		for r := 0; r < tbl.NumRows(); r++ {
			if tbl.Get(r, team).Key() == wantKeys[i] {
				members++
			}
		}
		if len(rows) != members {
			t.Fatalf("group %d has %d rows, want the %d rows of team %s", i, len(rows), members, wantKeys[i])
		}
		for _, r := range rows {
			if tbl.Get(r, team).Key() != wantKeys[i] {
				t.Fatalf("group %d: row %d is not in team %s", i, r, wantKeys[i])
			}
		}
	}
}

// TestDerivePoolFedMatchesAdHoc: a full derivation through a plugged-in
// Runner must produce the identical list as the ad-hoc goroutine path and
// actually route through the pool.
func TestDerivePoolFedMatchesAdHoc(t *testing.T) {
	grid := make([][]string, 4096)
	for i := range grid {
		grid[i] = []string{"g" + string(rune('a'+i%29)), "v" + string(rune('a'+i%7))}
	}
	tbl := table.MustFromStrings([]string{"G", "V"}, grid)
	c := MustParse("C1: !(t1.G = t2.G & t1.V != t2.V)")

	plain := NewLiveViolationSet()
	want, err := plain.Violations(c, tbl)
	if err != nil {
		t.Fatal(err)
	}
	pool := &testRunner{workers: 4}
	pooled := NewLiveViolationSet()
	pooled.Pool = pool
	got, err := pooled.Violations(c, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("pooled derivation: %d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Row1 != want[i].Row1 || got[i].Row2 != want[i].Row2 {
			t.Fatalf("pair %d: (%d,%d) vs (%d,%d)", i, got[i].Row1, got[i].Row2, want[i].Row1, want[i].Row2)
		}
	}
	if pool.calls.Load() == 0 {
		t.Fatal("large derivation must route through the plugged-in pool")
	}
}
