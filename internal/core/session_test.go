package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/repair"
	"repro/internal/table"
)

func newSession(t *testing.T) *Session {
	t.Helper()
	ll := data.NewLaLiga()
	s, err := NewSession(repair.NewAlgorithm1(), ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionDoesNotAliasCallerTable(t *testing.T) {
	ll := data.NewLaLiga()
	s, err := NewSession(repair.NewAlgorithm1(), ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetCell(table.CellRef{Row: 0, Col: 0}, table.String("edited")); err != nil {
		t.Fatal(err)
	}
	if ll.Dirty.Get(0, 0).Equal(table.String("edited")) {
		t.Fatal("session edit leaked into caller's table")
	}
}

func TestSessionRemoveAndAddDC(t *testing.T) {
	s := newSession(t)
	if err := s.RemoveDC("C3"); err != nil {
		t.Fatal(err)
	}
	if len(s.DCs()) != 3 {
		t.Fatalf("DCs = %d", len(s.DCs()))
	}
	if err := s.RemoveDC("C3"); err == nil {
		t.Error("removing a missing DC must error")
	}
	if err := s.AddDC("C9: !(t1.Year != t2.Year & t1.League = t2.League)"); err != nil {
		t.Fatal(err)
	}
	if len(s.DCs()) != 4 {
		t.Fatalf("DCs = %d", len(s.DCs()))
	}
	if err := s.AddDC("C9: !(t1.Year = t2.Year)"); err == nil {
		t.Error("duplicate ID must error")
	}
	if err := s.AddDC("garbage"); err == nil {
		t.Error("unparsable DC must error")
	}
	if err := s.AddDC("!(t1.Nope = t2.Nope)"); err == nil {
		t.Error("unknown attribute must error")
	}
	if len(s.History) != 2 {
		t.Errorf("history = %v", s.History)
	}
}

// TestSessionAddDCUnnamedAfterRemove: an unnamed constraint takes the first
// free C<n> from len+1 up. After removing C2 of C1–C4, len+1 = 4 still
// names a surviving constraint, so the new one must become C5.
func TestSessionAddDCUnnamedAfterRemove(t *testing.T) {
	s := newSession(t)
	if err := s.RemoveDC("C2"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDC("!(t1.Year != t2.Year & t1.League = t2.League)"); err != nil {
		t.Fatalf("unnamed AddDC after RemoveDC: %v", err)
	}
	if err := s.AddDC("!(t1.Team = t2.Team & t1.Year != t2.Year)"); err != nil {
		t.Fatalf("second unnamed AddDC: %v", err)
	}
	var ids []string
	for _, c := range s.DCs() {
		ids = append(ids, c.ID)
	}
	if got, want := fmt.Sprint(ids), "[C1 C3 C4 C5 C6]"; got != want {
		t.Fatalf("constraint IDs = %s, want %s", got, want)
	}
}

func TestSessionSetCellValidation(t *testing.T) {
	s := newSession(t)
	if err := s.SetCell(table.CellRef{Row: 99, Col: 0}, table.Null()); err == nil {
		t.Error("out-of-range row must error")
	}
	if err := s.SetCell(table.CellRef{Row: 0, Col: 99}, table.Null()); err == nil {
		t.Error("out-of-range col must error")
	}
}

func TestSessionIterativeDebugLoop(t *testing.T) {
	// The §4 demo loop: explain → remove the top DC → re-repair → the
	// repair of the cell of interest changes.
	s := newSession(t)
	ll := data.NewLaLiga()
	ctx := context.Background()

	report, err := s.Explainer().ExplainConstraints(ctx, ll.CellOfInterest)
	if err != nil {
		t.Fatal(err)
	}
	top, _ := report.Top()
	if top.Name != "C3" {
		t.Fatalf("top = %s", top.Name)
	}

	beforeClean, _, err := s.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !beforeClean.GetRef(ll.CellOfInterest).Equal(table.String("Spain")) {
		t.Fatal("precondition: repaired to Spain")
	}

	if err := s.RemoveDC(top.Name); err != nil {
		t.Fatal(err)
	}
	afterClean, _, err := s.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// With C3 gone the repair still happens via {C1, C2} (their joint
	// Shapley was 1/3), so the cell is still repaired — remove C1 next and
	// the repair disappears.
	if !afterClean.GetRef(ll.CellOfInterest).Equal(table.String("Spain")) {
		t.Fatal("C1+C2 should still repair after removing C3")
	}
	if err := s.RemoveDC("C1"); err != nil {
		t.Fatal(err)
	}
	finalClean, _, err := s.Repair(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if finalClean.GetRef(ll.CellOfInterest).Equal(table.String("Spain")) {
		t.Fatal("with only {C2, C4} the cell must not be repaired")
	}
}

func TestSessionCellEditChangesExplanation(t *testing.T) {
	// Fixing t5[League] in the input (the top-ranked cell) removes the C3
	// pathway: C3's Shapley value must drop to 0.
	s := newSession(t)
	ll := data.NewLaLiga()
	ctx := context.Background()
	leagueRef, err := s.Dirty().ParseRefName("t5[League]")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetCell(leagueRef, table.String("Liga NOS")); err != nil {
		t.Fatal(err)
	}
	report, err := s.Explainer().ExplainConstraints(ctx, ll.CellOfInterest)
	if err != nil {
		t.Fatal(err)
	}
	c3, _ := report.Find("C3")
	if c3.Shapley != 0 {
		t.Errorf("after breaking the League link, Shap(C3) = %v, want 0", c3.Shapley)
	}
	top, _ := report.Top()
	if top.Name != "C1" && top.Name != "C2" {
		t.Errorf("top should become C1/C2, got %s", top.Name)
	}
}
