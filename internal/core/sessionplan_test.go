package core

import (
	"context"
	"testing"

	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/repair"
)

// TestSessionPlanLifecycle pins the plan-cache wiring: a session compiles
// one plan at construction, memoizes it in the engine's plan cache, and
// recompiles (through InvalidateCache, which drops the cache wholesale)
// on every constraint edit — so the session's compiled plan can never go
// stale against its DC set.
func TestSessionPlanLifecycle(t *testing.T) {
	s := newSession(t)
	if s.plan == nil {
		t.Fatal("session has no compiled plan after construction")
	}
	if s.Explainer().Plan == nil {
		t.Fatal("Explainer not wired to the session plan")
	}
	if got := s.Engine().Plans().Len(); got != 1 {
		t.Fatalf("plan cache holds %d entries after construction, want 1", got)
	}
	old := s.plan
	// Re-deriving an explainer must reuse the memoized plan, not recompile.
	s.refreshPlan()
	if s.plan != old {
		t.Fatal("refreshPlan with unchanged DC set did not hit the plan cache")
	}
	if err := s.RemoveDC("C3"); err != nil {
		t.Fatal(err)
	}
	if s.plan == old {
		t.Fatal("RemoveDC left the compiled plan stale")
	}
	if old.FingerprintValue() == s.plan.FingerprintValue() {
		t.Fatal("constraint edit did not change the plan fingerprint")
	}
	// InvalidateCache cleared the old entry; exactly the new plan remains.
	if got := s.Engine().Plans().Len(); got != 1 {
		t.Fatalf("plan cache holds %d entries after RemoveDC, want 1", got)
	}
}

// TestSessionPlannedMatchesUnplanned pins the session surface to the
// unplanned reference: violations and repair through a planned session
// are bit-identical to a bare (engineless, planless) explainer over the
// same inputs.
func TestSessionPlannedMatchesUnplanned(t *testing.T) {
	ctx := context.Background()
	ll := data.NewLaLiga()
	for _, workers := range []int{1, 4} {
		s, err := NewSessionWith(repair.NewAlgorithm1(), ll.DCs, ll.Dirty, SessionOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewExplainer(repair.NewAlgorithm1(), ll.DCs, ll.Dirty)
		if err != nil {
			t.Fatal(err)
		}
		wantClean, wantDiffs, err := ref.Repair(ctx)
		if err != nil {
			t.Fatal(err)
		}
		gotClean, gotDiffs, err := s.Repair(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !gotClean.Equal(wantClean) {
			t.Fatalf("workers=%d: planned session repair differs from unplanned reference", workers)
		}
		if len(gotDiffs) != len(wantDiffs) {
			t.Fatalf("workers=%d: %d diffs vs %d", workers, len(gotDiffs), len(wantDiffs))
		}
		for i := range wantDiffs {
			if gotDiffs[i] != wantDiffs[i] {
				t.Fatalf("workers=%d: diff %d: %v vs %v", workers, i, gotDiffs[i], wantDiffs[i])
			}
		}
		vs, err := s.Violations()
		if err != nil {
			t.Fatal(err)
		}
		want, err := dc.AllViolations(ll.DCs, ll.Dirty)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != len(want) {
			t.Fatalf("workers=%d: planned session reports %d violations, unplanned scan %d", workers, len(vs), len(want))
		}
		for i := range want {
			if vs[i] != want[i] {
				t.Fatalf("workers=%d: violation %d: planned %v, unplanned %v", workers, i, vs[i], want[i])
			}
		}
	}
}
