package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/dc"
	"repro/internal/faults"
	"repro/internal/repair"
	"repro/internal/table"
)

// cacheState is everything observable about a session's shared caches —
// the quantities the no-partial-work-poisoning invariant is stated over.
type cacheState struct {
	coalLen     int
	coalFp      uint64
	repairLen   int
	idleHelpers int
}

func captureState(s *Session) cacheState {
	return cacheState{
		coalLen:     s.Engine().Cache().Len(),
		coalFp:      s.Engine().Cache().Fingerprint(),
		repairLen:   s.Engine().RepairTargets().Len(),
		idleHelpers: s.Engine().Pool().IdleHelpers(),
	}
}

// newRobustnessSession builds the standard fixture session with a parallel
// engine so the worker-start and cache-store sites fire.
func newRobustnessSession(t *testing.T) (*Session, table.CellRef) {
	t.Helper()
	ll := data.NewLaLiga()
	sess, err := NewSessionWith(repair.NewAlgorithm1(), ll.DCs, ll.Dirty, SessionOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	return sess, ll.CellOfInterest
}

func cellOpts() CellExplainOptions {
	return CellExplainOptions{Samples: 64, Workers: 4, Seed: 42}
}

// newWideRobustnessSession is newRobustnessSession over wideLaLiga, whose
// unrestricted cell explain has more players than a packed coalition
// word: its sampled explain runs unbound and is memoized whole.
func newWideRobustnessSession(t *testing.T) (*Session, table.CellRef) {
	t.Helper()
	ll := data.NewLaLiga()
	sess, err := NewSessionWith(repair.NewAlgorithm1(), ll.DCs, wideLaLiga(t), SessionOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	return sess, ll.CellOfInterest
}

// TestAbortThenRerunGolden is the tentpole invariant, stated per
// cancellation site: an explain aborted by a fault scheduled at any site
// must leave every shared structure bit-identical to the run never having
// started, and a clean rerun on the same session must answer bit-identically
// to a never-faulted reference session. It runs over a narrow roster
// (coalition values stored and undo-logged per coalition) and, under "wide/", over a wide
// one (estimates staged in the Memo).
func TestAbortThenRerunGolden(t *testing.T) {
	ctx := context.Background()
	fixtures := []struct {
		prefix string
		open   func(*testing.T) (*Session, table.CellRef)
	}{
		{"", newRobustnessSession},
		{"wide/", newWideRobustnessSession},
	}
	for _, fx := range fixtures {
		abortThenRerun(t, ctx, fx.prefix, fx.open)
	}
}

func abortThenRerun(t *testing.T, ctx context.Context, prefix string, open func(*testing.T) (*Session, table.CellRef)) {
	// Reference: a clean run on a never-faulted session.
	refSess, cell := open(t)
	want, err := refSess.Explainer().ExplainCells(ctx, cell, cellOpts())
	if err != nil {
		t.Fatal(err)
	}

	for _, site := range []faults.Site{faults.SiteWorkerStart, faults.SiteCacheStore} {
		for _, ordinal := range []int{1, 2, 5} {
			t.Run(prefix+string(site)+"/ordinal-"+string(rune('0'+ordinal)), func(t *testing.T) {
				sess, cell := open(t)
				pre := captureState(sess)

				cctx, cancel := context.WithCancel(ctx)
				defer cancel()
				inj := faults.NewInjector(faults.Rule{Site: site, Ordinal: ordinal, Kind: faults.KindCancel}).
					OnCancel(cancel)
				deactivate := faults.Activate(inj)
				_, aerr := sess.Explainer().ExplainCells(cctx, cell, cellOpts())
				deactivate()

				// Whether the run aborts depends on scheduling: the cancel
				// can land after the last checkpoint, in which case the run
				// commits cleanly (also correct). What may never happen is
				// a *failed* run leaving partial state.
				if aerr != nil {
					if !errors.Is(aerr, context.Canceled) {
						t.Fatalf("aborted explain error = %v, want context.Canceled", aerr)
					}
					post := captureState(sess)
					if post != pre {
						t.Fatalf("aborted explain left partial state: pre=%+v post=%+v", pre, post)
					}
				} else if len(inj.Fired()) == 0 && ordinal <= 2 {
					t.Fatalf("site %s ordinal %d never visited", site, ordinal)
				}

				got, rerr := sess.Explainer().ExplainCells(ctx, cell, cellOpts())
				if rerr != nil {
					t.Fatalf("rerun after abort: %v", rerr)
				}
				sameReports(t, "rerun after abort at "+string(site), got, want)
			})
		}
	}
}

// TestSerialAbortIsDeterministic pins one case where the abort *must*
// happen: the exact constraint enumeration runs on the caller, so a cancel
// fired at an early cache store is always observed by a later coalition's
// context checkpoint. The aborted session must be pristine and a rerun
// bit-identical to a never-faulted reference.
func TestSerialAbortIsDeterministic(t *testing.T) {
	ctx := context.Background()
	refSess, cell := newRobustnessSession(t)
	want, err := refSess.Explainer().ExplainConstraints(ctx, cell)
	if err != nil {
		t.Fatal(err)
	}

	sess, cell := newRobustnessSession(t)
	pre := captureState(sess)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Ordinal 2: after the repair-target store (ordinal 1), the first
	// coalition-value store trips the cancel; the enumeration has more
	// coalitions to visit, so the checkpoint always fires.
	inj := faults.NewInjector(faults.Rule{Site: faults.SiteCacheStore, Ordinal: 2, Kind: faults.KindCancel}).
		OnCancel(cancel)
	deactivate := faults.Activate(inj)
	_, aerr := sess.Explainer().ExplainConstraints(cctx, cell)
	deactivate()
	if len(inj.Fired()) == 0 {
		t.Fatal("cache-store rule must fire during the enumeration")
	}
	if !errors.Is(aerr, context.Canceled) {
		t.Fatalf("aborted explain error = %v, want context.Canceled", aerr)
	}
	if post := captureState(sess); post != pre {
		t.Fatalf("aborted explain left partial state: pre=%+v post=%+v", pre, post)
	}
	got, err := sess.Explainer().ExplainConstraints(ctx, cell)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "serial abort rerun", got, want)
}

// TestAbortDuringTargetResolution aborts while the underlying repair (the
// target-resolution phase, before any sampling) is running: the staged
// repair diff must be dropped with everything else.
func TestAbortDuringTargetResolution(t *testing.T) {
	sess, cell := newRobustnessSession(t)
	pre := captureState(sess)
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The repair-target diff store is the first SiteCacheStore visit of a
	// cold session's explain.
	inj := faults.NewInjector(faults.Rule{Site: faults.SiteCacheStore, Ordinal: 1, Kind: faults.KindCancel}).
		OnCancel(cancel)
	deactivate := faults.Activate(inj)
	_, aerr := sess.Explainer().ExplainConstraints(cctx, cell)
	deactivate()
	if len(inj.Fired()) == 0 {
		t.Fatal("cache-store rule must fire during target resolution")
	}
	// The cancel lands *at* the store; whether this run still completes
	// depends on where the next checkpoint is, but partial state must
	// never survive a failure.
	if aerr != nil {
		if post := captureState(sess); post != pre {
			t.Fatalf("aborted target resolution left partial state: pre=%+v post=%+v", pre, post)
		}
	}

	// Golden rerun against a fresh-engine explainer (the canonical result).
	got, err := sess.Explainer().ExplainConstraints(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	ll := data.NewLaLiga()
	exp, err := NewExplainer(repair.NewAlgorithm1(), ll.DCs, ll.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.ExplainConstraints(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	sameReports(t, "constraints after aborted target resolution", got, want)
}

// TestPanicDuringExplainPropagatesAndLeavesNoTrace: an induced panic on a
// fan-out worker must re-raise on the caller (for the server's per-request
// recovery to quarantine), release every pool slot, and leave the shared
// caches pristine — after which the session still answers correctly.
func TestPanicDuringExplainPropagatesAndLeavesNoTrace(t *testing.T) {
	ctx := context.Background()
	refSess, cell := newRobustnessSession(t)
	want, err := refSess.Explainer().ExplainCells(ctx, cell, cellOpts())
	if err != nil {
		t.Fatal(err)
	}

	sess, cell := newRobustnessSession(t)
	pre := captureState(sess)
	inj := faults.NewInjector(faults.Rule{Site: faults.SiteWorkerStart, Ordinal: 2, Kind: faults.KindPanic})
	deactivate := faults.Activate(inj)
	func() {
		defer deactivate()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("injected worker panic must propagate to the caller")
			}
			var ip *faults.InjectedPanic
			if err, ok := r.(error); !ok || !errors.As(err, &ip) {
				t.Fatalf("recovered %T %v, want a wrapped *faults.InjectedPanic", r, r)
			}
		}()
		_, _ = sess.Explainer().ExplainCells(ctx, cell, cellOpts())
	}()

	if post := captureState(sess); post != pre {
		t.Fatalf("panicked explain left partial state: pre=%+v post=%+v", pre, post)
	}
	got, err := sess.Explainer().ExplainCells(ctx, cell, cellOpts())
	if err != nil {
		t.Fatalf("rerun after panic: %v", err)
	}
	sameReports(t, "rerun after injected panic", got, want)
}

// TestCommittedExplainWarmsNextRun guards the other half of the contract:
// transactions must not tax the success path — a completed explain still
// publishes its coalition values, so the repeat explain is pure hits.
func TestCommittedExplainWarmsNextRun(t *testing.T) {
	ctx := context.Background()
	sess, cell := newRobustnessSession(t)
	if _, err := sess.Explainer().ExplainConstraints(ctx, cell); err != nil {
		t.Fatal(err)
	}
	if sess.Engine().Cache().Len() == 0 {
		t.Fatal("committed explain must publish coalition values")
	}
	_, misses1 := sess.Engine().CacheStats()
	if _, err := sess.Explainer().ExplainConstraints(ctx, cell); err != nil {
		t.Fatal(err)
	}
	_, misses2 := sess.Engine().CacheStats()
	if misses2 != misses1 {
		t.Fatalf("repeat explain missed the shared cache: %d -> %d", misses1, misses2)
	}
}

// TestEditReplayOverrunDegradesIdentically: a forced edit-log overrun must
// push the live violation index onto its full-rebuild fallback, and the
// rebuilt answers must be bit-identical to the incremental path's.
func TestEditReplayOverrunDegradesIdentically(t *testing.T) {
	// Workers 1 keeps the full-derivation fallback serial and deterministic.
	ll := data.NewLaLiga()
	c := ll.DCs[0]
	mk := func() (*dc.LiveViolationSet, *table.Table) {
		live := dc.NewLiveViolationSet()
		live.Workers = 1
		return live, ll.Dirty.Clone()
	}
	edit := func(tbl *table.Table) { tbl.Set(ll.CellOfInterest.Row, ll.CellOfInterest.Col, table.String("X")) }
	query := func(live *dc.LiveViolationSet, tbl *table.Table) []string {
		vs, err := live.Append(c, tbl, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, 0, len(vs))
		for _, v := range vs {
			out = append(out, fmt.Sprintf("%s:%d,%d", v.Constraint.ID, v.Row1, v.Row2))
		}
		return out
	}

	// Incremental path: materialize, edit, replay.
	incLive, incTbl := mk()
	query(incLive, incTbl)
	edit(incTbl)
	wantV := query(incLive, incTbl)

	// Overrun-degraded path: the replay attempt is declined and every list
	// is re-derived from scratch.
	degLive, degTbl := mk()
	query(degLive, degTbl)
	inj := faults.NewInjector(
		faults.Rule{Site: faults.SiteEditReplay, Ordinal: 1, Kind: faults.KindOverrun},
	)
	deactivate := faults.Activate(inj)
	edit(degTbl)
	gotV := query(degLive, degTbl)
	deactivate()
	if len(inj.Fired()) == 0 {
		t.Fatal("overrun rule must fire on the post-edit sync")
	}
	if len(gotV) != len(wantV) {
		t.Fatalf("degraded violations: %d vs %d", len(gotV), len(wantV))
	}
	for i := range gotV {
		if gotV[i] != wantV[i] {
			t.Fatalf("degraded violation %d: %s vs %s", i, gotV[i], wantV[i])
		}
	}
}

// TestWorkerSlotsReleasedOnAbort pins the slot-leak regression: any number
// of aborted parallel explains must return every helper slot to the pool.
func TestWorkerSlotsReleasedOnAbort(t *testing.T) {
	sess, cell := newRobustnessSession(t)
	idle := sess.Engine().Pool().IdleHelpers()
	for i := 0; i < 5; i++ {
		cctx, cancel := context.WithCancel(context.Background())
		inj := faults.NewInjector(faults.Rule{Site: faults.SiteWorkerStart, Ordinal: 1, Kind: faults.KindCancel}).
			OnCancel(cancel)
		deactivate := faults.Activate(inj)
		_, _ = sess.Explainer().ExplainCells(cctx, cell, cellOpts())
		deactivate()
		cancel()
		if got := sess.Engine().Pool().IdleHelpers(); got != idle {
			t.Fatalf("iteration %d: %d idle helpers, want %d (slot leak)", i, got, idle)
		}
	}
}

// TestBeginIsReentrant: nested entry points must join the outer
// transaction — exactly one commit, no double publication, no deadlock.
func TestBeginIsReentrant(t *testing.T) {
	sess, cell := newRobustnessSession(t)
	e := sess.Explainer()
	owned := e.begin()
	if !owned || !e.entryOpen {
		t.Fatal("begin must open an entry point on an engine-backed explainer")
	}
	if e.txn != nil {
		t.Fatal("the txn must be lazy: no allocation before the first store")
	}
	if e.liveTxn() == nil || e.txn == nil {
		t.Fatal("liveTxn must create the txn inside an open entry point")
	}
	inner := e.begin()
	if inner {
		t.Fatal("nested begin must join the outer entry point, not own one")
	}
	var err error
	e.finishEntry(inner, &err) // no-op: must not commit or clear the outer txn
	if e.txn == nil || !e.entryOpen {
		t.Fatal("inner finisher must not tear down the outer txn")
	}
	e.finishEntry(owned, &err)
	if e.txn != nil || e.entryOpen {
		t.Fatal("outer finisher must clear the txn")
	}
	if e.liveTxn() != nil {
		t.Fatal("liveTxn outside an entry point must stay nil")
	}
	// And the real nested path: Target inside ExplainConstraints.
	if _, err := e.ExplainConstraints(context.Background(), cell); err != nil {
		t.Fatal(err)
	}
	if e.txn != nil || e.entryOpen {
		t.Fatal("entry point must leave no dangling txn")
	}
}

// TestConcurrentExplainAbortKeepsSoloCache: two explainers of one session
// explain the same cell at once, and a cancel scheduled at a cache store
// aborts one of them. Coalition values go straight into the shared cache,
// so the other run may read values the aborted run stored and never
// committed. That is sound because a value is stored only after its
// evaluation returned without error: the surviving run must answer
// exactly as a solo run, and the cache must end exactly as a solo run
// leaves it.
func TestConcurrentExplainAbortKeepsSoloCache(t *testing.T) {
	ctx := context.Background()
	opts := CellExplainOptions{Samples: 64, Workers: 2, Seed: 42}
	open := func() (*Session, table.CellRef) {
		ll := data.NewLaLiga()
		sess, err := NewSessionWith(repair.NewAlgorithm1(), ll.DCs, ll.Dirty, SessionOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return sess, ll.CellOfInterest
	}
	solo, cell := open()
	want, err := solo.Explainer().ExplainCells(ctx, cell, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantReport, wantFp := fmt.Sprintf("%+v", *want), solo.Engine().Cache().Fingerprint()

	for _, ordinal := range []int{1, 2, 5, 20, 80} {
		t.Run(fmt.Sprintf("ordinal-%d", ordinal), func(t *testing.T) {
			sess, cell := open()
			doomed, survivor := sess.Explainer(), sess.Explainer()
			cctx, cancel := context.WithCancel(ctx)
			defer cancel()
			inj := faults.NewInjector(faults.Rule{Site: faults.SiteCacheStore, Ordinal: ordinal, Kind: faults.KindCancel}).
				OnCancel(cancel)
			deactivate := faults.Activate(inj)
			var (
				wg       sync.WaitGroup
				abortErr error
				got      *Report
				gotErr   error
			)
			start := make(chan struct{})
			wg.Add(2)
			go func() {
				defer wg.Done()
				<-start
				_, abortErr = doomed.ExplainCells(cctx, cell, opts)
			}()
			go func() {
				defer wg.Done()
				<-start
				got, gotErr = survivor.ExplainCells(ctx, cell, opts)
			}()
			close(start)
			wg.Wait()
			deactivate()

			if abortErr != nil && !errors.Is(abortErr, context.Canceled) {
				t.Fatalf("aborted explain error = %v, want context.Canceled", abortErr)
			}
			if gotErr != nil {
				t.Fatalf("surviving explain: %v", gotErr)
			}
			if s := fmt.Sprintf("%+v", *got); s != wantReport {
				t.Fatalf("surviving report differs from a solo run:\n got %s\nwant %s", s, wantReport)
			}
			if fp := sess.Engine().Cache().Fingerprint(); fp != wantFp {
				t.Fatalf("cache fingerprint %x after the pair, want the solo run's %x (aborted: %v)", fp, wantFp, abortErr != nil)
			}
		})
	}
}
