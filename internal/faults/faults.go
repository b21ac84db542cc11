// Package faults is the deterministic fault-injection harness of the
// robustness layer: named sites in production code report "I am about to
// do X" through package-level hooks, and a test-installed Injector decides
// — from a seeded, reproducible schedule — whether that particular visit
// fires a fault: a cooperative cancellation, an induced panic, a simulated
// slow worker, or a forced edit-log overrun.
//
// The package is a leaf (it imports nothing from this repository), so
// every layer — table, dc, exec, repair, shapley, core, server — can name
// its sites without import cycles. When no injector is active the hooks
// cost one atomic pointer load and a nil check, which keeps the
// zero-steady-state-allocation contract of the evaluation hot path intact
// (TestHitInactiveAllocFree pins this).
//
// # Determinism
//
// A Schedule maps (site, visit-ordinal) pairs to faults. Ordinals are
// per-site and count from 1, assigned under a mutex, so for a serial
// execution (Workers=1) the schedule is fully deterministic: the k-th
// visit to a site always draws the same decision. Under parallel
// execution, which goroutine observes a given ordinal may vary between
// runs, but the *set* of fired faults per site is still exactly the
// schedule's — the chaos suite asserts on degradation behavior (abort
// leaves no partial work, panics quarantine, overruns rebuild), which is
// scheduling-independent by the invariants this harness exists to prove.
package faults

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Site names one injection point in production code. Sites are stable
// identifiers: the chaos suite and the degradation-ladder documentation in
// doc.go refer to them by name.
type Site string

// The named sites of the fault model (see doc.go, "Fault model and
// degradation ladder").
const (
	// SiteWorkerStart fires when a pool helper goroutine begins claiming
	// tasks (exec.Pool.Map) and once per sampling fan-out worker, before
	// it claims its first unit (shapley.fanOut).
	SiteWorkerStart Site = "worker-start"
	// SiteBucketPartition fires per disjoint-bucket pass of a partitioned
	// repair (live-set derivations, FD-chase group fixes).
	SiteBucketPartition Site = "bucket-partition"
	// SiteCacheStore fires on stores into the session's shared caches
	// (coalition values, repair-target diffs) — the writes the
	// no-partial-work-poisoning invariant guards.
	SiteCacheStore Site = "cache-store"
	// SiteEditReplay fires where incremental consumers replay the table
	// edit log (dc.LiveViolationSet.sync); an Overrun fault forces the
	// full-recompute fallback, proving the degraded path serves identical
	// answers.
	SiteEditReplay Site = "edit-replay"
	// SiteSnapshotWrite fires around session snapshot writes to the spool
	// directory (server eviction and shutdown drain).
	SiteSnapshotWrite Site = "snapshot-write"
)

// Kind enumerates what an injected fault does.
type Kind uint8

const (
	// KindNone is the absence of a fault.
	KindNone Kind = iota
	// KindCancel invokes the injector's registered cancel function —
	// cooperative cancellation, exactly as a client disconnect or deadline
	// would deliver it.
	KindCancel
	// KindPanic panics with *InjectedPanic, exercising recovery and
	// quarantine paths.
	KindPanic
	// KindSlow sleeps for the rule's delay, simulating a straggling worker.
	KindSlow
	// KindOverrun makes Overrun() report true at the site, forcing
	// edit-log consumers onto their rebuild fallback.
	KindOverrun
	// KindError makes Err() return an *InjectedError at the site — the
	// shape of a failed I/O operation (full disk on a snapshot write),
	// which callers must degrade through, not crash on.
	KindError
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindCancel:
		return "cancel"
	case KindPanic:
		return "panic"
	case KindSlow:
		return "slow"
	case KindOverrun:
		return "overrun"
	case KindError:
		return "error"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// InjectedPanic is the panic value of a KindPanic fault, so recovery paths
// can distinguish harness-induced panics from real bugs in diagnostics.
type InjectedPanic struct {
	Site    Site
	Ordinal int
}

// Error makes the panic value render usefully when recovered into an error.
func (p *InjectedPanic) Error() string {
	return fmt.Sprintf("faults: injected panic at %s#%d", p.Site, p.Ordinal)
}

// InjectedError is the error value of a KindError fault, so degradation
// paths can distinguish harness-induced failures in diagnostics.
type InjectedError struct {
	Site    Site
	Ordinal int
}

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected error at %s#%d", e.Site, e.Ordinal)
}

// Rule schedules one fault: the Ordinal-th visit (1-based) to Site fires
// Kind. Delay applies to KindSlow.
type Rule struct {
	Site    Site
	Ordinal int
	Kind    Kind
	Delay   time.Duration
}

// Injector is one activated fault schedule plus its visit counters.
type Injector struct {
	mu     sync.Mutex
	counts map[Site]int
	rules  map[Site]map[int]Rule
	// cancel is invoked by KindCancel faults; set with OnCancel.
	cancel func()
	// fired records every fault that actually fired, in fire order.
	fired []Rule
}

// NewInjector builds an injector from explicit rules.
func NewInjector(rules ...Rule) *Injector {
	inj := &Injector{counts: make(map[Site]int), rules: make(map[Site]map[int]Rule)}
	for _, r := range rules {
		if r.Ordinal < 1 || r.Kind == KindNone {
			continue
		}
		m := inj.rules[r.Site]
		if m == nil {
			m = make(map[int]Rule)
			inj.rules[r.Site] = m
		}
		m[r.Ordinal] = r
	}
	return inj
}

// splitmix64 is the same O(1)-seed generator the sampling fan-out uses;
// the schedule derives every decision from it so equal seeds yield equal
// schedules on every platform.
func splitmix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// SeededRules derives a reproducible schedule: for each site, one fault of
// a seed-chosen kind (drawn from kinds) at a seed-chosen ordinal in
// [1, window]. The chaos suite runs a matrix of seeds through this, so the
// fired (site, ordinal, kind) triples vary across seeds but are identical
// for a repeated seed.
func SeededRules(seed int64, window int, sites []Site, kinds []Kind) []Rule {
	if window < 1 {
		window = 1
	}
	s := uint64(seed)
	// Scramble once so small consecutive seeds produce unrelated schedules.
	splitmix64(&s)
	rules := make([]Rule, 0, len(sites))
	for _, site := range sites {
		if len(kinds) == 0 {
			break
		}
		kind := kinds[splitmix64(&s)%uint64(len(kinds))]
		ord := int(splitmix64(&s)%uint64(window)) + 1
		rules = append(rules, Rule{Site: site, Ordinal: ord, Kind: kind, Delay: time.Millisecond})
	}
	return rules
}

// OnCancel registers the function KindCancel faults invoke — typically the
// CancelFunc of the context driving the run under test.
func (inj *Injector) OnCancel(cancel func()) *Injector {
	inj.mu.Lock()
	inj.cancel = cancel
	inj.mu.Unlock()
	return inj
}

// Fired returns the faults that actually fired so far, in fire order.
func (inj *Injector) Fired() []Rule {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]Rule(nil), inj.fired...)
}

// visit assigns the next ordinal for site and returns the rule scheduled
// for it, if any.
func (inj *Injector) visit(site Site) (Rule, int, bool) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.counts[site]++
	ord := inj.counts[site]
	r, ok := inj.rules[site][ord]
	if ok {
		inj.fired = append(inj.fired, r)
	}
	return r, ord, ok
}

// active is the installed injector; nil means every hook is a no-op.
var active atomic.Pointer[Injector]

// Activate installs the injector and returns a deactivation function.
// Only one injector is active at a time (tests serialize on this; the
// chaos suite never runs two schedules concurrently).
func Activate(inj *Injector) (deactivate func()) {
	active.Store(inj)
	return func() { active.CompareAndSwap(inj, nil) }
}

// Hit reports a visit to a site and fires whatever the active schedule
// planned for it: KindCancel invokes the registered cancel function (the
// production code then observes ctx.Err() at its next checkpoint),
// KindPanic panics with *InjectedPanic, KindSlow sleeps. KindOverrun does
// nothing here — overrun faults are consumed through Overrun. Inactive
// hooks cost one atomic load.
func Hit(site Site) {
	inj := active.Load()
	if inj == nil {
		return
	}
	r, ord, ok := inj.visit(site)
	if !ok {
		return
	}
	switch r.Kind {
	case KindCancel:
		inj.mu.Lock()
		cancel := inj.cancel
		inj.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	case KindPanic:
		panic(&InjectedPanic{Site: site, Ordinal: ord})
	case KindSlow:
		time.Sleep(r.Delay)
	}
}

// Err reports a visit to a fallible-operation site and returns the
// scheduled *InjectedError, if any. Non-error faults scheduled at the site
// fire exactly as in Hit, with a nil return.
func Err(site Site) error {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	r, ord, ok := inj.visit(site)
	if !ok {
		return nil
	}
	switch r.Kind {
	case KindError:
		return &InjectedError{Site: site, Ordinal: ord}
	case KindCancel:
		inj.mu.Lock()
		cancel := inj.cancel
		inj.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	case KindPanic:
		panic(&InjectedPanic{Site: site, Ordinal: ord})
	case KindSlow:
		time.Sleep(r.Delay)
	}
	return nil
}

// Overrun reports a visit to a site that consumes the edit log and returns
// true when the schedule forces the overrun fallback there. Non-overrun
// faults scheduled at the site fire exactly as in Hit.
func Overrun(site Site) bool {
	inj := active.Load()
	if inj == nil {
		return false
	}
	r, ord, ok := inj.visit(site)
	if !ok {
		return false
	}
	switch r.Kind {
	case KindOverrun:
		return true
	case KindCancel:
		inj.mu.Lock()
		cancel := inj.cancel
		inj.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	case KindPanic:
		panic(&InjectedPanic{Site: site, Ordinal: ord})
	case KindSlow:
		time.Sleep(r.Delay)
	}
	return false
}
