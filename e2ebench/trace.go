package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dc"
	"repro/internal/exec"
	"repro/internal/repair"
	"repro/internal/table"
)

// span is one timed interval of the traced run. Times are nanoseconds
// since the tracer's origin; parent is the index of the enclosing span
// (-1 for a request) and req the request it belongs to.
type span struct {
	name       string
	start, end int64
	parent     int32
	req        int32
}

// reqStat is what the traced run learned about one request.
type reqStat struct {
	kind string
	// core is the time in the Session and Explainer calls the handler
	// makes; readCSV and violations are the table.ReadCSV and
	// Session.Violations spans inside it.
	core, readCSV, violations int64
	// calls, busy and covered describe the black-box calls: their count,
	// summed duration, and the part of the request they cover (parallel
	// calls overlap).
	calls         int
	busy, covered int64
	// coalition, target and plan are the deltas of the engine's
	// coalition, repair-target and plan caches.
	coalition, target, plan hitCount
	alloc                   uint64
	pairs                   int
}

// hitCount is a cache's hits among its lookups.
type hitCount struct{ hits, lookups uint64 }

func (h hitCount) add(o hitCount) hitCount {
	return hitCount{h.hits + o.hits, h.lookups + o.lookups}
}

func (h hitCount) ratio() float64 { return ratio(float64(h.hits), float64(h.lookups)) }

// cacheCounters are an engine's cumulative cache counters.
type cacheCounters struct{ coalition, target, plan hitCount }

// readCaches reads the session engine's counters; a nil session (before
// set-up) reads zero, as a new engine does.
func readCaches(sess *core.Session) cacheCounters {
	var c cacheCounters
	if sess == nil {
		return c
	}
	eng := sess.Engine()
	counts := func(hits, misses uint64) hitCount { return hitCount{hits, hits + misses} }
	c.coalition = counts(eng.CacheStats())
	c.target = counts(eng.RepairTargets().Stats())
	c.plan = counts(eng.Plans().Stats())
	return c
}

func since(before, after hitCount) hitCount {
	return hitCount{after.hits - before.hits, after.lookups - before.lookups}
}

// tracer keeps the spans of a traced run in memory. One client drives
// it, so at most one request is open; black-box spans may arrive
// concurrently from the engine's workers.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	open   int32
	req    int32
	stats  []reqStat
	// keep retains the spans for writing out; without it they are dropped
	// once their request is summarized.
	keep bool

	reqSpan     int32
	reqKind     string
	caches0     cacheCounters
	alloc0      uint64
	allocSample []metrics.Sample
}

func newTracer(keep bool) *tracer {
	return &tracer{
		keep:        keep,
		origin:      time.Now(),
		open:        -1,
		allocSample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) allocBytes() uint64 {
	metrics.Read(t.allocSample)
	return t.allocSample[0].Value.Uint64()
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: t.now(), end: -1, parent: t.open, req: t.req})
	t.open = i
	return i
}

func (t *tracer) end(i int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = t.now()
	t.open = t.spans[i].parent
}

// leaf records a finished span that started at start under the
// innermost open span; it is safe for concurrent callers. A nil tracer
// records nothing.
func (t *tracer) leaf(name string, start time.Time) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: int64(start.Sub(t.origin)), end: end, parent: t.open, req: t.req})
	t.mu.Unlock()
}

// startRequest opens the span of one benchmark request. sess is the
// session before the request (nil for set-up).
func (t *tracer) startRequest(kind string, sess *core.Session) {
	t.mu.Lock()
	t.req++
	t.mu.Unlock()
	t.reqKind = kind
	t.caches0 = readCaches(sess)
	t.alloc0 = t.allocBytes()
	t.reqSpan = t.begin("request." + kind)
}

// finishRequest closes the request span and summarizes its children.
func (t *tracer) finishRequest(sess *core.Session, pairs int) {
	t.end(t.reqSpan)
	alloc := t.allocBytes() - t.alloc0
	c := readCaches(sess)
	st := reqStat{
		kind: t.reqKind, alloc: alloc, pairs: pairs,
		coalition: since(t.caches0.coalition, c.coalition),
		target:    since(t.caches0.target, c.target),
		plan:      since(t.caches0.plan, c.plan),
	}
	t.mu.Lock()
	children := t.spans[t.reqSpan+1:]
	t.mu.Unlock()
	var ivs [][2]int64
	for _, s := range children {
		d := s.end - s.start
		switch {
		case strings.HasPrefix(s.name, "repair."):
			st.calls++
			st.busy += d
			ivs = append(ivs, [2]int64{s.start, s.end})
		case s.name == "table.ReadCSV":
			st.readCSV += d
		case strings.HasPrefix(s.name, "core."):
			st.core += d
			if s.name == "core.Violations" {
				st.violations += d
			}
		}
	}
	st.covered = coveredNs(ivs)
	t.stats = append(t.stats, st)
	if !t.keep {
		t.mu.Lock()
		t.spans = t.spans[:0]
		t.mu.Unlock()
	}
}

// coveredNs is the length of the union of the intervals.
func coveredNs(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		if open && iv[0] <= curE {
			if iv[1] > curE {
				curE = iv[1]
			}
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = iv[0], iv[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

// write stores the spans as CSV (id, name, start, end, parent, request)
// under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,name,start_ns,end_ns,parent,request")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, s.name, s.start, s.end, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// tracedRepairer decorates a black box with spans around every entry
// point. It forwards all four repair protocols: a decorator offering only
// repair.Algorithm would send core down its clone path and so measure a
// different program.
type tracedRepairer struct {
	inner repair.PlannedRepairer
	tr    *tracer
}

var _ repair.PlannedRepairer = (*tracedRepairer)(nil)

func (a *tracedRepairer) Name() string { return a.inner.Name() }

func (a *tracedRepairer) Repair(ctx context.Context, cs []*dc.Constraint, dirty *table.Table) (*table.Table, error) {
	defer a.tr.leaf("repair.Repair", time.Now())
	return a.inner.Repair(ctx, cs, dirty)
}

func (a *tracedRepairer) RepairInto(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table) (*table.Table, error) {
	defer a.tr.leaf("repair.RepairInto", time.Now())
	return a.inner.RepairInto(ctx, cs, dirty, work)
}

func (a *tracedRepairer) RepairIntoParallel(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool) (*table.Table, error) {
	defer a.tr.leaf("repair.RepairIntoParallel", time.Now())
	return a.inner.RepairIntoParallel(ctx, cs, dirty, work, pool)
}

func (a *tracedRepairer) RepairIntoPlanned(ctx context.Context, cs []*dc.Constraint, dirty, work *table.Table, pool *exec.Pool, plan dc.SetPlanner) (*table.Table, error) {
	defer a.tr.leaf("repair.RepairIntoPlanned", time.Now())
	return a.inner.RepairIntoPlanned(ctx, cs, dirty, work, pool, plan)
}
