package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"maps"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// runLog records one phase of a run: every request's latency, answer
// size and canonical-answer hash, in schedule order.
type runLog struct {
	lat    map[string][]float64 // ms
	size   map[string][]float64 // bytes
	hashes [][32]byte
	// perRound counts, per round, the requests of each type that were
	// answered, a new session's set-up among them.
	perRound []map[string]int
	rounds   int
	ops      int
	sessions int // set-ups after the first, one per sessionRounds rounds
	failed   int
	firstErr error
	busy     time.Duration
}

func newRunLog() *runLog {
	return &runLog{lat: make(map[string][]float64), size: make(map[string][]float64)}
}

func (lg *runLog) fail(err error) {
	lg.failed++
	if lg.firstErr == nil {
		lg.firstErr = err
	}
}

func (lg *runLog) record(kind string, res result) {
	lg.lat[kind] = append(lg.lat[kind], ms(res.lat))
	lg.size[kind] = append(lg.size[kind], float64(res.size))
	lg.hashes = append(lg.hashes, sha256.Sum256(res.canon))
	lg.busy += res.lat
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// lane is one side working through a schedule: its own session, log
// and answer-dependent state.
type lane struct {
	d  side
	lg *runLog
	// after runs after every request (the heap sampler's hook).
	after func()
	// setup is the last set-up's result and setupLat the measured set-up
	// latencies in seconds.
	setup    result
	setupLat []float64
	// top is the last explain's top-ranked entry, removed the constraint
	// the schedule last removed.
	top, removed string
}

func newLane(d side) *lane { return &lane{d: d, lg: newRunLog()} }

// runRounds executes rounds of s while more(r) holds, each round on every
// lane in turn, so that lanes measured side by side see the same machine.
func runRounds(ctx context.Context, s *schedule, more func(r int) bool, lanes ...*lane) {
	for r := 0; more(r); r++ {
		for _, ln := range lanes {
			ln.round(ctx, s, r)
		}
	}
}

func (ln *lane) round(ctx context.Context, s *schedule, r int) {
	lg := ln.lg
	done := make(map[string]int)
	if r > 0 && r%s.w.sessionRounds == 0 {
		lg.sessions++
		res, err := ln.d.setup(ctx)
		if err != nil {
			lg.fail(fmt.Errorf("round %d set-up: %w", r, err))
			lg.hashes = append(lg.hashes, [32]byte{})
		} else {
			lg.hashes = append(lg.hashes, sha256.Sum256(res.canon))
			done[opSetup]++
		}
	}
	for _, o := range s.w.round(s, r) {
		switch {
		case o.removeTop:
			o.edit = &editRequest{RemoveDC: ln.top}
			ln.removed = ln.top
		case o.addBack:
			o.edit = &editRequest{AddDC: s.fx.dcText[ln.removed]}
		}
		lg.ops++
		res, err := ln.d.do(ctx, o)
		if err != nil {
			lg.fail(fmt.Errorf("round %d %s: %w", r, o.kind, err))
			lg.hashes = append(lg.hashes, [32]byte{})
			continue
		}
		if o.explain != nil {
			ln.top = res.top
		}
		lg.record(o.kind, res)
		done[o.kind]++
		if ln.after != nil {
			ln.after()
		}
	}
	lg.perRound = append(lg.perRound, done)
	lg.rounds++
}

// compareAnswers counts the requests whose answers differ between two
// runs of one schedule.
func compareAnswers(a, b *runLog) (int, error) {
	if len(a.hashes) != len(b.hashes) {
		return max(len(a.hashes), len(b.hashes)), fmt.Errorf("%d answers against %d", len(a.hashes), len(b.hashes))
	}
	bad := 0
	var first error
	for i := range a.hashes {
		if a.hashes[i] != b.hashes[i] {
			bad++
			if first == nil {
				first = fmt.Errorf("answer %d differs", i)
			}
		}
	}
	return bad, first
}

// heapSampler tracks the peak of the Go heap's object bytes while a
// phase runs: sampled every few milliseconds and after every request.
type heapSampler struct {
	mu     sync.Mutex
	sample []metrics.Sample
	peak   uint64
	stop   chan struct{}
	done   chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{
		sample: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	h.read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.read()
			}
		}
	}()
	return h
}

func (h *heapSampler) read() {
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(h.sample)
	if v := h.sample[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// finish stops the sampler, waits for it and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// beyond counts the samples above the p-th percentile's rank.
func beyond(n int, p float64) int { return n - int(math.Ceil(p/100*float64(n))) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is a run's verdict and numbers.
type outcome struct {
	attempted, failed int
	metrics           []metric
	notes             []string
}

// add records a metric; a value that is not a finite number (a failed
// run measured nothing) is left out and noted.
func (o *outcome) add(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		o.note("%s not measured", name)
		return
	}
	o.metrics = append(o.metrics, metric{name, value, unit})
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// check counts a failed correctness check.
func (o *outcome) check(err error) {
	if err != nil {
		o.failed++
		o.note("CHECK FAILED: %v", err)
	}
}

// config is one invocation's settings.
type config struct {
	workload *workload
	seed     int64
	seconds  int
	trace    bool
	outDir   string
}

// A run sets up warmups times unmeasured, then setupBatches batches of
// setupBatch set-ups spread evenly over the timed phase, between rounds;
// setup_s is the median of the batches' mean set-up times. The first
// set-ups of a process also pay its start-up (code faults, heap growth),
// which an analyst opening a session on a running server does not. One
// set-up takes 1 to 10 ms, so a single one is at the mercy of a garbage
// collection or a descheduled thread; a batch's mean spreads those over
// the batch, and the median drops the batches a burst of them hit. On a
// shared host set-ups also run fast or slow for seconds at a time;
// spreading the batches over the timed phase samples all of it, as the
// other metrics do.
const (
	warmups      = 5
	setupBatches = 24
	setupBatch   = 8
)

// setups runs warm unmeasured set-ups and then batches batches on every
// lane, lanes in turn, keeping each lane's last result and adding its
// batch means, in seconds, to its set-up latencies.
func setups(ctx context.Context, warm, batches int, lanes ...*lane) error {
	batch := make([]time.Duration, len(lanes))
	for i := 0; i < warm+batches*setupBatch; i++ {
		for j, ln := range lanes {
			res, err := ln.d.setup(ctx)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			ln.setup = res
			if i < warm {
				continue
			}
			batch[j] += res.lat
			if (i-warm)%setupBatch == setupBatch-1 {
				ln.setupLat = append(ln.setupLat, batch[j].Seconds()/setupBatch)
				batch[j] = 0
			}
		}
	}
	return nil
}

// run executes one benchmark invocation: set-ups, then the timed closed
// loop, in which the HTTP lane and a traced direct lane run the schedule
// round by round side by side, then the checks of the HTTP answers
// against the direct ones. Only the HTTP lane's requests are timed; the
// direct lane between them spreads the timed requests over the whole
// phase, which evens out stretches in which the machine runs slow, and
// yields the answers to check in the same pass. With cfg.trace an
// untraced direct lane runs beside them too, and the result is the
// per-layer metrics.
func run(ctx context.Context, cfg config) (*outcome, error) {
	w := cfg.workload
	o := &outcome{}
	o.note("workload %s, seed %d, GOMAXPROCS %d, %d CPUs, %d s measured, trace %v",
		w.name, cfg.seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), cfg.seconds, cfg.trace)
	fx, err := newFixture(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	o.note("table %d rows, %d bytes of CSV", fx.rows, len(fx.csv))
	o.check(anchorCheck(ctx, o))

	hd := newHTTPSide(fx)
	defer hd.close()
	hl := newLane(hd)
	tr := newTracer(cfg.trace)
	tl := newLane(newDirectSide(fx, tr))
	timedLanes := []*lane{hl, tl}
	// The set-up lanes have sides of their own, so the set-up batches
	// between rounds leave the rounds' sessions alone. In the traced run an
	// untraced direct lane sets up and runs beside the others as the
	// baseline of self time and tracing overhead.
	sd := newHTTPSide(fx)
	defer sd.close()
	setupLanes := []*lane{newLane(sd)}
	var ul *lane
	if cfg.trace {
		ul = newLane(newDirectSide(fx, nil))
		timedLanes = []*lane{hl, ul, tl}
		setupLanes = append(setupLanes, newLane(newDirectSide(fx, nil)), newLane(newDirectSide(fx, tr)))
	}
	o.attempted += 3 * (1 + warmups + setupBatches*setupBatch)
	for _, ln := range timedLanes {
		if ln.setup, err = ln.d.setup(ctx); err != nil {
			o.check(fmt.Errorf("set-up: %w", err))
			return o, nil
		}
	}
	runtime.GC()
	if err := setups(ctx, warmups, 0, setupLanes...); err != nil {
		o.check(err)
		return o, nil
	}
	sched, err := newSchedule(w, fx, hl.setup.repaired)
	if err != nil {
		return nil, err
	}

	runtime.GC()
	var heap *heapSampler
	if !cfg.trace {
		heap = startHeapSampler()
		hl.after = heap.read
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	timed := time.Duration(cfg.seconds) * time.Second
	batches := 0
	var setupErr error
	runRounds(ctx, sched, func(int) bool {
		for setupErr == nil && batches < setupBatches && time.Since(start) >= time.Duration(batches)*timed/setupBatches {
			setupErr = setups(ctx, 0, 1, setupLanes...)
			batches++
		}
		return time.Since(start) < timed
	}, timedLanes...)
	runtime.ReadMemStats(&ms1)
	var heapPeak float64
	if !cfg.trace {
		heapPeak = heap.finish()
	}
	if setupErr != nil {
		o.check(setupErr)
		return o, nil
	}
	hlog := hl.lg
	o.attempted += hlog.ops + 3*hlog.sessions
	o.failed += hlog.failed
	if hlog.firstErr != nil {
		o.note("CHECK FAILED: HTTP run: %v", hlog.firstErr)
	}
	o.attempted++
	o.check(secondSeedCheck(ctx, w, cfg.seed, hlog))

	if !cfg.trace {
		// The traced direct lane ran the same schedule; its answers must
		// equal the HTTP answers byte for byte.
		o.compareSetup("traced", hl, tl)
		o.compareSetups(hl, setupLanes)
		o.compare("traced", hlog, tl.lg)
		endToEnd(o, setupLanes[0].setupLat, hlog, heapPeak)
		return o, nil
	}

	o.compareSetup("untraced", hl, ul)
	o.compareSetup("traced", hl, tl)
	o.compareSetups(hl, setupLanes)
	o.compare("untraced", hlog, ul.lg)
	o.compare("traced", hlog, tl.lg)
	perLayer(o, tr, layerInputs{
		httpSetup: setupLanes[0].setupLat, directSetup: setupLanes[1].setupLat, tracedSetup: setupLanes[2].setupLat, setupSize: hl.setup.size,
		http: hlog, direct: ul.lg, traced: tl.lg,
		gcPause: float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
	})
	path, err := tr.write(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.csv", w.name, cfg.seed))
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	o.note("%d spans written to %s", len(tr.spans), path)
	return o, nil
}

// compareSetup checks that another lane's last set-up answered like the
// HTTP lane's.
func (o *outcome) compareSetup(label string, h, d *lane) {
	if !bytes.Equal(h.setup.canon, d.setup.canon) {
		o.check(fmt.Errorf("set-up answers differ between HTTP and %s runs", label))
	}
}

// compareSetups checks the set-up lanes' last set-ups against the HTTP
// lane's first.
func (o *outcome) compareSetups(h *lane, lanes []*lane) {
	for i, ln := range lanes {
		o.compareSetup(fmt.Sprintf("set-up lane %d", i), h, ln)
	}
}

// compare counts the direct run's failures and the requests whose
// answers differ from the HTTP run's as failed.
func (o *outcome) compare(label string, h, d *runLog) {
	o.failed += d.failed
	if d.firstErr != nil {
		o.note("CHECK FAILED: %s run: %v", label, d.firstErr)
	}
	bad, err := compareAnswers(h, d)
	o.failed += bad
	if err != nil {
		o.note("CHECK FAILED: HTTP and %s answers: %v (%d differ)", label, err, bad)
	}
}

// anchorCheck is the Figure 1 anchor: on the paper's La Liga table,
// t5[Country] ranks C3 first at 2/3.
func anchorCheck(ctx context.Context, o *outcome) error {
	body, cell, err := laLigaFixture()
	if err != nil {
		return err
	}
	d := newHTTPSide(&fixture{createBody: body})
	defer d.close()
	o.attempted += 3
	if _, err := d.setup(ctx); err != nil {
		return fmt.Errorf("anchor: %w", err)
	}
	o.attempted++
	res, err := d.do(ctx, op{kind: opExplain, explain: &explainRequest{Cell: cell, Kind: "constraints"}})
	if err != nil {
		return fmt.Errorf("anchor: %w", err)
	}
	_, a, err := canonical(res.canon, normExplain)
	if err != nil {
		return err
	}
	if len(a.Entries) == 0 || a.Entries[0].Name != "C3" || math.Abs(a.Entries[0].Shapley-2.0/3) > 1e-9 {
		return fmt.Errorf("anchor: %s ranks %+v first, want C3 at 2/3", cell, a.Entries)
	}
	return nil
}

// seedCheckRounds is how many rounds the second-seed check runs: enough
// for every operation of edit-loop's eight-round cycle.
const seedCheckRounds = 8

// secondSeedCheck runs the first rounds of the next seed's schedule by
// untraced direct calls and checks that each round answered as many
// requests of each type as the same round of the main run did, so that a
// claim measured on one seed can be checked on another.
func secondSeedCheck(ctx context.Context, w *workload, seed int64, main *runLog) error {
	rounds := min(seedCheckRounds, len(main.perRound))
	next, err := roundCounts(ctx, w, seed+1, rounds)
	if err != nil {
		return err
	}
	return sameRoundCounts(main.perRound[:rounds], next, seed, seed+1)
}

// roundCounts sets up seed's fixture on an untraced direct lane, runs
// rounds rounds of its schedule and returns the answered requests per
// round and type.
func roundCounts(ctx context.Context, w *workload, seed int64, rounds int) ([]map[string]int, error) {
	fx, err := newFixture(w, seed)
	if err != nil {
		return nil, err
	}
	ln := newLane(newDirectSide(fx, nil))
	if ln.setup, err = ln.d.setup(ctx); err != nil {
		return nil, fmt.Errorf("seed %d set-up: %w", seed, err)
	}
	s, err := newSchedule(w, fx, ln.setup.repaired)
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	runRounds(ctx, s, func(r int) bool { return r < rounds }, ln)
	if ln.lg.firstErr != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, ln.lg.firstErr)
	}
	return ln.lg.perRound, nil
}

// sameRoundCounts compares two runs' answered requests round by round.
func sameRoundCounts(a, b []map[string]int, seedA, seedB int64) error {
	if len(a) != len(b) {
		return fmt.Errorf("seed %d ran %d rounds, seed %d ran %d", seedA, len(a), seedB, len(b))
	}
	for r := range a {
		if !maps.Equal(a[r], b[r]) {
			return fmt.Errorf("round %d: seed %d answered %v, seed %d answered %v", r, seedA, a[r], seedB, b[r])
		}
	}
	return nil
}

// endToEnd fills the untraced run's metrics.
func endToEnd(o *outcome, setupLat []float64, lg *runLog, heapPeak float64) {
	o.add("setup_s", median(setupLat), "s")
	for _, k := range opKinds {
		xs := lg.lat[k]
		if len(xs) == 0 {
			o.note("no %s requests in this workload; %s metrics left out", k, k)
			continue
		}
		o.add(k+".p50_ms", median(xs), "ms")
		o.add(k+".tail_ms", percentile(xs, tailPct), "ms")
		o.note("%s: n=%d, tail is p%d with %d samples beyond it", k, len(xs), tailPct, beyond(len(xs), tailPct))
	}
	o.add("ops_per_s", float64(lg.ops-lg.failed)/lg.busy.Seconds(), "1/s")
	o.add("heap_peak_mb", heapPeak, "MiB")
	o.note("%d rounds, %d requests; ops_per_s counts request time only, not the client's answer checks", lg.rounds, lg.ops)
	o.note("heap_peak_mb includes the in-process client, the direct lane's session and the set-up lane's server")
	o.note("setup_s: median of %d batch means of %d set-ups each", len(setupLat), setupBatch)
}

// layerInputs are the measurements the per-layer metrics derive from.
type layerInputs struct {
	httpSetup, directSetup, tracedSetup []float64 // s
	setupSize                           int       // bytes
	http, direct, traced                *runLog
	gcPause                             float64 // ms
}

// perLayer fills the traced run's metrics.
func perLayer(o *outcome, tr *tracer, in layerInputs) {
	byKind := make(map[string][]reqStat)
	for _, st := range tr.stats {
		byKind[st.kind] = append(byKind[st.kind], st)
	}
	lat := func(lg *runLog, setup []float64, k string) []float64 {
		if k == opSetup {
			return scale(setup, 1000)
		}
		return lg.lat[k]
	}
	var tracedSum, untracedSum, calls, busy, covered float64
	var target, plan hitCount
	for _, k := range append([]string{opSetup}, opKinds...) {
		sts := byKind[k]
		if len(sts) == 0 {
			continue
		}
		var core, alloc, nCalls, nBusy, self, lookups []float64
		var coreTotal, coveredTotal, hitTotal, lookupTotal float64
		for _, st := range sts {
			core = append(core, float64(st.core)/1e6)
			alloc = append(alloc, float64(st.alloc)/1024)
			nCalls = append(nCalls, float64(st.calls))
			nBusy = append(nBusy, float64(st.busy)/1e6)
			self = append(self, float64(st.core-st.covered)/1e6)
			lookups = append(lookups, float64(st.coalition.lookups))
			coreTotal += float64(st.core)
			coveredTotal += float64(st.covered)
			hitTotal += float64(st.coalition.hits)
			lookupTotal += float64(st.coalition.lookups)
			calls += float64(st.calls)
			busy += float64(st.busy)
			covered += float64(st.covered)
			target = target.add(st.target)
			plan = plan.add(st.plan)
		}
		sizes := in.http.size[k]
		if k == opSetup {
			sizes = []float64{float64(in.setupSize)}
		}
		httpMs, directMs := lat(in.http, in.httpSetup, k), lat(in.direct, in.directSetup, k)
		o.add("server.http_ms."+k, median(httpMs), "ms")
		o.add("server.self_ms."+k, median(httpMs)-median(directMs), "ms")
		o.add("server.resp_kb."+k, median(sizes)/1024, "KiB")
		o.add("core."+k+"_ms", median(core), "ms")
		if k == opExplain || k == opReexplain {
			o.add("core."+k+".self_ms", median(self), "ms")
		}
		o.add("repair.calls."+k, mean(nCalls), "count")
		o.add("repair.busy_ms."+k, mean(nBusy), "ms")
		o.add("repair.share."+k, ratio(coveredTotal, coreTotal), "ratio")
		o.add("exec.coalition.lookups."+k, mean(lookups), "count")
		o.add("exec.coalition.hit_ratio."+k, ratio(hitTotal, lookupTotal), "ratio")
		o.add("runtime.alloc_kb."+k, mean(alloc), "KiB")
		tracedSum += sum(lat(in.traced, in.tracedSetup, k))
		untracedSum += sum(directMs)
	}
	o.add("repair.us_per_call", ratio(busy, calls)/1e3, "us")
	o.add("exec.pool.parallelism", ratio(busy, covered), "ratio")
	o.add("exec.repair_target.hit_ratio", target.ratio(), "ratio")
	o.add("exec.plan.hit_ratio", plan.ratio(), "ratio")
	var vms, pairs, csvMs []float64
	for _, st := range byKind[opViolations] {
		vms = append(vms, float64(st.violations)/1e6)
		pairs = append(pairs, float64(st.pairs))
	}
	for _, st := range byKind[opSetup] {
		csvMs = append(csvMs, float64(st.readCSV)/1e6)
	}
	o.add("dc.violations_ms", median(vms), "ms")
	o.add("dc.violation_pairs", median(pairs), "count")
	o.add("table.readcsv_ms", median(csvMs), "ms")
	o.add("runtime.gc_pause_ms", in.gcPause, "ms")
	o.add("trace.overhead_pct", 100*(tracedSum/untracedSum-1), "%")
	o.note("traced %d requests; server.self_ms is HTTP p50 minus untraced direct p50; trace.overhead_pct compares traced and untraced core-call time", len(tr.stats))
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
