// Command e2ebench is the repository's end-to-end benchmark: it drives
// an in-process trex-server handler (server.New().Handler() with the
// server defaults, on loopback) through an analyst's closed loop, checks
// every answer, and reports end-to-end metrics; a traced run of the same
// schedule reports per-layer metrics. BENCHMARK.json at the repository
// root lists the workloads and metrics with their bounds.
//
// Run it from the repository root; run.sh builds it from source first:
//
//	bash e2ebench/run.sh --workload edit-loop --seed 1 --seconds 50 --trace 0
//	bash e2ebench/run.sh --workload edit-loop --seed 1 --seconds 50 --trace 1
//	bash e2ebench/run.sh --steady 10 --sets 2
//	(cd e2ebench && go test ./...)
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Earlier lines print every
// metric by name and unit, error_rate among them (failed over attempted),
// the sample count and tail percentile of each latency, and GOMAXPROCS.
// A failed check makes the command exit 1.
//
// # Layers
//
// The layers are the modules on the serving path:
//
//   - server: HTTP, JSON and admission (internal/server);
//   - core: Session and Explainer (internal/core);
//   - shapley: the sampler (internal/shapley);
//   - exec: the coalition, repair-target and plan caches, and the pool
//     (internal/exec);
//   - repair: the black boxes (internal/repair), algorithm1 throughout;
//   - dc and dc/plan: the live violation set and the planner;
//   - table: CSV, the edit log and stats.
//
// internal/data only generates inputs, on the benchmark's side; the
// program receives only the generated inputs. The workload seed fixes the
// generated table (data.GenerateSoccer) and the explain seeds. The
// injected errors (data.Inject on City and Country at 2%) and the cells
// the schedule edits and explains are the same for every seed, because
// drawing 1 or 7 errors per seed moved the work per round by a quarter
// or more between seeds (see newFixture).
//
// # Workloads
//
// Every workload is a closed loop with one client and one session at a
// time: one analyst who waits for each screen. explain-cells keeps Go's
// default GOMAXPROCS, the number of CPUs, and so the engine's default of
// GOMAXPROCS workers, as a server with default settings does; edit-loop
// runs at GOMAXPROCS=1, where its short requests are steadier (see the
// workloads variable). Each run prints GOMAXPROCS and the number of CPUs.
// After a fixed number of rounds (64 on explain-cells, 128 on edit-loop)
// the analyst opens a new session on a new server: the session history
// grows with every edit and every edit answer echoes it, so an unbounded
// session would make a round's cost depend on how many rounds the machine
// got through. Every workload issues every operation type, so that each
// run reports every end-to-end metric; the mix sets which layers
// dominate. Each round puts the table back as it found it, so every
// request of a type sees the same table and its latencies form one mode:
// a median that falls between two modes swings with the machine's speed
// far more than either mode does.
//
//   - explain-cells (4 leagues × 12 teams = 48 rows; the 287 other cells
//     are the players). Each round explains one repaired cell with
//     kind=cells, samples=16 and a fresh seed, rotating over the cells
//     the first repair reported; repeats the request (reexplain, served
//     from the coalition cache); then renames the City of a row in a
//     league without errors to a city no other row has, reads the
//     violations and the repair, and restores the name, so every explain
//     sees the start table's contents. Neither edit creates a
//     violation, so both cost about the same. Why: sampler, pool,
//     cell-game and black-box optimisations show here; edit-path and
//     cache changes must predict no change to explain.p50_ms here. It is
//     the end-to-end counterpart of the explain-cells/laliga/m=64 micro
//     row.
//   - edit-loop (8 leagues × 24 teams = 192 rows). The paper's §3/§4
//     debugging loop. The cell of interest is an injected Country error
//     the first repair fixed. Each round: setCell gives the Country cell
//     of a row in a league without errors another league's country (the
//     cell of interest stays repaired); GET /violations; explain
//     kind=constraints on the cell of interest (cold: the edit bumped the
//     generation); the same explain again (reexplain, cache-served);
//     POST /repair; setCell restores the Country. Every 4th round also
//     adds an insertRow/deleteRow pair before the violations; every 8th
//     also removes the top-ranked constraint after the repair, repairs,
//     and adds the constraint back. Why: the edit log, live violation
//     deltas, the repair-target, coalition and plan caches and
//     incremental explanation maintenance work here, with the sampler
//     idle. It is the end-to-end counterpart of
//     target/laliga/explain-after-edit.
//
// The violations/*/large micro rows (3072 rows) have no end-to-end
// counterpart: a whole-table workload at that size makes no explains (a
// cold constraint explain takes seconds), so it could not report every
// end-to-end metric.
//
// # End-to-end metrics
//
// Measured over HTTP with tracing off. The direct lane the checks
// compare against (see Checks) runs each round right after the HTTP
// lane, in the timed phase, and the set-up batches run between rounds;
// only the HTTP requests are timed. On a shared host whose speed drifts
// for seconds at a time, spreading the timed requests over the whole
// phase evens those stretches out.
//
//   - setup_s: POST /api/session plus the first screen (the first repair
//     and violations), each on a new server whose connection the client
//     has already opened; input generation is excluded. A run makes 5
//     unmeasured set-ups that absorb the process's own start-up, then 24
//     batches of 8 spread evenly over the timed phase, on a server of
//     their own, and reports the median of the batch means (see
//     setupBatches).
//   - <op>.p50_ms and <op>.tail_ms for op in explain, reexplain (a repeat
//     explain in the same generation, kept apart so a two-mode mix never
//     shifts a median), edit (every mutating request to /edit), violations
//     and repair. The tail is p75 (see tailPct). The report prints each
//     sample count.
//   - ops_per_s: completed requests per second of request time, at the
//     workload's table size; the client's answer checks between requests
//     are not counted.
//   - heap_peak_mb: peak Go heap during the timed phase, including the
//     in-process client, the direct lane's session and the set-up lane's
//     server.
//   - error_rate: failed, refused or wrong answers over requests
//     attempted; printed, and carried by the result line's failed and
//     attempted (it is 0 on a correct run, so it is not a bounded metric).
//
// # Per-layer metrics and predictions
//
// The traced run (--trace 1) runs the same seed and schedule three ways,
// round by round side by side so that all three see the same machine:
// over HTTP, by calling what the handlers call (table.ReadCSV,
// dc.ParseSet, core.NewSessionWith with the server's worker setting, the
// Session edit methods, Session.Violations, Explainer().Explain* and
// Session.Repair) untraced, and the same calls traced. The traced calls
// run algorithm1 inside a decorator that forwards Repair,
// RepairInto, RepairIntoParallel and RepairIntoPlanned. Spans (name,
// start, end, parent, request id) are kept in memory and written to
// .bench_build/spans-<workload>-seed<n>.csv at the end. <op> is setup,
// explain, reexplain, edit, violations or repair.
//
//   - server.http_ms.<op>, server.self_ms.<op> (HTTP p50 minus untraced
//     direct p50) and server.resp_kb.<op> (answer size): with core.<op>_ms
//     they split each operation's HTTP latency. Predicted to move edit,
//     violations and repair p50 on edit-loop, where every edit answer
//     echoes the 192-row table and the history and the server's own time
//     is most of the latency; small against explain on explain-cells.
//   - core.<op>_ms: the Session or Explainer calls the handler makes.
//   - core.explain.self_ms and core.reexplain.self_ms: the explain span
//     minus the time black-box calls cover, i.e. core and shapley
//     together (sampler, cell-game walk, cache probes). Move explain.p50_ms
//     on explain-cells and reexplain.p50_ms on edit-loop.
//   - repair.calls.<op>, repair.busy_ms.<op>, repair.share.<op> and
//     repair.us_per_call: from the decorator. Move explain.p50_ms on
//     explain-cells, where the share is high, explain.p50_ms and
//     repair.p50_ms on edit-loop; predicted no change on reexplain on
//     either workload, where the call count is 0.
//   - exec.pool.parallelism: black-box busy time over the time black-box
//     calls cover, i.e. how many run at once on the pool's workers. Above
//     1 on explain-cells, where the sampler fans coalitions out; moves
//     explain.p50_ms there.
//   - exec.coalition.lookups.<op> and exec.coalition.hit_ratio.<op>:
//     deltas of Engine().CacheStats(). The hit ratio is about 1 for
//     reexplain, about 0 for edit-loop explain today (incremental
//     maintenance would raise it and move explain.p50_ms there), and
//     about 0 for explain-cells explain, where it should stay.
//   - exec.repair_target.hit_ratio (RepairTargets().Stats()) and
//     exec.plan.hit_ratio (Plans().Stats()): summed per-request deltas
//     over every session of the run. The repair-target ratio moves
//     repair.p50_ms on edit-loop. The plan ratio moves edit.p50_ms on
//     edit-loop through the constraint remove and add; it reads 0 today,
//     because a constraint edit clears the plan cache with the others.
//   - dc.violations_ms and dc.violation_pairs: Session.Violations is a
//     thin wrapper over dc.LiveViolationSet with the session plan. Move
//     violations.p50_ms on edit-loop and explain-cells.
//   - table.readcsv_ms and core.setup_ms: move setup_s on both
//     workloads; CSV parsing is a small part of it at 48 and 192 rows.
//   - runtime.alloc_kb.<op> (mean per request, as the runtime counts
//     allocation: by whole spans, so a small request can read 0) and
//     runtime.gc_pause_ms (during the traced loop): move heap_peak_mb and
//     the tail metrics everywhere.
//   - trace.overhead_pct: traced against untraced direct core-call time.
//
// # Checks
//
// Every request must answer 200. Before timing, the Figure 1 anchor must
// hold: on the paper's La Liga table t5[Country] ranks C3 first at 2/3.
// Each answer of the HTTP lane must equal the traced direct lane's
// answer for the same request byte for byte, in a canonical projection
// covering report entries, Shapley values, targets, repaired-cell lists,
// violation lists and tables; every set-up, on any lane, must answer
// like the HTTP lane's first. The second-seed check runs the first 8
// rounds of the next seed's schedule by direct calls: each round must
// answer as many requests of each type as the same round of the main run
// did. Any failure counts in failed and error_rate and makes the command
// exit 1.
//
// # Steadiness mode
//
// --steady n runs every workload of BENCHMARK.json n times per set, each
// run a separate process with another seed, and prints each end-to-end
// metric's median and quartiles (Python's statistics.quantiles method)
// and its spread, (q3-q1)/median, against the metric's bound. A spread
// wider than the bound, or a later set's median worse than the first
// set's by more than the bound, is flagged and makes the command exit 1.
package main
