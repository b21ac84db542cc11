// Package repro is a from-scratch Go reproduction of "T-REx: Table Repair
// Explanations" (Deutch, Frost, Gilad, Sheffer — SIGMOD 2020 demo,
// arXiv:2007.04450).
//
// The system explains the output of a black-box table-repair algorithm
// with Shapley values: given a repaired cell of interest, it ranks the
// denial constraints and the input table cells by their contribution to
// that repair. The examples/ directory holds runnable walkthroughs of the
// public API, and `trex-bench -exp all` (cmd/trex-bench) prints the
// paper-vs-measured record of every experiment.
//
// # Explain pipeline
//
// Every explanation is one composition, core.Explainer.Explain(ctx, Query):
// resolve the target (the full repair's clean value for the cell, or the
// query's Desired value for a why-not question), build the players
// (constraints, cells, relevant cells, rows, columns or explicit groups)
// and their game, value them with one estimator (exact Shapley, sampled
// Shapley, exact-or-sampled by player count, top-k racing, Banzhaf or
// pairwise interaction) and assemble one Report. ExplainConstraints and
// ExplainCells are one-statement delegations for the two shapes of
// Figure 3c, and the HTTP server maps each request kind onto a Query
// through one table. Each estimator
// keeps its cache rule: exact and top-k games bind to the shared
// coalition cache, and a sampled explain's finished entries (named and
// sorted) are memoized in exec.Memo, so a repeat is one lookup and a copy
// that never lists the cell roster. A cell, or a group member, outside
// the table fails the query with an error.
//
// # Evaluation fast path
//
// Cell-game evaluation is the hot loop: permutation sampling calls the
// black box once per coalition prefix, millions of times on real tables.
// Three layers keep that loop allocation-free and measured in
// BENCH_<n>.json (regenerate with `trex-bench -perf -out BENCH_<n>.json`):
//
//   - One masking game (core.CellGame): a player is a set of cells, laid
//     out flat once per game (distinct cells plus per-player offsets into
//     one occurrence array); a cell player is the one-cell set, and rows,
//     columns and explicit, possibly overlapping groups are larger sets.
//     Every cell, relevant-cell, row, column and group explain runs through
//     it.
//   - Pooled scratch tables (internal/core): instead of Clone()-ing the
//     dirty table per evaluation, each evaluation borrows a pooled working
//     copy, masks absent cells in place, runs the black box, and restores
//     only the absent players' cells from the dirty table — zero steady-state
//     allocations per coalition evaluation (enforced by
//     TestCellGameEvalAllocs and TestEvalRepairAllocsAlgorithm1).
//   - Incremental prefix walks (internal/shapley.IncrementalGame): the
//     samplers drive the game through the CoalitionWalk protocol — one
//     SetRef per cell of the player a permutation step adds, reference
//     counted so a cell shared by players is restored only when its last
//     absent player joins, instead of a full mask rebuild. Estimates are
//     bit-identical to the clone-per-evaluation path under a fixed seed
//     (golden equivalence tests; that path survives behind
//     core.CellGame.CloneEval for cross-validation and the */clone rows
//     of trex-bench -perf).
//   - Packed, sharded coalition cache (internal/exec.CoalitionCache, the
//     only coalition-value cache; every core.Explainer carries an engine
//     that owns one): coalition keys are uint64 bitmasks for ≤64 players
//     (packed []uint64 words above) spread over 64 lock shards, so exact
//     constraint-game enumeration does not serialize on one mutex, and
//     violation scans reuse their hash buckets across scans of one table
//     generation (internal/dc.ScanIndex, keyed on table.Generation).
//   - In-place repair protocol (internal/repair.ScratchRepairer): the
//     black boxes themselves no longer Clone() per run. RepairInto
//     refreshes a pooled work table (table.CopyFrom logs per-cell deltas;
//     a refresh from the source of the previous copy visits only the
//     cells either table's edit log names since, so a coalition step costs
//     its few masked cells plus the repair's own writes, not the whole
//     table) and repairs it in place with pooled per-run buffers — statistics
//     (table.Stats.Reset), scan indexes, candidate domains — so the whole
//     eval→repair round trip allocates nothing in steady state. Pooled
//     scratch tables and column statistics are generation-guarded, so
//     Session edits between evaluations re-snapshot instead of silently
//     corrupting estimates. Golden tests pin RepairInto to Repair and the
//     walk to the clone path bit for bit; repair.Dispatch is the one place
//     that picks among a black box's repair protocols, and repair.Run the
//     one borrow-run-return path around it: every repair whose clean table
//     is only read — each coalition evaluation and the full-input repair
//     behind Target, Repair and RepairDiff — runs in a pooled work table,
//     so the target repair clones nothing and leaves the black box's
//     pooled run state warm for the coalitions that follow. Each input is
//     repaired once per explain: a game's grand coalition is the full
//     input, so every game (constraint, cell, row, group; exact, sampled,
//     top-k, why-not) reads v(N) off the repair-target memo at the
//     evaluation's generation and runs the black box only on a memo miss;
//     only the CloneEval oracle always repairs it.
//
// # The session execution engine
//
// Above the evaluation fast path sits internal/exec: one Engine per
// iterative session (core.Session constructs and owns it; every
// Session.Explainer carries it) that owns the compute and cache all of the
// session's hot paths draw from. A stand-alone core.NewExplainer gets a
// one-worker engine of its own, so every explainer runs the same cached,
// transactional path:
//
//   - Shared coalition cache (exec.CoalitionCache): one generation-keyed
//     cache spanning *all* of a session's games, keyed by (interned game
//     descriptor, packed coalition) — a single uint64 bitmask up to 64
//     players, packed []uint64 words above (allocation-free lookups).
//     Above 64 players only the TopK racing rounds still bind, since they
//     re-probe prefixes within one run.
//     It is the only coalition-value cache, and it survives the game:
//     the constraint ranking, the interaction matrix, the Banzhaf
//     ablation, the why-not search and repeat explains of the same cell
//     all enumerate the same characteristic function and hit each other's
//     values. Invalidation is by table generation, lazily per shard:
//     Session.SetCell bumps the dirty table's mutation counter and no
//     value computed before the bump can satisfy a lookup after it
//     (hammer-tested under -race).
//   - Bounded worker pool (exec.Pool): one global helper budget per
//     session, borrowed non-blockingly so nested fan-outs (sampler workers
//     whose repair passes parallelize) degrade to caller-only execution
//     instead of oversubscribing. Repair black boxes reach it through
//     repair.PartitionedRepairer: all four fan the live set's full
//     violation derivations across disjoint buckets, and the FD chase
//     additionally computes per-group majorities concurrently, applying
//     them serially in the serial pass's group order. The serial path
//     remains the golden cross-validation reference — parallel output is
//     bit-identical by contract and by test.
//   - Deterministic parallel sampling (internal/shapley): the samplers'
//     fan-out schedules a chunk grid whose size and RNG streams depend
//     only on (Samples, Seed); chunk accumulators merge in chunk order, so
//     Workers=1 and Workers=N produce bit-identical estimates (CI asserts
//     this). When the game declares it draws no randomness
//     (shapley.RandomnessFree: the cell game, over cells or groups, under
//     the null policy), SampleAll schedules single permutations instead of whole
//     chunks: a worker re-draws permutation j of chunk c from c's stream,
//     records its marginal vector, and the chunk's vectors fold into its
//     accumulators in permutation order, so the estimates stay those of
//     the chunk schedule while m=16 (four chunks) keeps every worker busy.
//     Stochastic games keep chunk units. The one-marginal sampler (TopK)
//     additionally morphs walks coalition-to-coalition through
//     shapley.DeltaWalk (Exclude), and the group walk restores its mask
//     baseline from a precomputed layout copy instead of re-walking every
//     group per sample.
//
// Parallelism and caching are scheduling choices, never semantic ones:
// every layer's parallel/cached path is pinned bit-for-bit to its serial,
// uncached reference.
//
// # The session materialization layer
//
// The engine also materializes what repeat queries share — three layers,
// each invalidated by exactly the events that can change its answer:
//
//   - Result memo (exec.Memo, Engine.RepairTargets): the clean-table
//     *diff* of the full black-box repair, keyed by a repair descriptor
//     (algorithm + constraint-set fingerprint) and stamped with the table
//     generation.
//     Every explain re-resolves its target through
//     core.Explainer.Target; within one session state that is a pure
//     function of the inputs, so the first call per generation runs the
//     black box and every later call replays the diff — Target scans it
//     without materializing a clean table at all, Repair reconstructs
//     clone-plus-patch. SetCell invalidates by generation; AddDC/RemoveDC
//     re-key the descriptor (Engine.InvalidateCache). Golden tests pin
//     replayed answers to fresh-engine runs for all four black boxes. The
//     same generation-stamped, Txn-staged memo holds the finished report
//     entries of sampled cell and group explains per (game descriptor,
//     Samples, Seed, Policy) — not Workers, which never changes an
//     estimate — so a repeat sampled explain runs no black box, probes no
//     coalition cache and names and sorts nothing; it copies the entries,
//     so a caller's edits never reach the memo. A store at a newer
//     generation drops the older ones; at most a few entries live per
//     generation.
//   - Incremental statistics (table.Stats.Sync): the per-column
//     distributions and row snapshot behind repair rules and column
//     sampling catch up from the table's edit log instead of rebuilding
//     wholesale — only columns touched by edits are re-observed (in row
//     order, reproducing the full rebuild's first-observed tie-break order
//     exactly; fuzz-proven equivalent, log overrun falls back to Reset).
//     The pooled run state of every black box (repair.pooledStats) and the
//     games' generation-guarded snapshots sync this way, so the edit
//     loop's per-evaluation statistics cost follows the edit, not the
//     table.
//   - Cache-aware deterministic sampling (exec.Binding): null-policy
//     coalition evaluations inside SampleAll over rosters of at most 64
//     players and TopK consult the shared coalition cache through a
//     per-game binding — the walks look up their membership
//     mirror before running the black box and memoize misses under the
//     Lookup's generation stamp. Values
//     are deterministic per (coalition, generation) and the null policy
//     consumes no RNG during evaluation, so cache participation can never
//     change an estimate: Workers=1 ≡ Workers=N bit-identity and the
//     golden equivalence to fresh-engine explainers both survive (tested).
//     Sampled and exact paths over the same player roster intern one
//     descriptor, so a screen switch replays the other path's values.
//     Stochastic (ReplaceFromColumn) games never bind: a realization must
//     not be memoized as a value. A SampleAll explain over more than 64
//     players does not bind either: on a cold explain almost none of its
//     coalitions recur, and packing, storing and logging each one
//     cost more than the hits saved, so the result memo serves its repeats
//     whole instead.
//
// # The edit model
//
// Every incremental layer above and below hangs off one primitive: the
// table's typed, bounded edit log. A mutation appends an Edit{Gen, Row,
// Col, Kind} to a fixed-size ring and bumps the table generation; a
// consumer holding a previously observed generation calls
// table.EditsSince and either replays the delta or — when the window
// overran or the schema changed — rebuilds wholesale. Three edit kinds
// cover the whole mutation surface:
//
//   - EditSet: one cell changed (Set/SetRef/SetByName, CopyFrom's
//     per-cell refresh deltas).
//   - EditInsert: one row appended at the tail (Append, IngestCSV).
//   - EditDelete: one row removed by swap-delete (DeleteRow): the last
//     row moves into the vacated index and the table shrinks by one.
//
// ApplyBatch brackets any mix of the three under a single generation:
// consumers replay the whole batch as one delta window and caches keyed
// by generation miss exactly once per batch, not once per operation.
// Batching groups generations — it is not atomicity; core.Session's
// ApplyBatch validates every operation up front (simulating the evolving
// row count) precisely because mid-batch failures would stay applied.
//
// The row-identity rule for deletes: DeleteRow(i) moves the last row
// into slot i, so survivors other than the moved row keep both their
// index and their bytes. Consumers never guess at that remapping — they
// resolve it symbolically through table.RowRemap, which folds an edit
// window into the exact retract/derive/re-observe sets — and cached
// CellRefs are never remapped at all: every cache that stores a row
// index stamps it with the generation it was observed at, structural
// edits always bump the generation, so a stale index is unreachable by
// construction. The editlog and cacheinval analyzers enforce both halves
// mechanically (no raw row-grid writes; no structural mutation path that
// skips the log).
//
// What each layer replays from a structural delta window, in order of
// increasing invalidation coarseness:
//
//	bucketSet          insert: hash the new tail row into its bucket;
//	                   delete: unhash the removed row, re-home the moved
//	                   row's index — no other bucket entry moves
//	prefilter bitmaps  extend for inserts, compact for deletes;
//	                   only the touched rows' bits are re-evaluated
//	LiveViolationSet   retract exactly the touched rows' pairs, derive
//	                   the inserted/moved rows against their buckets
//	Stats.Sync         insert-only window: observe the tail rows per
//	                   column; any delete: re-observe all columns (the
//	                   first-observed tie-break order is position-
//	                   dependent), still without a wholesale Reset
//	conditional stats  per-(column-pair) dirty bits; untouched pairs
//	                   keep their tables across structural edits
//	server answers     re-encode every row (a cell-edit window
//	                   re-encodes only the rows it names)
//	exec caches        generation-keyed (coalition values, repair
//	                   diffs, plans): nothing replays — the bumped
//	                   generation makes stale entries unreachable
//
// Structural edits enter through table.Append/DeleteRow/ApplyBatch and
// the streaming table.IngestCSV, surface in the session API as
// Session.InsertRow/DeleteRow/ApplyBatch/IngestCSV (history lines name
// the swap remap), and over HTTP as the insert_row/delete_row/batch
// fields of POST /api/session/{id}/edit plus the CSV-streaming POST
// /api/session/{id}/ingest. Snapshots spool history batch brackets and
// RestoreSession rejects unbalanced ones. The violations/{insert,delete,
// batch} BENCH_<n>.json rows track delta replay against a forced full
// rebuild; CI gates the insert and delete pairs at >=5x (`trex-bench
// -ratios`).
//
// # The violation index
//
// Violation detection — "which pairs jointly satisfy a denied
// conjunction?" — is the inner question of every repair pass and every
// coalition evaluation. It is answered by three stacked layers in
// internal/dc, each maintained incrementally off the table's bounded edit
// log (table.EditsSince) and each with a strictly coarser invalidation
// trigger than the one below:
//
//   - bucketSet: one hash partition of the table over one join-column
//     signature (the composite of a constraint's t1.A = t2.A attributes,
//     canonicalized so int 1 ≡ float 1.0 and ±0.0 collapse; null and NaN
//     join cells exclude the row, since NULL = x is unknown and
//     NaN ≠ NaN). A cell edit moves one row between two buckets; only a
//     structural change (row count, schema) or edit-log overrun forces a
//     rebuild.
//   - ScanIndex: the per-goroutine cache of bucketSets keyed on (table
//     pointer, generation) plus, per constraint, the memoized join-column
//     resolution and the compiled predicate kernel (Kernel): every
//     operand's column index resolved once, evaluation running
//     predicate-at-a-time over a bucket's candidate rows with the fixed
//     operand hoisted and compared through typed column views
//     (table.IntCol/FloatCol/StringCol). Kernels and column resolutions
//     are schema-scoped — re-pointing the index at a clone recompiles
//     nothing — while buckets are table-scoped. The kernel over a
//     ScanIndex is the only production evaluator: full scans, point
//     probes and live-list derivation share one scan. The interpreted
//     evaluator (Predicate.Eval / SatisfiedPair) lives on only as the
//     test oracle in internal/dc/export_test.go, and property and fuzz
//     tests check every production path against it across randomized
//     schemas, NaN/±0.0 values and all six operators.
//   - LiveViolationSet: the materialized answer — per-(constraint, table)
//     violation-pair lists, sorted (Row1, Row2). A cell edit retracts the
//     edited row's pairs and re-derives them against the row's current
//     bucket; a full re-derivation (first query, log overrun, table
//     switch) fans out across disjoint buckets on a worker pool for large
//     tables. Every table keeps materialized lists, however small: the
//     coalition scratch copies of small tables are where per-edit
//     maintenance pays most, so there is no small-table rescan bypass. Lists are golden-tested bit-identical to full rescans under
//     randomized edit sequences. All four black boxes consume it (the
//     rule and detect loops read lists, the FD chase visits only
//     violating groups), core.Session serves it to the edit loop
//     (Session.Violations, GET /api/session/{id}/violations), and the
//     Shapley samplers drive it implicitly: every mask/unmask SetRef and
//     every work-table refresh lands in the edit log, so the pooled run
//     state of the next repair pays per-edit maintenance instead of
//     per-bucket-squared rescans.
//
// # Constraint-set planning
//
// The layers above treat each denial constraint in isolation; the
// explanation workloads evaluate the whole DC set per coalition,
// thousands of times. internal/dc/plan compiles the set as one shared
// relational-algebra plan — (a) partition sharing: constraints whose
// canonical equality-join column sets are equal share one bucketSet
// outright, and a constraint with a pre-filter may adopt another's
// proper subset (missing at most one column) as a coarser shared
// partition, so edit-log delta replay runs once per shared partition
// instead of once per constraint; (b) predicate ordering by a
// statistics-free selectivity heuristic (operator class refined by
// operand arity, declaration order breaking ties); (c) pushdown of
// single-side predicates into per-row pre-filter bitmaps evaluated once
// per row per generation instead of once per candidate pair; (d) hash
// pre-sizing from cardinalities observed in earlier generations.
//
// Sessions compile lazily and memoize compiled plans in the engine's
// plan cache (exec.PlanCache) keyed by (schema identity, DC-set
// fingerprint); AddDC/RemoveDC invalidate and recompile, so the plan can
// never go stale against the constraint set (the cacheinval analyzer
// enforces the recompile on every mutation path). Every consumer —
// ScanIndex, LiveViolationSet, the four black boxes' planned repair
// paths, core.Session — takes the plan as an optional strategy: planned
// execution is bit-identical to the per-constraint reference path, which
// survives as the golden cross-check (fuzz and golden equivalence tests;
// subset coarsening re-checks full kernels on scans and is never used
// for group enumeration, which keeps exact partitions). The dcset
// scenario family in BENCH_<n>.json tracks the planner against the
// reference on shared-join-key DC sets; CI gates the scan pairs at
// >=1.5x (`trex-bench -ratios`).
//
// # The HTTP server
//
// internal/server serves the API and the GUI with one core.Session per
// session id, behind a per-session mutex. Its answers are appended into
// pooled buffers by hand-written writers (internal/server/wire.go),
// byte-identical to encoding/json on the wire structs. Every session also
// keeps an answer encoder: the encoded rows of its dirty table, its
// constraint texts and its history. The encoder catches up from the edit
// log like the layers above, so an edit answer after a one-cell edit
// re-encodes one row and copies the rest (a 192-row answer in about 4 µs
// and one allocation, against about 70 µs and 87 allocations for a full
// encode), and a repair answer re-encodes only the rows the repair
// patches. The history is still echoed whole in every session answer.
// Eviction to the spool drops the encoder with the session.
//
// # Fault model and degradation ladder
//
// The robustness layer assumes three failure classes — abandoned or
// over-deadline requests, panicking black boxes, and memory/process
// pressure — and answers each one rung down a documented ladder, never
// with stale or torn results:
//
//   - Cooperative cancellation: every explain and repair entry point takes
//     a context.Context, polled at deterministic checkpoints (sample
//     boundaries in the shapley fan-out, bucket boundaries in the parallel
//     repair passes, coalition boundaries in exact enumeration). The hard
//     invariant is no partial-work poisoning: each core.Explainer entry
//     point runs inside a cache transaction (exec.Txn). Coalition values
//     go straight into the shared coalition cache, and the transaction
//     keeps an undo log of the entries it inserted; repair diffs and
//     report entries are staged for the result memo. The transaction
//     commits on success, truncating the log and publishing the staged
//     memo entries. On error or panic it deletes the logged entries
//     (each only while its shard still holds it at the logged generation)
//     and drops the staging, so an aborted run leaves the shared
//     coalition cache, the repair-target cache, pooled statistics and the
//     live violation index bit-identical to never having started
//     (abort-then-rerun golden tests enforce this at every cancellation
//     site, fingerprinting cache state before and after). Memo entries
//     carry their original generation stamps, so a transaction that
//     outlived an edit publishes none. A concurrent explain on the same
//     engine may read another run's uncommitted coalition values, which
//     is sound because a value is stored only after its own evaluation
//     returned without error; an aborted run that overlapped another
//     keeps its values, which that run may have read.
//   - Admission control (internal/server): heavy endpoints pass a bounded
//     in-flight semaphore; a saturated server answers 429 with Retry-After
//     instead of queueing unboundedly. Per-request deadlines turn
//     over-budget computations into 408 after cancelling the underlying
//     work (the workers demonstrably return to the pool). Request bodies
//     are capped with http.MaxBytesReader and the listener carries
//     read/header/idle timeouts, so no single client can pin a connection.
//   - Panic quarantine: a panic inside a session-scoped request is
//     recovered at the handler, the request answers 409 with the panic
//     diagnostics, and the session is fenced — every later request to it
//     answers 409 until restart, because the panic may have torn black-box
//     scratch state. Other sessions and the process are unaffected; a
//     panic outside any session scope answers 500.
//   - Session survival: session state (table cells as kind-tagged values —
//     floats as IEEE-754 bit patterns so NaN and String("5")/Int(5)
//     distinctions survive — plus the DC set, edit history and worker
//     budget) snapshots to a versioned JSON spool file (SessionSnapshot,
//     snapshotVersion guards the format). An LRU with a live-session
//     budget snapshots-then-evicts idle sessions and transparently
//     restores on next touch; SIGTERM drains in-flight requests within a
//     deadline, snapshots every live session, and exits 0, so a restart
//     with the same spool directory answers bit-identically to the
//     process that died. Spool writes are atomic (temp file + rename); a
//     failed snapshot keeps the session live rather than losing it.
//   - Fault injection (internal/faults): the chaos suite drives all of the
//     above through deterministic seeded schedules that fire cancellation,
//     panics, slow workers, I/O errors and edit-log overruns at named
//     sites (worker start, bucket partition, cache store, edit replay,
//     snapshot write). Equal seeds fire equal (site, ordinal, kind)
//     triples on every platform, so every chaos failure reproduces from
//     its seed alone.
//
// # Linting
//
// The engine's cross-cutting invariants are enforced mechanically by
// trexlint (internal/lint, driven by cmd/trexlint), a go/analysis-style
// suite built on the standard library alone. It runs standalone (`go run
// ./cmd/trexlint ./...`), as a vet tool (`go vet -vettool=...`), and as
// the CI lint job; any unsuppressed finding fails the build. The
// analyzers, each born from a bug class an earlier PR fixed by hand:
//
//   - detmap: no unordered map iteration in the deterministic fan-out
//     packages (internal/shapley, internal/exec, internal/repair,
//     internal/dc). Workers=1 and Workers=N must be bit-identical (the
//     PR 4 contract), and map order is randomized per run. The sorted-keys
//     idiom — collect into a slice, then sort.*/slices.* it in the same
//     function — is recognized and exempt.
//   - seededrand: no math/rand globals and no time.Now/Since in engine
//     code; randomness must flow from seeded sources (rand.New,
//     SplitMix64) threaded from the caller, so equal seeds replay equal
//     runs (the PR 6 chaos-reproducibility contract).
//   - editlog: outside internal/table, no direct writes into table cell
//     storage ([]table.Value obtained from RowView or another alias) and
//     no structural writes into [][]table.Value row grids of aliasing
//     provenance (a raw slot swap is an unlogged swap-delete); mutations
//     go through Set/SetRef/Append/DeleteRow/ApplyBatch (or CopyFrom) so
//     the typed edit log stays the single source of truth for
//     incremental sync (PR 5, widened to the structural surface in
//     PR 10).
//   - cachekey: descriptor/key-builder functions must not stringify
//     table.Value via String or fmt — Value.AppendKey is the injective
//     encoding; String collapses distinct values (Int(5) vs String("5"))
//     and would alias cache entries (PR 4).
//   - txnbracket: every exported context-taking Explainer entry point in
//     internal/core opens with `defer e.finishEntry(e.begin(), &err)` so
//     no partial work escapes a failed entry (the PR 6 transaction
//     bracket). Five do: Explain, Repair, RepairDiff, Target and
//     Achievable; single-statement delegations such as ExplainConstraints
//     and ExplainCells are exempt.
//
// Four further analyzers are flow-sensitive: they reason about paths and
// cycles rather than single sites, on two shared layers. internal/lint/cfg
// builds a per-function control-flow graph (basic blocks over the full
// statement language — if/for/range/switch/select, labeled break/continue,
// goto — with a deterministic worklist solver, post-dominance queries via
// EveryPathHits, and check-free-cycle detection via CycleAvoiding), and
// internal/lint/dataflow summarizes each function's facts (allocations,
// mutex acquisitions with stable labels, table/DC-set mutation, cache
// invalidation, context polling) and propagates them over static call
// edges to a bounded depth:
//
//   - allocfree: functions reachable from a //lint:hotpath root — the
//     eval→repair spine: cache lookups/stores, packed-key encoding,
//     sampled-walk marginals, the serial RepairInto implementations — must
//     not allocate per call. Escaping allocation sites (escape to caller,
//     interface boxing, closure capture, zero-capacity append growth) are
//     reported with the site and its escape path; cap-guarded pool refills
//     and error exits are exempt.
//   - cacheinval: every write to Table.rows or a Session's dcs/alg must be
//     post-dominated by the invalidation surface (Table.logEdit /
//     Table.logStructural / Table.invalidateEdits /
//     Engine.InvalidateCache) — no path from a
//     mutation to return may skip invalidation, else the coalition cache
//     serves stale values (the PR 5/6 coherence contract). Session
//     DC-set/algorithm mutations must additionally be post-dominated by
//     the plan-refresh surface (Session.refreshPlan / PlanCache.Clear),
//     or the session keeps driving a constraint-set plan compiled for
//     constraints that no longer exist (the PR 9 planner contract).
//   - lockorder: mutex-acquisition-order cycles across a package (lock A
//     held while taking B in one function, B while taking A in another)
//     are reported at the first edge of the cycle; deferred unlocks hold
//     to function exit, RLock nesting is legal, function-local mutexes are
//     out of scope.
//   - ctxflow: in a context-accepting function, goroutines must be started
//     with the incoming context observed, and no loop may iterate without
//     consulting ctx on every back edge (directly, or via a callee that
//     transitively polls) — otherwise cancellation admits unbounded delay
//     (the PR 6 admission-control contract).
//
// Analyzer-to-invariant map, for review:
//
//	detmap      Workers=1 ≡ Workers=N (bit-identical results)
//	seededrand  equal seeds replay equal runs
//	editlog     edit log is the single source of truth
//	cachekey    cache keys are injective encodings
//	txnbracket  no partial work escapes a failed entry
//	allocfree   steady-state hot path allocates zero bytes
//	cacheinval  every mutation invalidates before returning
//	lockorder   lock acquisition order is acyclic per package
//	ctxflow     cancellation is observed on every iteration
//
// A finding is suppressed only by a justified directive on, or directly
// above, its line:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory — a reasonless directive is itself a finding
// (lintdirective) — and should argue why the invariant holds anyway
// (e.g. an XOR fold is order-independent, a buffer is private scratch).
// A directive that stops suppressing anything (the code moved or was
// fixed) is reported as stale, and one naming an unknown analyzer as a
// typo, so the suppression inventory cannot rot. Hot-path roots are
// declared the same way — `//lint:hotpath` directly above a function
// declaration seeds allocfree's reachability sweep. Never weaken an
// analyzer to make a finding go away.
//
// # Layout
//
//	internal/table      typed in-memory tables, CSV, statistics, diffs
//	internal/exec       session engine: shared coalition cache, worker pool
//	internal/dc         denial-constraint language and evaluation
//	internal/dcdiscover FastDCs-flavoured constraint mining
//	internal/repair     the black boxes: Algorithm 1, HoloSim, baselines
//	internal/shapley    exact and sampled Shapley computation
//	internal/core       the T-REx engine: games, explainer, sessions
//	internal/data       La Liga example, generators, error injection
//	internal/server     HTTP API + embedded GUI (Figure 3/4)
//	internal/bench      experiment implementations (`trex-bench -list`)
//	internal/lint       trexlint invariant analyzers (see # Linting)
//	internal/lint/cfg   per-function control-flow graphs + worklist solver
//	internal/lint/dataflow  bounded call-graph summaries for the analyzers
//	cmd/trex            CLI repair + explain
//	cmd/trex-server     web demo
//	cmd/trex-bench      regenerates every experiment
//	cmd/trexlint        standalone + vet-tool lint driver
//	examples/           runnable walkthroughs of the public API
package repro
