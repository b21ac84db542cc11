package shapley

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
)

// StochasticGame is a game whose characteristic function is itself an
// expectation approximated by sampling — the situation of Example 2.5,
// where a cell outside the coalition is replaced by a random draw from its
// column distribution. The sampler draws one realization per visit; the
// Monte-Carlo average then estimates the Shapley value of the expected
// game (Strumbelj & Kononenko, KAIS 2014).
type StochasticGame interface {
	// NumPlayers returns n; players are identified as 0..n-1.
	NumPlayers() int
	// SampleValue evaluates one random realization of the characteristic
	// function on the coalition, drawing any required randomness from rng.
	SampleValue(ctx context.Context, coalition []bool, rng *rand.Rand) (float64, error)
}

// Deterministic lifts a deterministic Game into a StochasticGame (the rng
// is ignored).
type Deterministic struct {
	// G is the underlying deterministic game.
	G Game
}

// NumPlayers implements StochasticGame.
func (d Deterministic) NumPlayers() int { return d.G.NumPlayers() }

// SampleValue implements StochasticGame.
func (d Deterministic) SampleValue(ctx context.Context, coalition []bool, _ *rand.Rand) (float64, error) {
	return d.G.Value(ctx, coalition)
}

// Estimate is the Monte-Carlo estimate of one player's Shapley value.
type Estimate struct {
	// Player is the player index.
	Player int
	// Mean is the sample mean of observed marginal contributions — the
	// Shapley estimate φ/m of Example 2.5.
	Mean float64
	// Variance is the unbiased sample variance of the marginals.
	Variance float64
	// N is the number of marginal samples.
	N int
}

// StdErr returns the standard error of the mean.
func (e Estimate) StdErr() float64 {
	if e.N < 2 {
		return math.Inf(1)
	}
	return math.Sqrt(e.Variance / float64(e.N))
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval around Mean.
func (e Estimate) CI95() float64 { return 1.96 * e.StdErr() }

// String renders the estimate for logs.
func (e Estimate) String() string {
	return fmt.Sprintf("player %d: %.4f ± %.4f (n=%d)", e.Player, e.Mean, e.CI95(), e.N)
}

// Options configures the sampler.
type Options struct {
	// Samples is m: the number of sampled permutations. For SampleAll each
	// permutation yields one marginal per player. Must be positive.
	Samples int
	// Workers is the parallel fan-out; 0 means GOMAXPROCS. Workers only
	// changes scheduling, never results: iterations are partitioned into
	// chunks whose size and RNG streams depend only on (Samples, Seed), so
	// estimates are bit-identical for every Workers value. SampleAll over a
	// game that draws no randomness (RandomnessFree) schedules single
	// permutations instead of whole chunks, so a few slow chunks cannot
	// leave a worker idle; each permutation is still drawn from its chunk's
	// stream and folded in chunk order, so the estimates are the same.
	Workers int
	// Seed drives all randomness; runs with equal options are reproducible.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// RandomnessFree is implemented by a game that can declare that neither
// SampleValue nor its walks' Value ever reads the sampler's rng (the cell
// game, over cells or groups, under the null policy). The only randomness of a
// SampleAll run over such a game is then the permutation draws, which is
// what lets fanOut schedule single permutations across workers.
type RandomnessFree interface {
	// DrawsNoRandomness reports whether evaluation never reads rng.
	DrawsNoRandomness() bool
}

// welford accumulates mean and variance in one pass (numerically stable).
type welford struct {
	n    int
	mean float64
	m2   float64
}

func (w *welford) add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

func (w *welford) merge(o welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
}

func (w *welford) estimate(player int) Estimate {
	e := Estimate{Player: player, Mean: w.mean, N: w.n}
	if w.n > 1 {
		e.Variance = w.m2 / float64(w.n-1)
	}
	return e
}

// marginalState is the per-worker scratch of the samplers: a permutation
// buffer, a coalition/prefix buffer, one permutation's marginal vector,
// and — for incremental games — one borrowed walk reused across every
// chunk the worker runs, with the membership mirror that lets a DeltaWalk
// morph coalition to coalition instead of rebuilding from ∅ (TopK).
type marginalState struct {
	perm      []int
	coalition []bool
	marg      []float64
	walk      CoalitionWalk
	morph     *walkMorph
}

// newMarginalState builds one worker's scratch for game g.
func newMarginalState(g StochasticGame) *marginalState {
	n := g.NumPlayers()
	st := &marginalState{perm: make([]int, n), coalition: make([]bool, n), marg: make([]float64, n)}
	if st.walk = walkOrNil(g); st.walk != nil {
		if d, ok := st.walk.(DeltaWalk); ok {
			st.morph = newWalkMorph(d, n)
		}
	}
	return st
}

func (st *marginalState) close() {
	if st.walk != nil {
		st.walk.Close()
	}
}

// marginal draws one marginal contribution for player under perm, through
// the fastest protocol the game supports: coalition morphing (DeltaWalk),
// the prefix walk, or the generic mask rebuild. All three return the exact
// same value and consume rng identically (the equivalence contracts on
// CoalitionWalk and DeltaWalk).
//
//lint:hotpath
func (st *marginalState) marginal(ctx context.Context, g StochasticGame, perm []int, player int, rng *rand.Rand) (float64, error) {
	if st.morph != nil {
		return st.morph.marginal(ctx, perm, player, rng)
	}
	if st.walk != nil {
		return walkMarginal(ctx, st.walk, perm, player, rng)
	}
	coalition := st.coalition
	for i := range coalition {
		coalition[i] = false
	}
	for _, p := range perm {
		if p == player {
			break
		}
		coalition[p] = true
	}
	without, err := g.SampleValue(ctx, coalition, rng)
	if err != nil {
		return 0, err
	}
	coalition[player] = true
	with, err := g.SampleValue(ctx, coalition, rng)
	if err != nil {
		return 0, err
	}
	return with - without, nil
}

// permMarginals walks one permutation and writes every player's marginal
// contribution into marg: the prefix walk when the game has one (each step
// hands the game a single-cell delta instead of a full coalition mask),
// the generic mask rebuild otherwise. Both consume rng identically.
func (st *marginalState) permMarginals(ctx context.Context, g StochasticGame, perm []int, rng *rand.Rand, marg []float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if walk := st.walk; walk != nil {
		walk.Reset()
		st.morph.invalidate()
		prev, err := walk.Value(ctx, rng)
		if err != nil {
			return err
		}
		for _, p := range perm {
			walk.Include(p)
			v, err := walk.Value(ctx, rng)
			if err != nil {
				return err
			}
			marg[p] = v - prev
			prev = v
		}
		return nil
	}
	coalition := st.coalition
	clear(coalition)
	prev, err := g.SampleValue(ctx, coalition, rng)
	if err != nil {
		return err
	}
	for _, p := range perm {
		coalition[p] = true
		v, err := g.SampleValue(ctx, coalition, rng)
		if err != nil {
			return err
		}
		marg[p] = v - prev
		prev = v
	}
	return nil
}

// SampleAll estimates every player's Shapley value by permutation walks
// (Castro, Gómez & Tejada 2009): each sampled permutation is traversed
// once, evaluating the game on each prefix, which yields one marginal
// contribution for every player at n+1 evaluations per permutation —
// a factor-2n saving over sampling each player on its own. A
// RandomnessFree game is scheduled one permutation at a time.
func SampleAll(ctx context.Context, g StochasticGame, opts Options) ([]Estimate, error) {
	opts = opts.withDefaults()
	n := g.NumPlayers()
	if n == 0 {
		return nil, nil
	}
	if opts.Samples <= 0 {
		return nil, fmt.Errorf("shapley: Samples must be positive, got %d", opts.Samples)
	}
	var unit func(ctx context.Context, st *marginalState, perm []int, marg []float64) error
	if rf, ok := g.(RandomnessFree); ok && rf.DrawsNoRandomness() {
		unit = func(ctx context.Context, st *marginalState, perm []int, marg []float64) error {
			return st.permMarginals(ctx, g, perm, nil, marg)
		}
	}
	accs, err := fanOut(ctx, opts, opts.Samples, n,
		func() *marginalState { return newMarginalState(g) },
		(*marginalState).close,
		func(ctx context.Context, st *marginalState, rng *rand.Rand, iters int, acc []welford) error {
			for it := 0; it < iters; it++ {
				randPerm(rng, st.perm)
				if err := st.permMarginals(ctx, g, st.perm, rng, st.marg); err != nil {
					return err
				}
				for p, m := range st.marg {
					acc[p].add(m)
				}
			}
			return nil
		}, unit)
	if err != nil {
		return nil, err
	}
	out := make([]Estimate, n)
	for i := range out {
		out[i] = accs[i].estimate(i)
	}
	return out, nil
}

// Chunking constants for fanOut's deterministic schedule.
const (
	// minChunkIters keeps tiny budgets from collapsing into one stream,
	// which would serialize small interactive runs (m=8 still splits in
	// two), while bounding the per-chunk reseed overhead on mid budgets.
	minChunkIters = 4
	// maxFanChunks bounds the chunk-grid accumulator memory (chunks ×
	// players welfords) on huge budgets while leaving far more chunks than
	// any realistic worker count.
	maxFanChunks = 128
)

// fanChunk returns the chunk size for an iteration budget. It is a pure
// function of the budget — never of Workers — which is what makes the
// estimates independent of the fan-out.
func fanChunk(iters int) int {
	size := minChunkIters
	if c := (iters + maxFanChunks - 1) / maxFanChunks; c > size {
		size = c
	}
	return size
}

// fanOut splits iters into a deterministic chunk grid and schedules it
// onto workers. Each chunk owns an RNG stream seeded by its chunk index
// and its own accumulators, and chunk accumulators are merged in chunk
// order — so the result is a pure function of (iters, Seed), bit-identical
// for every Workers value (the determinism contract CI's determinism job
// asserts). setup builds one reusable per-worker state (scratch buffers, a
// borrowed coalition walk) that amortizes across every unit the worker
// runs; teardown releases it.
//
// With a nil unit, the unit of scheduling is a chunk: work runs the
// chunk's iterations against its stream. A non-nil unit — SampleAll over a
// RandomnessFree game, whose chunk streams hold nothing but permutation
// draws — makes the unit one permutation: the worker re-draws permutation
// j of chunk c from c's stream, unit writes its marginal vector into the
// chunk's row of a permGrid, and the worker that records a chunk's last
// permutation folds the chunk's vectors into its accumulators in
// permutation order. The accumulators see the same additions in the same
// order as under chunk units, so the estimates do not change; a budget of
// a few long chunks (m=16 is four) just no longer leaves a worker idle
// behind the slowest one.
func fanOut[S any](ctx context.Context, opts Options, iters, players int, setup func() S, teardown func(S),
	work func(ctx context.Context, st S, rng *rand.Rand, iters int, acc []welford) error,
	unit func(ctx context.Context, st S, perm []int, marg []float64) error) ([]welford, error) {
	if iters <= 0 {
		return make([]welford, players), nil
	}
	size := fanChunk(iters)
	chunks := (iters + size - 1) / size
	units := chunks
	var grid *permGrid
	if unit != nil {
		units = iters
		grid = newPermGrid(iters, size, players)
	}
	workers := opts.Workers
	if workers > units {
		workers = units
	}
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Streaming chunk-ordered merge: chunk c folds into the result as soon
	// as every chunk before it has — still strictly in chunk order (the
	// determinism invariant) — so retained accumulator memory is bounded by
	// the out-of-order completion window (≈ workers), not the whole grid,
	// and a worker whose chunk merges inline keeps reusing one buffer.
	merged := make([]welford, players)
	pending := make([][]welford, chunks)
	var mergeMu sync.Mutex
	nextMerge := 0
	// finish hands chunk c's accumulators to the merger; it reports whether
	// acc was consumed inline (the caller may then reuse the buffer).
	finish := func(c int, acc []welford) bool {
		mergeMu.Lock()
		defer mergeMu.Unlock()
		if c != nextMerge {
			pending[c] = acc
			return false
		}
		for p := range merged {
			merged[p].merge(acc[p])
		}
		nextMerge++
		//lint:allow ctxflow the drain of already-completed chunks under the merge lock is bounded by the chunk count, not sample-scaled
		for nextMerge < chunks && pending[nextMerge] != nil {
			for p := range merged {
				merged[p].merge(pending[nextMerge][p])
			}
			pending[nextMerge] = nil
			nextMerge++
		}
		return true
	}

	errs := make([]error, workers)
	var panicked atomic.Pointer[panicValue]
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A panic in the game (a black box bug, or an injected fault)
			// must not crash the process from a goroutine nobody can
			// recover: capture it, cancel the peers, and re-raise it on
			// the caller's goroutine after the fan-out drains.
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &panicValue{v: r})
					cancel()
				}
			}()
			st := setup()
			defer teardown(st)
			faults.Hit(faults.SiteWorkerStart)
			rng := rand.New(&splitmix{})
			var cur permCursor
			if grid != nil {
				cur = permCursor{rng: rng, perm: make([]int, players), chunk: -1}
			}
			var acc []welford
			for {
				u := int(next.Add(1)) - 1
				if u >= units {
					return
				}
				c, err := u, error(nil)
				if grid == nil {
					acc = cleared(acc, players)
					rng.Seed(chunkSeed(opts.Seed, c))
					err = work(ctx, st, rng, chunkShare(c, size, iters), acc)
				} else {
					c = u / size
					j := u % size
					if err = unit(ctx, st, cur.draw(opts.Seed, c, j), grid.row(c, j)); err == nil {
						if !grid.record(c) {
							continue // other permutations of chunk c are still running
						}
						acc = cleared(acc, players)
						grid.fold(c, acc)
					}
				}
				if err != nil {
					errs[w] = err
					cancel()
					return
				}
				if !finish(c, acc) {
					acc = nil // handed off to the merger
				}
			}
		}(w)
	}
	wg.Wait()
	if pv := panicked.Load(); pv != nil {
		panic(pv.v)
	}
	// A failing worker cancels its peers, so peers report context.Canceled;
	// surface the root cause in preference to the induced cancellations.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil || (errors.Is(firstErr, context.Canceled) && !errors.Is(err, context.Canceled)) {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return merged, nil
}

// cleared returns acc zeroed, or a new accumulator row when acc is nil
// (its last buffer went to the merger).
func cleared(acc []welford, players int) []welford {
	if acc == nil {
		return make([]welford, players)
	}
	clear(acc)
	return acc
}

// chunkShare is the number of iterations of chunk c: size, except for a
// shorter last chunk.
func chunkShare(c, size, iters int) int {
	return min(size, iters-c*size)
}

// chunkSeed seeds chunk c's RNG stream. The golden-ratio stride
// (0x9E3779B97F4A7C15 as a signed 64-bit value) decorrelates the
// per-chunk streams; SplitMix64 reseeds in constant time, so the per-chunk
// reseed costs nothing even for minimum-size chunks.
func chunkSeed(seed int64, c int) int64 {
	const streamStride = -0x61C8864680B583EB
	return seed + int64(c)*streamStride
}

// permCursor is one worker's position in the chunk streams under
// permutation units: rng holds chunk's stream with pos permutations drawn.
type permCursor struct {
	rng        *rand.Rand
	perm       []int
	chunk, pos int
}

// draw leaves permutation j of chunk c in perm and returns it. A worker
// whose previous unit was an earlier permutation of the same chunk
// continues the stream; otherwise it reseeds and skips the draws before
// j. Every worker thus draws each chunk's permutations at most once, and
// a draw is O(players) against the players+1 evaluations of a walk.
func (pc *permCursor) draw(seed int64, c, j int) []int {
	if c != pc.chunk || j < pc.pos {
		pc.rng.Seed(chunkSeed(seed, c))
		pc.chunk, pc.pos = c, 0
	}
	for ; pc.pos <= j; pc.pos++ {
		randPerm(pc.rng, pc.perm)
	}
	return pc.perm
}

// permGrid holds the marginal vectors of permutation units until their
// chunk is complete. Safe for concurrent use; units write disjoint rows.
type permGrid struct {
	mu                   sync.Mutex
	iters, size, players int
	// rows[c] holds chunk c's vectors, permutation j at [j*players,
	// (j+1)*players); nil until the chunk's first unit starts and after it
	// is folded.
	rows [][]float64
	// left[c] counts chunk c's permutations not yet recorded.
	left []int
	// free holds folded chunks' buffers for reuse, so live rows stay
	// bounded by the chunks in flight.
	free [][]float64
}

func newPermGrid(iters, size, players int) *permGrid {
	chunks := (iters + size - 1) / size
	g := &permGrid{iters: iters, size: size, players: players, rows: make([][]float64, chunks), left: make([]int, chunks)}
	for c := range g.left {
		g.left[c] = chunkShare(c, size, iters)
	}
	return g
}

// row returns the marginal vector of permutation j of chunk c.
func (g *permGrid) row(c, j int) []float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.rows[c] == nil {
		if n := len(g.free); n > 0 {
			g.rows[c], g.free = g.free[n-1], g.free[:n-1]
		} else {
			g.rows[c] = make([]float64, g.size*g.players)
		}
	}
	return g.rows[c][j*g.players : (j+1)*g.players]
}

// record notes that one permutation of chunk c wrote its row and reports
// whether it was the chunk's last.
func (g *permGrid) record(c int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.left[c]--
	return g.left[c] == 0
}

// fold adds chunk c's vectors into acc in permutation order — the order
// chunk units add them in — and recycles the chunk's buffer.
func (g *permGrid) fold(c int, acc []welford) {
	g.mu.Lock()
	rows := g.rows[c]
	g.rows[c] = nil
	g.mu.Unlock()
	for off := 0; off < chunkShare(c, g.size, g.iters)*g.players; off += g.players {
		for p := range acc {
			acc[p].add(rows[off+p])
		}
	}
	g.mu.Lock()
	g.free = append(g.free, rows)
	g.mu.Unlock()
}

// panicValue carries a recovered worker panic to the caller goroutine.
type panicValue struct{ v any }

// splitmix is Vigna's SplitMix64 as a math/rand source: the chunk grid
// reseeds its stream once per chunk, and math/rand's default lagged
// Fibonacci source pays a ~607-word reinitialization per Seed — more than
// a minimum-size chunk's entire sampling work on fast games. SplitMix64
// seeds in O(1), draws faster, and passes BigCrush; the stride-decorrelated
// chunk seeds give it well-separated streams.
type splitmix struct{ s uint64 }

// Seed implements rand.Source. The raw seed is scrambled through a
// 64-bit finalizer (MurmurHash3) before becoming the state: chunk grids
// hand in arithmetic seed progressions, and SplitMix64's state walk is
// itself arithmetic — unscrambled, two chunks' streams could be (and with
// a gamma-multiple stride, provably were) the same sequence at a small
// offset, collapsing the effective sample count.
func (s *splitmix) Seed(seed int64) {
	z := uint64(seed)
	z = (z ^ (z >> 33)) * 0xFF51AFD7ED558CCD
	z = (z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53
	s.s = z ^ (z >> 33)
}

// Uint64 implements rand.Source64.
func (s *splitmix) Uint64() uint64 {
	s.s += 0x9E3779B97F4A7C15
	z := s.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Int63 implements rand.Source.
func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

// randPerm fills perm with a uniformly random permutation of 0..len-1
// (inside-out Fisher–Yates, no allocation).
func randPerm(rng *rand.Rand, perm []int) {
	for i := range perm {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
}
