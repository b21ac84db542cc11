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
	// estimates are bit-identical for every Workers value.
	Workers int
	// Seed drives all randomness; runs with equal options are reproducible.
	Seed int64
	// Epsilon, when positive, enables early stopping: sampling for a
	// player stops once the Hoeffding bound guarantees the estimate is
	// within Epsilon of the true value of the sampled game with
	// probability 1−Delta. Requires marginals in [-Range, Range].
	Epsilon float64
	// Delta is the early-stopping failure probability (default 0.05).
	Delta float64
	// Range bounds |marginal| for early stopping (default 1, exact for the
	// binary repair games of the paper).
	Range float64
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Delta <= 0 {
		o.Delta = 0.05
	}
	if o.Range <= 0 {
		o.Range = 1
	}
	return o
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

// marginalState is the per-worker scratch of the one-marginal-per-sample
// samplers (TopK): a permutation buffer, a coalition/prefix
// buffer, and — for incremental games — one borrowed walk reused across
// every chunk the worker runs, with the membership mirror that lets a
// DeltaWalk morph coalition to coalition instead of rebuilding from ∅.
type marginalState struct {
	perm      []int
	coalition []bool
	walk      CoalitionWalk
	morph     *walkMorph
}

// newMarginalState builds one worker's scratch for game g.
func newMarginalState(g StochasticGame) *marginalState {
	n := g.NumPlayers()
	st := &marginalState{perm: make([]int, n), coalition: make([]bool, n)}
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

// SampleAll estimates every player's Shapley value by permutation walks
// (Castro, Gómez & Tejada 2009): each sampled permutation is traversed
// once, evaluating the game on each prefix, which yields one marginal
// contribution for every player at n+1 evaluations per permutation —
// a factor-2n saving over sampling each player on its own.
func SampleAll(ctx context.Context, g StochasticGame, opts Options) ([]Estimate, error) {
	opts = opts.withDefaults()
	n := g.NumPlayers()
	if n == 0 {
		return nil, nil
	}
	if opts.Samples <= 0 {
		return nil, fmt.Errorf("shapley: Samples must be positive, got %d", opts.Samples)
	}
	accs, err := fanOut(ctx, opts, opts.Samples, n,
		func() *marginalState { return newMarginalState(g) },
		(*marginalState).close,
		func(ctx context.Context, st *marginalState, rng *rand.Rand, iters int, acc []welford) error {
			perm := st.perm
			if walk := st.walk; walk != nil {
				// Incremental fast path: the prefix walk grows by exactly one
				// player per step, so each step hands the game a single-cell
				// delta instead of a full coalition mask.
				for it := 0; it < iters; it++ {
					if err := ctx.Err(); err != nil {
						return err
					}
					randPerm(rng, perm)
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
						acc[p].add(v - prev)
						prev = v
					}
				}
				return nil
			}
			coalition := st.coalition
			for it := 0; it < iters; it++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				randPerm(rng, perm)
				for i := range coalition {
					coalition[i] = false
				}
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
					acc[p].add(v - prev)
					prev = v
				}
			}
			return nil
		})
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

// fanOut splits iters into a deterministic chunk grid and schedules the
// chunks onto workers. Each chunk owns an RNG stream seeded by its chunk
// index and its own accumulators, and chunk accumulators are merged in
// chunk order after the last chunk completes — so the result is a pure
// function of (iters, Seed), bit-identical for every Workers value (the
// determinism contract CI's smoke job asserts). setup builds one reusable
// per-worker state (scratch buffers, a borrowed coalition walk) that
// amortizes across every chunk the worker runs; teardown releases it.
func fanOut[S any](ctx context.Context, opts Options, iters, players int, setup func() S, teardown func(S), work func(ctx context.Context, st S, rng *rand.Rand, iters int, acc []welford) error) ([]welford, error) {
	if iters <= 0 {
		return make([]welford, players), nil
	}
	size := fanChunk(iters)
	chunks := (iters + size - 1) / size
	workers := opts.Workers
	if workers > chunks {
		workers = chunks
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
			var acc []welford
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				share := size
				if c == chunks-1 {
					share = iters - size*(chunks-1)
				}
				if acc == nil {
					acc = make([]welford, players)
				} else {
					clear(acc)
				}
				// Golden-ratio stride (0x9E3779B97F4A7C15 as a signed 64-bit
				// value) decorrelates per-chunk RNG streams; SplitMix64
				// reseeds in constant time, so the per-chunk reseed costs
				// nothing even for minimum-size chunks.
				const streamStride = -0x61C8864680B583EB
				rng.Seed(opts.Seed + int64(c)*streamStride)
				if err := work(ctx, st, rng, share, acc); err != nil {
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
