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
	// changes scheduling, never results: each sampled permutation draws
	// from its own RNG stream, seeded from (Seed, its index) alone, and
	// permutations fold into the estimates in index order, so estimates
	// are bit-identical for every Workers value.
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

func (w *welford) estimate(player int) Estimate {
	e := Estimate{Player: player, Mean: w.mean, N: w.n}
	if w.n > 1 {
		e.Variance = w.m2 / float64(w.n-1)
	}
	return e
}

// marginalState is the per-worker scratch of the samplers: a permutation
// buffer, a coalition/prefix buffer and — for incremental games — one
// borrowed walk reused across every unit the worker runs, with the
// membership mirror that lets a DeltaWalk morph coalition to coalition
// instead of rebuilding from ∅ (TopK).
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
// a factor-2n saving over sampling each player on its own. Permutation j
// is one fanOut unit: its order and any replacement draws come from its
// own stream, so Samples n+m extends Samples n by m permutations.
func SampleAll(ctx context.Context, g StochasticGame, opts Options) ([]Estimate, error) {
	opts = opts.withDefaults()
	n := g.NumPlayers()
	if n == 0 {
		return nil, nil
	}
	if opts.Samples <= 0 {
		return nil, fmt.Errorf("shapley: Samples must be positive, got %d", opts.Samples)
	}
	accs := make([]welford, n)
	err := fanOut(ctx, opts, opts.Samples,
		func() *marginalState { return newMarginalState(g) },
		(*marginalState).close,
		func(ctx context.Context, st *marginalState, rng *rand.Rand, marg *[]float64) error {
			if *marg == nil {
				*marg = make([]float64, n)
			}
			randPerm(rng, st.perm)
			return st.permMarginals(ctx, g, st.perm, rng, *marg)
		},
		func(marg *[]float64) {
			for p, m := range *marg {
				accs[p].add(m)
			}
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

// fanOut runs units 0..units-1 on opts.Workers goroutines and folds their
// rows in unit order. Unit j draws from its own RNG stream, seeded from
// (Seed, j) alone (unitSeed), and fold sees the rows strictly in j order,
// so what the folds compute is a pure function of (units, Seed): it is
// bit-identical for every Workers value (the determinism contract CI's
// determinism job asserts), and a run of n units is the first n folds of
// any larger run. A row that finishes ahead of its turn is parked until
// every unit before it has folded, so retained rows follow the
// out-of-order window (about Workers), never the unit count.
//
// setup builds one reusable per-worker state (scratch buffers, a borrowed
// coalition walk) that amortizes across every unit the worker runs;
// teardown releases it. work fills *row for one unit; the row may hold an
// earlier unit's contents, so work can reuse its buffers.
func fanOut[S, R any](ctx context.Context, opts Options, units int, setup func() S, teardown func(S),
	work func(ctx context.Context, st S, rng *rand.Rand, row *R) error, fold func(row *R)) error {
	if units <= 0 {
		return nil
	}
	workers := max(1, min(opts.Workers, units))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu     sync.Mutex
		turn   int                // the next unit to fold
		parked = make(map[int]*R) // finished units waiting for their turn
		spare  []*R               // folded rows, for reuse
	)
	// done folds unit j's row, then every parked row whose turn follows, or
	// parks it when an earlier unit is still running. It returns the row
	// the worker fills next.
	done := func(j int, row *R) *R {
		mu.Lock()
		defer mu.Unlock()
		if j != turn {
			parked[j] = row
			if k := len(spare); k > 0 {
				row, spare = spare[k-1], spare[:k-1]
				return row
			}
			return new(R)
		}
		fold(row)
		for turn++; ; turn++ {
			r, ok := parked[turn]
			if !ok {
				return row
			}
			delete(parked, turn)
			fold(r)
			spare = append(spare, r)
		}
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
			row := new(R)
			for {
				j := int(next.Add(1)) - 1
				if j >= units {
					return
				}
				rng.Seed(unitSeed(opts.Seed, j))
				if err := work(ctx, st, rng, row); err != nil {
					errs[w] = err
					cancel()
					return
				}
				row = done(j, row)
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
	return firstErr
}

// unitSeed derives unit j's seed: the scrambled seed, offset by j, through
// one SplitMix64 output step. Both mixers are bijections, so distinct units
// of one seed get distinct seeds, and seed and j both pass through a
// mixer, so the streams of different (seed, j) pairs are unrelated. An
// arithmetic seed + j·stride would not do: seeds s and s+stride would
// replay each other's streams one unit apart.
func unitSeed(seed int64, j int) int64 {
	var s splitmix
	s.Seed(seed)
	s.s += uint64(j)
	return int64(s.Uint64())
}

// panicValue carries a recovered worker panic to the caller goroutine.
type panicValue struct{ v any }

// splitmix is Vigna's SplitMix64 as a math/rand source: fanOut reseeds its
// stream once per unit, and math/rand's default lagged Fibonacci source
// pays a ~607-word reinitialization per Seed — more than one permutation's
// entire sampling work on fast games. SplitMix64 seeds in O(1), draws
// faster, and passes BigCrush.
type splitmix struct{ s uint64 }

// Seed implements rand.Source. The raw seed is scrambled through a
// 64-bit finalizer (MurmurHash3) before becoming the state: SplitMix64's
// state walk is arithmetic, so unscrambled, nearby seeds (or seeds a
// multiple of its gamma apart) would start the same sequence at a small
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
