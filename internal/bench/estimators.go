package bench

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/shapley"
)

// The estimators below are the experiments' reference and ablation
// estimators: the explainer never runs them. They build on the public
// game interfaces of internal/shapley and run serially.

// maxExactOnePlayers bounds ExactOne's enumeration like ExactSubsets'.
const maxExactOnePlayers = 25

// ExactOne computes the Shapley value of a single player by direct subset
// enumeration over the other n-1 players. Cost: 2^(n-1) pairs of
// evaluations; useful when only one player's value is needed.
func ExactOne(ctx context.Context, g shapley.Game, player int) (float64, error) {
	n := g.NumPlayers()
	if player < 0 || player >= n {
		return 0, fmt.Errorf("bench: player %d out of range 0..%d", player, n-1)
	}
	if n > maxExactOnePlayers {
		return 0, fmt.Errorf("%w: %d players (max %d)", shapley.ErrTooManyPlayers, n, maxExactOnePlayers)
	}
	// w[s] = s!(n-s-1)!/n!, the weight of a coalition of s others.
	w := make([]float64, n)
	w[0] = 1 / float64(n)
	for s := 1; s < n; s++ {
		w[s] = w[s-1] * float64(s) / float64(n-s)
	}
	others := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != player {
			others = append(others, i)
		}
	}
	coalition := make([]bool, n)
	var shap float64
	for mask := 0; mask < 1<<len(others); mask++ {
		if mask%512 == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		clear(coalition)
		size := 0
		for b, p := range others {
			if mask&(1<<b) != 0 {
				coalition[p] = true
				size++
			}
		}
		without, err := g.Value(ctx, coalition)
		if err != nil {
			return 0, err
		}
		coalition[player] = true
		with, err := g.Value(ctx, coalition)
		if err != nil {
			return 0, err
		}
		shap += w[size] * (with - without)
	}
	return shap, nil
}

// SampleAllAntithetic is permutation sampling with antithetic pairs: each
// sampled permutation π is walked together with its reverse. For a player
// near the front of π (small coalition) the reverse places it near the back
// (large coalition), so the pair's marginals are negatively correlated for
// monotone games and their average has lower variance than two independent
// draws. The evaluation budget matches shapley.SampleAll with the same
// number of samples (each pair costs two walks, so (samples+1)/2 pairs are
// drawn).
func SampleAllAntithetic(ctx context.Context, g shapley.StochasticGame, samples int, seed int64) ([]shapley.Estimate, error) {
	n := g.NumPlayers()
	if n == 0 {
		return nil, nil
	}
	if samples <= 0 {
		return nil, fmt.Errorf("bench: samples must be positive, got %d", samples)
	}
	rng := rand.New(rand.NewSource(seed))
	perm, reversed := make([]int, n), make([]int, n)
	coalition := make([]bool, n)
	marg, first := make([]float64, n), make([]float64, n)
	walk := func(p []int) error {
		clear(coalition)
		prev, err := g.SampleValue(ctx, coalition, rng)
		if err != nil {
			return err
		}
		for _, pl := range p {
			coalition[pl] = true
			v, err := g.SampleValue(ctx, coalition, rng)
			if err != nil {
				return err
			}
			marg[pl] = v - prev
			prev = v
		}
		return nil
	}
	acc := make([]welford, n)
	for pair := 0; pair < (samples+1)/2; pair++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := range perm {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], i
		}
		for i := range perm {
			reversed[n-1-i] = perm[i]
		}
		if err := walk(perm); err != nil {
			return nil, err
		}
		copy(first, marg)
		if err := walk(reversed); err != nil {
			return nil, err
		}
		for p := range acc {
			// One paired sample: the average of the antithetic marginals.
			acc[p].add((first[p] + marg[p]) / 2)
		}
	}
	out := make([]shapley.Estimate, n)
	for p := range out {
		out[p] = acc[p].estimate(p)
	}
	return out, nil
}

// SamplePlayerStratified estimates one player's Shapley value with
// stratification by coalition size (Maleki et al. 2013): the Shapley value
// is the average over sizes s = 0..n-1 of the expected marginal
// contribution to a uniformly random coalition of size s. Allocating an
// equal budget to every stratum removes the variance of the size draw that
// plain permutation sampling carries.
func SamplePlayerStratified(ctx context.Context, g shapley.StochasticGame, player, samples int, seed int64) (shapley.Estimate, error) {
	n := g.NumPlayers()
	if player < 0 || player >= n {
		return shapley.Estimate{}, fmt.Errorf("bench: player %d out of range 0..%d", player, n-1)
	}
	if samples <= 0 {
		return shapley.Estimate{}, fmt.Errorf("bench: samples must be positive, got %d", samples)
	}
	perStratum := max(samples/n, 1)
	others := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != player {
			others = append(others, i)
		}
	}

	// Per-stratum accumulators; the final estimate averages stratum means
	// with equal weight (each size is equally likely under the Shapley
	// distribution) and combines variances accordingly.
	strata := make([]welford, n)
	rng := rand.New(rand.NewSource(seed))
	coalition := make([]bool, n)
	scratch := make([]int, len(others))
	for s := 0; s < n; s++ {
		if err := ctx.Err(); err != nil {
			return shapley.Estimate{}, err
		}
		for it := 0; it < perStratum; it++ {
			if err := ctx.Err(); err != nil {
				return shapley.Estimate{}, err
			}
			// Sample a uniform size-s subset of the other players via a
			// partial Fisher–Yates shuffle.
			copy(scratch, others)
			for i := 0; i < s; i++ {
				j := i + rng.Intn(len(scratch)-i)
				scratch[i], scratch[j] = scratch[j], scratch[i]
			}
			clear(coalition)
			for _, p := range scratch[:s] {
				coalition[p] = true
			}
			without, err := g.SampleValue(ctx, coalition, rng)
			if err != nil {
				return shapley.Estimate{}, err
			}
			coalition[player] = true
			with, err := g.SampleValue(ctx, coalition, rng)
			if err != nil {
				return shapley.Estimate{}, err
			}
			strata[s].add(with - without)
		}
	}

	// Combine: mean = (1/n) Σ_s mean_s; Var(mean) = (1/n²) Σ_s var_s/n_s.
	est := shapley.Estimate{Player: player}
	var varOfMean float64
	for s := range strata {
		st := strata[s].estimate(player)
		est.Mean += st.Mean / float64(n)
		if st.N > 1 {
			varOfMean += st.Variance / float64(st.N) / float64(n*n)
		}
		est.N += st.N
	}
	// Report Variance so that StdErr() = sqrt(Variance/N) equals the
	// stratified standard error computed above.
	est.Variance = varOfMean * float64(est.N)
	return est, nil
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

func (w *welford) estimate(player int) shapley.Estimate {
	e := shapley.Estimate{Player: player, Mean: w.mean, N: w.n}
	if w.n > 1 {
		e.Variance = w.m2 / float64(w.n-1)
	}
	return e
}
