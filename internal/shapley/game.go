// Package shapley implements the Shapley-value machinery of T-REx: the
// cooperative-game abstraction, exact computation by subset enumeration and
// by permutation enumeration (reference implementations usable when the
// player count is small, as with denial constraints), and the
// Strumbelj–Kononenko permutation-sampling approximation used when the
// player count is large (as with table cells), with Welford accumulators,
// Hoeffding confidence bounds, parallel workers and coalition-value
// caching.
//
// Nothing in this package knows about tables, constraints or repair
// algorithms: those are adapted to games in package core. This enforces the
// paper's black-box boundary.
package shapley

import (
	"context"
	"errors"
	"fmt"
)

// Game is a cooperative game: a fixed player count and a characteristic
// function over coalitions. Implementations must be deterministic;
// v(∅) need not be zero — Shapley values are computed from marginal
// differences, so only differences matter (the textbook v(∅)=0 can always
// be obtained by shifting, which changes no Shapley value).
type Game interface {
	// NumPlayers returns n; players are identified as 0..n-1.
	NumPlayers() int
	// Value evaluates the characteristic function. coalition has length n;
	// coalition[i] reports whether player i participates. Implementations
	// must not retain or mutate the slice.
	Value(ctx context.Context, coalition []bool) (float64, error)
}

// GameFunc adapts a plain function to the Game interface.
type GameFunc struct {
	// N is the player count.
	N int
	// Fn is the characteristic function.
	Fn func(ctx context.Context, coalition []bool) (float64, error)
}

// NumPlayers implements Game.
func (g GameFunc) NumPlayers() int { return g.N }

// Value implements Game.
func (g GameFunc) Value(ctx context.Context, coalition []bool) (float64, error) {
	return g.Fn(ctx, coalition)
}

// ErrTooManyPlayers is returned by the exact enumerators when the player
// count makes enumeration infeasible.
var ErrTooManyPlayers = errors.New("shapley: too many players for exact enumeration")

// maxExactSubsetPlayers bounds ExactSubsets: 2^25 coalition evaluations is
// the most that stays interactive; the paper computes constraints exactly
// because "the number of DCs is usually small".
const maxExactSubsetPlayers = 25

// ExactSubsets computes the Shapley value of every player from the
// definition:
//
//	Shap(i) = Σ_{S ⊆ N\{i}} |S|!(n-|S|-1)!/n! · (v(S∪{i}) − v(S))
//
// implemented as one pass over all 2^n coalitions: each coalition's value
// is computed once and contributes positively (as S∪{i}) or negatively
// (as S) to every player's sum. Cost: 2^n evaluations of v, n·2^n floats.
func ExactSubsets(ctx context.Context, g Game) ([]float64, error) {
	n := g.NumPlayers()
	if n == 0 {
		return nil, nil
	}
	if n > maxExactSubsetPlayers {
		return nil, fmt.Errorf("%w: %d players (max %d)", ErrTooManyPlayers, n, maxExactSubsetPlayers)
	}
	// Precompute w[s] = s!(n-s-1)!/n! for s = |S| of the coalition WITHOUT
	// player i.
	w := subsetWeights(n)
	shap := make([]float64, n)
	coalition := make([]bool, n)
	total := 1 << uint(n)
	for mask := 0; mask < total; mask++ {
		if mask%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		size := 0
		for i := 0; i < n; i++ {
			in := mask&(1<<uint(i)) != 0
			coalition[i] = in
			if in {
				size++
			}
		}
		v, err := g.Value(ctx, coalition)
		if err != nil {
			return nil, fmt.Errorf("shapley: evaluating coalition %b: %w", mask, err)
		}
		for i := 0; i < n; i++ {
			if coalition[i] {
				// This coalition appears as S∪{i} for player i with
				// |S| = size-1.
				shap[i] += w[size-1] * v
			} else {
				// This coalition appears as S for player i with |S| = size.
				shap[i] -= w[size] * v
			}
		}
	}
	return shap, nil
}

// subsetWeights returns w[s] = s!·(n−s−1)!/n! for s in 0..n−1, computed
// multiplicatively to stay in float range for any practical n.
func subsetWeights(n int) []float64 {
	w := make([]float64, n)
	// w[0] = (n-1)!/n! = 1/n.
	w[0] = 1 / float64(n)
	// w[s] = w[s-1] · s/(n−s).
	for s := 1; s < n; s++ {
		w[s] = w[s-1] * float64(s) / float64(n-s)
	}
	return w
}
