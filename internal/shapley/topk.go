package shapley

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// TopKOptions configures TopK.
type TopKOptions struct {
	// K is how many top players must be identified.
	K int
	// RoundSamples is the permutation budget added per elimination round
	// (default 64).
	RoundSamples int
	// MaxRounds bounds the elimination loop (default 12).
	MaxRounds int
	// Workers and Seed as in Options.
	Workers int
	Seed    int64
}

func (o TopKOptions) withDefaults() TopKOptions {
	if o.RoundSamples <= 0 {
		o.RoundSamples = 64
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 12
	}
	return o
}

// TopKResult reports the adaptive ranking outcome.
type TopKResult struct {
	// Top are the identified top-K players, best first.
	Top []Estimate
	// All contains the final estimate of every player, sorted by mean
	// descending (players eliminated early carry wider intervals).
	All []Estimate
	// Rounds is the number of sampling rounds executed.
	Rounds int
	// Separated reports whether the K-th and (K+1)-th players' confidence
	// intervals were disjoint at termination; false means the budget ran
	// out with the boundary still statistically ambiguous.
	Separated bool
}

// TopK identifies the K players with the largest Shapley values using
// confidence-interval elimination (a successive-halving-style racing
// scheme). The interactive setting of the paper only needs the *ranking* —
// the explanation screen shows the top few constraints/cells — and
// separating the top K from the rest typically needs far fewer samples
// than estimating every value to uniform precision:
//
//	round: add RoundSamples permutations for the still-active players;
//	       a player is deactivated when its CI95 upper bound falls below
//	       the CI95 lower bound of the current K-th best (can't be top-K),
//	       or its lower bound clears the (K+1)-th best's upper bound
//	       (locked into the top-K, no more samples needed).
//
// Each round spends its budget only on still-active players, so every
// elimination shrinks round cost.
func TopK(ctx context.Context, g StochasticGame, opts TopKOptions) (*TopKResult, error) {
	opts = opts.withDefaults()
	n := g.NumPlayers()
	if opts.K <= 0 || opts.K > n {
		return nil, fmt.Errorf("shapley: K = %d out of range 1..%d", opts.K, n)
	}
	accs := make([]welford, n)
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	result := &TopKResult{}

	for round := 0; round < opts.MaxRounds; round++ {
		result.Rounds = round + 1
		if err := topKRound(ctx, g, active, accs, Options{
			Samples: opts.RoundSamples,
			Workers: opts.Workers,
			Seed:    opts.Seed + int64(round)*7919,
		}); err != nil {
			return nil, err
		}

		ests := make([]Estimate, n)
		for i := range accs {
			ests[i] = accs[i].estimate(i)
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return ests[order[a]].Mean > ests[order[b]].Mean })

		kth := ests[order[opts.K-1]]
		var next Estimate
		if opts.K < n {
			next = ests[order[opts.K]]
		}

		// Eliminate and lock.
		activeCount := 0
		for rank, p := range order {
			e := ests[p]
			switch {
			case rank < opts.K && opts.K < n && e.Mean-e.CI95() > next.Mean+next.CI95():
				// Provably top-K: stop spending samples on it.
				active[p] = false
			case rank >= opts.K && e.Mean+e.CI95() < kth.Mean-kth.CI95():
				// Provably not top-K.
				active[p] = false
			default:
				active[p] = true
				activeCount++
			}
		}

		separated := opts.K == n || kth.Mean-kth.CI95() > next.Mean+next.CI95()
		if separated || activeCount == 0 {
			result.Separated = separated
			break
		}
	}

	final := make([]Estimate, n)
	for i := range accs {
		final[i] = accs[i].estimate(i)
	}
	sort.SliceStable(final, func(a, b int) bool { return final[a].Mean > final[b].Mean })
	result.All = final
	result.Top = append([]Estimate(nil), final[:opts.K]...)
	if !result.Separated && opts.K < n {
		kth, next := final[opts.K-1], final[opts.K]
		result.Separated = kth.Mean-kth.CI95() > next.Mean+next.CI95()
	}
	return result, nil
}

// topKRound adds Samples marginal observations for every active player,
// Strumbelj–Kononenko style (two evaluations per observation). Eliminated
// players receive no budget, which is where the adaptive saving comes
// from.
func topKRound(ctx context.Context, g StochasticGame, active []bool, accs []welford, opts Options) error {
	n := g.NumPlayers()
	players := make([]int, 0, n)
	for p, a := range active {
		if a {
			players = append(players, p)
		}
	}
	if len(players) == 0 {
		return nil
	}
	if opts.Samples > math.MaxInt/len(players) {
		return fmt.Errorf("shapley: %d samples for each of %d players overflow a round's draw count", opts.Samples, len(players))
	}
	// One fan-out covers all active players: unit j samples one marginal
	// for a random active player, and folds it into that player's
	// accumulator.
	type draw struct {
		player   int
		marginal float64
	}
	return fanOut(ctx, opts, opts.Samples*len(players),
		func() *marginalState { return newMarginalState(g) },
		(*marginalState).close,
		func(ctx context.Context, st *marginalState, rng *rand.Rand, d *draw) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			d.player = players[rng.Intn(len(players))]
			randPerm(rng, st.perm)
			var err error
			d.marginal, err = st.marginal(ctx, g, st.perm, d.player, rng)
			return err
		},
		func(d *draw) { accs[d.player].add(d.marginal) })
}
