package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/shapley"
)

// A sampled explain's unit j — one SampleAll permutation, or one draw of a
// TopK round — draws from its own (Seed, j) stream, and units fold in j
// order. The tests below pin the two consequences over the cell game:
// estimates do not depend on Workers, and a budget of n+m units runs the
// n units of budget n first, unchanged.

// unitBudgets covers one unit, budgets around small powers of two and
// budgets past 512.
var unitBudgets = []int{1, 3, 4, 5, 16, 17, 400, 600}

// unitCase is one sampler over one game of the La Liga cell of interest.
type unitCase struct {
	name    string
	players Players
	policy  ReplacementPolicy
	run     func(ctx context.Context, g shapley.StochasticGame, samples, workers int) ([]shapley.Estimate, error)
}

func unitCases() []unitCase {
	sampleAll := func(ctx context.Context, g shapley.StochasticGame, samples, workers int) ([]shapley.Estimate, error) {
		return shapley.SampleAll(ctx, g, shapley.Options{Samples: samples, Seed: 11, Workers: workers})
	}
	topKRound := func(ctx context.Context, g shapley.StochasticGame, samples, workers int) ([]shapley.Estimate, error) {
		res, err := shapley.TopK(ctx, g, shapley.TopKOptions{K: 2, RoundSamples: samples, MaxRounds: 1, Seed: 11, Workers: workers})
		if err != nil {
			return nil, err
		}
		return res.All, nil
	}
	return []unitCase{
		{"SampleAll/null/cells", CellPlayers, ReplaceWithNull, sampleAll},
		{"SampleAll/from-column/rows", RowPlayers, ReplaceFromColumn, sampleAll},
		{"TopK/null/rows", RowPlayers, ReplaceWithNull, topKRound},
	}
}

// unitGame builds the case's game, unbound from the coalition cache so
// every unit evaluates its coalitions.
func unitGame(t *testing.T, c unitCase) shapley.IncrementalGame {
	t.Helper()
	exp, cell, target := laLigaFirstThree(t)
	r, err := exp.roster(Query{Cell: cell, Players: c.players})
	if err != nil {
		t.Fatal(err)
	}
	return exp.game(cell, target, &r, c.policy, false).(shapley.IncrementalGame)
}

func TestSampledUnitsWorkerCountDeterminism(t *testing.T) {
	ctx := context.Background()
	for _, c := range unitCases() {
		game := unitGame(t, c)
		for _, samples := range unitBudgets {
			want, err := c.run(ctx, game, samples, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				got, err := c.run(ctx, game, samples, workers)
				if err != nil {
					t.Fatal(err)
				}
				sameEstimates(t, fmt.Sprintf("%s, samples %d, workers %d", c.name, samples, workers), got, want)
			}
		}
	}
}

// TestSampledBudgetPrefix: at Workers 1 the units run in unit order, so a
// log of every walk call and every value the game answers lists the
// units' outputs one after another. Each budget's log must be a proper
// prefix of the next budget's.
func TestSampledBudgetPrefix(t *testing.T) {
	ctx := context.Background()
	for _, c := range unitCases() {
		game := unitGame(t, c)
		var prev walkLog
		for _, samples := range unitBudgets {
			var log walkLog
			if _, err := c.run(ctx, loggedGame{game, &log}, samples, 1); err != nil {
				t.Fatal(err)
			}
			if len(log) <= len(prev) || !slices.Equal(log[:len(prev)], prev) {
				t.Fatalf("%s: the units of a smaller budget are not the first units of samples %d", c.name, samples)
			}
			prev = log
		}
	}
}

// walkLog records the calls a sampler makes on a game's walks, in order.
type walkLog []walkCall

// walkCall is one call: Reset ('r'), Include ('+') or Exclude ('-') of
// player p, or a Value ('v') that answered v.
type walkCall struct {
	op byte
	p  int
	v  float64
}

// loggedGame logs every call on its walks. It is for serial runs only.
type loggedGame struct {
	shapley.IncrementalGame
	log *walkLog
}

func (g loggedGame) NewWalk() shapley.CoalitionWalk {
	return loggedWalk{g.IncrementalGame.NewWalk().(shapley.DeltaWalk), g.log}
}

type loggedWalk struct {
	shapley.DeltaWalk
	log *walkLog
}

func (w loggedWalk) Reset() {
	*w.log = append(*w.log, walkCall{op: 'r'})
	w.DeltaWalk.Reset()
}

func (w loggedWalk) Include(p int) {
	*w.log = append(*w.log, walkCall{op: '+', p: p})
	w.DeltaWalk.Include(p)
}

func (w loggedWalk) Exclude(p int) {
	*w.log = append(*w.log, walkCall{op: '-', p: p})
	w.DeltaWalk.Exclude(p)
}

func (w loggedWalk) Value(ctx context.Context, rng *rand.Rand) (float64, error) {
	v, err := w.DeltaWalk.Value(ctx, rng)
	*w.log = append(*w.log, walkCall{op: 'v', v: v})
	return v, err
}
