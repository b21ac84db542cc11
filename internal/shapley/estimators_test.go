package shapley_test

// Tests of the experiments' reference and ablation estimators
// (internal/bench), which run on the game interfaces of this package and
// are checked against its exact values and plain sampler.

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/shapley"
)

func TestExactOneMatchesExactSubsets(t *testing.T) {
	g := shapley.PaperConstraintGame()
	all, err := shapley.ExactSubsets(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < g.NumPlayers(); p++ {
		one, err := bench.ExactOne(context.Background(), g, p)
		if err != nil {
			t.Fatal(err)
		}
		if !shapley.ApproxEq(one, all[p], 1e-12) {
			t.Errorf("ExactOne(%d) = %v, ExactSubsets = %v", p, one, all[p])
		}
	}
}

func TestExactOnePlayerRange(t *testing.T) {
	g := shapley.PaperConstraintGame()
	if _, err := bench.ExactOne(context.Background(), g, -1); err == nil {
		t.Error("negative player must error")
	}
	if _, err := bench.ExactOne(context.Background(), g, 4); err == nil {
		t.Error("out-of-range player must error")
	}
}

func TestCachedDeduplicatesCalls(t *testing.T) {
	var calls atomic.Int64
	e := exec.NewEngine(1)
	cached := e.CachedGame("counting", func() uint64 { return 0 }, shapley.CountingGame(4, &calls))
	// ExactOne for every player revisits the same 16 coalitions.
	for p := 0; p < 4; p++ {
		if _, err := bench.ExactOne(context.Background(), cached, p); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != 16 {
		t.Errorf("underlying calls = %d, want 16 (2^4 distinct coalitions)", got)
	}
	hits, misses := e.CacheStats()
	if misses != 16 {
		t.Errorf("misses = %d, want 16", misses)
	}
	// 4 players × 2^3 subsets × 2 evals = 64 total lookups; 48 are hits.
	if hits != 48 {
		t.Errorf("hits = %d, want 48", hits)
	}
}

func TestAntitheticConvergesOnPaperGame(t *testing.T) {
	ests, err := bench.SampleAllAntithetic(context.Background(), shapley.Deterministic{G: shapley.PaperConstraintGame()}, 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.0 / 6, 1.0 / 6, 2.0 / 3, 0}
	for p, w := range want {
		if !shapley.ApproxEq(ests[p].Mean, w, 0.02) {
			t.Errorf("player %d: %v, want %v", p, ests[p].Mean, w)
		}
	}
}

func TestAntitheticReducesVariance(t *testing.T) {
	// On the (monotone) paper game, antithetic pairing must not increase
	// the standard error at an equal evaluation budget; for the veto-ish
	// player it should clearly shrink it.
	g := shapley.Deterministic{G: shapley.PaperConstraintGame()}
	plain, err := shapley.SampleAll(context.Background(), g, shapley.Options{Samples: 4000, Seed: 17, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	anti, err := bench.SampleAllAntithetic(context.Background(), g, 4000, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Compare variance of the estimator: stderr² × N normalizes sample
	// counts (antithetic has N/2 paired samples).
	for p := 0; p < 4; p++ {
		vPlain := plain[p].StdErr() * plain[p].StdErr() * float64(plain[p].N) / 2000
		vAnti := anti[p].StdErr() * anti[p].StdErr() * float64(anti[p].N) / 2000
		if vAnti > vPlain*1.25 {
			t.Errorf("player %d: antithetic variance %.6g vs plain %.6g", p, vAnti, vPlain)
		}
	}
}

func TestAntitheticValidation(t *testing.T) {
	g := shapley.Deterministic{G: shapley.PaperConstraintGame()}
	if _, err := bench.SampleAllAntithetic(context.Background(), g, 0, 0); err == nil {
		t.Error("zero samples must error")
	}
	if out, err := bench.SampleAllAntithetic(context.Background(), shapley.Deterministic{G: shapley.GameFunc{N: 0}}, 10, 0); err != nil || out != nil {
		t.Error("empty game")
	}
	boom := errors.New("boom")
	bad := shapley.Deterministic{G: shapley.GameFunc{N: 2, Fn: func(context.Context, []bool) (float64, error) { return 0, boom }}}
	if _, err := bench.SampleAllAntithetic(context.Background(), bad, 10, 0); !errors.Is(err, boom) {
		t.Error("error propagation")
	}
}

func TestStratifiedConvergesOnPaperGame(t *testing.T) {
	g := shapley.Deterministic{G: shapley.PaperConstraintGame()}
	for p, want := range []float64{1.0 / 6, 1.0 / 6, 2.0 / 3, 0} {
		est, err := bench.SamplePlayerStratified(context.Background(), g, p, 20000, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !shapley.ApproxEq(est.Mean, want, 0.02) {
			t.Errorf("player %d: %v, want %v", p, est.Mean, want)
		}
	}
}

func TestStratifiedExactOnDummy(t *testing.T) {
	// The dummy player's marginal is 0 in every stratum: the stratified
	// estimate is exactly 0 with zero variance.
	g := shapley.Deterministic{G: shapley.PaperConstraintGame()}
	est, err := bench.SamplePlayerStratified(context.Background(), g, 3, 400, 2)
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean != 0 || est.Variance != 0 {
		t.Errorf("dummy stratified estimate = %+v", est)
	}
}

func TestStratifiedBeatsPlainOnSizeSkewedGame(t *testing.T) {
	// A game whose marginals depend strongly on coalition size: the
	// threshold game v(S) = 1 iff |S| >= n/2. Size stratification removes
	// the dominant variance component for a mid-game player.
	n := 8
	g := shapley.Deterministic{G: shapley.GameFunc{N: n, Fn: func(_ context.Context, coalition []bool) (float64, error) {
		c := 0
		for _, in := range coalition {
			if in {
				c++
			}
		}
		if c >= n/2 {
			return 1, nil
		}
		return 0, nil
	}}}
	exact, err := shapley.ExactSubsets(context.Background(), g.G)
	if err != nil {
		t.Fatal(err)
	}
	var plainErr, stratErr float64
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		p, err := shapley.SamplePlayer(context.Background(), g, 0, shapley.Options{Samples: 240, Seed: int64(trial), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		s, err := bench.SamplePlayerStratified(context.Background(), g, 0, 240, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		plainErr += (p.Mean - exact[0]) * (p.Mean - exact[0])
		stratErr += (s.Mean - exact[0]) * (s.Mean - exact[0])
	}
	if stratErr > plainErr {
		t.Errorf("stratified MSE %.6g vs plain MSE %.6g; stratification should not hurt", stratErr/trials, plainErr/trials)
	}
}

func TestStratifiedValidation(t *testing.T) {
	g := shapley.Deterministic{G: shapley.PaperConstraintGame()}
	if _, err := bench.SamplePlayerStratified(context.Background(), g, 9, 10, 0); err == nil {
		t.Error("player out of range")
	}
	if _, err := bench.SamplePlayerStratified(context.Background(), g, 0, 0, 0); err == nil {
		t.Error("zero samples")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := bench.SamplePlayerStratified(ctx, g, 0, 100, 0); !errors.Is(err, context.Canceled) {
		t.Error("cancellation")
	}
}

func TestStratifiedTinyBudget(t *testing.T) {
	// Budget below one sample per stratum still works (one per stratum).
	g := shapley.Deterministic{G: shapley.PaperConstraintGame()}
	est, err := bench.SamplePlayerStratified(context.Background(), g, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.N != 4 {
		t.Errorf("N = %d, want 4 (one per stratum)", est.N)
	}
	if math.IsNaN(est.Mean) {
		t.Error("NaN mean")
	}
}
