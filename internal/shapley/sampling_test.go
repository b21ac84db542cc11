package shapley

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestSamplePlayerConvergesOnPaperGame(t *testing.T) {
	g := Deterministic{G: paperConstraintGame()}
	want := []float64{1.0 / 6, 1.0 / 6, 2.0 / 3, 0}
	for p, w := range want {
		est, err := SamplePlayer(context.Background(), g, p, Options{Samples: 20000, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(est.Mean, w, 0.02) {
			t.Errorf("player %d: sampled %v, want %v", p, est.Mean, w)
		}
		if est.N != 20000 {
			t.Errorf("player %d: N = %d", p, est.N)
		}
	}
}

func TestSampleAllConvergesOnPaperGame(t *testing.T) {
	ests, err := SampleAll(context.Background(), Deterministic{G: paperConstraintGame()}, Options{Samples: 20000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.0 / 6, 1.0 / 6, 2.0 / 3, 0}
	for p, w := range want {
		if !approxEq(ests[p].Mean, w, 0.02) {
			t.Errorf("player %d: sampled %v, want %v", p, ests[p].Mean, w)
		}
	}
}

func TestSampleAllEfficiency(t *testing.T) {
	// Per permutation the marginals telescope, so Σ means = v(N) − v(∅)
	// exactly, not just in expectation.
	g := Deterministic{G: randomGame(6, 99)}
	ests, err := SampleAll(context.Background(), g, Options{Samples: 500, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, e := range ests {
		sum += e.Mean
	}
	full, empty := make([]bool, 6), make([]bool, 6)
	for i := range full {
		full[i] = true
	}
	vF, _ := g.G.Value(context.Background(), full)
	vE, _ := g.G.Value(context.Background(), empty)
	if !approxEq(sum, vF-vE, 1e-9) {
		t.Errorf("Σ means = %v, want %v", sum, vF-vE)
	}
}

func TestSamplingErrorShrinksWithM(t *testing.T) {
	// Mean absolute error over players must shrink roughly like 1/sqrt(m)
	// (E6); we assert monotone improvement with generous slack.
	g := Deterministic{G: paperConstraintGame()}
	exact, err := ExactSubsets(context.Background(), g.G)
	if err != nil {
		t.Fatal(err)
	}
	mae := func(m int) float64 {
		ests, err := SampleAll(context.Background(), g, Options{Samples: m, Seed: 1234})
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for p := range exact {
			s += math.Abs(ests[p].Mean - exact[p])
		}
		return s / float64(len(exact))
	}
	small, large := mae(50), mae(20000)
	if large >= small {
		t.Errorf("MAE did not shrink: m=50 → %v, m=20000 → %v", small, large)
	}
	if large > 0.02 {
		t.Errorf("MAE at m=20000 too high: %v", large)
	}
}

func TestSamplingDeterministicPerSeed(t *testing.T) {
	g := Deterministic{G: paperConstraintGame()}
	a, err := SampleAll(context.Background(), g, Options{Samples: 200, Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampleAll(context.Background(), g, Options{Samples: 200, Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for p := range a {
		if a[p].Mean != b[p].Mean || a[p].N != b[p].N {
			t.Fatalf("player %d: runs differ: %v vs %v", p, a[p], b[p])
		}
	}
	c, err := SampleAll(context.Background(), g, Options{Samples: 200, Seed: 6, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for p := range a {
		if a[p].Mean != c[p].Mean {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical estimates")
	}
}

func TestSamplePlayerEarlyStopping(t *testing.T) {
	g := Deterministic{G: paperConstraintGame()}
	est, err := samplePlayerUntil(context.Background(), g, 2, Options{Samples: 1 << 30, Seed: 9}, earlyStop{Epsilon: 0.2, Delta: 0.1, Range: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantMax := hoeffdingSamples(0.2, 0.1, 1)
	if est.N > wantMax {
		t.Errorf("early stop did not cap samples: N = %d > %d", est.N, wantMax)
	}
	if !approxEq(est.Mean, 2.0/3, 0.2) {
		t.Errorf("estimate %v out of promised range around 2/3", est.Mean)
	}
}

func TestHoeffdingSamples(t *testing.T) {
	// m ≥ (2r²/ε²)·ln(2/δ): spot-check a hand-computed value.
	got := hoeffdingSamples(0.1, 0.05, 1)
	want := int(math.Ceil(2 / 0.01 * math.Log(40)))
	if got != want {
		t.Errorf("hoeffdingSamples = %d, want %d", got, want)
	}
	if hoeffdingSamples(0.5, 0.05, 2) <= hoeffdingSamples(0.5, 0.05, 1) {
		t.Error("larger range must need more samples")
	}
}

func TestSamplingOptionValidation(t *testing.T) {
	g := Deterministic{G: paperConstraintGame()}
	if _, err := SamplePlayer(context.Background(), g, 0, Options{Samples: 0}); err == nil {
		t.Error("zero samples must error")
	}
	if _, err := SamplePlayer(context.Background(), g, 9, Options{Samples: 10}); err == nil {
		t.Error("player out of range must error")
	}
	if _, err := SampleAll(context.Background(), g, Options{}); err == nil {
		t.Error("zero samples must error")
	}
	if out, err := SampleAll(context.Background(), Deterministic{G: GameFunc{N: 0}}, Options{Samples: 5}); err != nil || out != nil {
		t.Error("empty game must return nil, nil")
	}
}

func TestSamplingPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	g := Deterministic{G: GameFunc{N: 4, Fn: func(context.Context, []bool) (float64, error) { return 0, boom }}}
	if _, err := SampleAll(context.Background(), g, Options{Samples: 100, Workers: 4}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := SamplePlayer(context.Background(), g, 1, Options{Samples: 100}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestSamplingContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := Deterministic{G: paperConstraintGame()}
	if _, err := SampleAll(ctx, g, Options{Samples: 1000}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestSamplingStochasticGame(t *testing.T) {
	// A noisy additive game: SampleValue adds zero-mean noise. Estimates
	// must still converge to the true weights.
	w := []float64{0.3, 0.7}
	g := stochasticAdditive{w: w}
	ests, err := SampleAll(context.Background(), g, Options{Samples: 40000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	for p := range w {
		if !approxEq(ests[p].Mean, w[p], 0.03) {
			t.Errorf("player %d: %v, want %v", p, ests[p].Mean, w[p])
		}
	}
}

type stochasticAdditive struct{ w []float64 }

func (s stochasticAdditive) NumPlayers() int { return len(s.w) }

func (s stochasticAdditive) SampleValue(_ context.Context, coalition []bool, rng *rand.Rand) (float64, error) {
	v := rng.NormFloat64() * 0.5 // zero-mean noise
	for i, in := range coalition {
		if in {
			v += s.w[i]
		}
	}
	return v, nil
}

func TestEstimateStatistics(t *testing.T) {
	var w welford
	for _, x := range []float64{1, 2, 3, 4} {
		w.add(x)
	}
	e := w.estimate(3)
	if e.Player != 3 || e.N != 4 || !approxEq(e.Mean, 2.5, 1e-12) {
		t.Fatalf("estimate = %+v", e)
	}
	// Sample variance of 1,2,3,4 is 5/3.
	if !approxEq(e.Variance, 5.0/3, 1e-12) {
		t.Errorf("Variance = %v", e.Variance)
	}
	if !approxEq(e.StdErr(), math.Sqrt(5.0/3/4), 1e-12) {
		t.Errorf("StdErr = %v", e.StdErr())
	}
	if !approxEq(e.CI95(), 1.96*e.StdErr(), 1e-12) {
		t.Errorf("CI95 = %v", e.CI95())
	}
	single := welford{}
	single.add(1)
	if !math.IsInf(single.estimate(0).StdErr(), 1) {
		t.Error("StdErr with n<2 must be +Inf")
	}
	if e.String() == "" {
		t.Error("String must render")
	}
}

func TestRandPermIsUniformish(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	counts := make([][]int, 4)
	for i := range counts {
		counts[i] = make([]int, 4)
	}
	perm := make([]int, 4)
	const n = 40000
	for i := 0; i < n; i++ {
		randPerm(rng, perm)
		for pos, p := range perm {
			counts[pos][p]++
		}
	}
	for pos := range counts {
		for p := range counts[pos] {
			frac := float64(counts[pos][p]) / n
			if math.Abs(frac-0.25) > 0.02 {
				t.Errorf("P(perm[%d]=%d) = %v, want 0.25", pos, p, frac)
			}
		}
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	perm := make([]int, 9)
	for i := 0; i < 100; i++ {
		randPerm(rng, perm)
		seen := make([]bool, len(perm))
		for _, p := range perm {
			if p < 0 || p >= len(perm) || seen[p] {
				t.Fatalf("not a permutation: %v", perm)
			}
			seen[p] = true
		}
	}
}

func TestSampleAllParallelMatchesVarianceScale(t *testing.T) {
	// More workers must not bias the estimate (same expected value).
	g := Deterministic{G: paperConstraintGame()}
	one, err := SampleAll(context.Background(), g, Options{Samples: 8000, Seed: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eight, err := SampleAll(context.Background(), g, Options{Samples: 8000, Seed: 2, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for p := range one {
		if !approxEq(one[p].Mean, eight[p].Mean, 0.05) {
			t.Errorf("player %d: 1-worker %v vs 8-worker %v", p, one[p].Mean, eight[p].Mean)
		}
	}
}

// TestHoeffdingTinyEpsilonRegression: a very small Epsilon used to overflow
// the Hoeffding sample bound into a negative int (float Inf -> int is
// implementation-defined), silently zeroing the sampling budget. The bound
// must clamp so the caller's Samples budget survives.
func TestHoeffdingTinyEpsilonRegression(t *testing.T) {
	for _, eps := range []float64{1e-300, 1e-12} {
		if h := hoeffdingSamples(eps, 0.05, 1); h <= 0 {
			t.Fatalf("hoeffdingSamples(%g) = %d, must stay positive", eps, h)
		}
	}
	g := Deterministic{G: paperConstraintGame()}
	est, err := samplePlayerUntil(context.Background(), g, 1, Options{Samples: 50, Seed: 3, Workers: 1}, earlyStop{Epsilon: 1e-300, Delta: 0.05, Range: 1})
	if err != nil {
		t.Fatal(err)
	}
	if est.N != 50 {
		t.Fatalf("tiny epsilon must clamp to the Samples budget: N = %d, want 50", est.N)
	}
}

// SamplePlayer is the tests' one-player sampler. It estimates one
// player's Shapley value with the Strumbelj–Kononenko procedure of Example
// 2.5: repeat m times — draw a random permutation of the players, form the
// coalition of players preceding the target, evaluate the game with and
// without the target, and average the differences.
func SamplePlayer(ctx context.Context, g StochasticGame, player int, opts Options) (Estimate, error) {
	return samplePlayerUntil(ctx, g, player, opts, earlyStop{})
}

// earlyStop is SamplePlayer's optional Hoeffding stopping rule: with a
// positive Epsilon, sampling stops once the estimate is within Epsilon of
// the sampled game's value with probability 1−Delta, for marginals in
// [−Range, Range].
type earlyStop struct {
	Epsilon, Delta, Range float64
}

// samplePlayerUntil is SamplePlayer under a stopping rule.
func samplePlayerUntil(ctx context.Context, g StochasticGame, player int, opts Options, stop earlyStop) (Estimate, error) {
	opts = opts.withDefaults()
	n := g.NumPlayers()
	if player < 0 || player >= n {
		return Estimate{}, fmt.Errorf("shapley: player %d out of range 0..%d", player, n-1)
	}
	if opts.Samples <= 0 {
		return Estimate{}, fmt.Errorf("shapley: Samples must be positive, got %d", opts.Samples)
	}
	budget := opts.Samples
	if stop.Epsilon > 0 {
		if h := hoeffdingSamples(stop.Epsilon, stop.Delta, stop.Range); h < budget {
			budget = h
		}
	}
	var acc welford
	err := fanOut(ctx, opts, budget,
		func() *marginalState { return newMarginalState(g) },
		(*marginalState).close,
		func(ctx context.Context, st *marginalState, rng *rand.Rand, m *float64) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			randPerm(rng, st.perm)
			var err error
			*m, err = st.marginal(ctx, g, st.perm, player, rng)
			return err
		},
		func(m *float64) { acc.add(*m) })
	if err != nil {
		return Estimate{}, err
	}
	return acc.estimate(player), nil
}

// hoeffdingSamples returns the m sufficient for P(|mean−μ| ≥ ε) ≤ δ with
// marginals in [−r, r]: m ≥ (2r²/ε²)·ln(2/δ). Tiny ε overflows the float
// bound past what an int can hold (converting +Inf to int is
// implementation-defined and lands negative on amd64); the result is
// clamped to MaxInt so callers keep their own Samples budget instead of
// computing a negative one.
func hoeffdingSamples(eps, delta, r float64) int {
	m := math.Ceil(2 * r * r / (eps * eps) * math.Log(2/delta))
	if math.IsNaN(m) || m >= float64(math.MaxInt) {
		return math.MaxInt
	}
	if m < 1 {
		return 1
	}
	return int(m)
}
