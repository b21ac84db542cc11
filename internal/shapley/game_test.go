package shapley

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// additiveGame has v(S) = Σ_{i∈S} w[i]; its Shapley values are exactly w.
func additiveGame(w []float64) Game {
	return GameFunc{N: len(w), Fn: func(_ context.Context, coalition []bool) (float64, error) {
		s := 0.0
		for i, in := range coalition {
			if in {
				s += w[i]
			}
		}
		return s, nil
	}}
}

// unanimityGame has v(S) = 1 iff T ⊆ S; Shapley is 1/|T| on T, 0 elsewhere.
func unanimityGame(n int, t []int) Game {
	return GameFunc{N: n, Fn: func(_ context.Context, coalition []bool) (float64, error) {
		for _, i := range t {
			if !coalition[i] {
				return 0, nil
			}
		}
		return 1, nil
	}}
}

// paperConstraintGame is the abstract structure of Example 2.3: 4 players,
// v(S) = 1 iff {0,1} ⊆ S or 2 ∈ S; player 3 is a dummy. Known Shapley
// values: 1/6, 1/6, 2/3, 0.
func paperConstraintGame() Game {
	return GameFunc{N: 4, Fn: func(_ context.Context, coalition []bool) (float64, error) {
		if coalition[2] || (coalition[0] && coalition[1]) {
			return 1, nil
		}
		return 0, nil
	}}
}

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSubsetWeightsSumToOne(t *testing.T) {
	// Σ_{s=0}^{n-1} C(n-1, s)·w[s] = 1 (the permutation weights partition).
	for n := 1; n <= 12; n++ {
		w := subsetWeights(n)
		sum := 0.0
		binom := 1.0
		for s := 0; s < n; s++ {
			sum += binom * w[s]
			binom = binom * float64(n-1-s) / float64(s+1)
		}
		if !approxEq(sum, 1, 1e-9) {
			t.Errorf("n=%d: weights sum to %v", n, sum)
		}
	}
}

func TestExactSubsetsPaperGame(t *testing.T) {
	shap, err := ExactSubsets(context.Background(), paperConstraintGame())
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.0 / 6, 1.0 / 6, 2.0 / 3, 0}
	for i := range want {
		if !approxEq(shap[i], want[i], 1e-12) {
			t.Errorf("Shap[%d] = %v, want %v", i, shap[i], want[i])
		}
	}
}

func TestExactSubsetsAdditive(t *testing.T) {
	w := []float64{0.5, -1.25, 3, 0, 2.5}
	shap, err := ExactSubsets(context.Background(), additiveGame(w))
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if !approxEq(shap[i], w[i], 1e-9) {
			t.Errorf("Shap[%d] = %v, want %v", i, shap[i], w[i])
		}
	}
}

func TestExactSubsetsUnanimity(t *testing.T) {
	shap, err := ExactSubsets(context.Background(), unanimityGame(6, []int{1, 3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1.0 / 3, 0, 1.0 / 3, 1.0 / 3, 0}
	for i := range want {
		if !approxEq(shap[i], want[i], 1e-12) {
			t.Errorf("Shap[%d] = %v, want %v", i, shap[i], want[i])
		}
	}
}

func TestExactSubsetsEmptyGame(t *testing.T) {
	shap, err := ExactSubsets(context.Background(), GameFunc{N: 0, Fn: nil})
	if err != nil || shap != nil {
		t.Fatalf("empty game: %v, %v", shap, err)
	}
}

func TestExactSubsetsTooManyPlayers(t *testing.T) {
	_, err := ExactSubsets(context.Background(), GameFunc{N: 40, Fn: nil})
	if !errors.Is(err, ErrTooManyPlayers) {
		t.Fatalf("err = %v", err)
	}
}

func TestExactSubsetsPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	g := GameFunc{N: 3, Fn: func(context.Context, []bool) (float64, error) { return 0, boom }}
	if _, err := ExactSubsets(context.Background(), g); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestExactSubsetsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := GameFunc{N: 20, Fn: func(_ context.Context, _ []bool) (float64, error) { return 0, nil }}
	if _, err := ExactSubsets(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestExactPermutationsMatchesSubsets(t *testing.T) {
	for _, g := range []Game{paperConstraintGame(), additiveGame([]float64{1, 2, 3}), unanimityGame(5, []int{0, 4})} {
		a, err := ExactSubsets(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ExactPermutations(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if !approxEq(a[i], b[i], 1e-9) {
				t.Errorf("player %d: subsets %v vs permutations %v", i, a[i], b[i])
			}
		}
	}
}

func TestExactPermutationsTooMany(t *testing.T) {
	if _, err := ExactPermutations(context.Background(), GameFunc{N: 11, Fn: nil}); !errors.Is(err, ErrTooManyPlayers) {
		t.Fatal("must reject n > 10")
	}
}

// randomGame builds a deterministic pseudo-random game from a seed by
// hashing coalition masks; used for axiom property tests.
func randomGame(n int, seed uint64) Game {
	return GameFunc{N: n, Fn: func(_ context.Context, coalition []bool) (float64, error) {
		h := seed
		for i, in := range coalition {
			if in {
				h ^= uint64(i+1) * 0x9E3779B97F4A7C15
				h = (h << 13) | (h >> 51)
				h *= 0xBF58476D1CE4E5B9
			}
		}
		return float64(h%1000) / 1000.0, nil
	}}
}

func TestEfficiencyAxiomProperty(t *testing.T) {
	// Σ Shap_i = v(N) − v(∅) for arbitrary games.
	f := func(seed uint64, np uint8) bool {
		n := int(np)%6 + 1
		g := randomGame(n, seed)
		shap, err := ExactSubsets(context.Background(), g)
		if err != nil {
			return false
		}
		full := make([]bool, n)
		empty := make([]bool, n)
		for i := range full {
			full[i] = true
		}
		vFull, _ := g.Value(context.Background(), full)
		vEmpty, _ := g.Value(context.Background(), empty)
		sum := 0.0
		for _, s := range shap {
			sum += s
		}
		return approxEq(sum, vFull-vEmpty, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDummyAxiomProperty(t *testing.T) {
	// A player whose presence never changes v has Shapley value 0:
	// extend a random game with a dummy player and check.
	f := func(seed uint64, np uint8) bool {
		n := int(np)%5 + 1
		base := randomGame(n, seed)
		ext := GameFunc{N: n + 1, Fn: func(ctx context.Context, coalition []bool) (float64, error) {
			return base.Value(ctx, coalition[:n])
		}}
		shap, err := ExactSubsets(context.Background(), ext)
		return err == nil && approxEq(shap[n], 0, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDummyDoesNotPerturbOthersProperty(t *testing.T) {
	// Adding a dummy player leaves every other Shapley value unchanged —
	// the fact that lets the cell game drop irrelevant cells.
	f := func(seed uint64, np uint8) bool {
		n := int(np)%5 + 1
		base := randomGame(n, seed)
		ext := GameFunc{N: n + 1, Fn: func(ctx context.Context, coalition []bool) (float64, error) {
			return base.Value(ctx, coalition[:n])
		}}
		a, err1 := ExactSubsets(context.Background(), base)
		b, err2 := ExactSubsets(context.Background(), ext)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if !approxEq(a[i], b[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSymmetryAxiom(t *testing.T) {
	// Interchangeable players get equal values: in the unanimity game all
	// members of T are symmetric.
	shap, err := ExactSubsets(context.Background(), unanimityGame(7, []int{2, 3, 5}))
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(shap[2], shap[3], 1e-12) || !approxEq(shap[3], shap[5], 1e-12) {
		t.Errorf("symmetric players differ: %v %v %v", shap[2], shap[3], shap[5])
	}
}

func TestLinearityAxiomProperty(t *testing.T) {
	// Shap(g1 + g2) = Shap(g1) + Shap(g2).
	f := func(s1, s2 uint64, np uint8) bool {
		n := int(np)%5 + 1
		g1, g2 := randomGame(n, s1), randomGame(n, s2)
		sum := GameFunc{N: n, Fn: func(ctx context.Context, c []bool) (float64, error) {
			a, _ := g1.Value(ctx, c)
			b, _ := g2.Value(ctx, c)
			return a + b, nil
		}}
		x, err1 := ExactSubsets(context.Background(), g1)
		y, err2 := ExactSubsets(context.Background(), g2)
		z, err3 := ExactSubsets(context.Background(), sum)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		for i := range z {
			if !approxEq(z[i], x[i]+y[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// maxExactPermutationPlayers bounds ExactPermutations (n! growth).
const maxExactPermutationPlayers = 10

// ExactPermutations computes Shapley values by enumerating all n!
// permutations and averaging marginal contributions. It is asymptotically
// worse than ExactSubsets and serves as the independent test oracle for
// it.
func ExactPermutations(ctx context.Context, g Game) ([]float64, error) {
	n := g.NumPlayers()
	if n == 0 {
		return nil, nil
	}
	if n > maxExactPermutationPlayers {
		return nil, fmt.Errorf("%w: %d players (max %d for permutations)", ErrTooManyPlayers, n, maxExactPermutationPlayers)
	}
	shap := make([]float64, n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	coalition := make([]bool, n)
	count := 0
	var walk func(k int) error
	walk = func(k int) error {
		if k == n {
			count++
			if err := ctx.Err(); err != nil {
				return err
			}
			for i := range coalition {
				coalition[i] = false
			}
			prev := 0.0
			v, err := g.Value(ctx, coalition)
			if err != nil {
				return err
			}
			prev = v
			for _, p := range perm {
				coalition[p] = true
				v, err := g.Value(ctx, coalition)
				if err != nil {
					return err
				}
				shap[p] += v - prev
				prev = v
			}
			return nil
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			if err := walk(k + 1); err != nil {
				return err
			}
			perm[k], perm[i] = perm[i], perm[k]
		}
		return nil
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	for i := range shap {
		shap[i] /= float64(count)
	}
	return shap, nil
}
