package shapley

import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestTopKFindsTopConstraint(t *testing.T) {
	g := Deterministic{G: paperConstraintGame()}
	res, err := TopK(context.Background(), g, TopKOptions{K: 1, RoundSamples: 200, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) != 1 || res.Top[0].Player != 2 {
		t.Fatalf("top = %+v, want player 2 (C3)", res.Top)
	}
	if !res.Separated {
		t.Error("C3 at 2/3 vs 1/6 must separate quickly")
	}
	if len(res.All) != 4 {
		t.Fatalf("All = %d entries", len(res.All))
	}
}

func TestTopKIdentifiesTopThree(t *testing.T) {
	// Additive game with well-separated weights: top-3 is unambiguous.
	g := Deterministic{G: additiveGame([]float64{0.9, 0.1, 0.7, 0.05, 0.5, 0.0})}
	res, err := TopK(context.Background(), g, TopKOptions{K: 3, RoundSamples: 150, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, e := range res.Top {
		got[e.Player] = true
	}
	for _, want := range []int{0, 2, 4} {
		if !got[want] {
			t.Errorf("player %d missing from top-3: %+v", want, res.Top)
		}
	}
}

func TestTopKOrderWithinTop(t *testing.T) {
	g := Deterministic{G: additiveGame([]float64{0.2, 0.8, 0.5})}
	res, err := TopK(context.Background(), g, TopKOptions{K: 3, RoundSamples: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// K = n: everything is "top", order by mean.
	if res.Top[0].Player != 1 || res.Top[1].Player != 2 || res.Top[2].Player != 0 {
		t.Fatalf("order = %+v", res.Top)
	}
	if !res.Separated {
		t.Error("K = n is trivially separated")
	}
}

func TestTopKUsesFewerSamplesThanUniform(t *testing.T) {
	// With one dominant player among many dummies, elimination should cut
	// the per-player sample counts of the dummies well below the total a
	// uniform scheme would spend.
	n := 12
	weights := make([]float64, n)
	weights[5] = 1
	g := Deterministic{G: additiveGame(weights)}
	res, err := TopK(context.Background(), g, TopKOptions{K: 1, RoundSamples: 50, Seed: 6, MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Top[0].Player != 5 {
		t.Fatalf("top = %+v", res.Top[0])
	}
	if res.Rounds >= 10 {
		t.Errorf("should terminate early, ran %d rounds", res.Rounds)
	}
	// Additive marginals are constant → variance 0 → CI collapses after
	// the first round; every player should have roughly one round's
	// samples.
	for _, e := range res.All {
		if e.N > 3*50 {
			t.Errorf("player %d received %d samples; elimination failed", e.Player, e.N)
		}
	}
}

func TestTopKAmbiguousBoundaryReported(t *testing.T) {
	// Two identical players competing for K=1: never separable; the
	// result must say so instead of pretending.
	g := Deterministic{G: additiveGame([]float64{0.5, 0.5, 0})}
	res, err := TopK(context.Background(), g, TopKOptions{K: 1, RoundSamples: 30, Seed: 3, MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Separated {
		t.Error("identical players must not report separation")
	}
	if res.Top[0].Player == 2 {
		t.Error("the dummy cannot be on top")
	}
}

func TestTopKValidation(t *testing.T) {
	g := Deterministic{G: paperConstraintGame()}
	if _, err := TopK(context.Background(), g, TopKOptions{K: 0}); err == nil {
		t.Error("K=0 must error")
	}
	if _, err := TopK(context.Background(), g, TopKOptions{K: 5}); err == nil {
		t.Error("K>n must error")
	}
	boom := errors.New("boom")
	bad := Deterministic{G: GameFunc{N: 3, Fn: func(context.Context, []bool) (float64, error) { return 0, boom }}}
	if _, err := TopK(context.Background(), bad, TopKOptions{K: 1, RoundSamples: 5}); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TopK(ctx, g, TopKOptions{K: 1, RoundSamples: 5}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestTopKDeterministicPerSeed(t *testing.T) {
	g := Deterministic{G: paperConstraintGame()}
	a, err := TopK(context.Background(), g, TopKOptions{K: 2, RoundSamples: 100, Seed: 11, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TopK(context.Background(), g, TopKOptions{K: 2, RoundSamples: 100, Seed: 11, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || len(a.Top) != len(b.Top) {
		t.Fatal("nondeterministic shape")
	}
	for i := range a.Top {
		if a.Top[i].Player != b.Top[i].Player || a.Top[i].Mean != b.Top[i].Mean {
			t.Fatalf("nondeterministic result: %+v vs %+v", a.Top[i], b.Top[i])
		}
	}
}

// TestTopKRejectsOverflowingRound: a round's draw count is RoundSamples
// times the active players; a product past math.MaxInt is an error, not a
// wrapped count that would answer with zero-sample estimates.
func TestTopKRejectsOverflowingRound(t *testing.T) {
	g := Deterministic{G: paperConstraintGame()}
	res, err := TopK(context.Background(), g, TopKOptions{K: 1, RoundSamples: math.MaxInt/4 + 1, Seed: 1})
	if err == nil {
		t.Fatalf("TopK accepted an overflowing round: %+v", res.All)
	}
}
