package shapley

import (
	"context"
	"testing"
)

// The determinism contract of the chunked fan-out: Workers changes
// scheduling only, never estimates. CI's determinism smoke job runs these
// tests by name; they must compare bit-for-bit, not within tolerance.

func assertIdentical(t *testing.T, a, b []Estimate, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for p := range a {
		if a[p].Mean != b[p].Mean || a[p].Variance != b[p].Variance || a[p].N != b[p].N {
			t.Fatalf("%s: player %d differs: %+v vs %+v", label, p, a[p], b[p])
		}
	}
}

func TestSampleAllWorkerCountDeterminism(t *testing.T) {
	g := Deterministic{G: paperConstraintGame()}
	for _, m := range []int{1, 7, 200} {
		base, err := SampleAll(context.Background(), g, Options{Samples: m, Seed: 5, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			got, err := SampleAll(context.Background(), g, Options{Samples: m, Seed: 5, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, base, got, "SampleAll")
		}
	}
}

func TestSampleAllWorkerCountDeterminismStochastic(t *testing.T) {
	// The stochastic path consumes the RNG inside SampleValue too; chunked
	// streams must keep that consumption identical across worker counts.
	g := stochasticAdditive{w: []float64{0.2, 0.5, 0.3}}
	base, err := SampleAll(context.Background(), g, Options{Samples: 300, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SampleAll(context.Background(), g, Options{Samples: 300, Seed: 11, Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, base, got, "SampleAll/stochastic")
}

func TestSamplePlayerWorkerCountDeterminism(t *testing.T) {
	g := Deterministic{G: paperConstraintGame()}
	base, err := SamplePlayer(context.Background(), g, 2, Options{Samples: 150, Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		got, err := SamplePlayer(context.Background(), g, 2, Options{Samples: 150, Seed: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if base.Mean != got.Mean || base.Variance != got.Variance || base.N != got.N {
			t.Fatalf("SamplePlayer: workers=%d differs: %+v vs %+v", workers, base, got)
		}
	}
}

func TestTopKWorkerCountDeterminism(t *testing.T) {
	g := Deterministic{G: randomGame(9, 41)}
	base, err := TopK(context.Background(), g, TopKOptions{K: 3, RoundSamples: 40, Seed: 13, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := TopK(context.Background(), g, TopKOptions{K: 3, RoundSamples: 40, Seed: 13, Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, base.All, got.All, "TopK.All")
	if base.Rounds != got.Rounds || base.Separated != got.Separated {
		t.Fatalf("TopK control flow diverged: %+v vs %+v", base, got)
	}
}

func TestFanChunkDependsOnlyOnBudget(t *testing.T) {
	if fanChunk(1) != minChunkIters || fanChunk(100) != minChunkIters {
		t.Error("small budgets must use the minimum chunk size")
	}
	// Huge budgets scale the chunk so the grid stays bounded.
	huge := 10_000_000
	size := fanChunk(huge)
	if chunks := (huge + size - 1) / size; chunks > maxFanChunks {
		t.Errorf("chunk grid too large: %d chunks", chunks)
	}
}
