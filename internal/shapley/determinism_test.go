package shapley

import (
	"context"
	"testing"
)

// The determinism contract of fanOut: each sampling unit draws from its
// own (Seed, unit) stream and units fold in unit order, so Workers changes
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
	// The stochastic path consumes the RNG inside SampleValue too; each
	// permutation's own stream must keep that consumption identical across
	// worker counts.
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

// TestUnitStreamsIndependent: no two units share a draw among their first
// 64, across the units of seeds s, s+1 and s+stride, where stride is the
// golden-ratio step an arithmetic seed + unit·stride derivation would use.
// Under such a derivation, unit j+1 of seed s would replay unit j of seed
// s+stride draw for draw.
func TestUnitStreamsIndependent(t *testing.T) {
	const (
		s      = 11
		stride = -0x61C8864680B583EB
		units  = 256
		draws  = 64
	)
	type unit struct {
		seed int64
		j    int
	}
	seen := make(map[uint64]unit)
	for _, seed := range []int64{s, s + 1, s + stride} {
		for j := 0; j < units; j++ {
			var src splitmix
			src.Seed(unitSeed(seed, j))
			for d := 0; d < draws; d++ {
				x := src.Uint64()
				if prev, ok := seen[x]; ok && prev != (unit{seed, j}) {
					t.Fatalf("unit %d of seed %d repeats a draw of unit %d of seed %d", j, seed, prev.j, prev.seed)
				}
				seen[x] = unit{seed, j}
			}
		}
	}
}

// TestSampleAllMemoryIndependentOfBudget: a serial run folds every
// permutation as it finishes, so its allocations do not grow with Samples.
func TestSampleAllMemoryIndependentOfBudget(t *testing.T) {
	g := Deterministic{G: randomGame(6, 5)}
	allocs := func(samples int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := SampleAll(context.Background(), g, Options{Samples: samples, Seed: 3, Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(64), allocs(4096); small != large {
		t.Fatalf("SampleAll allocates %v times at Samples 64 but %v at Samples 4096", small, large)
	}
}
