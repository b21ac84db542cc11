package shapley

import (
	"context"
	"fmt"
	"testing"
)

func BenchmarkExactSubsets(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		g := randomGame(n, 1)
		b.Run(fmt.Sprintf("players=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ExactSubsets(context.Background(), g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSampleAllPermutations(b *testing.B) {
	g := Deterministic{G: randomGame(16, 2)}
	for _, m := range []int{64, 512} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SampleAll(context.Background(), g, Options{Samples: m, Seed: int64(i), Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSampleAllParallel(b *testing.B) {
	g := Deterministic{G: randomGame(16, 2)}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SampleAll(context.Background(), g, Options{Samples: 512, Seed: int64(i), Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExactInteraction(b *testing.B) {
	g := randomGame(10, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ExactInteraction(context.Background(), g); err != nil {
			b.Fatal(err)
		}
	}
}
