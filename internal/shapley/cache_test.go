package shapley

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func countingGame(n int, calls *atomic.Int64) Game {
	base := randomGame(n, 77)
	return GameFunc{N: n, Fn: func(ctx context.Context, c []bool) (float64, error) {
		calls.Add(1)
		return base.Value(ctx, c)
	}}
}

func TestCachedPreservesValues(t *testing.T) {
	var calls atomic.Int64
	g := countingGame(5, &calls)
	cached := NewCached(g)
	plain, err := ExactSubsets(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	viaCache, err := ExactSubsets(context.Background(), cached)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if !approxEq(plain[i], viaCache[i], 1e-12) {
			t.Errorf("player %d: %v vs %v", i, plain[i], viaCache[i])
		}
	}
}

func TestCachedErrorNotCached(t *testing.T) {
	boom := errors.New("boom")
	fail := true
	g := GameFunc{N: 2, Fn: func(context.Context, []bool) (float64, error) {
		if fail {
			return 0, boom
		}
		return 1, nil
	}}
	cached := NewCached(g)
	coalition := []bool{true, false}
	if _, err := cached.Value(context.Background(), coalition); !errors.Is(err, boom) {
		t.Fatal("error must propagate")
	}
	fail = false
	v, err := cached.Value(context.Background(), coalition)
	if err != nil || v != 1 {
		t.Fatalf("after recovery: %v, %v — errors must not be cached", v, err)
	}
}

func TestCachedConcurrentAccess(t *testing.T) {
	var calls atomic.Int64
	cached := NewCached(countingGame(8, &calls))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			coalition := make([]bool, 8)
			for i := 0; i < 500; i++ {
				for b := 0; b < 8; b++ {
					coalition[b] = (i>>uint(b))&1 == 1
				}
				if _, err := cached.Value(context.Background(), coalition); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if calls.Load() > 8*256 {
		t.Errorf("unexpected call volume %d", calls.Load())
	}
	if cached.NumPlayers() != 8 {
		t.Error("NumPlayers must delegate")
	}
}

func TestAppendPackedWords(t *testing.T) {
	a := AppendPacked(nil, []bool{true, false, true})
	if len(a) != 1 || a[0] != 0b101 {
		t.Errorf("AppendPacked = %b", a)
	}
	if AppendPacked(nil, nil) != nil {
		t.Error("empty coalition must pack to no words")
	}
	// 65 players spill into a second word.
	long := make([]bool, 65)
	long[64] = true
	words := AppendPacked(nil, long)
	if len(words) != 2 || words[0] != 0 || words[1] != 1 {
		t.Errorf("bit 64 must land in word 1: %b", words)
	}
	// Reuse must overwrite, not append blindly.
	scratch := make([]uint64, 0, 4)
	w1 := AppendPacked(scratch, long)
	w2 := AppendPacked(w1[:0], []bool{true})
	if len(w2) != 1 || w2[0] != 1 {
		t.Errorf("scratch reuse broken: %b", w2)
	}
	// Distinct coalitions must hash apart (not a guarantee, but these tiny
	// cases must not collide) and equal ones identically.
	h1 := HashCoalition([]bool{true, false, true})
	h2 := HashCoalition([]bool{true, true, true})
	h3 := HashCoalition([]bool{true, false, true})
	if h1 == h2 {
		t.Error("distinct coalitions hashed identically")
	}
	if h1 != h3 {
		t.Error("equal coalitions must hash identically")
	}
	if HashCoalition(long) == HashCoalition(make([]bool, 65)) {
		t.Error("bit 64 must be represented in the hash")
	}
}

// TestCachedWideGame exercises the >64-player fallback (string keys) and
// checks packed/wide keys agree with the underlying game.
func TestCachedWideGame(t *testing.T) {
	n := 70
	g := GameFunc{N: n, Fn: func(_ context.Context, c []bool) (float64, error) {
		s := 0.0
		for i, in := range c {
			if in {
				s += float64(i + 1)
			}
		}
		return s, nil
	}}
	cached := NewCached(g)
	coalition := make([]bool, n)
	coalition[0], coalition[65], coalition[69] = true, true, true
	want := 1.0 + 66 + 70
	for round := 0; round < 2; round++ {
		v, err := cached.Value(context.Background(), coalition)
		if err != nil || v != want {
			t.Fatalf("round %d: %v, %v (want %v)", round, v, err, want)
		}
	}
	hits, misses := cached.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("hits %d misses %d, want 1/1", hits, misses)
	}
}

// TestCachedWideHitAllocFree pins the satellite contract of the packed
// []uint64 key: a wide-coalition cache hit allocates nothing (the old
// string fallback materialized a key string per lookup).
func TestCachedWideHitAllocFree(t *testing.T) {
	n := 100
	cached := NewCached(GameFunc{N: n, Fn: func(context.Context, []bool) (float64, error) {
		return 1, nil
	}})
	coalition := make([]bool, n)
	for i := range coalition {
		coalition[i] = i%2 == 0
	}
	if _, err := cached.Value(context.Background(), coalition); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := cached.Value(context.Background(), coalition); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("wide cache hit allocates %v objects per lookup, want 0", allocs)
	}
}

// TestPackCoalition checks the uint64 key is injective over distinct
// memberships and matches the byte-string key's bits.
func TestPackCoalition(t *testing.T) {
	a := []bool{true, false, true, false, false, false, false, false, true}
	if packCoalition(a) != 0b100000101 {
		t.Errorf("packCoalition = %b", packCoalition(a))
	}
	if packCoalition(nil) != 0 {
		t.Error("empty coalition must pack to 0")
	}
	full := make([]bool, 64)
	full[63] = true
	if packCoalition(full) != 1<<63 {
		t.Error("bit 63 must be representable")
	}
}

// TestCachedShardedConcurrency hammers all shards from many goroutines; the
// race detector plus deterministic totals validate the striping.
func TestCachedShardedConcurrency(t *testing.T) {
	var calls atomic.Int64
	cached := NewCached(countingGame(12, &calls))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			coalition := make([]bool, 12)
			for i := 0; i < 4096; i++ {
				for b := 0; b < 12; b++ {
					coalition[b] = (i>>uint(b))&1 == 1
				}
				if _, err := cached.Value(context.Background(), coalition); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	hits, misses := cached.Stats()
	if hits+misses != 8*4096 {
		t.Errorf("lookups = %d, want %d", hits+misses, 8*4096)
	}
	if misses < 4096 || calls.Load() > 8*4096 {
		t.Errorf("misses %d calls %d out of range", misses, calls.Load())
	}
}
