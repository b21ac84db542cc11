package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/shapley"
)

func TestPoolMapCoversEveryTask(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers)
		for _, tasks := range []int{0, 1, 3, 100} {
			var done atomic.Int64
			seen := make([]atomic.Bool, tasks)
			p.Map(tasks, func(i int) {
				if seen[i].Swap(true) {
					t.Errorf("task %d ran twice", i)
				}
				done.Add(1)
			})
			if int(done.Load()) != tasks {
				t.Fatalf("workers=%d tasks=%d: ran %d", workers, tasks, done.Load())
			}
		}
	}
}

func TestNilPoolIsSerial(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool workers = %d", p.Workers())
	}
	order := []int{}
	p.Map(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("nil pool must run in order: %v", order)
		}
	}
}

func TestPoolBudgetIsGlobal(t *testing.T) {
	// Nested Maps share one helper budget: track the peak number of
	// concurrently live goroutines and assert it never exceeds workers
	// (the helpers) plus the concurrent callers.
	const workers = 4
	p := NewPool(workers)
	var live, peak atomic.Int64
	task := func(int) {
		n := live.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		// Nested fan-out from inside a task.
		p.Map(3, func(int) {})
		live.Add(-1)
	}
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Map(50, task)
		}()
	}
	wg.Wait()
	// 3 callers + at most workers-1 helpers can run tasks concurrently.
	if got := peak.Load(); got > 3+int64(workers-1) {
		t.Fatalf("peak concurrency %d exceeds callers+helpers %d", got, 3+workers-1)
	}
}

func TestEngineGameIDInterning(t *testing.T) {
	e := NewEngine(1)
	a := e.GameID("constraints|cell=t5[Country]")
	b := e.GameID("cells|cell=t5[Country]")
	c := e.GameID("constraints|cell=t5[Country]")
	if a == b {
		t.Error("distinct descriptors must get distinct IDs")
	}
	if a != c {
		t.Error("same descriptor must intern to the same ID")
	}
	if NewEngine(1).GameID("x") == 0 {
		t.Error("IDs must be non-zero")
	}
}

func TestCoalitionCacheHitAndGenerationInvalidation(t *testing.T) {
	cache := NewCoalitionCache()
	coalition := []bool{true, false, true, true}
	cache.Store(1, 10, coalition, 0.75)
	if v, ok := cache.Lookup(1, 10, coalition); !ok || v != 0.75 {
		t.Fatalf("lookup = %v, %v", v, ok)
	}
	// A different game misses on the same coalition.
	if _, ok := cache.Lookup(2, 10, coalition); ok {
		t.Fatal("game IDs must partition the key space")
	}
	// A newer generation invalidates.
	if _, ok := cache.Lookup(1, 11, coalition); ok {
		t.Fatal("generation bump must invalidate")
	}
	// A stale store after the bump must not resurrect the old world.
	cache.Store(1, 10, coalition, 0.25)
	if _, ok := cache.Lookup(1, 11, coalition); ok {
		t.Fatal("stale store must be dropped")
	}
	// And the old generation can never hit again either.
	if _, ok := cache.Lookup(1, 10, coalition); ok {
		t.Fatal("older generation must never hit")
	}
}

func TestCoalitionCacheClearAndInvalidate(t *testing.T) {
	e := NewEngine(1)
	coalition := []bool{true, false}
	e.Cache().Store(1, 5, coalition, 2.5)
	if _, ok := e.Cache().Lookup(1, 5, coalition); !ok {
		t.Fatal("stored entry must hit")
	}
	e.InvalidateCache()
	if _, ok := e.Cache().Lookup(1, 5, coalition); ok {
		t.Fatal("InvalidateCache must drop entries")
	}
	// Interning restarts: the same descriptor gets a fresh ID afterwards,
	// so even un-cleared entries could never be reached — but they are
	// cleared anyway.
	a := e.GameID("d")
	e.InvalidateCache()
	if b := e.GameID("d"); b == a {
		t.Fatal("interning table must reset with the cache")
	}
}

func TestCoalitionCacheWideKeys(t *testing.T) {
	cache := NewCoalitionCache()
	wide := make([]bool, 130)
	wide[0], wide[64], wide[129] = true, true, true
	cache.Store(7, 3, wide, 1.5)
	if v, ok := cache.Lookup(7, 3, wide); !ok || v != 1.5 {
		t.Fatalf("wide lookup = %v, %v", v, ok)
	}
	other := make([]bool, 130)
	other[0], other[64] = true, true
	if _, ok := cache.Lookup(7, 3, other); ok {
		t.Fatal("distinct wide coalitions must not collide")
	}
	// Hit path must not allocate.
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := cache.Lookup(7, 3, wide); !ok {
			t.Fatal("lost entry")
		}
	})
	if allocs != 0 {
		t.Errorf("wide lookup allocates %v objects, want 0", allocs)
	}
}

func TestCachedGameSharesAcrossGames(t *testing.T) {
	e := NewEngine(1)
	var gen uint64 = 1
	var calls atomic.Int64
	base := shapley.GameFunc{N: 5, Fn: func(_ context.Context, c []bool) (float64, error) {
		calls.Add(1)
		s := 0.0
		for i, in := range c {
			if in {
				s += float64(i + 1)
			}
		}
		return s, nil
	}}
	genFn := func() uint64 { return gen }
	g1 := e.CachedGame("game-A", genFn, base)
	g2 := e.CachedGame("game-A", genFn, base)
	coalition := []bool{true, true, false, false, true}
	ctx := context.Background()
	v1, err := g1.Value(ctx, coalition)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := g2.Value(ctx, coalition)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 || calls.Load() != 1 {
		t.Fatalf("second game instance must hit the shared entry: calls=%d", calls.Load())
	}
	// A generation bump forces recomputation.
	gen = 2
	if _, err := g1.Value(ctx, coalition); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("generation bump must miss: calls=%d", calls.Load())
	}
	hits, misses := e.CacheStats()
	if hits != 1 || misses != 2 {
		t.Fatalf("stats = %d/%d, want 1 hit, 2 misses", hits, misses)
	}
	if e.HitRate() <= 0 {
		t.Error("hit rate must be positive")
	}
}

// TestCoalitionCacheConcurrent hammers the shards from eight goroutines
// over three games. Every stored value is a function of (game,
// coalition), so a hit that returns anything else is an entry served
// under the wrong key.
func TestCoalitionCacheConcurrent(t *testing.T) {
	cache := NewCoalitionCache()
	value := func(game uint64, i int) float64 { return float64(game<<12 | uint64(i)) }
	var wrong atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			coalition := make([]bool, 12)
			for i := 0; i < 4096; i++ {
				for b := 0; b < 12; b++ {
					coalition[b] = (i>>uint(b))&1 == 1
				}
				game := uint64(w % 3)
				if v, ok := cache.Lookup(game, 1, coalition); ok {
					if v != value(game, i) {
						wrong.Add(1)
					}
					continue
				}
				cache.Store(game, 1, coalition, value(game, i))
			}
		}(w)
	}
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d hits returned a value stored under another key", n)
	}
	hits, misses := cache.Stats()
	if hits+misses != 8*4096 {
		t.Fatalf("lookups = %d, want %d", hits+misses, 8*4096)
	}
	if hits == 0 {
		t.Fatal("eight workers over three games must share entries")
	}
}

// TestCachedGameErrorNotCached: a failing evaluation is not memoized, so
// the next call evaluates again.
func TestCachedGameErrorNotCached(t *testing.T) {
	boom := errors.New("boom")
	fail := true
	calls := 0
	g := NewEngine(1).CachedGame("flaky", func() uint64 { return 1 }, shapley.GameFunc{N: 2, Fn: func(context.Context, []bool) (float64, error) {
		calls++
		if fail {
			return 0, boom
		}
		return 1, nil
	}})
	coalition := []bool{true, false}
	if _, err := g.Value(context.Background(), coalition); !errors.Is(err, boom) {
		t.Fatal("error must propagate")
	}
	fail = false
	v, err := g.Value(context.Background(), coalition)
	if err != nil || v != 1 || calls != 2 {
		t.Fatalf("after recovery: %v, %v, %d calls — errors must not be cached", v, err, calls)
	}
	if _, err := g.Value(context.Background(), coalition); err != nil || calls != 2 {
		t.Fatalf("a successful value must be cached: %v, %d calls", err, calls)
	}
}

// TestPackNarrow checks the ≤64-player key keeps every membership bit.
func TestPackNarrow(t *testing.T) {
	a := []bool{true, false, true, false, false, false, false, false, true}
	if packNarrow(a) != 0b100000101 {
		t.Errorf("packNarrow = %b", packNarrow(a))
	}
	if packNarrow(nil) != 0 {
		t.Error("empty coalition must pack to 0")
	}
	full := make([]bool, 64)
	full[63] = true
	if packNarrow(full) != 1<<63 {
		t.Error("bit 63 must be representable")
	}
}

func TestAppendPackedWords(t *testing.T) {
	a := appendPacked(nil, []bool{true, false, true})
	if len(a) != 1 || a[0] != 0b101 {
		t.Errorf("appendPacked = %b", a)
	}
	if appendPacked(nil, nil) != nil {
		t.Error("empty coalition must pack to no words")
	}
	// 65 players spill into a second word.
	long := make([]bool, 65)
	long[64] = true
	words := appendPacked(nil, long)
	if len(words) != 2 || words[0] != 0 || words[1] != 1 {
		t.Errorf("bit 64 must land in word 1: %b", words)
	}
	// Reuse must overwrite, not append blindly.
	scratch := make([]uint64, 0, 4)
	w1 := appendPacked(scratch, long)
	w2 := appendPacked(w1[:0], []bool{true})
	if len(w2) != 1 || w2[0] != 1 {
		t.Errorf("scratch reuse broken: %b", w2)
	}
	// Distinct coalitions must hash apart (not a guarantee, but these tiny
	// cases must not collide) and equal ones identically.
	hash := func(c []bool) uint64 { return hashPacked(appendPacked(nil, c)) }
	h1 := hash([]bool{true, false, true})
	h2 := hash([]bool{true, true, true})
	h3 := hash([]bool{true, false, true})
	if h1 == h2 {
		t.Error("distinct coalitions hashed identically")
	}
	if h1 != h3 {
		t.Error("equal coalitions must hash identically")
	}
	if hash(long) == hash(make([]bool, 65)) {
		t.Error("bit 64 must be represented in the hash")
	}
}

// BenchmarkCachedGameValue measures a shared-cache hit through a
// CachedGame, at 16 players (one packed word) and at 96 (the wide key,
// which must not allocate).
func BenchmarkCachedGameValue(b *testing.B) {
	for _, n := range []int{16, 96} {
		b.Run(fmt.Sprintf("players=%d", n), func(b *testing.B) {
			g := NewEngine(1).CachedGame("bench", func() uint64 { return 1 }, shapley.GameFunc{N: n, Fn: func(context.Context, []bool) (float64, error) {
				return 1, nil
			}})
			coalition := make([]bool, n)
			for i := range coalition {
				coalition[i] = i%3 == 0
			}
			ctx := context.Background()
			if _, err := g.Value(ctx, coalition); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.Value(ctx, coalition); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
