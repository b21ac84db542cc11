package shapley

import (
	"context"
	"slices"
	"sync"
)

// cacheShards is the lock-striping factor. Exact constraint-game
// enumeration fans evaluations across workers; a single mutex serializes
// them, while 64 shards keep contention negligible for any realistic
// worker count. Must be a power of two.
const cacheShards = 64

// Cached memoizes a deterministic game's coalition values. Exact Shapley
// computation revisits coalitions (single-player enumeration for several
// players of the same game shares almost all of them), and permutation sampling of games with
// few players revisits the small coalition space constantly; caching turns
// those repeats into map lookups. Safe for concurrent use.
//
// Coalitions of games with at most 64 players are keyed by a packed uint64
// bitmask (no allocation on lookup); wider games are keyed by the packed
// []uint64 word form — hashed into a bucket, disambiguated by stored key
// words — packed into a shard-local scratch buffer so lookups allocate
// nothing either. Entries are spread over 64 lock shards so concurrent
// enumeration does not serialize on one mutex.
//
// Only meaningful for deterministic games — memoizing a stochastic game
// would freeze one realization per coalition and bias the estimate toward
// it (it stays an unbiased estimate of *some* fixed game, but no longer of
// the expected game).
type Cached struct {
	// G is the underlying game.
	G Game

	wide   bool // more than 64 players: packed-word keys instead of one uint64
	shards [cacheShards]cacheShard
}

// cacheShard is one lock stripe. The padding keeps adjacent shards off the
// same cache line so uncontended locks don't false-share.
type cacheShard struct {
	mu     sync.Mutex
	packed map[uint64]float64
	// wide buckets entries by the hash of their packed words; the stored
	// words disambiguate hash collisions exactly.
	wide map[uint64][]wideEntry
	// wbuf is the shard-local packing scratch (guarded by mu), so wide
	// lookups stay allocation-free.
	wbuf   []uint64
	hits   int
	misses int
	_      [24]byte
}

// wideEntry is one >64-player cache entry: the packed membership words and
// the memoized value.
type wideEntry struct {
	words []uint64
	v     float64
}

// NewCached wraps g with a coalition-value cache.
func NewCached(g Game) *Cached {
	c := &Cached{G: g, wide: g.NumPlayers() > 64}
	for i := range c.shards {
		if c.wide {
			c.shards[i].wide = make(map[uint64][]wideEntry)
		} else {
			c.shards[i].packed = make(map[uint64]float64)
		}
	}
	return c
}

// NumPlayers implements Game.
func (c *Cached) NumPlayers() int { return c.G.NumPlayers() }

// Value implements Game, consulting the cache first.
//
//lint:hotpath
func (c *Cached) Value(ctx context.Context, coalition []bool) (float64, error) {
	if c.wide {
		return c.valueWide(ctx, coalition)
	}
	key := packCoalition(coalition)
	s := &c.shards[mix64(key)&(cacheShards-1)]
	s.mu.Lock()
	if v, ok := s.packed[key]; ok {
		s.hits++
		s.mu.Unlock()
		return v, nil
	}
	s.mu.Unlock()

	v, err := c.G.Value(ctx, coalition)
	if err != nil {
		return 0, err
	}

	s.mu.Lock()
	s.misses++
	s.packed[key] = v
	s.mu.Unlock()
	return v, nil
}

func (c *Cached) valueWide(ctx context.Context, coalition []bool) (float64, error) {
	h := HashCoalition(coalition)
	s := &c.shards[h&(cacheShards-1)]
	s.mu.Lock()
	s.wbuf = AppendPacked(s.wbuf[:0], coalition)
	if v, ok := findWide(s.wide[h], s.wbuf); ok {
		s.hits++
		s.mu.Unlock()
		return v, nil
	}
	s.mu.Unlock()

	v, err := c.G.Value(ctx, coalition)
	if err != nil {
		return 0, err
	}

	s.mu.Lock()
	s.misses++
	// Re-pack: the scratch may have been reused by a concurrent lookup
	// while the lock was dropped for the evaluation.
	s.wbuf = AppendPacked(s.wbuf[:0], coalition)
	if _, ok := findWide(s.wide[h], s.wbuf); !ok {
		s.wide[h] = append(s.wide[h], wideEntry{words: slices.Clone(s.wbuf), v: v})
	}
	s.mu.Unlock()
	return v, nil
}

// findWide scans one hash bucket for an exact packed-word match.
func findWide(bucket []wideEntry, words []uint64) (float64, bool) {
	for i := range bucket {
		if slices.Equal(bucket[i].words, words) {
			return bucket[i].v, true
		}
	}
	return 0, false
}

// Stats returns cache hits and misses so far, summed over all shards.
func (c *Cached) Stats() (hits, misses int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}

// packCoalition folds a ≤64-player membership slice into a uint64 bitmask.
func packCoalition(coalition []bool) uint64 {
	var key uint64
	for i, in := range coalition {
		if in {
			key |= 1 << uint(i)
		}
	}
	return key
}

// mix64 is the SplitMix64 finalizer: a cheap bijective scrambler so shard
// selection sees all key bits (low bits alone would put the small
// coalitions of an enumeration in a handful of shards).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// AppendPacked appends the coalition's packed 64-bit membership words to
// dst and returns the extended slice: player i is bit i%64 of word i/64.
// It is the allocation-free wide-coalition cache key, shared with the
// session-scoped coalition cache in internal/exec.
//
//lint:hotpath
func AppendPacked(dst []uint64, coalition []bool) []uint64 {
	var word uint64
	shift := uint(0)
	for _, in := range coalition {
		if in {
			word |= 1 << shift
		}
		shift++
		if shift == 64 {
			dst = append(dst, word)
			word, shift = 0, 0
		}
	}
	if shift > 0 {
		dst = append(dst, word)
	}
	return dst
}

// HashPacked hashes pre-packed membership words with exactly the
// function HashCoalition applies to a live coalition: HashPacked(
// AppendPacked(nil, c)) == HashCoalition(c) for every coalition c. It
// serves consumers (the exec cache transaction) that carry coalitions in
// packed form across a staging boundary.
//
//lint:hotpath
func HashPacked(words []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, word := range words {
		h = (h ^ word) * 1099511628211
	}
	return mix64(h)
}

// HashCoalition hashes the packed-word form of the membership without
// materializing it (FNV-1a over the words, finalized by mix64). Coalitions
// of one game always have the same length, so the word count needs no
// separate mixing.
func HashCoalition(coalition []bool) uint64 {
	h := uint64(14695981039346656037)
	var word uint64
	shift := uint(0)
	for _, in := range coalition {
		if in {
			word |= 1 << shift
		}
		shift++
		if shift == 64 {
			h = (h ^ word) * 1099511628211
			word, shift = 0, 0
		}
	}
	if shift > 0 {
		h = (h ^ word) * 1099511628211
	}
	return mix64(h)
}
