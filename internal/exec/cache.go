package exec

import (
	"context"
	"math"
	"slices"
	"sync"

	"repro/internal/faults"
	"repro/internal/shapley"
)

// floatBits exposes a value's bit pattern for fingerprinting ("bit-
// identical" is meant literally: -0.0 and 0.0, or two NaN payloads, are
// distinct cache states).
func floatBits(v float64) uint64 { return math.Float64bits(v) }

// cacheShards is the lock-striping factor of the shared cache; must be a
// power of two. 64 shards keep exact-enumeration fan-out from serializing
// on one mutex at any realistic worker count.
const cacheShards = 64

// CoalitionCache memoizes deterministic coalition values across *all* of a
// session's games, keyed by (gameID, packed coalition) and stamped with
// the table generation the value was computed at. It is the system's only
// coalition-value cache, and it survives the game: re-explaining a cell,
// switching between the constraint and the interaction screen, or
// re-running an exact group report after an unrelated edit was rolled back
// all hit values an earlier game already paid a black-box run for.
//
// Invalidation is by generation, lazily per shard: the first lookup
// carrying a new generation clears the shard, so Session.SetCell costs
// nothing up front and no stale value can ever be returned (the hammer
// test in core proves this under -race). Safe for concurrent use.
type CoalitionCache struct {
	shards [cacheShards]ccShard
}

// ccShard is one lock stripe; the padding keeps adjacent shards off the
// same cache line.
type ccShard struct {
	mu sync.Mutex
	// gen is the generation the shard's entries belong to; a lookup with a
	// different generation clears the shard first.
	gen    uint64
	narrow map[narrowKey]float64
	wide   map[uint64][]wideGameEntry
	hits   uint64
	misses uint64
	_      [24]byte
}

// narrowKey identifies a ≤64-player coalition of one game.
type narrowKey struct {
	game uint64
	bits uint64
}

// wideGameEntry is one >64-player entry: the owning game, the packed
// membership words, and the memoized value.
type wideGameEntry struct {
	game  uint64
	words []uint64
	v     float64
}

// NewCoalitionCache returns an empty shared cache.
func NewCoalitionCache() *CoalitionCache {
	c := &CoalitionCache{}
	for i := range c.shards {
		c.shards[i].narrow = make(map[narrowKey]float64)
		c.shards[i].wide = make(map[uint64][]wideGameEntry)
	}
	return c
}

// mix64 is the SplitMix64 finalizer: a cheap bijective scrambler, so shard
// selection sees every key bit (low bits alone would put the small
// coalitions of an enumeration in a handful of shards).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// syncGen prepares the shard for an access at generation gen (callers hold
// mu). Entries from an older generation are cleared — generations are
// monotonic, so they can never be asked for again. An access *older* than
// the shard (a value computed before a concurrent edit landed) reports
// false: the caller treats it as a miss or drops the store instead of
// resurrecting history.
func (s *ccShard) syncGen(gen uint64) bool {
	if s.gen == gen {
		return true
	}
	if gen < s.gen {
		return false
	}
	clear(s.narrow)
	clear(s.wide)
	s.gen = gen
	return true
}

// packNarrow folds a ≤64-player membership into one word.
func packNarrow(coalition []bool) uint64 {
	var bits uint64
	for i, in := range coalition {
		if in {
			bits |= 1 << uint(i)
		}
	}
	return bits
}

// appendPacked appends the coalition's packed 64-bit membership words to
// dst and returns the extended slice: player i is bit i%64 of word i/64.
// It is the allocation-free wide-coalition key.
//
//lint:hotpath
func appendPacked(dst []uint64, coalition []bool) []uint64 {
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

// hashPacked hashes packed membership words (FNV-1a over the words,
// finalized by mix64). Coalitions of one game always have the same
// length, so the word count needs no separate mixing.
//
//lint:hotpath
func hashPacked(words []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, word := range words {
		h = (h ^ word) * 1099511628211
	}
	return mix64(h)
}

// wideStackWords sizes the stack buffer the wide-coalition paths pack
// into: Binding packs a coalition once per operation and probes the
// staging area and the shared cache with the same words, instead of each
// probe packing into its own lock-guarded scratch. Coalitions up to
// 64*wideStackWords players stay allocation-free; larger ones fall back
// to one append-grown heap buffer per operation.
const wideStackWords = 8

// Lookup returns the memoized value of (game, coalition) at generation
// gen, if present.
//
//lint:hotpath
func (c *CoalitionCache) Lookup(game, gen uint64, coalition []bool) (float64, bool) {
	if len(coalition) <= 64 {
		return c.lookupNarrow(game, gen, packNarrow(coalition))
	}
	var buf [wideStackWords]uint64
	words := appendPacked(buf[:0], coalition)
	return c.lookupWide(game, gen, hashPacked(words)^mix64(game), words)
}

// lookupNarrow is Lookup for a pre-packed ≤64-player coalition.
func (c *CoalitionCache) lookupNarrow(game, gen, bits uint64) (float64, bool) {
	key := narrowKey{game: game, bits: bits}
	s := &c.shards[mix64(key.bits^mix64(key.game))&(cacheShards-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.syncGen(gen) {
		s.misses++
		return 0, false
	}
	v, ok := s.narrow[key]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return v, ok
}

// lookupWide is Lookup for a pre-packed >64-player coalition; h must be
// hashPacked(words)^mix64(game).
func (c *CoalitionCache) lookupWide(game, gen, h uint64, words []uint64) (float64, bool) {
	s := &c.shards[h&(cacheShards-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.syncGen(gen) {
		s.misses++
		return 0, false
	}
	for _, e := range s.wide[h] {
		if e.game == game && slices.Equal(e.words, words) {
			s.hits++
			return e.v, true
		}
	}
	s.misses++
	return 0, false
}

// Store memoizes the value of (game, coalition) computed at generation
// gen. A store carrying a generation older than the shard's is dropped —
// the table moved on while the value was being computed.
//
//lint:hotpath
func (c *CoalitionCache) Store(game, gen uint64, coalition []bool, v float64) {
	if len(coalition) <= 64 {
		c.storeNarrow(game, gen, packNarrow(coalition), v)
		return
	}
	c.storeWide(game, gen, appendPacked(nil, coalition), v)
}

// storeNarrow stores a pre-packed ≤64-player coalition value (the direct
// Store path and Txn.Commit both land here).
func (c *CoalitionCache) storeNarrow(game, gen, bits uint64, v float64) {
	key := narrowKey{game: game, bits: bits}
	s := &c.shards[mix64(key.bits^mix64(key.game))&(cacheShards-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.syncGen(gen) {
		s.narrow[key] = v
	}
}

// storeWide stores a pre-packed >64-player coalition value.
func (c *CoalitionCache) storeWide(game, gen uint64, words []uint64, v float64) {
	c.storeWideH(game, gen, hashPacked(words)^mix64(game), words, v)
}

// storeWideH is storeWide with the chain key precomputed; h as in
// lookupWide.
func (c *CoalitionCache) storeWideH(game, gen, h uint64, words []uint64, v float64) {
	s := &c.shards[h&(cacheShards-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.syncGen(gen) {
		return
	}
	for _, e := range s.wide[h] {
		if e.game == game && slices.Equal(e.words, words) {
			return
		}
	}
	//lint:allow allocfree a first-time insert must own its packed key; hits (the steady state) return above without cloning
	s.wide[h] = append(s.wide[h], wideGameEntry{game: game, words: slices.Clone(words), v: v})
}

// Len returns the number of memoized entries across shards (test and
// diagnostics introspection; the abort-then-rerun suite pins Len to zero
// after an aborted explain).
func (c *CoalitionCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.narrow)
		//lint:allow detmap commutative integer sum; order-insensitive
		for _, es := range s.wide {
			n += len(es)
		}
		s.mu.Unlock()
	}
	return n
}

// Fingerprint folds every (game, generation, coalition, value) entry into
// one order-independent 64-bit digest: two caches fingerprint equal iff
// they memoize the same set of values. The chaos suite uses it to assert
// an aborted explain left the cache bit-identical to one that never ran.
func (c *CoalitionCache) Fingerprint() uint64 {
	var fp uint64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		//lint:allow detmap XOR fold is an order-independent digest by design
		for key, v := range s.narrow {
			fp ^= mix64(mix64(key.game) ^ mix64(key.bits) ^ mix64(s.gen) ^ mix64(uint64(floatBits(v))))
		}
		//lint:allow detmap XOR fold is an order-independent digest by design
		for h, es := range s.wide {
			for _, e := range es {
				w := mix64(e.game) ^ mix64(h) ^ mix64(s.gen) ^ mix64(uint64(floatBits(e.v)))
				for _, word := range e.words {
					w = mix64(w ^ word)
				}
				fp ^= mix64(w)
			}
		}
		s.mu.Unlock()
	}
	return fp
}

// Clear drops every entry (hit/miss statistics survive). Used when game
// identity itself moves — a session's constraint-set edit re-keys every
// game descriptor, turning all stored values into unreachable dead weight
// that a generation bump would never collect (generations track table
// edits only).
func (c *CoalitionCache) Clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		clear(s.narrow)
		clear(s.wide)
		s.mu.Unlock()
	}
}

// Stats returns cumulative hits and misses summed over shards.
func (c *CoalitionCache) Stats() (hits, misses uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}

// Binding is one game's handle on the shared coalition cache: the interned
// game ID plus the generation source. It is how *deterministic* evaluation
// paths outside the exact enumerators — the null-policy coalition
// evaluations inside the sampling loops (SampleAll, TopK) —
// participate in the shared cache without wrapping the game: the game keeps
// its walk/scratch fast paths and consults the binding per evaluation.
//
// The generation stamp read by Lookup must be handed back to the matching
// Store, so a value computed while a concurrent session edit lands is
// dropped rather than stored as current (the same ordering CachedGame
// uses). A nil *Binding is a valid "no shared cache" value: Lookup always
// misses and Store is a no-op.
type Binding struct {
	cache *CoalitionCache
	id    uint64
	gen   func() uint64
	// txn, when set, stages this binding's stores in the owning explain's
	// cache transaction instead of publishing them directly, and serves
	// the run's own staged values on lookup — the no-partial-work-poisoning
	// discipline (see Txn).
	txn *Txn
}

// Bind interns desc (see GameID for the descriptor contract) and returns
// the game's cache binding.
func (e *Engine) Bind(desc string, gen func() uint64) *Binding {
	return &Binding{cache: e.cache, id: e.GameID(desc), gen: gen}
}

// Lookup returns the memoized value of the coalition at the current
// generation; gen must be passed to the Store that memoizes a miss.
//
//lint:hotpath
func (b *Binding) Lookup(coalition []bool) (v float64, gen uint64, ok bool) {
	if b == nil {
		return 0, 0, false
	}
	gen = b.gen()
	v, ok = b.lookupAt(gen, coalition)
	return v, gen, ok
}

// lookupAt packs and hashes the coalition once and probes the staging area
// and the shared cache with the same key.
func (b *Binding) lookupAt(gen uint64, coalition []bool) (float64, bool) {
	if len(coalition) <= 64 {
		bits := packNarrow(coalition)
		if v, ok := b.txn.stagedNarrow(b.id, gen, bits); ok {
			return v, true
		}
		return b.cache.lookupNarrow(b.id, gen, bits)
	}
	var buf [wideStackWords]uint64
	words := appendPacked(buf[:0], coalition)
	h := hashPacked(words) ^ mix64(b.id)
	if v, ok := b.txn.stagedWide(b.id, gen, h, words); ok {
		return v, ok
	}
	return b.cache.lookupWide(b.id, gen, h, words)
}

// LookupAt is Lookup pinned to an explicit generation stamp — the walks'
// variant. A coalition walk evaluates against a scratch snapshot taken at
// a fixed generation, so both its lookups and its stores must carry that
// stamp: looking up at the *live* generation could hit a value another
// explain computed after a concurrent session edit, mixing two table
// states into one walk's estimates. A stale stamp (the table moved on)
// simply misses.
//
//lint:hotpath
func (b *Binding) LookupAt(gen uint64, coalition []bool) (float64, bool) {
	if b == nil {
		return 0, false
	}
	return b.lookupAt(gen, coalition)
}

// Store memoizes a value computed at the generation a prior Lookup
// reported. No-op on a nil binding. SiteCacheStore is the fault-injection
// checkpoint here: a scheduled cancellation lands exactly between
// computing a value and publishing it, the moment the
// no-partial-work-poisoning invariant guards.
//
//lint:hotpath
func (b *Binding) Store(gen uint64, coalition []bool, v float64) {
	if b == nil {
		return
	}
	faults.Hit(faults.SiteCacheStore)
	if len(coalition) <= 64 {
		bits := packNarrow(coalition)
		if b.txn != nil {
			b.txn.stageNarrow(b.id, gen, bits, v)
			return
		}
		b.cache.storeNarrow(b.id, gen, bits, v)
		return
	}
	var buf [wideStackWords]uint64
	words := appendPacked(buf[:0], coalition)
	h := hashPacked(words) ^ mix64(b.id)
	if b.txn != nil {
		b.txn.stageWide(b.id, gen, h, words, v)
		return
	}
	b.cache.storeWideH(b.id, gen, h, words, v)
}

// CachedGame is a shapley.Game view over one game's slice of the shared
// cache: lookups and stores are stamped with the generation gen() reports,
// so values computed before a session edit can never satisfy a lookup
// after it.
type CachedGame struct {
	b *Binding
	g shapley.Game
}

// NumPlayers implements shapley.Game.
func (cg *CachedGame) NumPlayers() int { return cg.g.NumPlayers() }

// Value implements shapley.Game, consulting the shared cache first.
//
//lint:hotpath
func (cg *CachedGame) Value(ctx context.Context, coalition []bool) (float64, error) {
	v, gen, ok := cg.b.Lookup(coalition)
	if ok {
		return v, nil
	}
	v, err := cg.g.Value(ctx, coalition)
	if err != nil {
		return 0, err
	}
	cg.b.Store(gen, coalition, v)
	return v, nil
}
