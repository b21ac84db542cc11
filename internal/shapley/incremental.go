package shapley

import (
	"context"
	"math/rand"
)

// IncrementalGame is a StochasticGame that can evaluate coalition *prefixes*
// incrementally. Permutation sampling only ever grows a coalition by one
// player per step, so a game that maintains its evaluation state in place
// (e.g. a scratch table with masked cells) can accept a single-player delta
// instead of re-applying the full membership mask on every evaluation.
// SampleAll and TopK detect this interface and switch to
// the walk protocol below; the estimates are bit-identical to the generic
// path for any conforming implementation (see the equivalence contract on
// CoalitionWalk).
type IncrementalGame interface {
	StochasticGame
	// NewWalk returns a fresh walk handle. Handles are confined to a single
	// goroutine; the sampler allocates one per worker. Callers must Close
	// the walk when done so pooled resources are returned.
	NewWalk() CoalitionWalk
}

// CoalitionWalk is the incremental-evaluation protocol: Reset to the empty
// coalition, Include players one at a time, and Value the current prefix.
//
// Equivalence contract: for any sequence of Reset/Include calls producing
// membership set S, Value(ctx, rng) must return exactly what
// SampleValue(ctx, mask(S), rng) would return, consuming rng identically.
// This is what makes the sampler's fast path produce bit-identical
// estimates under a fixed seed.
type CoalitionWalk interface {
	// Reset empties the coalition, starting a new permutation walk.
	Reset()
	// Include adds player p to the coalition. Adding an already-included
	// player is a no-op.
	Include(p int)
	// Value evaluates one realization of the characteristic function on the
	// current coalition, drawing any randomness from rng.
	Value(ctx context.Context, rng *rand.Rand) (float64, error)
	// Close releases the walk's resources (scratch tables back to pools).
	Close()
}

// DeltaWalk is a CoalitionWalk that can also *remove* players. Samplers
// that draw one marginal per permutation (TopK) then morph
// the walk from one sample's coalition straight into the next — toggling
// only the players whose membership changed — instead of rebuilding every
// prefix from the empty coalition, which re-walks every player (for group
// games, every group) per sample.
//
// Equivalence contract: for any sequence of Reset/Include/Exclude calls
// producing membership set S, Value(ctx, rng) must return exactly what
// SampleValue(ctx, mask(S), rng) would, consuming rng identically — the
// path taken to S must be unobservable.
type DeltaWalk interface {
	CoalitionWalk
	// Exclude removes player p from the coalition. Removing an absent
	// player is a no-op.
	Exclude(p int)
}

// walkOrNil returns a CoalitionWalk when g supports incremental prefix
// evaluation, nil otherwise.
func walkOrNil(g StochasticGame) CoalitionWalk {
	if ig, ok := g.(IncrementalGame); ok {
		return ig.NewWalk()
	}
	return nil
}

// walkMorph drives a DeltaWalk coalition-to-coalition: it mirrors the
// walk's membership and, per marginal, flips only the players that differ
// between the previous sample's final coalition and the next sample's
// prefix. Confined to one goroutine, like the walk it wraps.
type walkMorph struct {
	walk DeltaWalk
	// cur mirrors the walk's current membership; valid only after started.
	cur     []bool
	want    []bool
	started bool
}

func newWalkMorph(w DeltaWalk, players int) *walkMorph {
	return &walkMorph{walk: w, cur: make([]bool, players), want: make([]bool, players)}
}

// invalidate forgets the mirrored membership (the walk was driven directly
// via Reset/Include); the next marginal re-establishes it with a Reset.
// Nil-safe so callers can hold a nil morph for plain walks.
func (m *walkMorph) invalidate() {
	if m != nil {
		m.started = false
	}
}

// marginal samples one marginal contribution for player under perm, exactly
// as walkMarginal does, but reaching each coalition by the membership diff.
//
//lint:hotpath
func (m *walkMorph) marginal(ctx context.Context, perm []int, player int, rng *rand.Rand) (float64, error) {
	want := m.want
	for i := range want {
		want[i] = false
	}
	for _, p := range perm {
		if p == player {
			break
		}
		want[p] = true
	}
	if !m.started {
		m.walk.Reset()
		for i := range m.cur {
			m.cur[i] = false
		}
		m.started = true
	}
	for p := range want {
		switch {
		case want[p] && !m.cur[p]:
			m.walk.Include(p)
		case !want[p] && m.cur[p]:
			m.walk.Exclude(p)
		}
		m.cur[p] = want[p]
	}
	without, err := m.walk.Value(ctx, rng)
	if err != nil {
		return 0, err
	}
	m.walk.Include(player)
	m.cur[player] = true
	with, err := m.walk.Value(ctx, rng)
	if err != nil {
		return 0, err
	}
	return with - without, nil
}

// walkMarginal samples one marginal contribution for player under perm via
// the walk protocol: build the preceding-players prefix, evaluate without
// and with the player, return the difference. Shared by every
// one-marginal sampler so the walk sequence (and its RNG consumption)
// cannot diverge between them.
//
//lint:hotpath
func walkMarginal(ctx context.Context, walk CoalitionWalk, perm []int, player int, rng *rand.Rand) (float64, error) {
	walk.Reset()
	for _, p := range perm {
		if p == player {
			break
		}
		walk.Include(p)
	}
	without, err := walk.Value(ctx, rng)
	if err != nil {
		return 0, err
	}
	walk.Include(player)
	with, err := walk.Value(ctx, rng)
	if err != nil {
		return 0, err
	}
	return with - without, nil
}
