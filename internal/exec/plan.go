package exec

import (
	"sync"

	"repro/internal/table"
)

// PlanCache memoizes compiled constraint-set query plans per
// (schema identity, DC-set fingerprint), so a session that re-explains,
// forks work tables, or cycles a constraint in and out of its set pays
// plan compilation once. The cached plan is opaque to exec (an `any`
// holding a *plan.Plan): this package knows games and tables, never
// constraints, and core is the layer that compiles and type-asserts.
//
// Invalidation rides the existing ladder: Engine.InvalidateCache — the
// AddDC/RemoveDC barrier — clears this cache with the coalition and
// repair caches. Entries are additionally self-invalidating by
// construction: a changed DC set changes the fingerprint and a schema
// swap changes the pointer identity, so stale entries can only go
// unreachable, never serve a wrong plan.
//
// Safe for concurrent use.
type PlanCache struct {
	mu      sync.Mutex
	entries map[PlanKey]any
	hits    uint64
	misses  uint64
}

// PlanKey identifies one compiled plan: the schema by pointer identity
// (schemas are immutable; clones share their source's pointer) and the
// constraint set by fingerprint.
type PlanKey struct {
	Schema      *table.Schema
	Fingerprint uint64
}

// maxPlanEntries bounds the cache; past it (a server churning schemas
// and DC sets forever) the cache resets rather than growing without
// bound.
const maxPlanEntries = 64

// NewPlanCache returns an empty plan cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{entries: make(map[PlanKey]any)}
}

// Lookup returns the cached plan for key, if any.
func (pc *PlanCache) Lookup(key PlanKey) (any, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	p, ok := pc.entries[key]
	if ok {
		pc.hits++
	} else {
		pc.misses++
	}
	return p, ok
}

// Store caches a compiled plan under key.
func (pc *PlanCache) Store(key PlanKey, plan any) {
	if plan == nil {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if len(pc.entries) >= maxPlanEntries {
		clear(pc.entries)
	}
	pc.entries[key] = plan
}

// Len reports the number of cached plans.
func (pc *PlanCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.entries)
}

// Clear drops every cached plan.
func (pc *PlanCache) Clear() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	clear(pc.entries)
}

// Stats reports cumulative lookup hits and misses.
func (pc *PlanCache) Stats() (hits, misses uint64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.hits, pc.misses
}
