package core

import (
	"context"
	"fmt"

	"repro/internal/table"
)

// Achievable reports whether any subset of the constraint set makes the
// black box assign the desired value to the cell — the decision version of
// the why-not question. It enumerates subsets with memoization, so it
// costs at most 2^|DCs| black-box runs and short-circuits on the first
// witness (checked in a deterministic size-ascending order, so the
// returned witness is one of the smallest).
func (e *Explainer) Achievable(ctx context.Context, cell table.CellRef, desired table.Value) (_ bool, _ []string, err error) {
	defer e.finishEntry(e.begin(), &err)
	if err := e.checkCell(cell); err != nil {
		return false, nil, err
	}
	if desired.IsNull() {
		return false, nil, fmt.Errorf("core: desired value must be non-null")
	}
	n := len(e.DCs)
	if n > MaxExactPlayers {
		return false, nil, fmt.Errorf("core: %d constraints is too many for subset search", n)
	}
	game := e.game(cell, desired, &roster{players: ConstraintPlayers}, ReplaceWithNull, false)
	// Order masks by popcount so the first witness is minimal in size.
	masks := make([]int, 0, 1<<uint(n))
	for mask := 0; mask < 1<<uint(n); mask++ {
		masks = append(masks, mask)
	}
	sortByPopcount(masks)
	coalition := make([]bool, n)
	for _, mask := range masks {
		if err := ctx.Err(); err != nil {
			return false, nil, err
		}
		for i := 0; i < n; i++ {
			coalition[i] = mask&(1<<uint(i)) != 0
		}
		v, err := game.Value(ctx, coalition)
		if err != nil {
			return false, nil, err
		}
		if v == 1 {
			var witness []string
			for i := 0; i < n; i++ {
				if coalition[i] {
					witness = append(witness, e.DCs[i].ID)
				}
			}
			return true, witness, nil
		}
	}
	return false, nil, nil
}

// sortByPopcount orders masks by ascending set-bit count, ties by value —
// an insertion-friendly counting sort over bit counts.
func sortByPopcount(masks []int) {
	buckets := make([][]int, 32)
	for _, m := range masks {
		c := 0
		for x := m; x != 0; x &= x - 1 {
			c++
		}
		buckets[c] = append(buckets[c], m)
	}
	out := masks[:0]
	for _, b := range buckets {
		out = append(out, b...)
	}
}
