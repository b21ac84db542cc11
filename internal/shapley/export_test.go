package shapley

import (
	"context"
	"sync/atomic"
)

// Test helpers shared with the external tests of estimators_test.go.
var (
	PaperConstraintGame = paperConstraintGame
	ApproxEq            = approxEq
	CountingGame        = countingGame
)

// countingGame is a random n-player game that counts its evaluations.
func countingGame(n int, calls *atomic.Int64) Game {
	base := randomGame(n, 77)
	return GameFunc{N: n, Fn: func(ctx context.Context, c []bool) (float64, error) {
		calls.Add(1)
		return base.Value(ctx, c)
	}}
}
