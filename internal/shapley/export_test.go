package shapley

// Test helpers shared with the external tests of estimators_test.go.
var (
	PaperConstraintGame = paperConstraintGame
	ApproxEq            = approxEq
	CountingGame        = countingGame
)
