package shapley

// Entry is one ranked line of an explanation: a named player with its
// value. The explainer assembles reports from entries, and the session's
// result memo keeps the finished entries of a sampled explain, so the
// type lives below both.
type Entry struct {
	// Name is the constraint ID (e.g. "C3"), the cell in the paper's
	// notation (e.g. "t5[League]"), the group name (e.g. "row t5") or the
	// interaction pair (e.g. "I(C1,C2)").
	Name string
	// Shapley is the (exact or estimated) Shapley value.
	Shapley float64
	// CI95 is the half-width of the 95% confidence interval; zero for
	// exact computation.
	CI95 float64
	// Samples is the number of Monte-Carlo samples; zero for exact.
	Samples int
}
