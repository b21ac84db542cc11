package bench

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/shapley"
	"repro/internal/table"
)

// runInteraction prints the pairwise Shapley interaction structure of the
// paper's constraint set — the formal version of Example 2.3's narrative
// that C1 and C2 "contribute as a pair" while C3 covers the same repair
// alone.
func runInteraction(w io.Writer) error {
	exp, ll, err := paperExplainer()
	if err != nil {
		return err
	}
	inter, err := exp.Explain(context.Background(), core.Query{Cell: ll.CellOfInterest, Estimator: core.InteractionIndex})
	if err != nil {
		return err
	}
	report := (*core.InteractionReport)(inter)
	fmt.Fprint(w, report)
	c12, _ := report.Find("C1", "C2")
	c13, _ := report.Find("C1", "C3")
	c14, _ := report.Find("C1", "C4")
	fmt.Fprintf(w, "\npaper narrative: C1+C2 act only as a pair  -> I(C1,C2) > 0: %s\n", checkMark(c12.Shapley > 0))
	fmt.Fprintf(w, "paper narrative: C3 alone covers the repair -> I(C1,C3) < 0: %s\n", checkMark(c13.Shapley < 0))
	fmt.Fprintf(w, "paper narrative: C4 is uninvolved           -> I(C1,C4) = 0: %s\n", checkMark(c14.Shapley == 0))

	// Banzhaf ablation: does the equal-weight index rank the same?
	banz, err := exp.Explain(context.Background(), core.Query{Cell: ll.CellOfInterest, Estimator: core.BanzhafIndex})
	if err != nil {
		return err
	}
	shap, err := exp.ExplainConstraints(context.Background(), ll.CellOfInterest)
	if err != nil {
		return err
	}
	bTop, _ := banz.Top()
	sTop, _ := shap.Top()
	fmt.Fprintf(w, "\nBanzhaf ablation: values C1..C4 = ")
	for _, id := range []string{"C1", "C2", "C3", "C4"} {
		e, _ := banz.Find(id)
		fmt.Fprintf(w, "%.3f ", e.Shapley)
	}
	fmt.Fprintf(w, "; top agrees with Shapley: %s (%s)\n", checkMark(bTop.Name == sTop.Name), bTop.Name)
	return nil
}

// runGroups prints row- and column-level explanations (exact, ≤ 6 players
// each) — the aggregate view a table user asks for first.
func runGroups(w io.Writer) error {
	ctx := context.Background()
	exp, ll, err := paperExplainer()
	if err != nil {
		return err
	}
	rows, err := exp.Explain(ctx, core.Query{Cell: ll.CellOfInterest, Players: core.RowPlayers, Estimator: core.AutoShapley})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "row-level explanation (exact, 6 players):")
	fmt.Fprint(w, rows)
	top, _ := rows.Top()
	fmt.Fprintf(w, "the dirty tuple's own row dominates: %s (top = %s)\n\n", checkMark(top.Name == "row t5"), top.Name)

	cols, err := exp.Explain(ctx, core.Query{Cell: ll.CellOfInterest, Players: core.ColumnPlayers, Estimator: core.AutoShapley})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "column-level explanation (exact, 6 players):")
	fmt.Fprint(w, cols)
	year, _ := cols.Find("col Year")
	place, _ := cols.Find("col Place")
	fmt.Fprintf(w, "Year and Place columns are exact dummies: %s\n",
		checkMark(math.Abs(year.Shapley) < 1e-9 && math.Abs(place.Shapley) < 1e-9))
	return nil
}

// runWhyNot demonstrates the counterfactual extensions: adaptive top-k
// ranking, why-not constraint analysis, and achievability witnesses.
func runWhyNot(w io.Writer) error {
	ctx := context.Background()
	exp, ll, err := paperExplainer()
	if err != nil {
		return err
	}

	report, err := exp.Explain(ctx, core.Query{
		Cell: ll.CellOfInterest, Players: core.CellPlayers, Estimator: core.TopKShapley, K: 3,
		CellExplainOptions: core.CellExplainOptions{Samples: 800, Seed: 42},
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "adaptive top-3 cells (confidence-interval racing):")
	fmt.Fprint(w, report)
	top, _ := report.Top()
	fmt.Fprintf(w, "matches the uniform-budget top cell (t5[League]): %s (separated: %v)\n\n", checkMark(top.Name == "t5[League]"), report.Separated)

	toward, err := exp.Explain(ctx, core.Query{Cell: ll.CellOfInterest, Desired: table.String("Portugal")})
	if err != nil {
		return err
	}
	allZero := true
	for _, e := range toward.Entries {
		if e.Shapley != 0 {
			allZero = false
		}
	}
	fmt.Fprintf(w, "why is t5[Country] never repaired to \"Portugal\"? all constraint Shapley values are 0: %s\n", checkMark(allZero))

	ok, witness, err := exp.Achievable(ctx, ll.CellOfInterest, table.String("Spain"))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "achievability of \"Spain\": %v, minimal witness %v (paper: {C3} suffices) %s\n",
		ok, witness, checkMark(ok && len(witness) == 1 && witness[0] == "C3"))
	ok, _, err = exp.Achievable(ctx, ll.CellOfInterest, table.String("Portugal"))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "achievability of \"Portugal\": %v (no subset can produce it) %s\n", ok, checkMark(!ok))
	return nil
}

// runVariance compares the three estimators at an equal evaluation budget
// (ablation for the §2.3 design choice).
func runVariance(w io.Writer) error {
	ctx := context.Background()
	exp, ll, err := paperExplainer()
	if err != nil {
		return err
	}
	target, _, err := exp.Target(ctx, ll.CellOfInterest)
	if err != nil {
		return err
	}
	game := exp.Engine.CachedGame("variance/constraints", exp.Dirty.Generation, exp.NewConstraintGame(ll.CellOfInterest, target))
	exact, err := shapley.ExactSubsets(ctx, game)
	if err != nil {
		return err
	}
	det := shapley.Deterministic{G: game}
	const budget = 4096

	plain, err := shapley.SampleAll(ctx, det, shapley.Options{Samples: budget, Seed: 13, Workers: 1})
	if err != nil {
		return err
	}
	anti, err := SampleAllAntithetic(ctx, det, budget, 13)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-10s %-12s %-12s %-12s %-12s\n", "player", "exact", "plain", "antithetic", "stratified")
	var plainMAE, antiMAE, stratMAE float64
	for p := 0; p < 4; p++ {
		strat, err := SamplePlayerStratified(ctx, det, p, budget, 13)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "C%-9d %-12.4f %-12.4f %-12.4f %-12.4f\n", p+1, exact[p], plain[p].Mean, anti[p].Mean, strat.Mean)
		plainMAE += math.Abs(plain[p].Mean - exact[p])
		antiMAE += math.Abs(anti[p].Mean - exact[p])
		stratMAE += math.Abs(strat.Mean - exact[p])
	}
	fmt.Fprintf(w, "MAE at equal budget: plain %.5f, antithetic %.5f, stratified %.5f\n",
		plainMAE/4, antiMAE/4, stratMAE/4)
	// Realized error at one seed is noisy; the check is absolute accuracy
	// for all three estimators (each within 0.01 of exact per player on
	// average). Variance comparisons across many seeds live in
	// the tests of these estimators.
	fmt.Fprintf(w, "all estimators within 0.01 MAE of exact at m=%d: %s\n", budget,
		checkMark(plainMAE/4 < 0.01 && antiMAE/4 < 0.01 && stratMAE/4 < 0.01))
	return nil
}
