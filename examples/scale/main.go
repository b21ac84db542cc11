// Scale walkthrough: generate a synthetic standings table, inject errors,
// mine constraints back from the data, repair with the HoloClean-style
// cleaner, and explain one repair — the full pipeline the paper's
// architecture diagram (Figure 4) describes, at a size where sampling is
// the only option.
//
// The walkthrough ends with the session execution engine: the same
// explanation re-estimated serial versus fanned across all cores
// (bit-identical estimates — parallelism is scheduling, never semantics),
// and the engine's shared coalition cache hit rate across a session's
// explanation screens.
//
//	go run ./examples/scale [-rows 60] [-samples 100] [-workers 0]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dcdiscover"
	"repro/internal/repair"
)

func main() {
	rows := flag.Int("rows", 60, "table size (rows)")
	samples := flag.Int("samples", 100, "sampled permutations for the cell explanation")
	workers := flag.Int("workers", 0, "engine parallelism for the scaling demo; 0 = GOMAXPROCS")
	flag.Parse()

	// 1. Ground truth + injected errors.
	clean := data.GenerateSoccer(data.SoccerConfig{
		Leagues:        3,
		TeamsPerLeague: *rows / 3,
		Seed:           7,
	})
	// Errors go into Country: the mined FD League -> Country covers that
	// column (City errors would be undetectable here because Team -> City
	// has no support when every team appears once).
	dirty, injections, err := data.Inject(clean, data.InjectSpec{
		Rate:    0.03,
		Columns: []string{"Country"},
		Kinds:   []data.ErrorKind{data.ErrorTypo},
		Seed:    8,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d rows, injected %d typos\n", dirty.NumRows(), len(injections))

	// 2. Mine the constraints instead of writing them by hand.
	cands := dcdiscover.Discover(dirty, dcdiscover.Options{MinConfidence: 0.85, MaxConstraints: 6})
	fmt.Println("mined constraints:")
	for _, c := range cands {
		fmt.Printf("   %s   [%s]\n", c.Constraint, c)
	}
	dcs := dcdiscover.Constraints(cands)

	// 3. Repair with the HoloClean-style probabilistic cleaner.
	exp, err := core.NewExplainer(repair.NewHoloSim(1), dcs, dirty)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	start := time.Now()
	cleaned, diffs, err := exp.Repair(ctx)
	if err != nil {
		log.Fatal(err)
	}
	restored := 0
	for _, inj := range injections {
		if cleaned.GetRef(inj.Ref).SameContent(inj.Clean) {
			restored++
		}
	}
	fmt.Printf("repaired %d cells in %v; restored %d/%d injected errors\n",
		len(diffs), time.Since(start).Round(time.Millisecond), restored, len(injections))

	// 4. Explain the first repaired injected cell.
	var explained bool
	var explCell = injections[0].Ref
	for _, inj := range injections {
		if !cleaned.GetRef(inj.Ref).SameContent(inj.Clean) {
			continue
		}
		explCell = inj.Ref
		start = time.Now()
		report, err := exp.Explain(ctx, core.Query{
			Cell: inj.Ref, Players: core.RelevantCellPlayers, Estimator: core.SampledShapley,
			CellExplainOptions: core.CellExplainOptions{Samples: *samples, Seed: 9},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ncell explanation for %s (%v, %d players):\n",
			dirty.RefName(inj.Ref), time.Since(start).Round(time.Millisecond), len(report.Entries))
		for i, e := range report.Entries {
			if i >= 8 {
				break
			}
			fmt.Printf("%3d. %-14s %+.4f ± %.4f\n", i+1, e.Name, e.Shapley, e.CI95)
		}
		explained = true
		break
	}
	if !explained {
		fmt.Println("no injected error was repaired; nothing to explain")
		return
	}

	// 5. Multi-core scaling through the session engine: the identical
	// explanation, serial then fanned across the pool. Each sampled
	// permutation draws from its own (seed, index) stream and folds in
	// index order, so the estimates are bit-identical for any worker
	// count and the speedup is pure scheduling.
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("\nmulti-core scaling of explain-cells (m=%d):\n", *samples)
	explainWith := func(cfg int) (*core.Report, time.Duration) {
		sess, err := core.NewSessionWith(repair.NewHoloSim(1), dcs, dirty, core.SessionOptions{Workers: cfg})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		rep, err := sess.Explainer().Explain(ctx, core.Query{
			Cell: explCell, Players: core.RelevantCellPlayers, Estimator: core.SampledShapley,
			CellExplainOptions: core.CellExplainOptions{Samples: *samples, Seed: 9, Workers: cfg},
		})
		if err != nil {
			log.Fatal(err)
		}
		return rep, time.Since(start)
	}
	serialRep, serialTime := explainWith(1)
	fmt.Printf("   workers=1:  %8v\n", serialTime.Round(time.Millisecond))
	if w <= 1 {
		fmt.Println("   (single worker configured; run on a multi-core host or pass -workers N for the comparison)")
	} else {
		parallelRep, parallelTime := explainWith(w)
		// Full-vector comparison: the fan-out's determinism contract is
		// bit-identity of every estimate, not just the top entry.
		identical := len(serialRep.Entries) == len(parallelRep.Entries)
		for i := 0; identical && i < len(serialRep.Entries); i++ {
			identical = serialRep.Entries[i] == parallelRep.Entries[i]
		}
		fmt.Printf("   workers=%-2d: %8v   (%.2fx speedup, all %d estimates bit-identical: %v)\n",
			w, parallelTime.Round(time.Millisecond),
			float64(serialTime)/float64(parallelTime), len(serialRep.Entries), identical)
	}

	// 6. The engine's shared coalition cache across a session's games: the
	// constraint ranking warms it, then the interaction screen and a repeat
	// ranking enumerate the same coalitions against pure hits.
	sess, err := core.NewSessionWith(repair.NewHoloSim(1), dcs, dirty, core.SessionOptions{Workers: w})
	if err != nil {
		log.Fatal(err)
	}
	screens := 0
	if _, err := sess.Explainer().ExplainConstraints(ctx, explCell); err == nil {
		screens++
	}
	hitsWarm, missesWarm := sess.Engine().CacheStats()
	if _, err := sess.Explainer().Explain(ctx, core.Query{Cell: explCell, Estimator: core.InteractionIndex}); err == nil {
		screens++
	}
	if _, err := sess.Explainer().ExplainConstraints(ctx, explCell); err == nil {
		screens++
	}
	hits, misses := sess.Engine().CacheStats()
	fmt.Printf("\nshared coalition cache across %d constraint screens: %d hits / %d misses (hit rate %.1f%%; first screen alone: %d/%d)\n",
		screens, hits, misses, 100*sess.Engine().HitRate(), hitsWarm, missesWarm)
}
