// Command trex-bench regenerates every experiment of the reproduction
// (the internal/bench registry; -list names them) and prints
// paper-vs-measured rows.
//
// Usage:
//
//	trex-bench -exp all
//	trex-bench -exp fig1          # one experiment
//	trex-bench -list
//	trex-bench -perf -out BENCH_1.json   # machine-readable perf scenarios
//	trex-bench -perf -short              # CI smoke subset, no file
//	trex-bench -gate BENCH_3.json -against BENCH_2.json   # perf-regression gate
//	trex-bench -ratios BENCH_8.json       # planner and delta-replay floors
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id or 'all'")
		list    = flag.Bool("list", false, "list experiment ids")
		perf    = flag.Bool("perf", false, "run the perf scenarios (ns/op, allocs/op) instead of experiments")
		out     = flag.String("out", "", "with -perf: write the JSON report to this path (e.g. BENCH_1.json)")
		short   = flag.Bool("short", false, "with -perf: skip the slow end-to-end scenarios")
		gate    = flag.String("gate", "", "compare this BENCH_<n>.json against -against and fail on regression")
		against = flag.String("against", "", "with -gate: the baseline BENCH_<n>.json")
		tol     = flag.Float64("gate-tolerance", 0.25, "with -gate: allowed ns/op regression fraction")
		workers = flag.Int("workers", 0, "with -perf: engine parallelism for the multi-core scenarios; 0 = GOMAXPROCS")
		ratios  = flag.String("ratios", "", "check the declared speed ratios inside this BENCH_<n>.json: planner >=1.5x on dcset scan pairs, delta replay >=5x on insert/delete pairs")
	)
	flag.Parse()

	if *ratios != "" {
		if err := bench.RatioGate(os.Stdout, *ratios); err != nil {
			fmt.Fprintf(os.Stderr, "trex-bench: ratios: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *gate != "" {
		if *against == "" {
			fmt.Fprintln(os.Stderr, "trex-bench: -gate requires -against <baseline.json>")
			os.Exit(2)
		}
		if err := bench.Gate(os.Stdout, *against, *gate, *tol); err != nil {
			fmt.Fprintf(os.Stderr, "trex-bench: gate: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *list {
		for _, id := range bench.IDs() {
			fmt.Printf("%-12s %s\n", id, bench.Describe(id))
		}
		return
	}
	if *perf {
		var err error
		if *out != "" {
			err = bench.WritePerfJSON(os.Stdout, *out, *short, *workers)
		} else {
			_, err = bench.RunPerf(os.Stdout, *short, *workers)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "trex-bench: perf: %v\n", err)
			os.Exit(1)
		}
		return
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.IDs()
	}
	for _, id := range ids {
		if err := runOne(os.Stdout, id); err != nil {
			fmt.Fprintf(os.Stderr, "trex-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

func runOne(w io.Writer, id string) error {
	fmt.Fprintf(w, "\n================ %s: %s ================\n", id, bench.Describe(id))
	start := time.Now()
	if err := bench.Run(w, id); err != nil {
		return err
	}
	fmt.Fprintf(w, "[%s done in %v]\n", id, time.Since(start).Round(time.Millisecond))
	return nil
}
