package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: explain-cells or edit-loop")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "length of the timed phase in seconds (steadiness mode: default run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics over HTTP; 1: per-layer metrics from the traced run")
		outDir  = flag.String("out", ".bench_build", "directory the traced run writes its spans to")
		steadyN = flag.Int("steady", 0, "steadiness mode: run each workload this many times per set, each with another seed")
		sets    = flag.Int("sets", 1, "steadiness mode: sets of runs to compare")
		spec    = flag.String("benchmark", "BENCHMARK.json", "steadiness mode: the file with the metrics' bounds")
	)
	flag.Parse()
	if *steadyN > 0 {
		secondsSet := false
		flag.Visit(func(f *flag.Flag) { secondsSet = secondsSet || f.Name == "seconds" })
		if !secondsSet {
			*seconds = 0
		}
		if err := steady(os.Stdout, *spec, *steadyN, *sets, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	o, err := run(context.Background(), config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if o.failed > 0 {
		os.Exit(1)
	}
}

// result line keys, as the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the notes and every metric by name and unit, then the
// result line.
func report(w io.Writer, o *outcome) error {
	for _, n := range o.notes {
		fmt.Fprintln(w, "#", n)
	}
	line := resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricJSON)}
	for _, m := range o.metrics {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", m.name, m.value, m.unit)
		line.Metrics[m.name] = metricJSON{m.value, m.unit}
	}
	errorRate := 0.0
	if o.attempted > 0 {
		errorRate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "%-36s %14.4f %s (failed %d of %d requests and checks; also the result line's failed/attempted)\n", "error_rate", errorRate, "ratio", o.failed, o.attempted)
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// benchmarkSpec is the part of BENCHMARK.json steadiness mode reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady runs every workload n times per set as separate processes of
// this binary, each with another seed, and prints each end-to-end
// metric's median, quartiles and spread against its bound. A spread
// wider than the bound, or a later set's median worse than the first
// set's by more than the bound, is flagged.
func steady(w io.Writer, specPath string, n, sets, seconds int) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("reading %s: %w", specPath, err)
	}
	if seconds == 0 {
		seconds = spec.RunSeconds
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	flagged := 0
	for _, wl := range spec.Workloads {
		name := wl.Name
		// values[set][metric] lists one value per run.
		values := make([]map[string][]float64, sets)
		for s := 0; s < sets; s++ {
			values[s] = make(map[string][]float64)
			for i := 0; i < n; i++ {
				seed := int64(s*n + i + 1)
				line, err := runChild(self, name, seed, seconds)
				if err != nil {
					fmt.Fprintf(w, "# %s seed %d FAILED: %v\n", name, seed, err)
					flagged++
				}
				fmt.Fprintf(w, "# %s seed %d: correct=%v attempted=%d failed=%d", name, seed, line.Correct, line.Attempted, line.Failed)
				for _, e := range spec.EndToEnd {
					if m, ok := line.Metrics[e.Name]; ok {
						fmt.Fprintf(w, " %s=%.4g", e.Name, m.Value)
						values[s][e.Name] = append(values[s][e.Name], m.Value)
					}
				}
				fmt.Fprintln(w)
			}
		}
		fmt.Fprintf(w, "%s (%d runs per set, %d s each)\n", name, n, seconds)
		fmt.Fprintf(w, "  %-22s %4s %12s %12s %12s %8s %6s %s\n", "metric", "set", "median", "q1", "q3", "spread", "bound", "flag")
		for _, e := range spec.EndToEnd {
			var first float64
			for s := 0; s < sets; s++ {
				xs := values[s][e.Name]
				if len(xs) < 2 {
					fmt.Fprintf(w, "  %-22s %4d missing\n", e.Name, s+1)
					flagged++
					continue
				}
				q1, _, q3 := quartiles(xs)
				med := median(xs)
				spread := (q3 - q1) / med
				flag := ""
				if spread > e.Bound {
					flag = "WIDER THAN BOUND"
				} else if spread > e.Bound/3 {
					flag = "above a third of the bound"
				}
				if s == 0 {
					first = med
				} else if worse(e.Name, med, first, e.Bound) {
					flag += " MEDIAN MOVED"
				}
				if strings.Contains(flag, "BOUND") || strings.Contains(flag, "MOVED") {
					flagged++
				}
				fmt.Fprintf(w, "  %-22s %4d %12.4f %12.4f %12.4f %8.4f %6.3f %s\n", e.Name, s+1, med, q1, q3, spread, e.Bound, flag)
			}
		}
	}
	if flagged > 0 {
		return fmt.Errorf("%d metric checks flagged", flagged)
	}
	return nil
}

// worse reports whether med is worse than base by more than bound; only
// ops_per_s is better when higher.
func worse(name string, med, base, bound float64) bool {
	if name == "ops_per_s" {
		return med < base*(1-bound)
	}
	return med > base*(1+bound)
}

// runChild runs one invocation of this binary and parses its result line.
func runChild(self, name string, seed int64, seconds int) (resultLine, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var line resultLine
	if jerr := json.Unmarshal([]byte(last), &line); jerr != nil {
		return line, fmt.Errorf("no result line (exit: %v)", err)
	}
	return line, err
}

// quartiles are Python's statistics.quantiles(xs, n=4), the default
// exclusive method.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
