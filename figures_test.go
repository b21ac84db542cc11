package repro_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bench"
)

// runExperiment executes one experiment of internal/bench end to end and
// fails the test on any paper-vs-measured MISMATCH line. The bench package
// is the single source of truth for what each experiment checks; these
// tests guarantee the whole suite regenerates cleanly from `go test`.
func runExperiment(t *testing.T, id string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := bench.Run(&buf, id); err != nil {
		t.Fatalf("experiment %s: %v\n%s", id, err, buf.String())
	}
	out := buf.String()
	if strings.Contains(out, "MISMATCH") {
		t.Errorf("experiment %s reported mismatches:\n%s", id, out)
	}
	return out
}

func TestFigure1(t *testing.T) {
	out := runExperiment(t, "fig1")
	for _, want := range []string{"C1", "0.166667", "0.666667", "top DC = C3"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 output missing %q", want)
		}
	}
}

func TestFigure2(t *testing.T) {
	out := runExperiment(t, "fig2")
	for _, want := range []string{"t5[City]: Capital -> Madrid", "t5[Country]: España -> Spain"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig2 output missing %q", want)
		}
	}
}

func TestExample22(t *testing.T) { runExperiment(t, "ex22") }

func TestExample23(t *testing.T) {
	out := runExperiment(t, "ex23")
	if !strings.Contains(out, "repairing subsets of {C1,C2,C3} (paper: 5): 5") {
		t.Errorf("ex23 subset count wrong:\n%s", out)
	}
}

func TestExample24(t *testing.T) {
	out := runExperiment(t, "ex24")
	if !strings.Contains(out, "measured top = t5[League]") {
		t.Errorf("ex24 top cell wrong:\n%s", out)
	}
}

func TestSamplingConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence sweep is slow")
	}
	runExperiment(t, "convergence")
}

func TestDemoScenarioDCDebug(t *testing.T) { runExperiment(t, "dcdebug") }

func TestDemoScenarioCellDebug(t *testing.T) { runExperiment(t, "celldebug") }

func TestCoalitionCacheExperiment(t *testing.T) {
	out := runExperiment(t, "cache")
	if !strings.Contains(out, "call reduction: 4.0x") {
		t.Errorf("cache reduction wrong:\n%s", out)
	}
}

func TestBlackBoxAgnosticExperiment(t *testing.T) { runExperiment(t, "agnostic") }

func TestDiscoverExperiment(t *testing.T) { runExperiment(t, "discover") }

func TestInteractionExperiment(t *testing.T) {
	out := runExperiment(t, "interaction")
	if !strings.Contains(out, "I(C1,C2) = +0.5000 (complements)") {
		t.Errorf("interaction output wrong:\n%s", out)
	}
}

func TestGroupsExperiment(t *testing.T) {
	out := runExperiment(t, "groups")
	if !strings.Contains(out, "row t5") {
		t.Errorf("groups output wrong:\n%s", out)
	}
}

func TestVarianceExperiment(t *testing.T) { runExperiment(t, "variance") }

func TestWhyNotExperiment(t *testing.T) {
	out := runExperiment(t, "whynot")
	if !strings.Contains(out, "minimal witness [C3]") {
		t.Errorf("whynot output wrong:\n%s", out)
	}
}

func TestHospitalExperiment(t *testing.T) { runExperiment(t, "hospital") }

func TestExactVsSamplingExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("exact enumeration sweep is slow")
	}
	runExperiment(t, "exactvs")
}

func TestScaleExperimentSmoke(t *testing.T) {
	// The full scale sweep runs ~40s and belongs to trex-bench; the test
	// suite only checks the machinery on the smallest instance by running
	// the registry lookup paths.
	if testing.Short() {
		t.Skip("scale sweep is slow")
	}
	ids := bench.IDs()
	found := false
	for _, id := range ids {
		if id == "scale" {
			found = true
		}
	}
	if !found {
		t.Fatal("scale experiment missing from registry")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig2", "ex22", "ex23", "ex24", "convergence",
		"dcdebug", "celldebug", "exactvs", "cache", "scale", "agnostic",
		"interaction", "groups", "variance", "whynot", "discover", "hospital"}
	got := bench.IDs()
	if len(got) != len(want) {
		t.Fatalf("registry = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, got[i], want[i])
		}
		if bench.Describe(got[i]) == "(unknown experiment)" {
			t.Errorf("no description for %s", got[i])
		}
	}
	var buf bytes.Buffer
	if err := bench.Run(&buf, "nope"); err == nil {
		t.Error("unknown experiment must error")
	}
}
