package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fuzzFunc matches a fuzz target's declaration.
var fuzzFunc = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)

// TestFuzzTargetsInCI checks that the fuzz-smoke job of the CI workflow
// fuzzes every fuzz target of the module: each func Fuzz… must be named
// in a step of that job that runs go test on the target's package, and
// every target the job names must exist. The job lists its targets by
// hand, so without this check a new target could go unfuzzed unnoticed.
func TestFuzzTargetsInCI(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	steps := fuzzSmokeSteps(t, string(raw))

	// Every declared target, with the package directory it lives in.
	declared := make(map[string]string)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Nested modules (e2ebench) and hidden or build directories are
			// not part of this module.
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || fileExists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = "./" + filepath.ToSlash(filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("found no fuzz targets")
	}
	word := func(name string) *regexp.Regexp { return regexp.MustCompile(`\b` + name + `\b`) }
	for name, dir := range declared {
		found := false
		for _, step := range steps {
			if word(name).MatchString(step) && strings.Contains(step, "go test "+dir+" ") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s (%s) is not fuzzed by the fuzz-smoke job of ci.yml", name, dir)
		}
	}
	for _, step := range steps {
		for _, name := range regexp.MustCompile(`\bFuzz\w+`).FindAllString(step, -1) {
			if _, ok := declared[name]; !ok {
				t.Errorf("the fuzz-smoke job names %s, which no test file declares", name)
			}
		}
	}
}

// fuzzSmokeSteps returns the text of each step of ci.yml's fuzz-smoke job.
func fuzzSmokeSteps(t *testing.T, ci string) []string {
	t.Helper()
	lines := strings.Split(ci, "\n")
	start := -1
	for i, l := range lines {
		if l == "  fuzz-smoke:" {
			start = i + 1
			break
		}
	}
	if start < 0 {
		t.Fatal("ci.yml has no fuzz-smoke job")
	}
	var steps []string
	for _, l := range lines[start:] {
		if strings.HasPrefix(l, "  ") && !strings.HasPrefix(l, "   ") {
			break // the next job
		}
		if strings.HasPrefix(strings.TrimSpace(l), "- ") {
			steps = append(steps, "")
		}
		if len(steps) > 0 {
			steps[len(steps)-1] += l + "\n"
		}
	}
	return steps
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
