package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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
	steps := jobSteps(t, "fuzz-smoke")

	// Every declared target, with the package directory it lives in.
	declared := make(map[string]string)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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

// testFunc matches a test's declaration.
var testFunc = regexp.MustCompile(`(?m)^func (Test\w+)\(`)

// runCommand matches a go test command with a -run pattern; continued
// lines must be joined first.
var runCommand = regexp.MustCompile(`go test .*-run '([^']*)'(.*)`)

// TestDeterminismJobRunsExistingTests checks that every alternative of
// each -run pattern in the determinism job of the CI workflow matches a
// test of a package its command lists. go test -run passes silently when
// an alternative matches nothing, so without this check a renamed test
// would drop out of the job unnoticed.
func TestDeterminismJobRunsExistingTests(t *testing.T) {
	commands := 0
	for _, step := range jobSteps(t, "determinism") {
		for _, line := range strings.Split(strings.ReplaceAll(step, "\\\n", " "), "\n") {
			m := runCommand.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			commands++
			var dirs, tests []string
			for _, arg := range strings.Fields(m[2]) {
				if strings.HasPrefix(arg, "./") {
					dirs = append(dirs, arg)
					tests = append(tests, packageTests(t, arg)...)
				}
			}
			for _, alt := range strings.Split(m[1], "|") {
				if !slices.ContainsFunc(tests, regexp.MustCompile(alt).MatchString) {
					t.Errorf("the determinism job runs -run %q, which matches no test of %s", alt, strings.Join(dirs, " "))
				}
			}
		}
	}
	if commands == 0 {
		t.Fatal("the determinism job has no go test -run command")
	}
}

// packageTests returns the names of the tests declared in the package
// directory dir.
func packageTests(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s has no test files (%v)", dir, err)
	}
	var names []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// jobSteps returns the text of each step of the named job of ci.yml.
func jobSteps(t *testing.T, job string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	start := -1
	for i, l := range lines {
		if l == "  "+job+":" {
			start = i + 1
			break
		}
	}
	if start < 0 {
		t.Fatalf("ci.yml has no %s job", job)
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
