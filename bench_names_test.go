package immersionoc_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"immersionoc/internal/experiments"
)

// declaredBenchmarks returns the name of every func Benchmark… in this
// module's test files. bench/ is a module of its own and is skipped.
func declaredBenchmarks(t *testing.T) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func (Benchmark\w*)\(`)
	var names []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".")) {
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
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 10 {
		t.Fatalf("found only %d benchmark declarations; walk broken?", len(names))
	}
	return names
}

// splitTop splits a -bench pattern at sep outside parentheses and
// brackets, the way go test splits it into alternatives (|) and
// sub-benchmark levels (/).
func splitTop(pattern string, sep byte) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '\\':
			i++
		case sep:
			if depth == 0 {
				parts = append(parts, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, pattern[start:])
}

// TestBenchmarkNamesExist keeps the Makefile and the docs naming only
// benchmarks that exist: go test -bench with a pattern that selects
// nothing exits 0 without a word. Each top-level alternative of a
// Makefile -bench pattern must select a declared benchmark the way go
// test matches it (an unanchored regexp). Each backticked Benchmark…
// in README.md and in DESIGN.md's table rows, which write sets as
// BenchmarkServing{Filter,Status}, must be a prefix of a declared
// benchmark. A BenchmarkExperiment/<name> entry must also name a
// registered experiment.
func TestBenchmarkNamesExist(t *testing.T) {
	declared := declaredBenchmarks(t)
	selects := func(re *regexp.Regexp, names []string) bool {
		for _, n := range names {
			if re.MatchString(n) {
				return true
			}
		}
		return false
	}

	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	flags := regexp.MustCompile(`-bench=('[^']*'|\S+)`).FindAllStringSubmatch(string(mk), -1)
	if len(flags) < 5 {
		t.Fatalf("found only %d -bench patterns in the Makefile; parser broken?", len(flags))
	}
	for _, f := range flags {
		pattern := strings.ReplaceAll(strings.Trim(f[1], "'"), "$$", "$")
		for _, alt := range splitTop(pattern, '|') {
			levels := splitTop(alt, '/')
			top, err := regexp.Compile(levels[0])
			if err != nil {
				t.Errorf("Makefile -bench alternative %q: %v", alt, err)
				continue
			}
			if !selects(top, declared) {
				t.Errorf("Makefile -bench alternative %q selects no declared benchmark", alt)
				continue
			}
			if len(levels) > 1 && top.MatchString("BenchmarkExperiment") {
				sub, err := regexp.Compile(levels[1])
				if err != nil || !selects(sub, experiments.Names()) {
					t.Errorf("Makefile -bench alternative %q names no registered experiment", alt)
				}
			}
		}
	}

	span := regexp.MustCompile("`[^`\n]+`")
	mention := regexp.MustCompile(`\b(Benchmark\w*)(?:/([a-z0-9-]+))?`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(src), "\n") {
			if doc == "DESIGN.md" && !strings.HasPrefix(line, "|") {
				continue // DESIGN's prose is history and keeps its names
			}
			for _, code := range span.FindAllString(line, -1) {
				for _, m := range mention.FindAllStringSubmatch(code, -1) {
					found := false
					for _, n := range declared {
						found = found || strings.HasPrefix(n, m[1])
					}
					if !found {
						t.Errorf("%s names %s, which no benchmark declaration starts with", doc, m[0])
					}
					if m[1] == "BenchmarkExperiment" && m[2] != "" {
						if _, ok := experiments.Lookup(m[2]); !ok {
							t.Errorf("%s names %s, but %q is not a registered experiment", doc, m[0], m[2])
						}
					}
				}
			}
		}
	}
}
