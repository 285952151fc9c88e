package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"immersionoc/internal/experiments"
	"immersionoc/internal/telemetry"
)

// docCommentNames extracts the experiment names advertised in this
// command's doc comment (the "Paper artifacts:", "Extensions:" and
// "ASCII figure renderings:" paragraphs of main.go).
func docCommentNames(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	collecting := false
	for _, line := range strings.Split(string(src), "\n") {
		if !strings.HasPrefix(line, "//") {
			break // end of the doc comment
		}
		text := strings.TrimSpace(strings.TrimPrefix(line, "//"))
		switch {
		case strings.HasPrefix(text, "Paper artifacts:"),
			strings.HasPrefix(text, "Extensions:"),
			strings.HasPrefix(text, "ASCII figure renderings:"):
			collecting = true
			text = text[strings.Index(text, ":")+1:]
		case text == "":
			collecting = false
		}
		if !collecting {
			continue
		}
		for _, tok := range strings.Fields(text) {
			tok = strings.TrimSuffix(tok, ".")
			if regexp.MustCompile(`^[a-z][a-z0-9-]*$`).MatchString(tok) {
				names = append(names, tok)
			}
		}
	}
	if len(names) < 20 {
		t.Fatalf("parsed only %d names from the doc comment; parser broken?", len(names))
	}
	return names
}

// TestDocCommentMatchesRegistry keeps the doc comment and the registry
// in lockstep: every advertised name resolves, and every registered
// experiment is advertised.
func TestDocCommentMatchesRegistry(t *testing.T) {
	advertised := map[string]bool{}
	for _, n := range docCommentNames(t) {
		advertised[n] = true
		if _, ok := experiments.Lookup(n); !ok {
			t.Errorf("doc comment advertises %q, not in the registry", n)
		}
	}
	for _, n := range experiments.Names() {
		if !advertised[n] {
			t.Errorf("registered experiment %q missing from the doc comment", n)
		}
	}
}

// markdownCode returns the code of a markdown document: every line of
// a fenced block and every inline code span, or, with tableRows, only
// the inline code spans of table rows.
func markdownCode(src string, tableRows bool) []string {
	span := regexp.MustCompile("`[^`\n]+`")
	var code []string
	fenced := false
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		switch {
		case tableRows:
			if strings.HasPrefix(line, "|") {
				code = append(code, span.FindAllString(line, -1)...)
			}
		case fenced:
			code = append(code, line)
		default:
			code = append(code, span.FindAllString(line, -1)...)
		}
	}
	return code
}

// packageDecls returns what the Go files in dir declare, test files
// included: each top-level name, and Type.Member for every method,
// struct field and interface method. A method also resolves bare, as
// the docs write `cluster.PlanMigrations`. It returns nil when dir
// holds no Go files.
func packageDecls(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		return nil
	}
	decls := map[string]bool{}
	members := func(typ string, fields *ast.FieldList) {
		for _, f := range fields.List {
			for _, n := range f.Names {
				decls[typ+"."+n.Name] = true
			}
		}
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				decls[n.Name.Name] = true
				if n.Recv != nil {
					// Strip the pointer and type parameters: *Col[T] → Col.
					recv := n.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					switch r := recv.(type) {
					case *ast.IndexExpr:
						recv = r.X
					case *ast.IndexListExpr:
						recv = r.X
					}
					decls[recv.(*ast.Ident).Name+"."+n.Name.Name] = true
				}
				return false // skip the body
			case *ast.TypeSpec:
				decls[n.Name.Name] = true
				switch typ := n.Type.(type) {
				case *ast.StructType:
					members(n.Name.Name, typ.Fields)
				case *ast.InterfaceType:
					members(n.Name.Name, typ.Methods)
				}
			case *ast.ValueSpec:
				for _, id := range n.Names {
					decls[id.Name] = true
				}
			}
			return true
		})
	}
	return decls
}

// TestDesignRegenerationNamesResolve checks that every `octl <name>`
// regeneration instruction in DESIGN.md, README.md and EXPERIMENTS.md
// resolves in the registry, and that every cmd/<x> named in the code
// of README.md and of the verify notes (SKILL.md), or in DESIGN.md's
// table rows, is a command in this repository. DESIGN's prose is
// history and keeps the names of deleted commands. Every `pkg.Name`
// or `pkg.Type.Member` in the code of those three documents whose pkg
// is a directory under internal/ must be declared in that package, so
// the docs never point at deleted code.
func TestDesignRegenerationNamesResolve(t *testing.T) {
	re := regexp.MustCompile("`octl ([a-z0-9*/-]+)`")
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		matches := re.FindAllStringSubmatch(string(src), -1)
		if doc == "DESIGN.md" && len(matches) < 20 {
			t.Fatalf("found only %d `octl …` mentions in DESIGN.md; parser broken?", len(matches))
		}
		for _, m := range matches {
			name := m[1]
			if name == "list" || name == "all" {
				continue // subcommands, not experiments
			}
			if strings.Contains(name, "*") {
				// Wildcard family: at least one registered name must
				// match the prefix.
				prefix := strings.TrimSuffix(name, "*")
				found := false
				for _, n := range experiments.Names() {
					if strings.HasPrefix(n, prefix) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s wildcard %q matches no registered experiment", doc, name)
				}
				continue
			}
			if _, ok := experiments.Lookup(name); !ok {
				t.Errorf("%s regeneration target %q not in the registry", doc, name)
			}
		}
	}

	cmdRe := regexp.MustCompile(`\bcmd/([a-z0-9_-]+)`)
	for _, doc := range []string{"README.md", ".claude/skills/verify/SKILL.md", "DESIGN.md"} {
		src, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range markdownCode(string(src), doc == "DESIGN.md") {
			for _, m := range cmdRe.FindAllStringSubmatch(code, -1) {
				if fi, err := os.Stat(filepath.Join("..", "..", "cmd", m[1])); err != nil || !fi.IsDir() {
					t.Errorf("%s names cmd/%s, which is not a command in this repository", doc, m[1])
				}
			}
		}
	}

	// A lower-case name after the package (`ocd.sim_time_drift_s`) is
	// a metric, not an identifier.
	identRe := regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
	pkgDecls := map[string]map[string]bool{}
	resolved := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range markdownCode(string(src), false) {
			for _, m := range identRe.FindAllStringSubmatch(code, -1) {
				pkg, ref := m[1], m[2]
				if m[3] != "" {
					ref += "." + m[3]
				}
				decls, seen := pkgDecls[pkg]
				if !seen {
					decls = packageDecls(t, filepath.Join("..", "..", "internal", pkg))
					pkgDecls[pkg] = decls
				}
				if decls == nil {
					continue // not a package under internal/
				}
				if !decls[ref] {
					t.Errorf("%s names %s.%s, which internal/%s does not declare", doc, pkg, ref, pkg)
				}
				resolved++
			}
		}
	}
	if resolved < 40 {
		t.Fatalf("checked only %d package identifiers in the docs; parser broken?", resolved)
	}
}

func TestRegistryCoversPaperArtifacts(t *testing.T) {
	required := []string{
		"table1", "table2", "table3", "fig4", "table5", "table6",
		"power-savings", "stability", "tco-oversub",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig15", "fig16",
		"table11", "packing", "buffers", "capacity",
	}
	for _, name := range required {
		e, ok := experiments.Lookup(name)
		if !ok {
			t.Errorf("paper artifact %q missing from the registry", name)
			continue
		}
		if !e.HasTag("paper") {
			t.Errorf("paper artifact %q not tagged \"paper\" (tags %v)", name, e.Tags)
		}
	}
}

func TestParseArgsInterleavedFlags(t *testing.T) {
	c, names, err := parseArgs([]string{"all", "-j", "8", "-json"})
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers != 8 || !c.jsonOut {
		t.Fatalf("flags after the subcommand not parsed: %+v", c)
	}
	if len(names) != 1 || names[0] != "all" {
		t.Fatalf("names = %v", names)
	}
}

func TestSelection(t *testing.T) {
	all, err := selection(options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := selection(options{}, []string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 || len(all) != len(explicit) {
		t.Fatalf("`octl` selects %d, `octl all` selects %d", len(all), len(explicit))
	}
	for _, e := range all {
		if e.Kind != experiments.KindTable {
			t.Errorf("`octl all` selected non-table %q", e.Name)
		}
	}

	named, err := selection(options{}, []string{"fig9", "table5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(named) != 2 || named[0].Name != "fig9" || named[1].Name != "table5" {
		t.Fatalf("named selection = %v", named)
	}

	if _, err := selection(options{}, []string{"nonesuch"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}

	tagged, err := selection(options{tags: "paper"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tagged {
		if !e.HasTag("paper") {
			t.Errorf("-tags paper selected %q (tags %v)", e.Name, e.Tags)
		}
	}
	if len(tagged) < 10 {
		t.Fatalf("-tags paper selected only %d experiments", len(tagged))
	}

	if _, err := selection(options{tags: "paper"}, []string{"fig9"}); err == nil {
		t.Fatal("-tags combined with names accepted")
	}
	if _, err := selection(options{tags: "nonesuch"}, nil); err == nil {
		t.Fatal("unknown tag accepted")
	}
}

// TestMetricsFlagWritesSnapshot runs a real (shortened) sim experiment
// through the CLI entry point with -metrics and asserts the exported
// JSON carries per-experiment engine telemetry plus the runner scope —
// the acceptance path for `octl -json -metrics out.json`.
func TestMetricsFlagWritesSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if code := run([]string{"-json", "-metrics", path, "-duration", "120", "fig15"}); code != 0 {
		t.Fatalf("run exited %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	exp, ok := snap.Scopes["fig15"]
	if !ok {
		t.Fatalf("no fig15 scope in metrics; scopes: %v", snap.Scopes)
	}
	if exp.Counters["requests"] == 0 || exp.Counters["completed"] == 0 {
		t.Fatalf("fig15 engine counters empty: %v", exp.Counters)
	}
	soj, ok := exp.Histograms["sojourn_s"]
	if !ok || soj.Count == 0 || soj.P95 <= 0 {
		t.Fatalf("fig15 sojourn histogram missing or empty: %+v", soj)
	}
	rn, ok := snap.Scopes["runner"]
	if !ok || rn.Counters["attempts"] == 0 {
		t.Fatalf("runner scope missing attempts: %v", rn.Counters)
	}
	if _, ok := rn.Histograms["wall_s"]; !ok {
		t.Fatal("runner wall_s histogram missing")
	}
}

// TestUsageErrorsExitTwo pins the exit-code convention octl shares
// with ocd: usage errors, negative counts and durations among them,
// exit 2 before any experiment runs.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"no-such-experiment"},
		{"-duration", "-5", "fig15"},
		{"-timeout", "-1s", "table1"},
		{"-j", "-3", "table1"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("octl %s exited %d, want 2", strings.Join(args, " "), code)
		}
	}
}
