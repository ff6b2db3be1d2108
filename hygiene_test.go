package gplus

import (
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"gplus/internal/gplusd"
	"gplus/internal/obs/rundir"
	"gplus/internal/obs/series"
	"gplus/internal/obs/trace"
	"gplus/internal/report"
	"gplus/internal/synth"
)

// TestFlagsHaveRecipe is the `make check` gate against knobs nobody
// turns: every flag a binary's main registers must be passed to that
// binary on a command line of README.md, EXPERIMENTS.md or the Makefile
// — a fenced line, a `code span` or a recipe line, continuations
// joined, cut at pipes and && — so neither prose nor another tool's
// flag of the same name counts. A flag with no recipe and no reader is
// a constant; delete it or document the run that needs it.
// gplusanalyze's two sub-commands (traces, metrics) declare theirs on
// one identifier, scanned as a row of its own; the shared
// observability flags are one registration, so a recipe on either
// binary that takes them keeps one.
//
// The same scan keeps those command lines runnable, and with them the
// Go string literals of every cmd/*/main.go (log lines and usage text,
// where a retired command otherwise lives on): each `go run ./<dir>`
// must name a directory holding package main, and each `gplusanalyze
// <word>` whose word is neither a flag nor a path must be one of the
// sub-commands gplusanalyze dispatches (a|b alternatives each). Each
// `curl …127.0.0.1:<port>/<path>[?query]` of README.md or EXPERIMENTS.md
// must name a route one of the two live surfaces serves, with only the
// query keys that route reads (checkCurlRoutes).
//
// EXPERIMENTS.md's sections are held to the recipes they name: every
// `## ` heading outside the generated block names at least one in
// backticks, and each must exist (recipes.exists).
func TestFlagsHaveRecipe(t *testing.T) {
	var lines, commands, curled []string
	codeSpan, chained := regexp.MustCompile("`[^`]+`"), regexp.MustCompile(`\|\|?|&&`)
	curl := regexp.MustCompile("curl\\s[^\\n]*?127\\.0\\.0\\.1:\\d+(/[^\\s'\"#`]*)")
	have := loadRecipes(t)
	for _, name := range []string{"README.md", "EXPERIMENTS.md", "Makefile"} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		doc := strings.ReplaceAll(string(b), "\\\n", " ")
		if name == "Makefile" {
			lines = append(lines, regexp.MustCompile(`(?m)^\t.*`).FindAllString(doc, -1)...)
			continue
		}
		if name == "EXPERIMENTS.md" {
			for _, msg := range have.staleHeadings(doc) {
				t.Errorf("EXPERIMENTS.md: %s", msg)
			}
		}
		for _, m := range curl.FindAllStringSubmatch(doc, -1) {
			curled = append(curled, m[1])
		}
		for i, part := range strings.Split(doc, "```") {
			if i%2 == 1 { // fenced
				lines = append(lines, strings.Split(part, "\n")...)
			} else { // prose: its code spans, re-joined where the paragraph wrapped
				lines = append(lines, codeSpan.FindAllString(strings.ReplaceAll(part, "\n", " "), -1)...)
			}
		}
	}
	for _, line := range lines {
		commands = append(commands, chained.Split(strings.Trim(line, "`"), -1)...)
	}
	mains, _ := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	fset := token.NewFileSet()
	for _, path := range mains {
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				s, _ := strconv.Unquote(lit.Value)
				lines = append(lines, strings.Split(s, "\n")...)
			}
			return true
		})
	}
	checkCommandsRun(t, lines)
	checkCurlRoutes(t, curled)
	// Every Test, Benchmark or Fuzz name the documents cite in backticks
	// is a function of some _test.go file.
	testName := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", filepath.Join("bench", "README.md")} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, part := range strings.Split(string(b), "```") {
			spans := []string{part} // fenced
			if i%2 == 0 {
				spans = codeSpan.FindAllString(strings.ReplaceAll(part, "\n", " "), -1)
			}
			for _, span := range spans {
				for _, fn := range testName.FindAllString(span, -1) {
					if !have.funcs[fn] {
						t.Errorf("%s cites `%s`, which is no Test, Benchmark or Fuzz function", name, fn)
					}
				}
			}
		}
	}
	// The heading rule fails a section whose recipe is gone.
	for _, tc := range []struct {
		heading string
		stale   bool
	}{
		{"## Figure 2 — fields shared (`gplusanalyze -only fig2`)", false},
		{"## Figure 2 — fields shared (`BenchmarkFig2FieldsCCDF`)", true},
		{"## Figures 2 and 99 (`gplusanalyze -only fig2,fig99`)", true},
		{"## Lost edges (`gplusanalyze -only lostedges`, `BenchmarkLostEdges`)", false},
		{"## The chaos crawl (`make chaos`)", false},
		{"## A Markdown report (`make report`)", true},
		{"## Crawl telemetry (`internal/obs`)", false},
		{"## Ablations (`go test -bench=Ablation`)", true},
		{"## Automated audit", true},
	} {
		if stale := len(have.staleHeadings("# Doc\n\n"+tc.heading+"\n\nText.\n")) > 0; stale != tc.stale {
			t.Errorf("heading %q: stale = %v, want %v", tc.heading, stale, tc.stale)
		}
	}
	// check reports each flag that no command running one of the
	// binaries (by path or through go run) passes.
	check := func(row string, flags []string, binaries string) {
		invoked := regexp.MustCompile(`(^|[\s/])(` + binaries + `)\s(.*)`)
		var args []string
		for _, c := range commands {
			if m := invoked.FindStringSubmatch(c); m != nil {
				args = append(args, m[3])
			}
		}
		for _, name := range flags {
			passed := regexp.MustCompile(`(^|\s)-` + name + `($|[\s=])`)
			if !slices.ContainsFunc(args, passed.MatchString) {
				t.Errorf("%s: flag -%s is on no README.md, EXPERIMENTS.md or Makefile command line that runs %s", row, name, binaries)
			}
		}
	}
	// The observability flags are read off the flag set itself; each
	// main's own are scanned from its source.
	var shared []string
	fs := flag.NewFlagSet("shared", flag.ContinueOnError)
	new(rundir.Config).RegisterFlags(fs)
	fs.VisitAll(func(f *flag.Flag) { shared = append(shared, f.Name) })
	check("rundir.Config.RegisterFlags", shared, "gpluscrawl|gplusd")
	for _, bin := range []struct {
		name string
		set  string // the identifier flags are declared on: flag.String("name", ...)
		obs  bool   // registers the shared observability flags too
		own  int    // fewest own flags the scan must find, or declarations changed shape
	}{
		{"gpluscrawl", "fs", true, 13},
		{"gplusd", "flag", true, 7},
		{"gplusanalyze", "fs", false, 9},
		{"gplusanalyze", "sub", false, 4},
		{"gplusgen", "flag", false, 3},
	} {
		src, err := os.ReadFile(filepath.Join("cmd", bin.name, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		// flag.String("name", ...) and its siblings; flag.NewFlagSet("name",
		// ...) is not one of them.
		decl := regexp.MustCompile(`\b` + bin.set + `\.[A-Z][a-z0-9]*\("([a-z][a-z-]*)"`)
		var own []string
		for _, m := range decl.FindAllSubmatch(src, -1) {
			own = append(own, string(m[1]))
		}
		row := bin.name + " (" + bin.set + ")"
		check(row, own, bin.name)
		if len(own) < bin.own {
			t.Errorf("%s: found only %d flags of its own, want at least %d; the scan no longer matches how flags are declared", row, len(own), bin.own)
		}
		total := len(own)
		if bin.obs {
			total += len(shared)
		}
		t.Logf("%s registers %d flags", row, total)
	}
}

// recipes is what a heading of EXPERIMENTS.md may name: the Makefile's
// targets, the Test, Benchmark and Fuzz functions of the repo, and
// gplusanalyze's experiment ids.
type recipes struct {
	targets, funcs map[string]bool
	ids            []string
}

func loadRecipes(t *testing.T) recipes {
	t.Helper()
	r := recipes{targets: map[string]bool{}, funcs: map[string]bool{}, ids: report.ExperimentIDs()}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllSubmatch(mk, -1) {
		r.targets[string(m[1])] = true
	}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .bench_work and the like
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			r.funcs[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// exists reports whether a heading's code span names a recipe that
// exists: `make <target>`, `gplusanalyze -only <id>,…`, a Test,
// Benchmark or Fuzz function, or a path in the repo.
func (r recipes) exists(span string) bool {
	if target, ok := strings.CutPrefix(span, "make "); ok {
		return r.targets[target]
	}
	if list, ok := strings.CutPrefix(span, "gplusanalyze -only "); ok {
		for _, id := range strings.Split(list, ",") {
			if !slices.Contains(r.ids, id) {
				return false
			}
		}
		return true
	}
	if r.funcs[span] {
		return true
	}
	_, err := os.Stat(span)
	return err == nil
}

// staleHeadings lists each `## ` heading of doc, outside its fences and
// its generated block, that names no recipe in backticks or one that
// does not exist.
func (r recipes) staleHeadings(doc string) []string {
	if begin := strings.Index(doc, "\n<!-- begin generated"); begin >= 0 {
		if end := strings.Index(doc, "\n<!-- end generated"); end > begin {
			doc = doc[:begin] + doc[end:]
		}
	}
	var stale []string
	codeSpan := regexp.MustCompile("`([^`]+)`")
	for i, part := range strings.Split(doc, "```") {
		if i%2 == 1 {
			continue // fenced
		}
		for _, line := range strings.Split(part, "\n") {
			if !strings.HasPrefix(line, "## ") {
				continue
			}
			spans := codeSpan.FindAllStringSubmatch(line, -1)
			if len(spans) == 0 {
				stale = append(stale, fmt.Sprintf("heading %q names no recipe in backticks", line))
			}
			for _, m := range spans {
				if !r.exists(m[1]) {
					stale = append(stale, fmt.Sprintf("heading %q names `%s`, which is no Makefile target, gplusanalyze -only list of experiment ids, Test/Benchmark/Fuzz function or repo path", line, m[1]))
				}
			}
		}
	}
	return stale
}

// checkCommandsRun is TestFlagsHaveRecipe's check that the command
// lines it scans still run: go run names a main package, gplusanalyze a
// sub-command it dispatches.
func checkCommandsRun(t *testing.T, lines []string) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("cmd", "gplusanalyze", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	dispatch := regexp.MustCompile(`(?s)sub := map\[string\]func\(io\.Writer, \[\]string\) error\{(.*?)\}`).FindSubmatch(src)
	if dispatch == nil {
		t.Fatal("gplusanalyze's sub-command map not found; the scan no longer matches how it dispatches")
	}
	subs := map[string]bool{}
	for _, m := range regexp.MustCompile(`"([a-z]+)":`).FindAllSubmatch(dispatch[1], -1) {
		subs[string(m[1])] = true
	}
	if len(subs) < 2 {
		t.Fatalf("found %d gplusanalyze sub-commands, want at least 2", len(subs))
	}
	goRun := regexp.MustCompile(`(?:^|\s)(?:go|\$\(GO\)) run\s+(\./\S*)`)
	// Bare, or by a path from . or / (./cmd/gplusanalyze, /tmp/gplusanalyze);
	// cmd/gplusanalyze alone names the directory, not a command.
	analyze := regexp.MustCompile("(?:^|[\\s`])(?:[./]\\S*/)?gplusanalyze\\s+([^\\s`]+)")
	for _, line := range lines {
		for _, m := range goRun.FindAllStringSubmatch(line, -1) {
			dir := strings.TrimSuffix(m[1], "/")
			files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
			if !slices.ContainsFunc(files, func(f string) bool {
				file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.PackageClauseOnly)
				return err == nil && file.Name.Name == "main" && !strings.HasSuffix(f, "_test.go")
			}) {
				t.Errorf("%q runs %s, which holds no package main", strings.TrimSpace(line), m[1])
			}
		}
		for _, m := range analyze.FindAllStringSubmatch(line, -1) {
			for _, word := range strings.Split(m[1], "|") {
				if word == "" || strings.HasPrefix(word, "-") || strings.ContainsAny(word, "/.<$%") || subs[word] {
					continue
				}
				t.Errorf("%q runs gplusanalyze %s, which is not one of its sub-commands", strings.TrimSpace(line), word)
			}
		}
	}
}

// checkCurlRoutes is TestFlagsHaveRecipe's check that every path the
// docs curl is served and every query key they pass is read: a GET of
// the path must not be a 404 from both the run mux of a rundir.Run with
// its collector and tracer on and a gplusd.Server with admission armed,
// and each key must be one the route reads (reads, below). Retired
// routes and query keys pin that the check can fail.
func checkCurlRoutes(t *testing.T, recipes []string) {
	t.Helper()
	// reads is the query keys each route reads; every other route reads none.
	reads := map[string][]string{
		"/debug/timeseries": {"name"},
		"/debug/traces":     {"format"},
	}
	if len(recipes) == 0 {
		t.Fatal("no curl recipe found in README.md or EXPERIMENTS.md; the scan no longer matches how they are written")
	}
	run, err := rundir.Start(rundir.Config{
		Series: series.Options{Interval: time.Hour},
		Trace:  trace.Config{SampleRate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	u, err := synth.Generate(synth.DefaultConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	srv := gplusd.New(u, gplusd.Options{Admission: 32})
	served := func(path string) bool {
		for _, h := range []http.Handler{run.Mux(), srv} {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
			if rr.Code != http.StatusNotFound {
				return true
			}
		}
		return false
	}
	// stale says what is wrong with a recipe's path and query, or "".
	stale := func(recipe string) string {
		u, err := url.Parse(recipe)
		if err != nil {
			return err.Error()
		}
		if !served(u.Path) {
			return "which neither the run mux nor gplusd serves"
		}
		var unread []string
		for key := range u.Query() {
			if !slices.Contains(reads[u.Path], key) {
				unread = append(unread, "?"+key+"=")
			}
		}
		if len(unread) > 0 {
			sort.Strings(unread)
			return fmt.Sprintf("but %s reads no %s", u.Path, strings.Join(unread, ", "))
		}
		return ""
	}
	for _, recipe := range recipes {
		if why := stale(recipe); why != "" {
			t.Errorf("a curl recipe fetches %s, %s", recipe, why)
		}
	}
	for _, gone := range []string{"/debug/vars", "/debug/admission", "/metrics?format=json",
		"/debug/timeseries?name=x&since=5m", "/debug/timeseries?format=jsonl"} {
		if stale(gone) == "" {
			t.Errorf("%s passes; the check cannot tell a retired recipe", gone)
		}
	}
}

// TestPackagesReachPipeline is the `make check` gate against orphan
// packages: every package under internal/ must be a non-test dependency
// of a cmd/ binary or of bench.
func TestPackagesReachPipeline(t *testing.T) {
	goList := func(args ...string) []string {
		t.Helper()
		out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
		if err != nil {
			t.Fatalf("go list %v: %v", args, err)
		}
		return strings.Fields(string(out))
	}
	reachable := map[string]bool{}
	for _, pkg := range goList("-deps", "./cmd/...", "./bench") {
		reachable[pkg] = true
	}
	for _, pkg := range goList("./internal/...") {
		if !reachable[pkg] {
			t.Errorf("%s is imported by no cmd/ binary and not by bench: wire it into the pipeline or delete it", pkg)
		}
	}
}

// testExists reports whether "dir:TestName" names a test function
// declared in a _test.go file of dir.
func testExists(ref string) bool {
	dir, name, _ := strings.Cut(ref, ":")
	files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	return slices.ContainsFunc(files, func(f string) bool {
		src, _ := os.ReadFile(f)
		return strings.Contains(string(src), "func "+name+"(t *testing.T)")
	})
}

// TestSurfaceReachesPipeline is TestPackagesReachPipeline one level
// down: every exported package-level func, method, type, const and var
// declared in a non-test file under internal/ must be named by non-test
// code that a main of cmd/... or bench reaches, or be listed below
// beside the test that keeps it. An entry keeps its symbol with whatever
// only that symbol names, and a type's entry its methods. An exception
// that has become reachable, that names no declared symbol, or whose
// test is gone fails too.
func TestSurfaceReachesPipeline(t *testing.T) {
	exceptions := map[string]string{
		// Reference implementations the pipeline's own are compared against.
		"graph.FromEdges":             "internal/graph/diskcsr:TestKernelEquivalence",
		"graph.BFSDistances":          "internal/graph:TestSamplePathLengthsMatchesExactAllPairs",
		"graph.HasArc":                "internal/graph:TestMotifsAgainstBruteForce",
		"graph.ClusteringCoefficient": "internal/graph:TestTrianglesMatchClusteringCoefficient",
	}
	s := loadSurface(t)
	if len(exceptions) > 20 {
		t.Errorf("%d exceptions; the gate allows 20", len(exceptions))
	}
	for sym, ref := range exceptions {
		switch obj := s.symbols[sym]; {
		case obj == nil:
			t.Errorf("exception %s names no exported symbol under internal/", sym)
		case s.reached[obj]:
			t.Errorf("%s is reachable from the pipeline now; drop its exception", sym)
		}
		if !testExists(ref) {
			t.Errorf("%s is kept by %s, which no longer exists", sym, ref)
		}
	}
	var syms []string
	for sym, obj := range s.symbols {
		syms = append(syms, sym)
		for kept := range exceptions {
			if sym == kept || strings.HasPrefix(sym, kept+".") { // a kept type's methods
				s.reach(obj)
			}
		}
	}
	s.drain()
	sort.Strings(syms)
	for _, sym := range syms {
		if !s.reached[s.symbols[sym]] {
			t.Errorf("%s is exported but reached by no cmd/ binary and not by bench: wire it into the pipeline, unexport it, list the test that keeps it, or delete it", sym)
		}
	}
}

// surface is every non-test package of the module, type-checked, and
// the declarations a walk has reached so far. A declaration is reached
// when reached code names it, and a method also when its receiver type
// is reached and satisfies an interface that declares it.
type surface struct {
	info    *types.Info
	decl    map[types.Object]ast.Node // package-level object or method → its FuncDecl or Spec
	ifaces  []*types.Interface        // every interface a method may be called through
	symbols map[string]types.Object   // the exported ones under internal/, as pkg.Name or pkg.Type.Method
	reached map[types.Object]bool
	queue   []types.Object // reached, not yet walked
}

// loadSurface type-checks the module (go list for the file sets,
// go/types for the rest: no network, no tool outside the Go
// distribution) and walks it from what runs: the mains of cmd/... and
// bench, and every init and package-level var initialiser — whether or
// not anything names the var.
func loadSurface(t *testing.T) *surface {
	t.Helper()
	out, err := exec.Command("go", "list", "-deps", "-f",
		`{{if not .Standard}}{{.ImportPath}} {{.Name}} {{.Dir}} {{join .GoFiles ","}}{{end}}`,
		"./cmd/...", "./bench", "./internal/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	s := &surface{
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		decl:    map[types.Object]ast.Node{},
		symbols: map[string]types.Object{},
		reached: map[types.Object]bool{},
	}
	fset := token.NewFileSet()
	std := importer.Default()
	module := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := module[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	var roots []ast.Node
	// go list -deps prints dependencies first, so every module import is
	// checked before its importer.
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		path, name, dir := f[0], f[1], f[2]
		var files []*ast.File
		for _, base := range strings.Split(f[3], ",") {
			file, err := parser.ParseFile(fset, filepath.Join(dir, base), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, file)
		}
		pkg, err := conf.Check(path, fset, files, s.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		module[path] = pkg
		for _, file := range files {
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					s.decl[s.info.Defs[d.Name]] = d
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && name == "main") {
						roots = append(roots, d)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							s.decl[s.info.Defs[spec.Name]] = spec
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								s.decl[s.info.Defs[id]] = spec
							}
							if d.Tok == token.VAR {
								roots = append(roots, spec)
							}
						}
					}
				}
			}
		}
	}
	for obj := range s.decl {
		if !obj.Exported() || !strings.HasPrefix(obj.Pkg().Path(), "gplus/internal/") {
			continue
		}
		sym := obj.Pkg().Name() + "." + obj.Name()
		if f, ok := obj.(*types.Func); ok {
			if recv := f.Type().(*types.Signature).Recv(); recv != nil {
				typ := recv.Type()
				if p, ok := typ.(*types.Pointer); ok {
					typ = p.Elem()
				}
				named := typ.(*types.Named).Obj()
				if !named.Exported() {
					continue // nameable only through an interface
				}
				sym = obj.Pkg().Name() + "." + named.Name() + "." + obj.Name()
			}
		}
		s.symbols[sym] = obj
	}
	// The interfaces: error, the named ones of each package in sight and
	// the literals in module code.
	s.ifaces = []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var collect func(p *types.Package)
	collect = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					s.ifaces = append(s.ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			collect(imp)
		}
	}
	for _, p := range module {
		collect(p)
	}
	for e, tv := range s.info.Types {
		if _, ok := e.(*ast.InterfaceType); ok {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				s.ifaces = append(s.ifaces, it)
			}
		}
	}
	for _, n := range roots {
		s.walk(n)
	}
	s.drain()
	return s
}

func (s *surface) reach(obj types.Object) {
	if f, ok := obj.(*types.Func); ok {
		obj = f.Origin() // the method of a generic type, not of its instance
	}
	if s.decl[obj] != nil && !s.reached[obj] {
		s.reached[obj] = true
		s.queue = append(s.queue, obj)
	}
}

// walk reaches everything the declaration n names.
func (s *surface) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && s.info.Uses[id] != nil {
			s.reach(s.info.Uses[id])
		}
		return true
	})
}

// drain walks reached declarations until none is left unwalked.
func (s *surface) drain() {
	for len(s.queue) > 0 {
		obj := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.walk(s.decl[obj])
		tn, ok := obj.(*types.TypeName)
		if !ok || types.IsInterface(tn.Type()) {
			continue
		}
		for _, recv := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
			for _, it := range s.ifaces {
				if !types.Implements(recv, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if m, _, _ := types.LookupFieldOrMethod(recv, true, tn.Pkg(), it.Method(i).Name()); m != nil {
						s.reach(m)
					}
				}
			}
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestLabelsAreData is the gate on the one label vocabulary
// (internal/obs/labels.go): in non-test code outside bench/, no string
// literal holding a '{' is passed to Registry.Counter/Gauge/Histogram —
// labels are obs.Label values, the registry writes the braces — every
// pprof.Labels key is one of the obs.Key* constants, and no obs.Label
// key or Span.Annotate key re-spells one as a string literal. Syntax
// only (go/parser): the metric exposition's side of the same vocabulary
// is TestMetricsHygiene's.
func TestLabelsAreData(t *testing.T) {
	fset := token.NewFileSet()
	vocabFile := filepath.Join("internal", "obs", "labels.go")
	parsed, err := parser.ParseFile(fset, vocabFile, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{} // constant name → the key it spells
	ast.Inspect(parsed, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range spec.Names {
			if !strings.HasPrefix(name.Name, "Key") {
				continue
			}
			key := ""
			if i < len(spec.Values) {
				if lit, ok := spec.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					key, _ = strconv.Unquote(lit.Value) // the parser accepted the literal
				}
			}
			if key == "" {
				t.Fatalf("%s: %s is not spelled as a non-empty string literal", vocabFile, name.Name)
			}
			keys[name.Name] = key
		}
		return true
	})
	spelled := map[string]string{}
	for name, key := range keys {
		spelled[key] = name
	}
	if len(keys) == 0 || len(spelled) != len(keys) {
		t.Fatalf("%s: %d Key* constants spell %d distinct keys; want one key each, and at least one", vocabFile, len(keys), len(spelled))
	}
	// literalWith finds a string literal under e that ok accepts.
	literalWith := func(e ast.Expr, ok func(string) bool) (found string) {
		ast.Inspect(e, func(n ast.Node) bool {
			if lit, isLit := n.(*ast.BasicLit); isLit && lit.Kind == token.STRING {
				if s, _ := strconv.Unquote(lit.Value); ok(s) {
					found = lit.Value
				}
			}
			return found == ""
		})
		return found
	}
	isKeyConst := func(e ast.Expr) bool {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			e = sel.Sel // obs.KeyPhase
		}
		id, ok := e.(*ast.Ident)
		return ok && keys[id.Name] != ""
	}
	calls := func(call *ast.CallExpr, names ...string) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && slices.Contains(names, sel.Sel.Name)
	}
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || path == vocabFile {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			at := func() token.Position { return fset.Position(n.Pos()) }
			switch n := n.(type) {
			case *ast.CallExpr:
				switch {
				case len(n.Args) == 0:
				case calls(n, "Counter", "Gauge", "Histogram"):
					if lit := literalWith(n.Args[0], func(s string) bool { return strings.Contains(s, "{") }); lit != "" {
						t.Errorf("%s: series registered with labels inside the family string %s; pass obs.Label values", at(), lit)
					}
				case calls(n, "Labels") && types.ExprString(n.Fun) == "pprof.Labels":
					for i := 0; i < len(n.Args); i += 2 {
						if !isKeyConst(n.Args[i]) {
							t.Errorf("%s: pprof.Labels key %s is not one of the obs.Key* constants of %s", at(), types.ExprString(n.Args[i]), vocabFile)
						}
					}
				case calls(n, "Annotate"):
					if lit := literalWith(n.Args[0], func(s string) bool { return spelled[s] != "" }); lit != "" {
						t.Errorf("%s: span attribute key %s re-spells a vocabulary key; use obs.%s", at(), lit, spelled[strings.Trim(lit, "\"`")])
					}
				}
			case *ast.CompositeLit:
				if typ := types.ExprString(n.Type); (typ == "obs.Label" || typ == "Label") && len(n.Elts) > 0 {
					key := n.Elts[0]
					if kv, ok := key.(*ast.KeyValueExpr); ok {
						key = kv.Value
					}
					if lit := literalWith(key, func(string) bool { return true }); lit != "" {
						t.Errorf("%s: label key spelled as the literal %s; the keys live in %s", at(), lit, vocabFile)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// reflectionJSONSites lists, per package that moves profile documents
// and circle pages, the functions still allowed to call encoding/json's
// reflection entry points, each with the reason it is cold. Everything
// else in those packages goes through internal/gplusapi's wire codec.
var reflectionJSONSites = map[string]string{
	"internal/gplusd/server.go:writeJSON":   "/stats and /seed: two tiny documents, once per crawl",
	"internal/gplusapi/client.go:FetchSeed": "one SeedDoc per crawl",
}

// TestReflectionJSONStaysCold is the gate that keeps reflection-driven
// encoding/json from growing back beside the wire codec: in non-test
// code of internal/gplusd, gplusapi, crawler and dataset, json.Marshal,
// MarshalIndent, Unmarshal, NewEncoder and NewDecoder may be called only
// from the functions of reflectionJSONSites. Syntax only (go/parser). A
// listed function that no longer calls one fails too, so the list stays
// the truth.
func TestReflectionJSONStaysCold(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	for _, dir := range []string{"gplusd", "gplusapi", "crawler", "dataset"} {
		files, err := filepath.Glob(filepath.Join("internal", dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files under internal/%s (err=%v)", dir, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				site := filepath.ToSlash(path) + ":" + fn.Name.Name
				ast.Inspect(fn, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					switch types.ExprString(call.Fun) {
					case "json.Marshal", "json.MarshalIndent", "json.Unmarshal", "json.NewEncoder", "json.NewDecoder":
						used[site] = true
						if reflectionJSONSites[site] == "" {
							t.Errorf("%s: %s calls %s; profile documents and circle pages go through gplusapi's wire codec (or list the site in reflectionJSONSites with the reason it is cold)",
								fset.Position(call.Pos()), fn.Name.Name, types.ExprString(call.Fun))
						}
					}
					return true
				})
			}
		}
	}
	for site := range reflectionJSONSites {
		if !used[site] {
			t.Errorf("reflectionJSONSites lists %s, which no longer calls encoding/json: drop the entry", site)
		}
	}
}
