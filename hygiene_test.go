package gplus

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"gplus/internal/obs/rundir"
)

// TestFlagsHaveRecipe is the `make check` gate against knobs nobody
// turns: every flag a binary's main registers must be named in a
// README.md, EXPERIMENTS.md or Makefile recipe. A flag with no recipe
// and no reader is a constant; delete it or document the run that needs
// it. gplusanalyze's three sub-commands (traces, metrics, profiles)
// declare theirs on one identifier, scanned as a row of its own.
func TestFlagsHaveRecipe(t *testing.T) {
	var docs []byte
	for _, name := range []string{"README.md", "EXPERIMENTS.md", "Makefile"} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, b...)
	}
	// The observability flags are read off the flag set itself; each
	// main's own are scanned from its source.
	var shared []string
	fs := flag.NewFlagSet("shared", flag.ContinueOnError)
	new(rundir.Config).RegisterFlags(fs)
	fs.VisitAll(func(f *flag.Flag) { shared = append(shared, f.Name) })
	for _, bin := range []struct {
		main string
		set  string // the identifier flags are declared on: flag.String("name", ...)
		obs  bool   // registers the shared observability flags too
		own  int    // fewest own flags the scan must find, or declarations changed shape
	}{
		{"cmd/gpluscrawl/main.go", "fs", true, 17},
		{"cmd/gplusd/main.go", "flag", true, 10},
		{"cmd/gplusanalyze/main.go", "fs", false, 9},
		{"cmd/gplusanalyze/main.go", "sub", false, 11},
		{"cmd/gplusgen/main.go", "flag", false, 4},
		{"cmd/gplusverify/main.go", "fs", false, 2},
	} {
		src, err := os.ReadFile(bin.main)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		if bin.obs {
			names = append(names, shared...)
		}
		// flag.String("name", ...) and its siblings; flag.NewFlagSet("name",
		// ...) is not one of them.
		decl := regexp.MustCompile(`\b` + bin.set + `\.[A-Z][a-z0-9]*\("([a-z][a-z-]*)"`)
		own := decl.FindAllSubmatch(src, -1)
		for _, m := range own {
			names = append(names, string(m[1]))
		}
		for _, name := range names {
			if !regexp.MustCompile(`(^|[^a-z-])-` + name + `($|[^a-z-])`).Match(docs) {
				t.Errorf("%s (%s): flag -%s appears in no README.md, EXPERIMENTS.md or Makefile recipe", bin.main, bin.set, name)
			}
		}
		if len(own) < bin.own {
			t.Errorf("%s (%s): found only %d flags of its own, want at least %d; the scan no longer matches how flags are declared", bin.main, bin.set, len(own), bin.own)
		}
		t.Logf("%s registers %d flags on %s", bin.main, len(names), bin.set)
	}
}

// TestPackagesReachPipeline is the `make check` gate against orphan
// packages: every package under internal/ must be a non-test dependency
// of a cmd/ binary or of bench, or be listed below beside the tests
// that drive it through crawler → dataset → study. An exception that
// has become reachable, or whose tests are gone, fails too.
func TestPackagesReachPipeline(t *testing.T) {
	exceptions := map[string][]string{
		// The snapshot source of the parked longitudinal study (ROADMAP).
		"gplus/internal/growth": {
			"internal/crawler:TestCrawlOverGrowingService",
			"internal/growth:TestSnapshotSeriesThroughCrawlPipeline",
		},
	}
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
		if _, ok := exceptions[pkg]; !reachable[pkg] && !ok {
			t.Errorf("%s is imported by no cmd/ binary and not by bench: wire it into the pipeline, list the pipeline tests that keep it, or delete it", pkg)
		}
	}
	for pkg, tests := range exceptions {
		if reachable[pkg] {
			t.Errorf("%s is reachable from the pipeline now; drop its exception", pkg)
		}
		for _, ref := range tests {
			dir, name, _ := strings.Cut(ref, ":")
			files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
			found := slices.ContainsFunc(files, func(f string) bool {
				src, _ := os.ReadFile(f)
				return strings.Contains(string(src), "func "+name+"(t *testing.T)")
			})
			if !found {
				t.Errorf("%s is kept by %s, which no longer exists", pkg, ref)
			}
		}
	}
}
