package gplus

import (
	"flag"
	"os"
	"regexp"
	"testing"

	"gplus/internal/obs/rundir"
)

// TestFlagsHaveRecipe is the `make check` gate against knobs nobody
// turns: every flag a binary's main registers must be named in a
// README.md, EXPERIMENTS.md or Makefile recipe. A flag with no recipe
// and no reader is a constant; delete it or document the run that needs
// it. gplusanalyze's three sub-commands (traces, metrics, profiles)
// declare theirs on one identifier, scanned as a row of its own, as do
// gpluslab's five (calibrate, growth, stream, sampling, recommend).
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
		{"cmd/gplusverify/main.go", "flag", false, 2},
		{"cmd/gpluslab/main.go", "fs", false, 4},
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
