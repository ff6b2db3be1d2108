package gplus

import (
	"flag"
	"os"
	"regexp"
	"testing"

	"gplus/internal/obs/rundir"
)

// flagDecl matches a flag registration in a binary's main —
// flag.String("name", ...) — and captures the flag's name.
var flagDecl = regexp.MustCompile(`\bflag\.[A-Z]\w*\("([a-z][a-z-]*)"`)

// TestFlagsHaveRecipe is the `make check` gate against knobs nobody
// turns: every flag gpluscrawl and gplusd register must be named in a
// README.md, EXPERIMENTS.md or Makefile recipe. A flag with no recipe
// and no reader is a constant; delete it or document the run that needs
// it.
func TestFlagsHaveRecipe(t *testing.T) {
	var docs []byte
	for _, name := range []string{"README.md", "EXPERIMENTS.md", "Makefile"} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, b...)
	}
	// The flags both binaries share are read off the flag set itself;
	// each main's own are scanned from its source.
	var shared []string
	fs := flag.NewFlagSet("shared", flag.ContinueOnError)
	new(rundir.Config).RegisterFlags(fs)
	fs.VisitAll(func(f *flag.Flag) { shared = append(shared, f.Name) })
	for _, main := range []string{"cmd/gpluscrawl/main.go", "cmd/gplusd/main.go"} {
		src, err := os.ReadFile(main)
		if err != nil {
			t.Fatal(err)
		}
		names := append([]string(nil), shared...)
		for _, m := range flagDecl.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		for _, name := range names {
			if !regexp.MustCompile(`(^|[^a-z-])-` + name + `($|[^a-z-])`).Match(docs) {
				t.Errorf("%s: flag -%s appears in no README.md, EXPERIMENTS.md or Makefile recipe", main, name)
			}
		}
		if len(names) < len(shared)+10 {
			t.Errorf("%s: found only %d flags of its own; the scan no longer matches how flags are declared", main, len(names)-len(shared))
		}
		t.Logf("%s registers %d flags", main, len(names))
	}
}
