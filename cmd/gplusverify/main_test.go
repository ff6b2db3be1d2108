package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gplus/internal/dataset"
	"gplus/internal/paper"
	"gplus/internal/synth"
)

// TestAuditTable drives the audit in-process on a dataset written the
// way gplusgen writes one: one row per paper check in the checks' order,
// a footer counting the rows that say PASS, and an error exactly when a
// row says FAIL (a universe this small does not pass every check).
func TestAuditTable(t *testing.T) {
	u, err := synth.Generate(synth.DefaultConfig(3_000))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := dataset.FromUniverse(u).SaveV2(dir); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	runErr := run(&stdout, []string{"-data", dir})

	table, footer, ok := strings.Cut(strings.TrimSuffix(stdout.String(), "\n"), "\n\n")
	if !ok {
		t.Fatalf("no blank line between table and footer:\n%s", stdout.String())
	}
	rows := strings.Split(table, "\n")[1:] // less the header
	checks := paper.Checks()
	if len(rows) != len(checks) {
		t.Fatalf("%d rows for %d checks:\n%s", len(rows), len(checks), table)
	}
	passed := 0
	for i, row := range rows {
		f := strings.Fields(row)
		if f[0] != checks[i].ID {
			t.Errorf("row %d is %s, want %s", i, f[0], checks[i].ID)
		}
		switch f[1] {
		case "PASS":
			passed++
		case "FAIL":
		default:
			t.Errorf("row %d has status %q:\n%s", i, f[1], row)
		}
	}
	if want := fmt.Sprintf("%d/%d checks passed", passed, len(checks)); footer != want {
		t.Errorf("footer %q, want %q", footer, want)
	}
	if failed := len(checks) - passed; (runErr != nil) != (failed > 0) {
		t.Errorf("%d rows say FAIL but run returned %v", failed, runErr)
	}
}
