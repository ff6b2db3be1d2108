package gplus

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentsGenerated is the gate on EXPERIMENTS.md's measured
// half: it runs the command lines of `make experiments` — read from the
// Makefile, not copied — with the dataset directory and the document
// moved under a temporary directory, and fails unless the block between
// the document's "generated" marker lines is byte for byte what they
// print. A stale number, a hand edit inside the block or a renderer
// whose output moved all fail here; `make experiments` rewrites the
// block.
func TestExperimentsGenerated(t *testing.T) {
	want, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if block := generatedBlock(want); len(block) == 0 {
		t.Fatal("EXPERIMENTS.md has no non-empty block between a <!-- begin generated … --> and an <!-- end generated … --> line")
	}
	recipe := recipeLines(t, "experiments")
	if len(recipe) == 0 {
		t.Fatal("the Makefile has no experiments target")
	}
	tmp := t.TempDir()
	doc := filepath.Join(tmp, "EXPERIMENTS.md")
	if err := os.WriteFile(doc, want, 0o644); err != nil {
		t.Fatal(err)
	}
	expand := strings.NewReplacer("$(GO)", "go", "$(EXPERIMENTS_DATA)", filepath.Join(tmp, "data"), "$$", "$")
	bareDoc := regexp.MustCompile(`(^|\s)EXPERIMENTS\.md\b`)
	for _, line := range recipe {
		line = bareDoc.ReplaceAllString(expand.Replace(line), "${1}"+doc)
		if strings.Contains(line, "$(") {
			t.Fatalf("the experiments recipe uses a make variable this test does not set: %s", line)
		}
		if out, err := exec.Command("sh", "-c", line).CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", line, err, out)
		}
	}
	got, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("EXPERIMENTS.md line %d is\n\t%q\nbut make experiments prints\n\t%q\n(run make experiments)", i+1, wantLines[i], gotLines[i])
		}
	}
	t.Fatalf("EXPERIMENTS.md has %d lines, make experiments leaves %d (run make experiments)", len(wantLines), len(gotLines))
}

// generatedBlock is what lies between doc's begin and end marker lines,
// or nil without both.
func generatedBlock(doc []byte) []byte {
	m := regexp.MustCompile(`(?ms)^<!-- begin generated[^\n]*\n(.*?)^<!-- end generated`).FindSubmatch(doc)
	if m == nil {
		return nil
	}
	return m[1]
}

// recipeLines is the recipe of a Makefile target, one command per line,
// continuation lines joined.
func recipeLines(t *testing.T, target string) []string {
	t.Helper()
	b, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	mk := strings.ReplaceAll(string(b), "\\\n", " ")
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(target) + `:.*\n((?:\t.*\n)*)`).FindStringSubmatch(mk)
	if m == nil || m[1] == "" {
		return nil
	}
	var lines []string
	for _, line := range strings.Split(strings.TrimSuffix(m[1], "\n"), "\n") {
		lines = append(lines, strings.TrimPrefix(line, "\t"))
	}
	return lines
}
