package durable_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDurableWriteHygiene is the `make check` gate against a second
// copy of either crash protocol: outside this package (and bench/,
// which measures the repo from outside), non-test Go may not call
// os.Rename or os.CreateTemp — a file that must survive a crash is
// written with durable.WriteFile — nor open a file O_APPEND — a file
// that grows in place is a durable.Log.
func TestDurableWriteHygiene(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found from the test directory: %v", err)
	}
	exempt := map[string]bool{
		filepath.Join(root, "bench"):               true,
		filepath.Join(root, "internal", "durable"): true,
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if exempt[path] || (path != root && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			for banned, instead := range map[string]string{
				"os.Rename(":     "durable.WriteFile",
				"os.CreateTemp(": "durable.WriteFile",
				"os.O_APPEND":    "durable.OpenLog",
			} {
				if strings.Contains(line, banned) {
					t.Errorf("%s:%d uses %s outside internal/durable; use %s",
						strings.TrimPrefix(path, root+string(filepath.Separator)), i+1, strings.TrimSuffix(banned, "("), instead)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
