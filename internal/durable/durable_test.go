package durable_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gplus/internal/durable"
)

// TestTruncateTornTail covers the scan itself, including tails longer
// than one 4096-byte read block and newlines on a block boundary — the
// callers' own tests only tear short lines.
func TestTruncateTornTail(t *testing.T) {
	long := strings.Repeat("x", 10_000)
	cases := []struct{ name, in, want string }{
		{"empty", "", ""},
		{"whole", "a\nb\n", "a\nb\n"},
		{"torn tail", "a\nb\nc", "a\nb\n"},
		{"no newline at all", "abc", ""},
		{"only newline", "\n", "\n"},
		{"long torn tail", "a\n" + long, "a\n"},
		{"long torn single record", long, ""},
		{"long whole record", long + "\n", long + "\n"},
		{"newline ends a block", strings.Repeat("y", 4095) + "\n" + long, strings.Repeat("y", 4095) + "\n"},
		{"newline starts a block", strings.Repeat("y", 4096) + "\n" + strings.Repeat("z", 4095), strings.Repeat("y", 4096) + "\n"},
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, []byte(c.in), 0o644); err != nil {
			t.Fatal(err)
		}
		// O_APPEND as the journal opens it: the scan must not depend on
		// the file offset.
		f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		err = durable.TruncateTornTail(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%s: %d bytes left, want %d", c.name, len(got), len(c.want))
		}
	}
}

// TestWriteFileLeavesNoTemp checks both exits clean up: a successful
// write and a failed one leave only the final name in the directory,
// and the failed one leaves the old contents.
func TestWriteFileLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	put := func(s string, fail error) error {
		return durable.WriteFile(path, func(f *os.File) error {
			if _, err := f.WriteString(s); err != nil {
				return err
			}
			return fail
		})
	}
	if err := put("one", nil); err != nil {
		t.Fatal(err)
	}
	if err := put("two", errCrash); err != errCrash {
		t.Fatalf("write error not returned bare: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "one" {
		t.Fatalf("failed write changed the file to %q", got)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 || des[0].Name() != "f" {
		t.Fatalf("directory holds %v, want only f", des)
	}
}
