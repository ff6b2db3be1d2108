package durable_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gplus/internal/durable"
)

// TestOpenLogTruncatesTornTail covers the repair scan itself, including
// tails longer than one 4096-byte read block and newlines on a block
// boundary — the cut-at-every-byte table only tears short records.
func TestOpenLogTruncatesTornTail(t *testing.T) {
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
		l, err := durable.OpenLog(path)
		if err == nil {
			err = l.Close()
		}
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

// TestReadLog pins the one torn-tail rule: newline-terminated records
// are yielded, blank ones included; an unterminated tail never is, and
// is counted; a record longer than the read buffer arrives whole.
func TestReadLog(t *testing.T) {
	long := strings.Repeat("x", 200_000)
	cases := []struct {
		name, in string
		want     []string
		torn     int
	}{
		{"empty", "", nil, 0},
		{"whole", "a\nb\n", []string{"a", "b"}, 0},
		{"blank record", "a\n\nb\n", []string{"a", "", "b"}, 0},
		{"torn tail", "a\nb", []string{"a"}, 1},
		{"torn only", "ab", nil, 1},
		{"long record", "a\n" + long + "\nb\n", []string{"a", long, "b"}, 0},
		{"long torn tail", "a\n" + long, []string{"a"}, 1},
	}
	for _, c := range cases {
		var got []string
		torn, err := durable.ReadLog(strings.NewReader(c.in), func(rec []byte) error {
			got = append(got, string(rec))
			return nil
		})
		if err != nil || torn != c.torn || !slices.Equal(got, c.want) {
			t.Errorf("%s: %d records, torn=%d, err=%v; want %d records, torn=%d",
				c.name, len(got), torn, err, len(c.want), c.torn)
		}
	}
	calls := 0
	_, err := durable.ReadLog(strings.NewReader("a\nb\nc\n"), func([]byte) error {
		calls++
		return errCrash
	})
	if err != errCrash || calls != 1 {
		t.Errorf("fn's error: got %v after %d calls, want it bare after 1", err, calls)
	}
}
