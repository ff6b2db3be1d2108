// Package durable is the repo's one crash contract for files on disk.
// Every whole-file write (dataset columns, v2 graphs, edge segments,
// crawl checkpoints, the profile ring's manifest) goes through
// WriteFile; the crawl journal, which appends in place, repairs a
// crash-torn tail with TruncateTornTail before appending.
package durable

import (
	"bytes"
	"os"
	"path/filepath"
)

// StepHook, when non-nil, is called by WriteFile after each durability
// step of the file being written to path: "written" (contents in the
// temp file), "synced" (temp file fsynced and closed) and "renamed"
// (published under path, directory fsynced). A non-nil return aborts
// WriteFile at exactly that point — a test's stand-in for a crash, since
// every step boundary is also an fsync boundary. Only tests set it.
var StepHook func(path, step string) error

func hook(path, step string) error {
	if StepHook != nil {
		return StepHook(path, step)
	}
	return nil
}

// WriteFile writes the output of write to path atomically and durably:
// a temp file in the same directory is written, fsynced, closed and
// renamed over path, then the directory is fsynced. A crash at any
// point leaves either the old file or the complete new one under path,
// never an empty or torn mix, so a failed rewrite cannot destroy the
// only copy.
func WriteFile(path string, write func(*os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := hook(path, "written"); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := hook(path, "synced"); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	syncDir(dir)
	return hook(path, "renamed")
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Errors are swallowed: some platforms and filesystems cannot fsync
// directories, and the rename is already atomic for every observer
// except a badly timed power cut.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	d.Sync() //nolint:errcheck — best-effort durability, see above
}

// TruncateTornTail truncates f back to its last newline, discarding the
// torn final line a mid-append crash leaves behind in a line-oriented
// log. A file with no newline at all is one torn record and is
// truncated to empty. f must be open for reading and writing; its
// offset is not moved.
func TruncateTornTail(f *os.File) error {
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	buf := make([]byte, 4096)
	for off := size; off > 0; {
		n := int64(len(buf))
		if n > off {
			n = off
		}
		if _, err := f.ReadAt(buf[:n], off-n); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			if end := off - n + int64(i) + 1; end < size {
				return f.Truncate(end)
			}
			return nil
		}
		off -= n
	}
	if size > 0 {
		return f.Truncate(0)
	}
	return nil
}
