// Package durable is the repo's one crash contract for files on disk.
// Every whole-file write (dataset columns, v2 graphs, edge segments,
// crawl checkpoints, profile-ring captures, the retention rewrite of a
// run directory's series log) goes through WriteFile; every file that is
// appended to in place (the crawl journal, a run directory's series and
// trace logs) is written through a Log and read back with ReadLog, which
// between them hold the one torn-tail rule.
package durable

import (
	"bufio"
	"bytes"
	"io"
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

// Log is an append-only log of newline-terminated records. A crash at
// any byte leaves the records synced before it intact, possibly some
// whole records written since, and at most one unterminated final
// record; OpenLog truncates that torn tail away before the first
// append, and ReadLog never yields it. The file only ever grows by
// appends through one Log at a time; rewriting it wholesale is
// WriteFile's job. A Log is not safe for concurrent use.
type Log struct {
	f     *os.File
	bw    *bufio.Writer
	dirty bool // written to since the last Sync
}

// OpenLog opens path for appending, creating it if needed. A torn final
// record is truncated away first: appending after it would fuse the
// next record onto the torn bytes, a permanently malformed line.
func OpenLog(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := truncateTornTail(f); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, bw: bufio.NewWriterSize(f, 1<<16)}, nil
}

// Write buffers p, which must consist of whole records, each ending in
// a newline. Nothing has left the process until Flush or Sync.
func (l *Log) Write(p []byte) (int, error) {
	l.dirty = true
	return l.bw.Write(p)
}

// Flush hands the buffer to the kernel without an fsync: every record
// so far survives the process being killed, though not a power cut.
func (l *Log) Flush() error { return l.bw.Flush() }

// Sync flushes the buffer and fsyncs the file (a no-op when nothing was
// written since the last Sync): every record so far survives a crash.
func (l *Log) Sync() error {
	if !l.dirty {
		return nil
	}
	if err := l.bw.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	return nil
}

// Close syncs and closes the log, reporting the first error.
func (l *Log) Close() error {
	err := l.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadLog calls fn with each newline-terminated record of r in order,
// newline stripped; rec is valid only during the call. A final record
// with no newline is the signature of a crash mid-append: it is never
// passed to fn — even if a prefix of it would parse — and is reported
// as torn = 1. A malformed record that is newline-terminated was
// written whole; rejecting it is fn's business. A non-nil error from fn
// stops the scan and is returned as is.
func ReadLog(r io.Reader, fn func(rec []byte) error) (torn int, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var long []byte // a record longer than the read buffer, accumulated
	for {
		chunk, err := br.ReadSlice('\n')
		switch {
		case err == bufio.ErrBufferFull:
			long = append(long, chunk...)
			continue
		case err == io.EOF:
			if len(long)+len(chunk) > 0 {
				torn = 1
			}
			return torn, nil
		case err != nil:
			return 0, err
		}
		rec := chunk[:len(chunk)-1]
		if len(long) > 0 {
			long = append(long, rec...)
			rec = long
		}
		if err := fn(rec); err != nil {
			return 0, err
		}
		long = long[:0]
	}
}

// truncateTornTail truncates f back to its last newline, discarding the
// torn final line a mid-append crash leaves behind in a line-oriented
// log. A file with no newline at all is one torn record and is
// truncated to empty. f must be open for reading and writing; its
// offset is not moved.
func truncateTornTail(f *os.File) error {
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
