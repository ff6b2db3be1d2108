package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"gplus/internal/durable"
	"gplus/internal/gplusapi"
	"gplus/internal/graph/diskcsr"
)

// On-disk layout: <dir>/graph.v2 (varint/delta-compressed CSR, openable
// via mmap without materializing — see internal/graph/diskcsr) plus
// <dir>/profiles.jsonl (one JSON record per user in node-id order). A
// record is the wire document of internal/gplusapi — the same bytes
// gplusd serves and the journal logs for that profile — with one more
// member, "crawled", before the closing brace; it is written and read
// by gplusapi's wire codec, not by reflection, and a record may be of
// any length. The JSONL form keeps the profile columns greppable and
// diffable; the graph
// stays binary because edge lists dominate the size. A dataset is
// written and read in these two files only.

const (
	graphV2File  = "graph.v2"
	profilesFile = "profiles.jsonl"
)

// Options controls how LoadWith opens a dataset.
type Options struct {
	// Mapped serves the graph straight from the memory-mapped v2 file
	// instead of materializing it into RAM: analyses then fault in only
	// the pages they touch, bounding resident memory far below the edge
	// count.
	Mapped bool
}

// crawledKey is the member a profiles.jsonl record adds to the wire
// document: whether the user's profile page was fetched.
const crawledKey = "crawled"

// SaveV2 writes the dataset under dir, creating it if needed: the graph
// as graph.v2 (varint/delta-compressed adjacency with an O(1)-seek
// index), then the profile column. Each file is published with
// durable.WriteFile, graph first, so a crash mid-save leaves every file
// wholly old or wholly new and never new profiles beside an old graph.
// The graph is streamed from the dataset's View, so saving a mapped
// dataset never materializes it.
func (d *Dataset) SaveV2(dir string) error {
	if err := d.Validate(); err != nil {
		return err
	}
	return d.save(dir, func(path string) error {
		return diskcsr.WriteGraph(path, d.View())
	})
}

// save is the one place a dataset directory is written: writeGraph
// publishes graph.v2 (from a View, or by compacting crawl segments),
// and only then is the profile column published.
func (d *Dataset) save(dir string, writeGraph func(path string) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeGraph(filepath.Join(dir, graphV2File)); err != nil {
		return fmt.Errorf("dataset: writing v2 graph: %w", err)
	}
	err := durable.WriteFile(filepath.Join(dir, profilesFile), func(f *os.File) error {
		return d.writeProfiles(f)
	})
	if err != nil {
		return fmt.Errorf("dataset: writing profiles: %w", err)
	}
	return nil
}

func (d *Dataset) writeProfiles(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var rec []byte
	for i := range d.IDs {
		var err error
		if rec, err = gplusapi.AppendProfile(rec[:0], d.IDs[i], &d.Profiles[i]); err != nil {
			return err
		}
		// Reopen the document's closing brace for the record's own member.
		rec = append(rec[:len(rec)-1], `,"`+crawledKey+`":`...)
		rec = append(strconv.AppendBool(rec, d.Crawled[i]), '}', '\n')
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadWith reads a dataset directory: the graph read into RAM by
// diskcsr.ReadGraph by default, or with Options.Mapped served from the
// memory-mapped v2 file diskcsr.Open verified, when the caller must
// Close the returned dataset. Either way graph.v2 is decoded and
// checked once, by the decode that reads it, on its own goroutine while
// the profile column decodes beside it. A graph error is the one
// returned, whatever the profile column held; on any error the mapping
// is closed. A graph.v2 that cannot be opened fails at once, before the
// column is read.
func LoadWith(dir string, opt Options) (*Dataset, error) {
	d := &Dataset{}
	path := filepath.Join(dir, graphV2File)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: opening v2 graph: %w", err)
	}
	f.Close()
	var graphErr error
	graphDone := make(chan struct{})
	go func() {
		defer close(graphDone)
		if !opt.Mapped {
			d.g, graphErr = diskcsr.ReadGraph(path)
			return
		}
		var m *diskcsr.Mapped
		if m, graphErr = diskcsr.Open(path, diskcsr.Options{}); graphErr == nil {
			d.g, d.closer = m, m
		}
	}()
	err = d.loadProfiles(dir)
	<-graphDone
	if graphErr != nil {
		return nil, fmt.Errorf("dataset: opening v2 graph: %w", graphErr)
	}
	if err == nil {
		err = d.Validate()
	}
	if err != nil {
		d.Close() //nolint:errcheck — unwinding a failed open
		return nil, err
	}
	return d, nil
}

func (d *Dataset) loadProfiles(dir string) error {
	pf, err := os.Open(filepath.Join(dir, profilesFile))
	if err != nil {
		return err
	}
	defer pf.Close()
	var size int64
	if fi, err := pf.Stat(); err == nil {
		size = fi.Size()
	}
	if err := d.readProfiles(pf, size, runtime.GOMAXPROCS(0)); err != nil {
		return fmt.Errorf("dataset: reading profiles: %w", err)
	}
	return nil
}

// profileChunk is how much of the profile column is read, and decoded
// by all workers, at a time: the column is never resident whole.
const profileChunk = 1 << 20

// readProfiles appends the records of r to the three columns, a chunk
// of whole lines at a time, each chunk decoded by up to par goroutines.
// Placement is by line number whatever par is, and so is the error: the
// lowest failing line's. size, when positive, is how many bytes r
// holds: the columns are then allocated once, from the first chunk's
// bytes per line, instead of growing chunk by chunk.
func (d *Dataset) readProfiles(r io.Reader, size int64, par int) error {
	buf := make([]byte, 0, profileChunk)
	for eof := false; !eof; {
		n, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			eof = true
		default:
			return err
		}
		end := len(buf) // at EOF a last line needs no newline
		if !eof {
			if end = bytes.LastIndexByte(buf, '\n') + 1; end == 0 {
				buf = slices.Grow(buf, 2*cap(buf)) // one record longer than the chunk
				continue
			}
		}
		if len(d.IDs) == 0 && int64(end) < size {
			lines := bytes.Count(buf[:end], []byte{'\n'})
			d.growColumns(int(float64(lines) * float64(size) / float64(end) * 1.02))
		}
		if err := d.decodeLines(buf[:end], par); err != nil {
			return err
		}
		buf = append(buf[:0], buf[end:]...)
	}
	return nil
}

// growColumns makes room for n more records in the three columns.
func (d *Dataset) growColumns(n int) {
	d.IDs = slices.Grow(d.IDs, n)
	d.Profiles = slices.Grow(d.Profiles, n)
	d.Crawled = slices.Grow(d.Crawled, n)
}

// decodeLines appends the records of lines, which holds whole lines,
// split into up to par ranges decoded side by side.
func (d *Dataset) decodeLines(lines []byte, par int) error {
	n := bytes.Count(lines, []byte{'\n'})
	if len(lines) > 0 && lines[len(lines)-1] != '\n' {
		n++
	}
	first := len(d.IDs)
	d.growColumns(n)
	d.IDs, d.Profiles, d.Crawled = d.IDs[:first+n], d.Profiles[:first+n], d.Crawled[:first+n]

	type failure struct {
		line int
		err  error
	}
	failures := make([]failure, max(par, 1))
	var wg sync.WaitGroup
	for w := 0; w < len(failures) && len(lines) > 0; w++ {
		// An even share of what is left, up to the end of its last line.
		end := len(lines) / (len(failures) - w)
		if nl := bytes.IndexByte(lines[end:], '\n'); nl >= 0 {
			end += nl + 1
		} else {
			end = len(lines)
		}
		part, at := lines[:end], first
		lines = lines[end:]
		first += bytes.Count(part, []byte{'\n'})
		wg.Add(1)
		go func() {
			defer wg.Done()
			failures[w].line, failures[w].err = d.decodeRange(part, at)
		}()
	}
	wg.Wait()
	for _, f := range failures { // ranges are in line order
		if f.err != nil {
			return fmt.Errorf("line %d: %w", f.line+1, f.err)
		}
	}
	return nil
}

// decodeRange decodes the lines of part into the columns from index at
// on, stopping at the first bad record, whose index it returns.
func (d *Dataset) decodeRange(part []byte, at int) (int, error) {
	var crawled bool
	member := func(key, value []byte) error {
		if string(key) != crawledKey {
			return fmt.Errorf("member %q where %s belongs", key, crawledKey)
		}
		switch string(value) {
		case "true":
			crawled = true
		case "false":
			crawled = false
		default:
			return fmt.Errorf("%s is %s, want true or false", crawledKey, value)
		}
		return nil
	}
	for ; len(part) > 0; at++ {
		line := part
		if nl := bytes.IndexByte(part, '\n'); nl >= 0 {
			line, part = part[:nl], part[nl+1:]
		} else {
			part = nil
		}
		if err := gplusapi.DecodeProfile(line, &d.IDs[at], &d.Profiles[at], member); err != nil {
			return at, err
		}
		if d.IDs[at] == "" {
			return at, errors.New("record without id")
		}
		d.Crawled[at] = crawled
	}
	return at, nil
}
