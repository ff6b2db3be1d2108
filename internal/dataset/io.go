package dataset

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gplus/internal/durable"
	"gplus/internal/gplusapi"
	"gplus/internal/graph"
	"gplus/internal/graph/diskcsr"
)

// On-disk layout: <dir>/graph.v2 (varint/delta-compressed CSR, openable
// via mmap without materializing — see internal/graph/diskcsr) plus
// <dir>/profiles.jsonl (one JSON record per user in node-id order; a
// profiles.jsonl.gz written by an earlier build is still read). The
// JSONL form keeps the profile columns greppable and diffable; the graph
// stays binary because edge lists dominate the size. graph.v2 is the
// only graph form this package writes; a directory holding only the
// legacy v1 graph.bin still loads (LoadWith falls back to
// graph.ReadBinary), and a save over it leaves graph.bin in place — Load
// prefers graph.v2 whenever it exists.

const (
	graphV1File    = "graph.bin"
	graphV2File    = "graph.v2"
	profilesFile   = "profiles.jsonl"
	profilesGzFile = "profiles.jsonl.gz"
)

// Options controls how LoadWith opens a dataset.
type Options struct {
	// Mapped serves the graph straight from the memory-mapped v2 file
	// instead of materializing it into RAM: analyses then fault in only
	// the pages they touch, bounding resident memory far below the edge
	// count. A legacy dataset holding only v1 graph.bin loads in RAM
	// regardless.
	Mapped bool
}

// userRecord is one line of profiles.jsonl.
type userRecord struct {
	gplusapi.ProfileDoc
	Crawled bool `json:"crawled"`
}

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
	enc := json.NewEncoder(bw)
	for i := range d.IDs {
		rec := userRecord{
			ProfileDoc: gplusapi.FromProfile(d.IDs[i], &d.Profiles[i]),
			Crawled:    d.Crawled[i],
		}
		if err := enc.Encode(&rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a dataset directory, materialized in RAM.
func Load(dir string) (*Dataset, error) {
	return LoadWith(dir, Options{})
}

// LoadWith reads a dataset with explicit backend options. With
// Options.Mapped the v2 graph is served memory-mapped and the caller
// must Close the returned dataset. A directory without graph.v2 is a
// legacy v1 dataset: its graph.bin is read through graph.ReadBinary
// (the migration reader) into RAM.
func LoadWith(dir string, opt Options) (*Dataset, error) {
	d := &Dataset{}
	v2Path := filepath.Join(dir, graphV2File)
	if _, err := os.Stat(v2Path); err == nil {
		m, err := diskcsr.Open(v2Path, diskcsr.Options{})
		if err != nil {
			return nil, fmt.Errorf("dataset: opening v2 graph: %w", err)
		}
		if opt.Mapped {
			d.view = m
			d.closer = m
		} else {
			d.Graph, err = m.Materialize()
			m.Close() //nolint:errcheck — read-only mapping
			if err != nil {
				return nil, fmt.Errorf("dataset: materializing v2 graph: %w", err)
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	} else {
		gf, err := os.Open(filepath.Join(dir, graphV1File))
		if err != nil {
			return nil, err
		}
		defer gf.Close()
		if d.Graph, err = graph.ReadBinary(gf); err != nil {
			return nil, fmt.Errorf("dataset: reading graph: %w", err)
		}
	}
	if err := d.loadProfiles(dir); err != nil {
		d.Close() //nolint:errcheck — unwinding a failed open
		return nil, err
	}
	d.buildIndex()
	if err := d.Validate(); err != nil {
		d.Close() //nolint:errcheck — unwinding a failed open
		return nil, err
	}
	return d, nil
}

func (d *Dataset) loadProfiles(dir string) error {
	// Prefer the plain form; fall back to the gzip form.
	var profiles io.Reader
	pf, err := os.Open(filepath.Join(dir, profilesFile))
	switch {
	case err == nil:
		profiles = pf
	case os.IsNotExist(err):
		pf, err = os.Open(filepath.Join(dir, profilesGzFile))
		if err != nil {
			return err
		}
		gz, err := gzip.NewReader(pf)
		if err != nil {
			pf.Close()
			return fmt.Errorf("dataset: opening compressed profiles: %w", err)
		}
		defer gz.Close()
		profiles = gz
	default:
		return err
	}
	defer pf.Close()
	if err := d.readProfiles(profiles); err != nil {
		return fmt.Errorf("dataset: reading profiles: %w", err)
	}
	return nil
}

func (d *Dataset) readProfiles(r io.Reader) error {
	scanner := bufio.NewScanner(bufio.NewReaderSize(r, 1<<16))
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for scanner.Scan() {
		line++
		var rec userRecord
		if err := json.Unmarshal(scanner.Bytes(), &rec); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		if rec.ID == "" {
			return fmt.Errorf("line %d: record without id", line)
		}
		d.IDs = append(d.IDs, rec.ID)
		d.Profiles = append(d.Profiles, rec.ToProfile())
		d.Crawled = append(d.Crawled, rec.Crawled)
	}
	return scanner.Err()
}
