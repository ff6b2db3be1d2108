// Package prof is the reproduction's stdlib-only continuous-profiling
// layer: a Collector that periodically (and on anomaly triggers) writes
// labelled runtime/pprof captures into a bounded on-disk ring, plus a
// dependency-free profile.proto decoder and analyzer so the captures
// can be read back — top-N, by-label, A-vs-B diff — without `go tool
// pprof`. The paper's multi-week crawl makes "the crawl is slow" a
// question that must be answerable per phase and per endpoint long
// after the fact; prof is the layer that keeps that evidence.
package prof

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"gplus/internal/durable"
	"gplus/internal/obs"
)

// Entry is one manifest line describing a capture in the ring.
type Entry struct {
	Seq       uint64    `json:"seq"`
	Kind      string    `json:"kind"` // cpu, heap, goroutine, mutex
	File      string    `json:"file"` // basename within the ring dir
	Time      time.Time `json:"time"`
	Trigger   string    `json:"trigger"` // interval, final, slo-page:..., stall, aimd-collapse
	SLO       string    `json:"slo"`     // SLO engine state at capture time ("" when unwired)
	Bytes     int64     `json:"bytes"`
	CaptureMS int64     `json:"capture_ms"`
}

// Path returns the absolute path of the capture file within dir.
func (e Entry) Path(dir string) string { return filepath.Join(dir, e.File) }

// StoreOptions bounds the ring.
type StoreOptions struct {
	// MaxCaptures is the retention limit in capture files (0 means 64).
	MaxCaptures int
	// MaxBytes caps total capture bytes on disk; oldest captures are
	// evicted first. 0 means 256 MiB.
	MaxBytes int64
	// Metrics receives the obsprof_* series; nil disables them.
	Metrics *obs.Registry
}

const (
	defaultMaxCaptures = 64
	defaultMaxBytes    = 256 << 20
	manifestName       = "manifest.jsonl"
)

// Store is the bounded on-disk profile ring: capture files named
// <kind>-<seq>.pb.gz beside a manifest.jsonl with one Entry per line.
// The manifest is appended to through a durable.Log: a crash can leave
// at most one torn final line, which reopen truncates away.
// Methods are safe for concurrent use; a nil *Store is a no-op.
type Store struct {
	dir string
	max int
	cap int64

	mu      sync.Mutex
	log     *durable.Log // nil once closed
	entries []Entry
	seq     uint64
	bytes   int64

	captures   func(kind, trigger string) *obs.Counter
	capBytes   *obs.Counter
	evictions  *obs.Counter
	storeBytes *obs.Gauge
}

// OpenStore opens (creating if needed) the profile ring at dir,
// recovering the manifest: a torn final line is truncated away, entries
// whose capture files vanished are dropped, and capture files missing
// from the manifest are deleted as orphans.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	if opts.MaxCaptures <= 0 {
		opts.MaxCaptures = defaultMaxCaptures
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = defaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("prof: open store: %w", err)
	}
	s := &Store{dir: dir, max: opts.MaxCaptures, cap: opts.MaxBytes}
	if reg := opts.Metrics; reg != nil {
		reg.Help("obsprof_captures_total", "Profile captures written to the ring, by kind and trigger.")
		reg.Help("obsprof_capture_bytes_total", "Total compressed profile bytes written to the ring.")
		reg.Help("obsprof_evictions_total", "Captures evicted from the ring by retention limits.")
		reg.Help("obsprof_store_bytes", "Compressed profile bytes currently retained in the ring.")
		s.captures = func(kind, trigger string) *obs.Counter {
			return reg.Counter("obsprof_captures_total", obs.Label{Key: obs.KeyKind, Value: kind}, obs.Label{Key: obs.KeyTrigger, Value: trigger})
		}
		s.capBytes = reg.Counter("obsprof_capture_bytes_total")
		s.evictions = reg.Counter("obsprof_evictions_total")
		s.storeBytes = reg.Gauge("obsprof_store_bytes")
	}
	err := s.recover()
	if err == nil {
		s.log, err = durable.OpenLog(s.manifestPath())
	}
	if err != nil {
		return nil, err
	}
	s.storeBytes.Set(s.bytes)
	return s, nil
}

func (s *Store) manifestPath() string { return filepath.Join(s.dir, manifestName) }

// recover loads the manifest, reconciling it against the capture files
// actually on disk. (A torn final line is not its business: ReadManifest
// never sees it and OpenLog truncates it away.)
func (s *Store) recover() error {
	listed, err := ReadManifest(s.dir)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("prof: read manifest: %w", err)
	}
	known := make(map[string]bool)
	for _, e := range listed {
		fi, err := os.Stat(e.Path(s.dir))
		if err != nil {
			continue // capture file gone; drop the entry
		}
		e.Bytes = fi.Size()
		s.entries = append(s.entries, e)
		s.bytes += e.Bytes
		if e.Seq >= s.seq {
			s.seq = e.Seq + 1
		}
		known[e.File] = true
	}
	// Dropped entries must stay dropped: rewrite the manifest to match
	// what we kept (atomically, so a crash inside the rewrite leaves the
	// old file), then delete capture files no entry references.
	if len(s.entries) < len(listed) {
		if err := s.rewriteManifest(); err != nil {
			return err
		}
	}
	return s.sweepOrphans(known)
}

// sweepOrphans deletes capture files not referenced by any manifest
// entry (e.g. written just before a crash that lost the append) and the
// temp file a crash inside a manifest rewrite leaves behind.
func (s *Store) sweepOrphans(known map[string]bool) error {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("prof: sweep ring dir: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		stale := strings.HasPrefix(name, "."+manifestName+"-") ||
			strings.HasSuffix(name, ".pb.gz") && !known[name]
		if stale && !de.IsDir() {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
	return nil
}

// rewriteManifest atomically and durably replaces the manifest with the
// current entry list (durable.WriteFile), reopening the append log if
// one was live.
func (s *Store) rewriteManifest() error {
	var buf bytes.Buffer
	for _, e := range s.entries {
		b, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("prof: marshal manifest entry: %w", err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	err := durable.WriteFile(s.manifestPath(), func(f *os.File) error {
		// The temp file is created 0600; the manifest stays world-readable
		// like the captures beside it.
		if err := f.Chmod(0o644); err != nil {
			return err
		}
		_, err := f.Write(buf.Bytes())
		return err
	})
	if err != nil {
		return fmt.Errorf("prof: rewrite manifest: %w", err)
	}
	if s.log != nil {
		// The rename replaced the file the append handle points at.
		s.log.Close() //nolint:errcheck — every append was synced; the handle holds nothing
		if s.log, err = durable.OpenLog(s.manifestPath()); err != nil {
			return fmt.Errorf("prof: reopen manifest: %w", err)
		}
	}
	return nil
}

// Append writes one capture into the ring: the profile bytes to
// <kind>-<seq>.pb.gz, then the manifest line (append + sync), then any
// retention eviction. Returns the completed entry.
func (s *Store) Append(kind, trigger, slo string, captureDur time.Duration, data []byte) (Entry, error) {
	if s == nil {
		return Entry{}, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := Entry{
		Seq:       s.seq,
		Kind:      kind,
		File:      fmt.Sprintf("%s-%06d.pb.gz", kind, s.seq),
		Time:      time.Now().UTC(),
		Trigger:   trigger,
		SLO:       slo,
		Bytes:     int64(len(data)),
		CaptureMS: captureDur.Milliseconds(),
	}
	if err := os.WriteFile(e.Path(s.dir), data, 0o644); err != nil {
		return Entry{}, fmt.Errorf("prof: write capture: %w", err)
	}
	line, err := json.Marshal(e)
	if err != nil {
		return Entry{}, fmt.Errorf("prof: marshal entry: %w", err)
	}
	if _, err := s.log.Write(append(line, '\n')); err != nil {
		return Entry{}, fmt.Errorf("prof: append manifest: %w", err)
	}
	if err := s.log.Sync(); err != nil {
		return Entry{}, fmt.Errorf("prof: sync manifest: %w", err)
	}
	s.seq++
	s.entries = append(s.entries, e)
	s.bytes += e.Bytes
	if s.captures != nil {
		s.captures(kind, trigger).Inc()
	}
	s.capBytes.Add(e.Bytes)
	if err := s.evict(); err != nil {
		return Entry{}, err
	}
	s.storeBytes.Set(s.bytes)
	return e, nil
}

// evict drops oldest captures until both retention bounds hold.
// Called with s.mu held.
func (s *Store) evict() error {
	n := 0
	for len(s.entries)-n > s.max || (n < len(s.entries) && s.bytes > s.cap) {
		victim := s.entries[n]
		os.Remove(victim.Path(s.dir))
		s.bytes -= victim.Bytes
		n++
		s.evictions.Inc()
	}
	if n == 0 {
		return nil
	}
	s.entries = append([]Entry(nil), s.entries[n:]...)
	return s.rewriteManifest()
}

// Close closes the manifest log. Safe to call more than once.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	s.log = nil
	return err
}

// ReadManifest loads the manifest of a ring directory read-only (no
// repair, no orphan sweep) for offline analysis, oldest first. A torn
// final line is dropped by durable.ReadLog; a complete line that does
// not decode loses that one capture record, not the ring.
func ReadManifest(dir string) ([]Entry, error) {
	f, err := os.Open(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Entry
	_, err = durable.ReadLog(f, func(rec []byte) error {
		var e Entry
		if json.Unmarshal(rec, &e) == nil {
			out = append(out, e)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}
