// Package prof is the reproduction's stdlib-only continuous-profiling
// layer: a Collector that periodically (and on anomaly triggers) writes
// labelled runtime/pprof captures into a bounded on-disk ring of plain
// pprof files, which `go tool pprof` reads back — top, by label (-tags,
// -tagfocus), A-vs-B diff (-diff_base). The paper's multi-week crawl
// makes "the crawl is slow" a question that must be answerable per phase
// and per endpoint long after the fact; prof is the layer that keeps
// that evidence.
package prof

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"

	"gplus/internal/durable"
	"gplus/internal/obs"
)

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
)

// captureName is the grammar of a capture file: <kind>-<seq>-<trigger>.pb.gz.
var captureName = regexp.MustCompile(`^[a-z]+-([0-9]{6,})-[A-Za-z0-9._-]*\.pb\.gz$`)

// capture is one file of the ring.
type capture struct {
	seq   uint64
	name  string
	bytes int64
}

// Store is the bounded on-disk profile ring: one pprof file per capture,
// named <kind>-<seq>-<trigger>.pb.gz, so the directory listing is the
// ring's only index. Each capture is written with durable.WriteFile: a
// crash leaves either the whole file or a dot-prefixed temp file, which
// the next OpenStore removes. Methods are safe for concurrent use; a nil
// *Store is a no-op.
type Store struct {
	dir string
	max int
	cap int64

	mu    sync.Mutex
	ring  []capture // oldest first
	seq   uint64
	bytes int64

	captures   func(kind, trigger string) *obs.Counter
	capBytes   *obs.Counter
	evictions  *obs.Counter
	storeBytes *obs.Gauge
}

// OpenStore opens (creating if needed) the profile ring at dir. It adopts
// every file named by the capture grammar, removes the temp files of
// writes a crash interrupted, continues the seq after the highest one
// found and re-applies retention. Any other file is left alone.
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
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("prof: open store: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		// durable.WriteFile names its temp file "."+base+"-"+random.
		if cut := strings.LastIndexByte(name, '-'); strings.HasPrefix(name, ".") && cut > 0 && captureName.MatchString(name[1:cut]) {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		m := captureName.FindStringSubmatch(name)
		fi, err := de.Info()
		if m == nil || err != nil || !fi.Mode().IsRegular() {
			continue
		}
		seq, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			continue // past uint64: no ring wrote it
		}
		s.ring = append(s.ring, capture{seq: seq, name: name, bytes: fi.Size()})
		s.bytes += fi.Size()
		s.seq = max(s.seq, seq+1)
	}
	slices.SortFunc(s.ring, func(a, b capture) int { return cmp.Compare(a.seq, b.seq) })
	s.evict()
	s.storeBytes.Set(s.bytes)
	return s, nil
}

// fileName is the capture file for one capture: any trigger byte outside
// [A-Za-z0-9._-] becomes '_', so the name survives a shell glob.
func fileName(kind string, seq uint64, trigger string) string {
	safe := []byte(trigger)
	for i, c := range safe {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '.' || c == '_' || c == '-') {
			safe[i] = '_'
		}
	}
	return fmt.Sprintf("%s-%06d-%s.pb.gz", kind, seq, safe)
}

// Append writes one capture into the ring as <kind>-<seq>-<trigger>.pb.gz,
// then evicts the oldest captures until both retention bounds hold. A
// seq is spent even when the write fails, so no two files share one.
func (s *Store) Append(kind, trigger string, data []byte) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := capture{seq: s.seq, name: fileName(kind, s.seq, trigger), bytes: int64(len(data))}
	s.seq++
	err := durable.WriteFile(filepath.Join(s.dir, c.name), func(f *os.File) error {
		// The temp file is created 0600; captures are world-readable.
		if err := f.Chmod(0o644); err != nil {
			return err
		}
		_, err := f.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("prof: write capture: %w", err)
	}
	s.ring = append(s.ring, c)
	s.bytes += c.bytes
	if s.captures != nil {
		s.captures(kind, trigger).Inc()
	}
	s.capBytes.Add(c.bytes)
	s.evict()
	s.storeBytes.Set(s.bytes)
	return nil
}

// evict deletes the oldest captures until both retention bounds hold.
// Called with s.mu held, or before the Store is shared.
func (s *Store) evict() {
	n := 0
	for len(s.ring)-n > s.max || (n < len(s.ring) && s.bytes > s.cap) {
		victim := s.ring[n]
		os.Remove(filepath.Join(s.dir, victim.name))
		s.bytes -= victim.bytes
		n++
		s.evictions.Inc()
	}
	s.ring = slices.Delete(s.ring, 0, n)
}
