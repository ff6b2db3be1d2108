package crawler

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"gplus/internal/durable"
	"gplus/internal/obs"
	"gplus/internal/profile"
)

// The journal is the live form of the checkpoint: instead of writing
// crawl state once after Crawl returns (which a SIGKILL, OOM kill, or
// reboot mid-crawl loses entirely), workers stream P/E/D records into an
// append-only file as they crawl. The format is exactly the checkpoint
// format, so LoadCheckpoint/ReplayJournal load a journal directly and
// Config.Resume continues from it.
//
// Durability discipline:
//
//   - Records flow through a buffered channel to one writer goroutine;
//     the crawl hot path never blocks on disk, only (under extreme
//     writer lag) on the channel.
//   - The writer flushes and fsyncs every FlushInterval, bounding loss
//     to one interval's worth of records plus, at worst, one torn final
//     line — which LoadCheckpoint drops with a counted warning
//     (Stats.TornRecords) instead of failing the load.
//   - A profile's P record is written only after its circle lists are
//     fully fetched, and always after that profile's E and D records
//     entered the channel. A journal prefix is therefore always
//     resumable: any half-crawled profile is simply refetched.

// JournalOptions configures OpenJournal.
type JournalOptions struct {
	// FlushInterval is how often buffered records are flushed to the OS
	// and fsynced to disk (default 1s). Shorter intervals bound what a
	// crash can lose; longer ones amortize more records per fsync.
	FlushInterval time.Duration
	// Metrics receives journal telemetry when non-nil:
	// crawler_journal_records_total{kind=...},
	// crawler_journal_flushes_total, the crawler_journal_fsync_seconds
	// latency histogram, and the two health gauges —
	// crawler_journal_flush_lag_seconds (how long the oldest unflushed
	// record has waited, in whole seconds: the window a crash right now
	// would lose) and crawler_journal_failed (1 once the writer hit its
	// sticky error and started dropping records).
	Metrics *obs.Registry
}

// Journal is a live, append-only crawl log. All methods are safe for
// concurrent use and nil-safe: a nil *Journal records nothing.
type Journal struct {
	log           *durable.Log
	ch            chan journalMsg
	done          chan struct{}
	flushInterval time.Duration
	rec           []byte // the writer goroutine's record-rendering space

	mu   sync.Mutex
	werr error // first write/flush/sync error, sticky

	// dirtySince is the unix-nano time the oldest unflushed record was
	// buffered (0 when everything has reached disk); the flush-lag gauge
	// is sampled from it.
	dirtySince atomic.Int64

	recProfiles   *obs.Counter
	recEdges      *obs.Counter
	recDiscovered *obs.Counter
	flushes       *obs.Counter
	fsyncSeconds  *obs.Histogram
	failed        *obs.Gauge
}

type journalMsg struct {
	op  byte            // 'P' profile, 'C' circle page, 'D' discovered ids, 'B' bootstrap, 'S' sync barrier
	id  string          // 'P': the profile's user; 'C': the circle list's owner
	p   profile.Profile // 'P'
	out bool            // circle direction: true = out-list (id -> ids[i])
	ids []string        // 'C': the full page (E records); 'D': discovered ids
	res *Result         // 'B'
	ack chan error
}

// OpenJournal opens (creating or appending to) a journal file and starts
// its writer goroutine. An existing journal is appended to, never
// rewritten — load it first with LoadCheckpoint and pass the result as
// Config.Resume to continue the crawl it records.
//
// The file is a durable.Log: a torn final line left by a mid-append
// crash is truncated away before appending (the torn record is already
// dropped on load by LoadCheckpoint).
func OpenJournal(path string, opts JournalOptions) (*Journal, error) {
	log, err := durable.OpenLog(path)
	if err != nil {
		return nil, err
	}
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = time.Second
	}
	reg := opts.Metrics
	reg.Help("crawler_journal_records_total", "Journal records appended, by kind.")
	reg.Help("crawler_journal_flushes_total", "Journal flush+fsync cycles completed.")
	reg.Help("crawler_journal_fsync_seconds", "Latency of one journal flush+fsync cycle.")
	reg.Help("crawler_journal_flush_lag_seconds", "Whole seconds the oldest unflushed journal record has waited for its fsync (0 = clean).")
	reg.Help("crawler_journal_failed", "1 once the journal hit its sticky write error (0 = healthy).")
	j := &Journal{
		log:           log,
		ch:            make(chan journalMsg, 4096), // workers block only when the writer falls this far behind
		done:          make(chan struct{}),
		flushInterval: opts.FlushInterval,
		recProfiles:   reg.Counter("crawler_journal_records_total", obs.Label{Key: obs.KeyKind, Value: "profile"}),
		recEdges:      reg.Counter("crawler_journal_records_total", obs.Label{Key: obs.KeyKind, Value: "edge"}),
		recDiscovered: reg.Counter("crawler_journal_records_total", obs.Label{Key: obs.KeyKind, Value: "discovered"}),
		flushes:       reg.Counter("crawler_journal_flushes_total"),
		fsyncSeconds:  reg.Histogram("crawler_journal_fsync_seconds", nil),
		failed:        reg.Gauge("crawler_journal_failed"),
	}
	lag := reg.Gauge("crawler_journal_flush_lag_seconds")
	reg.RegisterSampler(func() {
		var waited time.Duration
		if since := j.dirtySince.Load(); since != 0 {
			waited = time.Since(time.Unix(0, since))
		}
		lag.Set(int64(waited / time.Second))
	})
	go j.writeLoop()
	return j, nil
}

// profile records one fully crawled profile. Callers must only record a
// profile whose circle lists were completely fetched (see crawlOne).
func (j *Journal) profile(id string, p profile.Profile) {
	if j == nil {
		return
	}
	j.ch <- journalMsg{op: 'P', id: id, p: p}
}

// circlePage records the edges of one fetched circle page.
func (j *Journal) circlePage(from string, out bool, ids []string) {
	if j == nil || len(ids) == 0 {
		return
	}
	j.ch <- journalMsg{op: 'C', id: from, out: out, ids: ids}
}

// discoveredIDs records never-before-seen user ids.
func (j *Journal) discoveredIDs(ids []string) {
	if j == nil || len(ids) == 0 {
		return
	}
	j.ch <- journalMsg{op: 'D', ids: ids}
}

// Bootstrap writes a prior crawl result into the journal, making a fresh
// journal self-contained when the resume state came from a separate
// checkpoint file. It blocks until the records are flushed and fsynced.
func (j *Journal) Bootstrap(res *Result) error {
	if j == nil {
		return nil
	}
	ack := make(chan error, 1)
	j.ch <- journalMsg{op: 'B', res: res, ack: ack}
	return <-ack
}

// Sync blocks until every record enqueued before the call is flushed and
// fsynced, and reports the journal's sticky error state.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	ack := make(chan error, 1)
	j.ch <- journalMsg{op: 'S', ack: ack}
	return <-ack
}

// Close drains, flushes, fsyncs, and closes the journal, returning the
// first error the writer hit (if any). The caller must guarantee no
// goroutine still records — i.e. Crawl has returned.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	close(j.ch)
	<-j.done
	return j.Err()
}

// Err reports the journal's sticky error: the first write, flush, or
// fsync failure. After an error the writer drops further records (the
// crawl itself continues and Close reports the error).
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.werr
}

func (j *Journal) fail(err error) {
	if err == nil {
		return
	}
	j.mu.Lock()
	if j.werr == nil {
		j.werr = err
	}
	j.mu.Unlock()
	j.failed.Set(1)
}

// writeLoop is the dedicated writer goroutine: it renders records into
// the log's buffer and flushes+fsyncs on the configured interval, on
// explicit barriers ('B'/'S' acks), and at close.
func (j *Journal) writeLoop() {
	defer close(j.done)
	// Rendering and fsync cost lands on this goroutine, not the workers
	// that sent the records; label it so CPU profiles attribute it.
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels(obs.KeyPhase, obs.PhaseJournal)))
	flush := func() {
		if j.dirtySince.Load() == 0 {
			return
		}
		start := time.Now()
		err := j.log.Sync()
		j.fsyncSeconds.Observe(time.Since(start).Seconds())
		j.flushes.Inc()
		j.fail(err)
		j.dirtySince.Store(0)
	}
	ticker := time.NewTicker(j.flushInterval)
	defer ticker.Stop()
	for {
		select {
		case msg, ok := <-j.ch:
			if !ok {
				flush()
				j.fail(j.log.Close())
				return
			}
			if j.handle(msg) && j.dirtySince.Load() == 0 {
				j.dirtySince.Store(time.Now().UnixNano())
			}
			if msg.ack != nil {
				flush()
				msg.ack <- j.Err()
			}
		case <-ticker.C:
			flush()
		}
	}
}

// handle renders one message; it reports whether bytes were written.
// After a sticky error, records are dropped rather than blocking the
// crawl on a dead disk.
func (j *Journal) handle(msg journalMsg) bool {
	if j.Err() != nil {
		return false
	}
	// A message's records are rendered into j.rec and appended to the
	// log in one Write.
	rec := j.rec[:0]
	switch msg.op {
	case 'P':
		var err error
		if rec, err = appendProfileRecord(rec, msg.id, &msg.p); err != nil {
			j.fail(err)
			return false
		}
		j.recProfiles.Inc()
	case 'C':
		for _, other := range msg.ids {
			if msg.out {
				rec = appendEdgeRecord(rec, msg.id, other)
			} else {
				rec = appendEdgeRecord(rec, other, msg.id)
			}
		}
		j.recEdges.Add(int64(len(msg.ids)))
	case 'D':
		for _, id := range msg.ids {
			rec = appendDiscoveredRecord(rec, id)
		}
		j.recDiscovered.Add(int64(len(msg.ids)))
	case 'B':
		// WriteResult layers its own buffered writer over the log and
		// flushes it into the log before returning.
		j.fail(WriteResult(j.log, msg.res))
		j.recProfiles.Add(int64(len(msg.res.Profiles)))
		j.recEdges.Add(int64(len(msg.res.Edges)))
		j.recDiscovered.Add(int64(len(msg.res.Discovered)))
		return true
	default:
		return false
	}
	j.rec = rec
	_, err := j.log.Write(rec)
	j.fail(err)
	return true
}
