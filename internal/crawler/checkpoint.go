package crawler

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"gplus/internal/durable"
	"gplus/internal/gplusapi"
	"gplus/internal/profile"
)

// Checkpoint format: a line-oriented stream that can be appended to and
// scanned without loading everything at once.
//
//	P {"id":...,"name":...}   one crawled profile (gplusapi.AppendProfile's document)
//	E <from> <to>             one observed edge
//	D <id>                    one discovered id (crawled or not)
//
// E and D records carry ids raw, so an id there is never empty and holds
// no space (an E record splits at its first) and no newline (which ends
// a record). The crawler refuses a seed list carrying any other id, and
// a circle page carrying one counts as a circle error (checkIDs), so
// none reaches the journal.
//
// WriteResult always emits D records for every discovered id, so a
// checkpoint alone reconstructs the crawl frontier: discovered ids
// without a P record are the uncrawled frontier that Resume continues
// from.

// checkIDs rejects a list of ids (what names it) holding one that E and
// D records cannot carry.
func checkIDs(what string, ids []string) error {
	for _, id := range ids {
		if id == "" || strings.ContainsAny(id, " \n") {
			return fmt.Errorf("crawler: %s carries id %q, which no journal record can hold", what, id)
		}
	}
	return nil
}

// The three record renderers, shared by WriteResult and the Journal:
// each appends one whole newline-terminated record.

func appendProfileRecord(dst []byte, id string, p *profile.Profile) ([]byte, error) {
	dst, err := gplusapi.AppendProfile(append(dst, 'P', ' '), id, p)
	return append(dst, '\n'), err
}

func appendEdgeRecord(dst []byte, from, to string) []byte {
	dst = append(append(dst, 'E', ' '), from...)
	dst = append(append(dst, ' '), to...)
	return append(dst, '\n')
}

func appendDiscoveredRecord(dst []byte, id string) []byte {
	return append(append(append(dst, 'D', ' '), id...), '\n')
}

// WriteResult serializes a crawl result as a checkpoint stream.
func WriteResult(w io.Writer, res *Result) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var rec []byte
	for id, p := range res.Profiles {
		var err error
		if rec, err = appendProfileRecord(rec[:0], id, &p); err != nil {
			return err
		}
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	for _, e := range res.Edges {
		rec = appendEdgeRecord(rec[:0], e.From, e.To)
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	for id := range res.Discovered {
		rec = appendDiscoveredRecord(rec[:0], id)
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readResult parses a checkpoint stream back into a Result; like Crawl
// it hands every edge to sink and leaves Result.Edges empty. Statistics
// are reconstructed from the stream contents (durations are lost).
//
// The stream is read with durable.ReadLog: a final line with no
// trailing newline — the signature of a mid-append crash (SIGKILL or
// power loss during a journal flush) — is never parsed and is counted
// in Stats.TornRecords. A malformed line that *is* newline-terminated
// was written whole and still fails the load: that is corruption, not a
// torn append.
func readResult(r io.Reader, sink EdgeSink) (*Result, error) {
	res := &Result{
		Profiles:   make(map[string]profile.Profile),
		Discovered: make(map[string]bool),
	}
	line := 0
	torn, err := durable.ReadLog(r, func(rec []byte) error {
		line++
		if len(rec) == 0 {
			return nil
		}
		if len(rec) < 2 || rec[1] != ' ' {
			return fmt.Errorf("crawler: checkpoint line %d malformed", line)
		}
		switch body := rec[2:]; rec[0] {
		case 'P':
			var (
				id string
				p  profile.Profile
			)
			if err := gplusapi.DecodeProfile(body, &id, &p, nil); err != nil {
				return fmt.Errorf("crawler: checkpoint line %d: %w", line, err)
			}
			if id == "" {
				return fmt.Errorf("crawler: checkpoint line %d: profile without id", line)
			}
			res.Profiles[id] = p
			res.Discovered[id] = true
		case 'E':
			from, to, ok := strings.Cut(string(body), " ")
			if !ok || from == "" || to == "" {
				return fmt.Errorf("crawler: checkpoint line %d: bad edge", line)
			}
			res.Stats.EdgesObserved++
			if err := sink.ObserveEdge(from, to); err != nil {
				return fmt.Errorf("crawler: replaying checkpoint line %d into the edge sink: %w", line, err)
			}
		case 'D':
			if len(body) == 0 {
				return fmt.Errorf("crawler: checkpoint line %d: empty id", line)
			}
			res.Discovered[string(body)] = true
		default:
			return fmt.Errorf("crawler: checkpoint line %d: unknown record %q", line, rec[0])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Stats.TornRecords = torn
	res.Stats.ProfilesCrawled = len(res.Profiles)
	res.Stats.Discovered = len(res.Discovered)
	return res, nil
}

// LoadCheckpoint reads a checkpoint file or a live journal written by a
// Journal (same format; a journal may additionally carry a torn final
// line — see readResult and Stats.TornRecords) wholly into memory:
// Result.Edges holds every E record, in file order.
func LoadCheckpoint(path string) (*Result, error) {
	var edges edgeList
	res, err := ReplayJournal(path, &edges)
	if err != nil {
		return nil, err
	}
	res.Edges = edges
	return res, nil
}

// edgeList is the EdgeSink LoadCheckpoint collects Result.Edges with.
// A replay calls it from one goroutine, so it takes no lock.
type edgeList []Edge

func (l *edgeList) ObserveEdge(from, to string) error {
	*l = append(*l, Edge{From: from, To: to})
	return nil
}

// ReplayJournal is LoadCheckpoint for a crawl that streams its edges out
// of core: every E record goes to sink, in file order, as it is parsed.
// Result.Edges stays empty and Stats.EdgesObserved counts what was
// streamed, so a resume holds the nodes in memory, not the edge log.
func ReplayJournal(path string, sink EdgeSink) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readResult(f, sink)
}
