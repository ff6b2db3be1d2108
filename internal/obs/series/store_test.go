package series

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// FuzzSeriesLog holds the tick decoder to the contract a crash relies
// on: it never panics, a whole line that is not a tick fails the read
// naming that line, a torn last line is dropped, and whatever it reads
// the encoder writes back as a log that reads the same and re-encodes to
// the same bytes. It holds the readers too: the health report over
// whatever was read — duplicated, unsorted or sparse ticks — builds
// without a panic, and renders the same over the log read back. Seeded
// with the run directory gplusanalyze's golden test reads.
func FuzzSeriesLog(f *testing.F) {
	seed, err := os.ReadFile("../../../cmd/gplusanalyze/testdata/old-run/series.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(`{"t":"2026-01-01T00:00:00+02:00","counters":null,"histograms":{"h":{"bounds":[1],"counts":[0,3],"count":3,"sum":4.5}}}` + "\n"))
	f.Add([]byte("{\"t\":\"2026-01-01T00:00:00Z\"}\n\n"))
	// A duplicated tick time, and a tick written out of order.
	f.Add([]byte(`{"t":"2026-01-01T00:00:01Z","counters":{"crawler_profiles_crawled_total":5}}` + "\n" +
		`{"t":"2026-01-01T00:00:00Z","counters":{"crawler_profiles_crawled_total":1}}` + "\n" +
		`{"t":"2026-01-01T00:00:01Z","counters":{"crawler_profiles_crawled_total":7},"gauges":{"crawler_frontier_depth":3}}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, torn, err := ReadTicks(bytes.NewReader(data))

		lines := bytes.Split(data, []byte("\n"))
		whole := lines[:len(lines)-1]
		bad := 0
		for i, line := range whole {
			var tk Tick
			if json.Unmarshal(line, &tk) != nil || tk.T.IsZero() {
				bad = i + 1
				break
			}
		}
		if bad > 0 {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("line %d:", bad)) {
				t.Fatalf("line %d is not a tick, but the read returned err = %v", bad, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("every whole line is a tick, but the read failed: %v", err)
		}
		if wantTorn := len(lines[len(lines)-1]) > 0; (torn == 1) != wantTorn || len(s.Ticks()) != len(whole) {
			t.Fatalf("read %d ticks, torn=%d, from %d whole lines and a torn tail %v", len(s.Ticks()), torn, len(whole), wantTorn)
		}
		report := reportText(s)

		var enc bytes.Buffer
		if err := WriteTicks(&enc, s.Ticks()); err != nil {
			t.Skipf("a tick the encoder cannot write: %v", err)
		}
		back, torn, err := ReadTicks(bytes.NewReader(enc.Bytes()))
		if err != nil || torn != 0 {
			t.Fatalf("the encoder's output does not read back: torn=%d err=%v\n%s", torn, err, enc.Bytes())
		}
		a, b := s.Ticks(), back.Ticks()
		if len(a) != len(b) {
			t.Fatalf("%d ticks read back as %d", len(a), len(b))
		}
		for i := range a {
			if !a[i].T.Equal(b[i].T) || !reflect.DeepEqual(a[i].Snapshot, b[i].Snapshot) {
				t.Fatalf("tick %d read back as %+v, want %+v", i, b[i], a[i])
			}
		}
		var again bytes.Buffer
		if err := WriteTicks(&again, b); err != nil || !bytes.Equal(again.Bytes(), enc.Bytes()) {
			t.Fatalf("re-encoding changed the log (err=%v):\n%s\nvs\n%s", err, again.Bytes(), enc.Bytes())
		}
		if got := reportText(back); got != report {
			t.Fatalf("the report over the log read back:\n%s\nover the log read:\n%s", got, report)
		}
	})
}

// reportText is the crawl health report over s, under the crawl's
// default objectives, with its progress line.
func reportText(s *Store) string {
	var b strings.Builder
	r := BuildReport(s, CrawlSignals())
	r.WriteText(&b, 0)
	b.WriteString(r.ProgressLine())
	return b.String()
}
