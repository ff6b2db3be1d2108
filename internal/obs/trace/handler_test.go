package trace

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
)

func serve(r *Recorder, target string) string {
	rr := httptest.NewRecorder()
	r.ServeHTTP(rr, httptest.NewRequest("GET", target, nil))
	return rr.Body.String()
}

// TestDebugTracesHandler: the live text view is the report
// `gplusanalyze traces` prints offline, byte for byte, and the JSONL
// view reads back through ReadTraces as the traces retained.
func TestDebugTracesHandler(t *testing.T) {
	rec := NewRecorder(8, Rules{Errors: true})
	tr := New(Config{Recorder: rec})
	ctx, root := tr.StartSpan(context.Background(), "crawl.profile")
	_, child := tr.StartSpan(ctx, "fetch.profile")
	child.Fail("boom")
	child.Finish()
	root.Finish()
	_, ok := tr.StartSpan(context.Background(), "crawl.profile")
	ok.Finish()

	report := serve(rec, "/debug/traces")
	var offline strings.Builder
	if err := Analyze(rec.Traces(), 10).WriteText(&offline); err != nil {
		t.Fatal(err)
	}
	if report != offline.String() {
		t.Errorf("live report differs from the offline one:\n%s\n--- offline:\n%s", report, offline.String())
	}
	for _, want := range []string{"trace dump: 2 traces", "exemplar rules tripped: error=1", "critical-path breakdown", "fetch.profile", "ERROR: boom"} {
		if !strings.Contains(report, want) {
			t.Errorf("text view lacks %q:\n%s", want, report)
		}
	}

	got, torn, err := ReadTraces(strings.NewReader(serve(rec, "/debug/traces?format=jsonl")))
	if err != nil || torn != 0 || len(got) != 2 {
		t.Fatalf("jsonl view read back %d traces (torn=%d, err=%v), want 2", len(got), torn, err)
	}
	if got[0].TraceID != root.TraceID || len(got[0].Spans) != 2 || got[0].Exemplar != "error" || got[1].TraceID != ok.TraceID {
		t.Errorf("jsonl view mangled the traces: %+v %+v", got[0], got[1])
	}

	if body := serve(nil, "/debug/traces"); body != "tracing disabled\n" {
		t.Errorf("nil recorder serves %q", body)
	}
}
