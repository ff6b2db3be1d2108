package series

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"

	"gplus/internal/obs"
)

// handlerFixture samples six ticks: a counter and a gauge present from
// the first, and a labelled counter born at the fourth.
func handlerFixture(t *testing.T) *Collector {
	t.Helper()
	reg := obs.NewRegistry()
	ctr := reg.Counter("api_total", obs.Label{Key: obs.KeyCode, Value: "200"})
	reg.Gauge("depth").Set(4)
	c := NewCollector(reg, Options{Capacity: 32})
	for i := 0; i < 6; i++ {
		ctr.Add(10)
		if i >= 3 {
			reg.Counter("late_total", obs.Label{Key: obs.KeyCode, Value: "503"}).Add(int64(7 * i))
		}
		c.Sample(tick(i))
	}
	return c
}

func get(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
	return rr
}

// TestHandlerJSONLDump: the body is the retained ticks exactly as
// WriteTicks writes them to series.jsonl.
func TestHandlerJSONLDump(t *testing.T) {
	c := handlerFixture(t)
	rr := get(t, Handler{C: c}, "/debug/timeseries")
	var want bytes.Buffer
	if err := WriteTicks(&want, c.Ticks()); err != nil {
		t.Fatal(err)
	}
	if rr.Code != http.StatusOK || rr.Header().Get("Content-Type") != "application/jsonl" || !bytes.Equal(rr.Body.Bytes(), want.Bytes()) {
		t.Errorf("GET /debug/timeseries = %d %q:\n%s\nwant the tick log:\n%s", rr.Code, rr.Header().Get("Content-Type"), rr.Body, &want)
	}
}

// TestHandlerNameFilter: ?name= keeps every tick and cuts each to the
// selected series, so a counter born mid-run increases by as much in the
// filtered dump as in the whole store. An unknown name keeps the ticks
// and no series; a selector that is not a series name is a 400.
func TestHandlerNameFilter(t *testing.T) {
	c := handlerFixture(t)
	h := Handler{C: c}
	full := c.Ticks()
	rr := get(t, h, "/debug/timeseries?name=late_total&name=depth")
	d, _, err := ReadTicks(rr.Body)
	if err != nil {
		t.Fatal(err)
	}
	late := `late_total{code="503"}`
	if len(d.ticks) != len(full) || !slices.Equal(d.names, []string{"depth", late}) {
		t.Fatalf("?name= dump holds %d ticks of %v, want %d ticks of [depth %s]", len(d.ticks), d.names, len(full), late)
	}
	if got, want := increase(d.ticks, late, KindCounter), increase(full, late, KindCounter); got != want || want != 7*(3+4+5) {
		t.Errorf("%s increases by %g in the ?name= dump, %g in the store; want both 84", late, got, want)
	}
	for i := 1; i < len(full); i++ {
		got, _ := perSecond(d.ticks, i, late, KindCounter)
		want, _ := perSecond(full, i, late, KindCounter)
		if got != want {
			t.Errorf("tick %d: rate %g in the ?name= dump, %g in the store", i, got, want)
		}
	}

	rr = get(t, h, "/debug/timeseries?name=nope")
	if d, _, err := ReadTicks(rr.Body); err != nil || len(d.ticks) != len(full) || len(d.names) != 0 {
		t.Errorf("unknown name: %v, want %d ticks and no series", err, len(full))
	}
	if rr = get(t, h, "/debug/timeseries?name="+url.QueryEscape("api_total{code=200}")); rr.Code != http.StatusBadRequest {
		t.Errorf("a selector that is not a series name: code %d, want 400", rr.Code)
	}
}
