package series

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gplus/internal/obs"
)

func handlerFixture(t *testing.T) *Collector {
	t.Helper()
	reg := obs.NewRegistry()
	ctr := reg.Counter("api_total", obs.Label{Key: obs.KeyCode, Value: "200"})
	reg.Gauge("depth")
	c := NewCollector(reg, Options{Capacity: 32})
	for i := 0; i < 5; i++ {
		ctr.Add(10)
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

func TestHandlerListing(t *testing.T) {
	h := Handler{C: handlerFixture(t)}
	rr := get(t, h, "/debug/timeseries")
	var listing struct {
		Interval string `json:"interval"`
		Samples  int64  `json:"samples"`
		Series   []struct {
			Name   string `json:"name"`
			Kind   Kind   `json:"kind"`
			Points int    `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &listing); err != nil {
		t.Fatalf("listing not JSON: %v\n%s", err, rr.Body.String())
	}
	if listing.Samples != 5 || len(listing.Series) != 2 {
		t.Errorf("listing: %+v", listing)
	}
}

func TestHandlerWindowQuery(t *testing.T) {
	h := Handler{C: handlerFixture(t)}
	rr := get(t, h, "/debug/timeseries?name=api_total")
	var windows []seriesWindow
	if err := json.Unmarshal(rr.Body.Bytes(), &windows); err != nil {
		t.Fatal(err)
	}
	if len(windows) != 1 || len(windows[0].Points) != 5 {
		t.Fatalf("window: %+v", windows)
	}
	// rate=1 derives per-interval rates: 10/s for each pair.
	rr = get(t, h, "/debug/timeseries?name=api_total&rate=1")
	windows = nil
	if err := json.Unmarshal(rr.Body.Bytes(), &windows); err != nil {
		t.Fatal(err)
	}
	if len(windows[0].Points) != 4 || windows[0].Points[0].V != 10 {
		t.Errorf("rate query: %+v", windows[0].Points)
	}
	// since=<duration> counts back from the newest tick, tick 4 of the
	// fixture's clock: ticks 3 and 4, and the baseline tick 2 before them.
	rr = get(t, h, "/debug/timeseries?name=api_total&since=1500ms")
	windows = nil
	if err := json.Unmarshal(rr.Body.Bytes(), &windows); err != nil {
		t.Fatal(err)
	}
	if pts := windows[0].Points; len(pts) != 3 || !pts[0].T.Equal(tick(2)) || pts[2].V != 50 {
		t.Errorf("since=1500ms: %+v, want the points at ticks 2..4", pts)
	}
	// An unknown name returns an empty array, not null.
	rr = get(t, h, "/debug/timeseries?name=nope")
	if strings.TrimSpace(rr.Body.String()) != "[]" {
		t.Errorf("unknown name: %q", rr.Body.String())
	}
	// A malformed since, or a selector that is not a series name, is a 400.
	for _, q := range []string{"name=api_total&since=wat", "name=api_total%7Bcode%3D200%7D"} {
		if rr = get(t, h, "/debug/timeseries?"+q); rr.Code != http.StatusBadRequest {
			t.Errorf("%s: code %d", q, rr.Code)
		}
	}
}

func TestHandlerJSONLDump(t *testing.T) {
	h := Handler{C: handlerFixture(t)}
	rr := get(t, h, "/debug/timeseries?format=jsonl")
	d, _, err := ReadTicks(rr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.names) != 2 {
		t.Errorf("dump names: %v", d.names)
	}
}
