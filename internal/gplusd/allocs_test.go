package gplusd

import (
	"context"
	"net/http/httptest"
	"testing"

	"gplus/internal/gplusapi"
)

// maxAllocsPerFetch bounds what one crawl fetch allocates, client and
// server together: building the request, the transport's round trip on
// both ends of the loopback, routing, rendering and decoding.
const maxAllocsPerFetch = 100

// TestFetchAllocs holds a fetch to the per-request budget: one profile
// fetch plus one circle page against an in-process gplusd, counted by
// testing.AllocsPerRun. Client and server share the process, so both
// sides of the wire count.
func TestFetchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation drops sync.Pool entries at random")
	}
	u := serverUniverse(t)
	ts := httptest.NewServer(New(u, Options{}))
	t.Cleanup(ts.Close)
	// A bare client, as a crawl worker's is apart from its resilience
	// machinery: the default transport and deadline, and an identity.
	client := &gplusapi.Client{BaseURL: ts.URL, CrawlerID: "machine-00"}
	ctx := context.Background()
	id := u.IDs[0]
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		if _, err = client.FetchProfile(ctx, id); err != nil {
			return
		}
		_, err = client.FetchCircle(ctx, id, gplusapi.CircleOut, "", 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if perFetch := allocs / 2; perFetch > maxAllocsPerFetch {
		t.Errorf("%.1f allocations per fetch, want at most %d", perFetch, maxAllocsPerFetch)
	} else {
		t.Logf("%.1f allocations per fetch", perFetch)
	}
}
