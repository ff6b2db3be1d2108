package gplusd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gplus/internal/gplusapi"
	"gplus/internal/graph"
	"gplus/internal/obs"
	"gplus/internal/profile"
	"gplus/internal/synth"
)

var (
	serverUniverseOnce sync.Once
	serverUniverseVal  *synth.Universe
)

func serverUniverse(t *testing.T) *synth.Universe {
	t.Helper()
	serverUniverseOnce.Do(func() {
		cfg := synth.DefaultConfig(4_000)
		cfg.Seed = 99
		u, err := synth.Generate(cfg)
		if err != nil {
			panic(err)
		}
		serverUniverseVal = u
	})
	return serverUniverseVal
}

func startServer(t *testing.T, opts Options) (*Server, *gplusapi.Client) {
	t.Helper()
	srv := New(serverUniverse(t), opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, &gplusapi.Client{BaseURL: ts.URL, Transport: ts.Client().Transport, BackoffBase: time.Millisecond}
}

func TestServeProfile(t *testing.T) {
	u := serverUniverse(t)
	_, client := startServer(t, Options{})
	ctx := context.Background()

	got, err := client.FetchProfile(ctx, u.IDs[0])
	if err != nil {
		t.Fatalf("FetchProfile: %v", err)
	}
	if got.Name != u.Profiles[0].Name {
		t.Errorf("profile = %+v", got)
	}
	if got.DeclaredInDegree != u.Graph.InDegree(0) || got.DeclaredOutDegree != u.Graph.OutDegree(0) {
		t.Errorf("declared degrees %d/%d, want %d/%d",
			got.DeclaredInDegree, got.DeclaredOutDegree, u.Graph.InDegree(0), u.Graph.OutDegree(0))
	}
	if got.Public != u.Profiles[0].Public {
		t.Errorf("public set %v, want %v", got.Public, u.Profiles[0].Public)
	}
}

func TestServeProfileNotFound(t *testing.T) {
	_, client := startServer(t, Options{})
	_, err := client.FetchProfile(context.Background(), "does-not-exist")
	if !errors.Is(err, gplusapi.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// fetchAllCircle pages through a full circle list.
func fetchAllCircle(t *testing.T, client *gplusapi.Client, id string, dir gplusapi.CircleDir, limit int) []string {
	t.Helper()
	var ids []string
	token := ""
	for {
		page, err := client.FetchCircle(context.Background(), id, dir, token, limit)
		if err != nil {
			t.Fatalf("FetchCircle: %v", err)
		}
		ids = append(ids, page.IDs...)
		if page.NextPageToken == "" {
			return ids
		}
		token = page.NextPageToken
	}
}

func TestServeCirclesPagination(t *testing.T) {
	u := serverUniverse(t)
	_, client := startServer(t, Options{PageSize: 7})

	// Find a node with a decently sized out list.
	var node graph.NodeID
	for i := 0; i < u.NumUsers(); i++ {
		if u.Graph.OutDegree(graph.NodeID(i)) >= 20 {
			node = graph.NodeID(i)
			break
		}
	}
	ids := fetchAllCircle(t, client, u.IDs[node], gplusapi.CircleOut, 0)
	want := u.Graph.Out(node)
	if len(ids) != len(want) {
		t.Fatalf("got %d ids, want %d", len(ids), len(want))
	}
	for i, id := range ids {
		if id != u.IDs[want[i]] {
			t.Fatalf("id[%d] = %q, want %q", i, id, u.IDs[want[i]])
		}
	}

	inIDs := fetchAllCircle(t, client, u.IDs[node], gplusapi.CircleIn, 3)
	if len(inIDs) != u.Graph.InDegree(node) {
		t.Fatalf("in list %d, want %d", len(inIDs), u.Graph.InDegree(node))
	}
}

func TestCircleCapTruncatesSilently(t *testing.T) {
	u := serverUniverse(t)
	_, client := startServer(t, Options{CircleCap: 5})

	var node graph.NodeID
	for i := 0; i < u.NumUsers(); i++ {
		if u.Graph.OutDegree(graph.NodeID(i)) > 5 {
			node = graph.NodeID(i)
			break
		}
	}
	ids := fetchAllCircle(t, client, u.IDs[node], gplusapi.CircleOut, 0)
	if len(ids) != 5 {
		t.Fatalf("capped list has %d ids, want 5", len(ids))
	}
	// The profile page still declares the full count — the lost-edge
	// estimation signal of §2.2.
	p, err := client.FetchProfile(context.Background(), u.IDs[node])
	if err != nil {
		t.Fatal(err)
	}
	if p.DeclaredOutDegree != u.Graph.OutDegree(node) {
		t.Errorf("declared %d, want full %d", p.DeclaredOutDegree, u.Graph.OutDegree(node))
	}
}

func TestBadRequests(t *testing.T) {
	u := serverUniverse(t)
	srv := New(u, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []string{
		"/people/" + u.IDs[0] + "/circles/sideways",
		"/people/" + u.IDs[0] + "/circles/out?pageToken=-1",
		"/people/" + u.IDs[0] + "/circles/out?pageToken=notanumber",
		"/people/" + u.IDs[0] + "/circles/out?limit=0",
		"/people/" + u.IDs[0] + "/circles/out?limit=x",
	}
	for _, path := range cases {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s -> %d, want 400", path, resp.StatusCode)
		}
	}
}

// fetchStats reads the ground-truth summary the service serves on /stats.
func fetchStats(t *testing.T, baseURL string) gplusapi.StatsDoc {
	t.Helper()
	resp, err := http.Get(baseURL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc gplusapi.StatsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("GET /stats (%s): %v", resp.Status, err)
	}
	return doc
}

func TestStatsEndpoint(t *testing.T) {
	u := serverUniverse(t)
	_, client := startServer(t, Options{})
	stats := fetchStats(t, client.BaseURL)
	if stats.Users != u.NumUsers() || stats.Edges != u.Graph.NumEdges() {
		t.Errorf("stats = %+v", stats)
	}
}

func TestRateLimiting(t *testing.T) {
	u := serverUniverse(t)
	srv := New(u, Options{RatePerSecond: 5, BurstSize: 5})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(crawler string) int {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/people/"+u.IDs[0], nil)
		req.Header.Set("X-Crawler-Id", crawler)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Exhaust worker A's bucket.
	limited := false
	for i := 0; i < 20; i++ {
		if get("worker-a") == http.StatusTooManyRequests {
			limited = true
			break
		}
	}
	if !limited {
		t.Fatal("worker A was never rate limited")
	}
	// A different identity has its own bucket, like the paper's separate
	// crawl machines.
	if code := get("worker-b"); code != http.StatusOK {
		t.Fatalf("worker B got %d, want 200", code)
	}
	if srv.mRateLimit.Value() == 0 {
		t.Error("rate-limited counter not incremented")
	}
}

func TestClientRetriesRateLimit(t *testing.T) {
	u := serverUniverse(t)
	srv, client := startServer(t, Options{RatePerSecond: 30, BurstSize: 2})
	client.CrawlerID = "retry-worker"
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Many sequential fetches: the client must absorb 429s via backoff.
	for i := 0; i < 12; i++ {
		if _, err := client.FetchProfile(ctx, u.IDs[i]); err != nil {
			t.Fatalf("fetch %d failed despite retries: %v", i, err)
		}
	}
	if srv.mRateLimit.Value() == 0 {
		t.Error("the server answered no 429; the client had no rate limit to absorb")
	}
}

func TestFaultInjectionAndRecovery(t *testing.T) {
	u := serverUniverse(t)
	srv, client := startServer(t, Options{Faults: &FaultSpec{Seed: 7, Rules: []FaultRule{{Kind: FaultUnavailable, Rate: 0.3}}}})
	client.CrawlerID = "fault-worker"
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		if _, err := client.FetchProfile(ctx, u.IDs[i]); err != nil {
			t.Fatalf("fetch %d failed despite retries: %v", i, err)
		}
	}
	if srv.metrics.Counter("gplusd_chaos_faults_total", obs.Label{Key: obs.KeyChaos, Value: string(FaultUnavailable)}).Value() == 0 {
		t.Error("no faults were injected at rate 0.3")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	u := serverUniverse(t)
	srv := New(u, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Generate some traffic first.
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/people/" + u.IDs[i])
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// Default exposition is Prometheus text, with request and rate-limit
	// counters present (registered eagerly, even at zero).
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want Prometheus text", ct)
	}
	text := string(body)
	for _, want := range []string{
		`gplusd_requests_total{endpoint="profile"} 3`,
		"gplusd_rate_limited_total 0",
		"# TYPE gplusd_request_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	if srv.metrics.Gauge("gplusd_in_flight_requests").Value() != 0 {
		t.Error("in-flight gauge nonzero at rest")
	}
}

func TestMetricsBypassesFaultsAndRateLimit(t *testing.T) {
	u := serverUniverse(t)
	srv := New(u, Options{
		Faults:        &FaultSpec{Rules: []FaultRule{{Kind: FaultUnavailable, Rate: 1}}},
		RatePerSecond: 0.0001, BurstSize: 0.0001,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Regular traffic is fully refused (the empty bucket answers 429
	// before the chaos suite gets to answer 503)...
	resp, err := http.Get(ts.URL + "/people/" + u.IDs[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("refused request status = %d", resp.StatusCode)
	}
	// ...but the monitoring endpoint keeps answering.
	for i := 0; i < 5; i++ {
		resp, err = http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics status = %d under faults", resp.StatusCode)
		}
	}
}

func TestServerString(t *testing.T) {
	srv := New(serverUniverse(t), Options{})
	if s := srv.String(); s == "" {
		t.Error("empty String()")
	}
}

// TestResponsesMatchEncodingJSON pins the two hot responses to the bytes
// json.Encoder produced before the wire codec rendered them: a profile
// with a place (its document as gplusapi.AppendProfile writes it, which
// gplusapi's FuzzWireCodec holds to json.Marshal), and circle pages
// first, last, empty and limited, headers included.
func TestResponsesMatchEncodingJSON(t *testing.T) {
	u := serverUniverse(t)
	withPlace := -1
	for i := range u.Profiles {
		if u.Profiles[i].HasLocation() {
			withPlace = i
			break
		}
	}
	if withPlace < 0 {
		t.Fatal("universe has no located profile")
	}
	hub := graph.TopByInDegree(u.Graph, 1, 1)[0]
	lonely := -1
	for i := range u.IDs {
		if u.Graph.OutDegree(graph.NodeID(i)) == 0 {
			lonely = i
			break
		}
	}
	encode := func(v any) string {
		var b strings.Builder
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	page := func(adj []graph.NodeID, from, to int) *gplusapi.CirclePage {
		p := &gplusapi.CirclePage{IDs: []string{}}
		for _, v := range adj[from:to] {
			p.IDs = append(p.IDs, u.IDs[v])
		}
		if to < len(adj) {
			p.NextPageToken = strconv.Itoa(to)
		}
		return p
	}
	srv := New(u, Options{PageSize: 25})
	doc, err := gplusapi.AppendProfile(nil, u.IDs[withPlace], &u.Profiles[withPlace])
	if err != nil {
		t.Fatal(err)
	}
	in := u.Graph.In(hub)
	want := map[string]string{
		"/people/" + u.IDs[withPlace]:                                            string(doc) + "\n",
		"/people/" + u.IDs[hub] + "/circles/in":                                  encode(page(in, 0, 25)),
		"/people/" + u.IDs[hub] + "/circles/in?limit=7":                          encode(page(in, 0, 7)),
		"/people/" + u.IDs[hub] + "/circles/in?pageToken=25":                     encode(page(in, 25, 50)),
		fmt.Sprintf("/people/%s/circles/in?pageToken=%d", u.IDs[hub], len(in)-3): encode(page(in, len(in)-3, len(in))),
		fmt.Sprintf("/people/%s/circles/in?pageToken=%d", u.IDs[hub], len(in)):   encode(page(in, len(in), len(in))),
	}
	if lonely >= 0 {
		want["/people/"+u.IDs[lonely]+"/circles/out"] = `{"ids":[]}` + "\n"
	}
	for path, body := range want {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: status %d, content type %q", path, rec.Code, rec.Header().Get("Content-Type"))
		}
		if got := rec.Body.String(); got != body {
			t.Errorf("%s:\n got %q\nwant %q", path, got, body)
		}
	}

	// The journal's fixed point: every profile body, decoded to the
	// model and rendered back as the crawler journals it, is the body.
	for _, id := range u.IDs {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/people/"+id, nil))
		body := rec.Body.Bytes()
		var (
			docID string
			p     profile.Profile
		)
		if err := gplusapi.DecodeProfile(body, &docID, &p, nil); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if again, err := gplusapi.AppendProfile(nil, docID, &p); err != nil || string(again)+"\n" != string(body) {
			t.Fatalf("%s: body %q re-renders as %q (%v)", id, body, again, err)
		}
	}
}
