package crawler

import (
	"fmt"

	"gplus/internal/obs"
)

// telemetry holds the crawl's live counters — all the crawler does
// about its own health is export them; rates, progress lines and the
// stall rule are derived from their recorded series (package series).
// All handles come from one obs.Registry; when the crawl runs without
// metrics the registry is nil, every handle is nil, and each update is a
// single pointer check — the zero-cost-when-off path the benchmarks rely
// on.
type telemetry struct {
	profiles   *obs.Counter // profiles successfully crawled
	pages      *obs.Counter // circle pages fetched
	edges      *obs.Counter // edge observations
	profErrs   *obs.Counter // permanent profile-fetch failures
	circErrs   *obs.Counter // permanent circle-fetch failures
	torn       *obs.Counter // torn journal records dropped on resume load
	requeues   *obs.Counter // overloaded ids returned to the frontier
	frontier   *obs.Gauge   // queued-but-unclaimed ids
	discovered *obs.Gauge   // all ids ever seen
	workers    []*obs.Counter
}

// newTelemetry registers the crawler series. reg may be nil.
func newTelemetry(reg *obs.Registry, nWorkers int) *telemetry {
	t := &telemetry{
		profiles:   reg.Counter("crawler_profiles_crawled_total"),
		pages:      reg.Counter("crawler_pages_fetched_total"),
		edges:      reg.Counter("crawler_edges_observed_total"),
		profErrs:   reg.Counter("crawler_profile_errors_total"),
		circErrs:   reg.Counter("crawler_circle_errors_total"),
		torn:       reg.Counter("crawler_journal_torn_records_total"),
		requeues:   reg.Counter("crawler_requeues_total"),
		frontier:   reg.Gauge("crawler_frontier_depth"),
		discovered: reg.Gauge("crawler_discovered_users"),
		workers:    make([]*obs.Counter, nWorkers),
	}
	reg.Help("crawler_profiles_crawled_total", "Profiles fetched successfully.")
	reg.Help("crawler_pages_fetched_total", "Circle pages fetched.")
	reg.Help("crawler_edges_observed_total", "Edge observations collected from circle pages.")
	reg.Help("crawler_profile_errors_total", "Permanent profile-fetch failures.")
	reg.Help("crawler_circle_errors_total", "Permanent circle-page-fetch failures.")
	reg.Help("crawler_journal_torn_records_total", "Torn journal records dropped when loading resume state.")
	reg.Help("crawler_requeues_total", "Overloaded ids returned to the frontier for a later retry.")
	reg.Help("crawler_frontier_depth", "Ids queued for crawling but not yet claimed.")
	reg.Help("crawler_discovered_users", "All user ids ever seen, crawled or not.")
	reg.Help("crawler_worker_profiles_total", "Profiles fetched per crawl machine.")
	for i := range t.workers {
		t.workers[i] = reg.Counter("crawler_worker_profiles_total", obs.Label{Key: obs.KeyWorker, Value: workerName(i)})
	}
	return t
}

// workerName is worker i's identity everywhere it shows: the KeyWorker
// value of its series, pprof samples and trace roots, and the
// X-Crawler-Id gplusd rate-limits it under.
func workerName(i int) string { return fmt.Sprintf("machine-%02d", i) }
