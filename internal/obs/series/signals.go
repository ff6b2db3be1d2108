package series

import (
	"time"

	"gplus/internal/obs"
)

// Signal is one series a health report plots: the word the report
// prints for it, the selector that reads it, and the unit of a gauge's
// value (counters are always plotted per second).
type Signal struct {
	Title, Selector, Unit string
}

// Signals names, once per binary, the series its health is read from.
// BuildReport, the progress line, the stall rule and the dashboard all
// go through one of these values, so a renamed family breaks in one
// place (and metrics_hygiene_test.go notices).
type Signals struct {
	// Name heads the report ("crawl health"); Done is the verb of the
	// progress line's total ("crawled=").
	Name, Done string
	// Work counts completed units — profiles crawled, requests served:
	// the throughput curve and the report's total. SignalsFor picks the
	// set whose Work family is in the source.
	Work Signal
	// Activity is a counter that moves even while no unit completes (a
	// worker paging through a 10 000-entry circle list finishes no
	// profile for many ticks without being stuck), and Backlog the gauge
	// of queued work: StallAfter consecutive ticks of zero activity over
	// a non-empty backlog are a stall. Without a Backlog there is no
	// stall rule.
	Activity, Backlog Signal
	StallAfter        int
	// Also are further counters, plotted only.
	Also []Signal
	// Lag is a gauge of how far durable state trails the run.
	Lag Signal
	// Errors are the counter selectors summed into the error timeline.
	Errors []string
	// Objectives are replayed at every tick for violation spans.
	Objectives []Objective
}

const (
	apiResponses = "gplusapi_responses_total"
	apiTransport = "gplusapi_transport_errors_total"
	gplusdServed = "gplusd_requests_total"
	gplusdFaults = "gplusd_chaos_faults_total"
)

var apiOverloaded = obs.Series{Family: apiResponses, Labels: []obs.Label{{Key: obs.KeyCode, Value: "503"}}}.String()

// CrawlSignals is how a crawl's health is read.
func CrawlSignals() Signals {
	return Signals{
		Name: "crawl", Done: "crawled",
		Work:       Signal{Title: "profiles", Selector: "crawler_profiles_crawled_total"},
		Activity:   Signal{Title: "pages", Selector: "crawler_pages_fetched_total"},
		Backlog:    Signal{Title: "frontier", Selector: "crawler_frontier_depth"},
		StallAfter: 3,
		Also:       []Signal{{Title: "edges", Selector: "crawler_edges_observed_total"}},
		Lag:        Signal{Title: "journal_lag", Selector: "crawler_journal_flush_lag_seconds", Unit: "s"},
		Errors:     []string{apiOverloaded, apiTransport, "crawler_profile_errors_total", "crawler_circle_errors_total"},
		Objectives: DefaultCrawlObjectives(),
	}
}

// GplusdSignals is how the service simulator's health is read: requests
// served against injected faults.
func GplusdSignals() Signals {
	return Signals{
		Name: "gplusd", Done: "served",
		Work:       Signal{Title: "requests", Selector: gplusdServed},
		Errors:     []string{gplusdFaults},
		Objectives: DefaultGplusdObjectives(),
	}
}

// SignalsFor picks the set a store was recorded under: the first whose
// Work family has a series in it, the crawl's when none does.
func SignalsFor(s *Store) Signals {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, sig := range []Signals{CrawlSignals(), GplusdSignals()} {
		if len(s.selectNames(sig.Work.Selector)) > 0 {
			return sig
		}
	}
	return CrawlSignals()
}

// DefaultCrawlObjectives are the stock objectives of a crawl run, seen
// from the client side: API availability (503 responses and transport
// errors against all attempts — retries that eventually succeed still
// burn budget, which is what surfaces a flapping service) and API
// latency.
func DefaultCrawlObjectives() []Objective {
	return []Objective{
		{
			Name: "availability", Kind: ErrorRatio,
			Bad:    []string{apiOverloaded, apiTransport},
			Total:  []string{apiResponses, apiTransport},
			Max:    0.01,
			Window: time.Minute,
		},
		{
			Name: "api-latency", Kind: Latency,
			Hist: "gplusapi_request_seconds", Q: 0.99, Max: 1.0,
			Window: time.Minute,
		},
	}
}

// DefaultGplusdObjectives are the stock server-side objectives:
// injected chaos faults against requests served, and
// p99 request latency under 250ms.
func DefaultGplusdObjectives() []Objective {
	return []Objective{
		{
			Name: "availability", Kind: ErrorRatio,
			Bad:    []string{gplusdFaults},
			Total:  []string{gplusdServed},
			Max:    0.01,
			Window: time.Minute,
		},
		{
			Name: "latency", Kind: Latency,
			Hist: "gplusd_request_seconds", Q: 0.99, Max: 0.25,
			Window: time.Minute,
		},
	}
}
