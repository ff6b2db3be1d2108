package obs

import (
	"fmt"
	"strings"
)

// Label is one key/value pair of a series identity. Keys come from the
// constants below; values are arbitrary strings, escaped once, when the
// registry builds the series name.
type Label struct{ Key, Value string }

// The label vocabulary: every key a metric series, a pprof label set or
// a span attribute of this module carries is one of these, with one
// meaning each, so the three signals of a run directory join on them.
// This file is the only place the keys are spelled (hygiene_test.go and
// TestMetricsHygiene gate it).
const (
	KeyEndpoint = "endpoint" // API endpoint of a request: the Endpoint* values
	KeyCode     = "code"     // HTTP status code of a response
	KeyPhase    = "phase"    // crawl pipeline phase burning the CPU: the Phase* values
	KeyWorker   = "worker"   // crawl worker ("machine-NN"), also its X-Crawler-Id
	KeyChaos    = "chaos"    // gplusd fault acting on a request: a FaultKind, or ChaosNone
	KeyKind     = "kind"     // record kind of a journal line / profile kind of a capture
	KeyRule     = "rule"     // exemplar rule(s) a retained trace tripped
	KeyTrigger  = "trigger"  // what fired a profile capture: interval, stall, slo-page:<name>, …
	KeyLE       = "le"       // histogram bucket upper bound (exposition only)
)

// Endpoint values, spelled as the wire spells them; "api."+v and
// "server."+v are the client and server span names of a request.
// EndpointOther is the server's one name for any other path, so a
// client-chosen path never becomes a label value or a span name.
const (
	EndpointProfile = "profile"
	EndpointCircles = "circles"
	EndpointStats   = "stats"
	EndpointSeed    = "seed"
	EndpointOther   = "other"
)

// Phase values; the two fetch phases are also the names of their spans.
const (
	PhaseFetchProfile = "fetch.profile"
	PhaseCirclePage   = "circle.page"
	PhaseJournal      = "journal"
	PhaseObsprof      = "obsprof"
)

// ChaosNone is the KeyChaos value of a request served with no fault
// regime active.
const ChaosNone = "none"

// Series is a series identity as data: a metric family and its labels
// in registration order. Its String is the canonical name — the map key
// of a Snapshot, the sample name of the exposition, the series name of
// a series.jsonl — and ParseSeries is the inverse.
type Series struct {
	Family string
	Labels []Label
}

// String renders the canonical name: family{k="v",…} with backslash,
// double quote and newline escaped in values, or the bare family.
func (s Series) String() string { return string(appendSeries(nil, s.Family, s.Labels)) }

func appendSeries(dst []byte, family string, labels []Label) []byte {
	dst = append(dst, family...)
	sep := byte('{')
	for _, l := range labels {
		dst = append(dst, sep)
		sep = ','
		dst = append(dst, l.Key...)
		dst = append(dst, '=', '"')
		for j := 0; j < len(l.Value); j++ {
			switch c := l.Value[j]; c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\n':
				dst = append(dst, '\\', 'n')
			default:
				dst = append(dst, c)
			}
		}
		dst = append(dst, '"')
	}
	if len(labels) > 0 {
		dst = append(dst, '}')
	}
	return dst
}

// validName reports whether s matches the Prometheus name grammar
// [a-zA-Z_][a-zA-Z0-9_]*, with ':' also allowed in a metric family.
func validName(s string, family bool) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || i > 0 && '0' <= c && c <= '9' || family && c == ':') {
			return false
		}
	}
	return s != ""
}

// ParseSeries is the inverse of Series.String and the only code that
// reads a series name back. It is strict by construction: whatever it
// decodes must render back to name byte for byte, so spaces, empty
// braces, stray text, raw newlines and escapes other than \\, \" and \n
// are all rejected. Selectors arriving from outside (-slo,
// /debug/timeseries) go through it too: a selector is a Series whose
// labels are the subset a matching series must carry.
func ParseSeries(name string) (Series, error) {
	family, body, labeled := strings.Cut(name, "{")
	s := Series{Family: family}
	ok := validName(family, true)
	for ok && labeled && body != "}" {
		var key string
		key, body, ok = strings.Cut(body, `="`)
		end := 0
		for end < len(body) && body[end] != '"' {
			if body[end] == '\\' {
				end++
			}
			end++
		}
		if ok = ok && validName(key, false) && end < len(body); ok {
			s.Labels = append(s.Labels, Label{key, unescaper.Replace(body[:end])})
			body = strings.TrimPrefix(body[end+1:], ",")
		}
	}
	if !ok || s.String() != name {
		return Series{}, fmt.Errorf(`obs: %q is not a series name (family{key="value",…}, values escaped)`, name)
	}
	return s, nil
}

var unescaper = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
