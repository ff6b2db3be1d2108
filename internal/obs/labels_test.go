package obs

import (
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// nameGrammar is the text-format grammar of a series name, written
// independently of ParseSeries: a metric name and an optional brace
// list of key="value" pairs whose values hold no raw quote, backslash
// or newline outside the three escapes. A sample line is a name, a
// space and a number.
const nameGrammar = `[a-zA-Z_:][a-zA-Z0-9_:]*` +
	`(\{[a-zA-Z_][a-zA-Z0-9_]*="([^"\\\n]|\\\\|\\"|\\n)*"(,[a-zA-Z_][a-zA-Z0-9_]*="([^"\\\n]|\\\\|\\"|\\n)*")*\})?`

var (
	seriesNameRe = regexp.MustCompile(`^` + nameGrammar + `$`)
	sampleLineRe = regexp.MustCompile(`^` + nameGrammar + ` (-?[0-9][0-9.e+-]*|NaN|[+-]Inf)$`)
)

func TestParseSeriesIsStrict(t *testing.T) {
	for _, name := range []string{
		"", "9lives", "a-b", "fam{", "fam{}", "fam{}x", `fam{k="v"`, `fam{k="v"}x`, `fam{k="v",}`,
		"fam{novalue}", `fam{k=unquoted}`, `fam{="x"}`, `fam{k="unterminated}`, `fam{k="v\"}`,
		`fam{k="a", j="b"}`, `fam{ k="a"}`, `fam{k="\t"}`, "fam{k=\"a\nb\"}", `fam{k:x="a"}`, `fam{k="a"}{j="b"}`,
	} {
		if s, err := ParseSeries(name); err == nil {
			t.Errorf("ParseSeries(%q) = %+v, want an error", name, s)
		}
	}
	got, err := ParseSeries(`ns:fam{a="1",b="x\\y\"z\nw",c=""}`)
	want := Series{"ns:fam", []Label{{"a", "1"}, {"b", "x\\y\"z\nw"}, {"c", ""}}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("ParseSeries = %+v, %v; want %+v", got, err, want)
	}
}

// FuzzSeriesName: ParseSeries accepts exactly the names of the grammar
// and renders them back unchanged; for any valid family and keys and
// arbitrary values the
// canonical name parses back to the same Series, the registry stores
// the series under exactly that name, and every exposition line it
// produces — counter and histogram expansion — is well-formed.
func FuzzSeriesName(f *testing.F) {
	f.Add("requests_total", "endpoint", "profile", "code", "200")
	f.Add("a:b", "k", `x,y="z"`, "_k2", "line\nbreak\\")
	f.Add("f", "k", "slo-page:a\"b", "j", "ünï,cødé}{")
	f.Add("f{", "k", `f{a="b"}`, "j", `f{a="b",}`)
	f.Fuzz(func(t *testing.T, family, k1, v1, k2, v2 string) {
		want := Series{family, []Label{{k1, v1}, {k2, v2}}}
		name := want.String()
		got, err := ParseSeries(name)
		for _, raw := range []string{name, v1, v2} {
			if s, err := ParseSeries(raw); (err == nil) != seriesNameRe.MatchString(raw) || err == nil && s.String() != raw {
				t.Fatalf("ParseSeries(%q) = %+v, %v; the grammar says %v", raw, s, err, seriesNameRe.MatchString(raw))
			}
		}
		if !validName(family, true) || !validName(k1, false) || !validName(k2, false) {
			return // the registry panics on these; TestRegistryRejectsInvalidNames
		}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseSeries(%q) = %+v, %v; want %+v", name, got, err, want)
		}
		reg := NewRegistry()
		reg.Counter(family, want.Labels...).Inc()
		reg.Histogram(family+"_h", []float64{1}, want.Labels...).Observe(0.5)
		if _, ok := reg.Snapshot().Counters[name]; !ok {
			t.Fatalf("registry did not store %q", name)
		}
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
			if !strings.HasPrefix(line, "# ") && !sampleLineRe.MatchString(line) {
				t.Fatalf("exposition line %q violates the text-format grammar", line)
			}
		}
	})
}

func TestRegistryRejectsInvalidNames(t *testing.T) {
	reg := NewRegistry()
	for name, register := range map[string]func(){
		"braced family": func() { reg.Counter(`requests_total{endpoint="profile"}`) },
		"empty family":  func() { reg.Gauge("") },
		"bad label key": func() { reg.Histogram("h", nil, Label{"a b", "v"}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: registration did not panic", name)
				}
			}()
			register()
		}()
	}
}

// TestCounterLookupAllocs bounds the per-request cost of a typed lookup
// by the string concatenation it replaced: gplusapi looks its
// two-label response counter up on every request.
func TestCounterLookupAllocs(t *testing.T) {
	reg := NewRegistry()
	op, code := EndpointCircles, 503
	typed := testing.AllocsPerRun(200, func() {
		reg.Counter("gplusapi_responses_total", Label{KeyEndpoint, op}, Label{KeyCode, strconv.Itoa(code)}).Inc()
	})
	var sink string
	concat := testing.AllocsPerRun(200, func() {
		sink = `gplusapi_responses_total{endpoint="` + op + `",code="` + strconv.Itoa(code) + `"}`
	})
	_ = sink
	t.Logf("typed lookup %.0f allocs/op, concatenation %.0f allocs/op", typed, concat)
	if typed > concat {
		t.Errorf("typed two-label lookup allocates %.0f/op, the concatenation it replaces %.0f/op", typed, concat)
	}
}
