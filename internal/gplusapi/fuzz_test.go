package gplusapi

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"gplus/internal/profile"
)

// FuzzToProfile checks the wire-to-model conversion on arbitrary field
// codes and labels: a document carrying them, as encoding/json writes
// it, either is rejected or decodes to a profile the encoder writes as
// the same bytes. A known field code listed with its own known value is
// accepted.
func FuzzToProfile(f *testing.F) {
	f.Add("name", "Male", "Single", "IT")
	f.Add("", "", "", "")
	f.Add("work_contact", "Blorp", "Whatever", "zz")
	f.Fuzz(func(t *testing.T, field, gender, rel, occ string) {
		// The codec reads only valid UTF-8 back: json.Marshal's \ufffd
		// for an invalid byte would not re-encode to itself.
		valid := func(s string) string { return strings.ToValidUTF8(s, "\ufffd") }
		doc := profileDoc{
			ID:           "1x",
			Name:         "n",
			Fields:       []string{valid(field)},
			Gender:       valid(gender),
			Relationship: valid(rel),
			Occupation:   valid(occ),
		}
		decode := func(doc *profileDoc) error {
			t.Helper()
			data, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			var (
				id string
				p  profile.Profile
			)
			if err := DecodeProfile(data, &id, &p, nil); err != nil {
				return err
			}
			if p.Public.Count() > 1 {
				t.Fatalf("one field code produced %d public attrs", p.Public.Count())
			}
			_ = p.IsTelUser()
			if back, err := AppendProfile(nil, id, &p); err != nil || !bytes.Equal(back, data) {
				t.Fatalf("%s decodes to %+v, which re-encodes as %s (%v)", data, p, back, err)
			}
			return nil
		}
		_ = decode(&doc) // it may reject the document, but what it accepts must round-trip

		// The field alone, listed with the one value of its own kind.
		a, ok := profile.AttrFromWireCode(doc.Fields[0])
		single := profileDoc{ID: doc.ID, Name: doc.Name, Fields: doc.Fields}
		switch {
		case !ok:
			return
		case a == profile.AttrGender:
			single.Gender = doc.Gender
			ok = profile.ParseGender(doc.Gender) != profile.GenderUnknown
		case a == profile.AttrRelationship:
			single.Relationship = doc.Relationship
			ok = profile.ParseRelationship(doc.Relationship) != profile.RelUnknown
		case a == profile.AttrOccupation:
			single.Occupation = doc.Occupation
			ok = profile.ParseOccupation(doc.Occupation).Code() == doc.Occupation
		case a == profile.AttrPlacesLived:
			single.Place = &placeDoc{}
		}
		if err := decode(&single); ok && err != nil {
			t.Fatalf("a known field with its own known value is rejected: %v", err)
		}
	})
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// FuzzRequestURL checks the requests the client builds field by field,
// without parsing, against http.NewRequest of one concatenated string:
// BaseURL, the escaped path, and the query url.Values.Encode would
// write. Both must name the same URL, request line and Host. The
// BaseURL carries an arbitrary path prefix, written as it goes on the
// wire.
func FuzzRequestURL(f *testing.F) {
	f.Add("", "u123", "", 0)
	f.Add("/api/v1", "a b/c;d,e?f#g%", "25", 10)
	f.Add("/a%2Fb/", "é", "a b&c=d/é", -3)
	f.Add("/%41", "x/y", "", 1)
	f.Fuzz(func(t *testing.T, prefix, id, token string, limit int) {
		base := "http://127.0.0.1:8041" + prefix
		if bu, err := url.Parse(base); err != nil || bu.EscapedPath() != prefix ||
			bu.RawQuery != "" || bu.ForceQuery || bu.Fragment != "" {
			t.Skip("prefix is not a path as written on the wire")
		}
		var got *http.Request
		c := &Client{BaseURL: base, Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			got = r
			return &http.Response{StatusCode: http.StatusNotFound, Body: http.NoBody}, nil
		})}
		query := ""
		sep := "?"
		if limit > 0 {
			query += sep + "limit=" + strconv.Itoa(limit)
			sep = "&"
		}
		if token != "" {
			query += sep + "pageToken=" + url.QueryEscape(token)
		}
		ctx := context.Background()
		for _, tc := range []struct {
			path  string
			fetch func() error
		}{
			{"/people/" + url.PathEscape(id), func() error { _, err := c.FetchProfile(ctx, id); return err }},
			{"/people/" + url.PathEscape(id) + "/circles/in" + query, func() error {
				_, err := c.FetchCircle(ctx, id, CircleIn, token, limit)
				return err
			}},
			{"/seed", func() error { _, err := c.FetchSeed(ctx); return err }},
		} {
			want, err := http.NewRequest(http.MethodGet, base+tc.path, nil)
			if err != nil {
				t.Fatalf("http.NewRequest(%q): %v", base+tc.path, err)
			}
			got = nil
			if err := tc.fetch(); err != ErrNotFound || got == nil {
				t.Fatalf("%s: fetch = %v, want the stub's 404", tc.path, err)
			}
			if got.URL.String() != want.URL.String() || got.URL.RequestURI() != want.URL.RequestURI() || got.Host != want.Host {
				t.Fatalf("%s:\nbuilt   %q %q host %q\nparsed  %q %q host %q", base+tc.path,
					got.URL.String(), got.URL.RequestURI(), got.Host,
					want.URL.String(), want.URL.RequestURI(), want.Host)
			}
		}
	})
}
