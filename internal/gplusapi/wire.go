package gplusapi

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"gplus/internal/geo"
	"gplus/internal/profile"
)

// The wire codec: hand-written encoders and decoders for the two
// documents every stage of the pipeline moves — ProfileDoc and
// CirclePage — in place of reflection-driven encoding/json.
//
// The contract is agreement with encoding/json on every input:
//
//   - AppendProfileDoc and AppendCirclePage emit byte for byte what
//     json.Marshal emits (HTML and U+2028/9 escaping, invalid UTF-8 as
//     \ufffd, ES6 float formatting, omitempty, nil slice as null), and
//     fail where it fails (a NaN or infinite coordinate).
//   - DecodeProfileDoc and DecodeCirclePage accept exactly the inputs
//     json.Unmarshal accepts into a zero document and produce a
//     reflect.DeepEqual value: case-folded key matching, duplicate keys
//     merging the way reflection merges them, null as a no-op on
//     scalars, unknown members skipped but still syntax-checked, the
//     10 000-level nesting limit, strings coerced to valid UTF-8.
//   - DecodeProfile yields what DecodeProfileDoc followed by ToProfile
//     yields, without building the document.
//
// On a rejected input the destination is left in an unspecified state.
// FuzzWireCodec holds all three against encoding/json as the oracle.

// Member names of the documents, in encoding order. The decoders
// dispatch on the index, the encoders spell keys through the same
// tables, so a name exists once.
const (
	kID = iota
	kName
	kFields
	kGender
	kRelationship
	kPlacesLived
	kPlace
	kOccupation
	kInCircleCount
	kOutCircleCount
)

var profileKeys = [...]string{
	kID: "id", kName: "name", kFields: "fields", kGender: "gender",
	kRelationship: "relationship", kPlacesLived: "placesLived", kPlace: "place",
	kOccupation: "occupation", kInCircleCount: "inCircleCount", kOutCircleCount: "outCircleCount",
}

const (
	kPlaceName = iota
	kLat
	kLon
	kCountry
)

var placeKeys = [...]string{kPlaceName: "name", kLat: "lat", kLon: "lon", kCountry: "country"}

const (
	kIDs = iota
	kNextPageToken
)

var pageKeys = [...]string{kIDs: "ids", kNextPageToken: "nextPageToken"}

// ---- encoding ----

// AppendProfileDoc appends the JSON encoding of d to dst: the bytes
// json.Marshal(d) returns. It fails, as json.Marshal does, only on a
// place coordinate that is NaN or infinite.
func AppendProfileDoc(dst []byte, d *ProfileDoc) ([]byte, error) {
	dst = appendString(appendKey(dst, '{', profileKeys[kID]), d.ID)
	dst = appendString(appendKey(dst, ',', profileKeys[kName]), d.Name)
	dst = appendStrings(appendKey(dst, ',', profileKeys[kFields]), d.Fields)
	if d.Gender != "" {
		dst = appendString(appendKey(dst, ',', profileKeys[kGender]), d.Gender)
	}
	if d.Relationship != "" {
		dst = appendString(appendKey(dst, ',', profileKeys[kRelationship]), d.Relationship)
	}
	if len(d.PlacesLived) > 0 {
		dst = appendStrings(appendKey(dst, ',', profileKeys[kPlacesLived]), d.PlacesLived)
	}
	if p := d.Place; p != nil {
		if !finite(p.Lat) || !finite(p.Lon) {
			return dst, fmt.Errorf("gplusapi: place of %q has an unencodable coordinate (%v, %v)", d.ID, p.Lat, p.Lon)
		}
		dst = appendKey(dst, ',', profileKeys[kPlace])
		dst = appendString(appendKey(dst, '{', placeKeys[kPlaceName]), p.Name)
		dst = appendFloat(appendKey(dst, ',', placeKeys[kLat]), p.Lat)
		dst = appendFloat(appendKey(dst, ',', placeKeys[kLon]), p.Lon)
		if p.Country != "" {
			dst = appendString(appendKey(dst, ',', placeKeys[kCountry]), p.Country)
		}
		dst = append(dst, '}')
	}
	if d.Occupation != "" {
		dst = appendString(appendKey(dst, ',', profileKeys[kOccupation]), d.Occupation)
	}
	dst = strconv.AppendInt(appendKey(dst, ',', profileKeys[kInCircleCount]), int64(d.InCircleCount), 10)
	dst = strconv.AppendInt(appendKey(dst, ',', profileKeys[kOutCircleCount]), int64(d.OutCircleCount), 10)
	return append(dst, '}'), nil
}

// AppendCirclePage appends the JSON encoding of p to dst: the bytes
// json.Marshal(p) returns.
func AppendCirclePage(dst []byte, p *CirclePage) []byte {
	dst = appendStrings(appendKey(dst, '{', pageKeys[kIDs]), p.IDs)
	if p.NextPageToken != "" {
		dst = appendString(appendKey(dst, ',', pageKeys[kNextPageToken]), p.NextPageToken)
	}
	return append(dst, '}')
}

// appendKey appends sep (the opening brace or the comma) and the quoted
// member name with its colon. Names are plain ASCII: nothing to escape.
func appendKey(dst []byte, sep byte, name string) []byte {
	dst = append(dst, sep, '"')
	dst = append(dst, name...)
	return append(dst, '"', ':')
}

// appendStrings appends a string array; a nil slice is null.
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// plainByte marks the bytes a JSON string carries verbatim in both
// directions: printable ASCII except the quote, the backslash and the
// three characters encoding/json escapes for HTML safety. Every other
// byte sends the encoder or the decoder to its per-literal slow path.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string literal with encoding/json's
// default (HTML-safe) escaping.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if plainByte[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default: // other control bytes, and < > &
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendFloat appends a finite f the way encoding/json does: the
// shortest representation that round-trips, in ES6 notation (exponent
// form below 1e-6 and from 1e21, exponent without a leading zero).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 is written e-9
		dst = dst[:n-1]
	}
	return dst
}

// ---- decoding ----

// DecodeProfileDoc decodes one profile document into d, which must be
// a zero ProfileDoc for the agreement with json.Unmarshal to hold
// (members present in data overwrite or merge into what d holds).
func DecodeProfileDoc(data []byte, d *ProfileDoc) error {
	s := scanner{data: data}
	if err := s.profileDoc(d, nil); err != nil {
		return err
	}
	return s.end()
}

// DecodeCirclePage decodes one circle page into p; see DecodeProfileDoc
// for the contract. Every string of the page is a copy: nothing in p
// aliases data.
func DecodeCirclePage(data []byte, p *CirclePage) error {
	s := scanner{data: data}
	_, err := s.object(pageKeys[:], func(k int, _ []byte) error {
		switch k {
		case kIDs:
			return s.strs(&p.IDs, nil)
		case kNextPageToken:
			return s.str(&p.NextPageToken)
		}
		return s.skip(1)
	})
	if err != nil {
		return err
	}
	return s.end()
}

// DecodeProfile decodes one profile document straight into the
// analysis model: id and *p receive what DecodeProfileDoc followed by
// ToProfile would yield — field codes become AttrSet bits and labels
// enums as they are scanned, values of unlisted fields are dropped —
// with no ProfileDoc built. *id and *p are overwritten.
//
// extra, when non-nil, receives every member the document does not
// define: its unquoted key and the raw JSON text of its value (valid
// only during the call). That is how a container format adds members to
// the document — the dataset's "crawled" flag — without a second copy
// of the field table. A document that repeats an array or object member
// is decoded a second time from the start by the general decoder, so
// extra may see the members of one document twice, in the same order.
func DecodeProfile(data []byte, id *string, p *profile.Profile, extra func(key, value []byte) error) error {
	s := scanner{data: data}
	err := s.profile(id, p, extra)
	if err == errRepeatedMember {
		// Reflection decodes a repeated array into the first one's
		// storage (a null element keeps the stale one) and merges a
		// repeated object; only the document form can reproduce that.
		var d ProfileDoc
		s = scanner{data: data}
		if err = s.profileDoc(&d, extra); err == nil {
			*id, *p = d.ID, d.ToProfile()
		}
	}
	if err != nil {
		return err
	}
	return s.end()
}

// errRepeatedMember aborts DecodeProfile's direct scan; never returned.
var errRepeatedMember = errors.New("gplusapi: repeated member")

// maxDepth is encoding/json's nesting limit: a document whose arrays
// and objects nest deeper is rejected, not skipped.
const maxDepth = 10000

// scanner is a cursor over one JSON document. Its methods each consume
// one value (or one token) and report the first reason encoding/json
// would reject the document; none of them looks back.
type scanner struct {
	data     []byte
	pos      int
	scratch  []byte // unquoting space of the slow string path
	unquoted bool   // the last stringBytes result sits in scratch
}

func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("gplusapi: invalid document at byte %d: %s", s.pos, fmt.Sprintf(format, args...))
}

// peek skips white space and returns the next byte without consuming
// it, 0 at the end of the input.
func (s *scanner) peek() byte {
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\r', '\n':
		default:
			return c
		}
	}
	return 0
}

// end checks that only white space follows the top-level value.
func (s *scanner) end() error {
	if s.peek(); s.pos < len(s.data) {
		return s.errorf("unexpected %q after the top-level value", s.data[s.pos])
	}
	return nil
}

// literal consumes the keyword word, whose first byte peek just saw.
func (s *scanner) literal(word string) error {
	if end := s.pos + len(word); end > len(s.data) || string(s.data[s.pos:end]) != word {
		return s.errorf("invalid literal, want %s", word)
	}
	s.pos += len(word)
	return nil
}

// object consumes an object, calling field for every member — k is the
// index in keys of the name the member's key matches the way
// encoding/json matches (exactly, else under Unicode case folding), -1
// for none; key is the unquoted key, valid until the next string is
// read — and field must consume the member's value. A null in the
// object's place is not an error and is reported.
func (s *scanner) object(keys []string, field func(k int, key []byte) error) (null bool, err error) {
	switch s.peek() {
	case '{':
	case 'n':
		return true, s.literal("null")
	default:
		return false, s.errorf("want an object")
	}
	s.pos++
	if s.peek() == '}' {
		s.pos++
		return false, nil
	}
	for next := 0; ; {
		if s.peek() != '"' {
			return false, s.errorf("want a member name")
		}
		key, err := s.stringBytes()
		if err != nil {
			return false, err
		}
		if s.peek() != ':' {
			return false, s.errorf("want ':' after a member name")
		}
		s.pos++
		// Members mostly come in the encoder's order: try the name
		// after the last match before searching.
		k := next
		if k >= len(keys) || string(key) != keys[k] {
			k = lookupKey(keys, key)
		}
		if k >= 0 {
			next = k + 1
		}
		if err := field(k, key); err != nil {
			return false, err
		}
		switch s.peek() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			return false, nil
		default:
			return false, s.errorf("want ',' or '}' after a member")
		}
	}
}

// lookupKey resolves a member key against a document's names: an exact
// match wins, then the first name equal under simple Unicode case
// folding (so "ID", and "fieldſ" with a long s, both resolve).
func lookupKey(keys []string, key []byte) int {
	for i, name := range keys {
		if string(key) == name {
			return i
		}
	}
	// Names are ASCII, and an ASCII key folds only onto a name of its
	// own length; only a key with multi-byte runes needs every name tried.
	ascii := true
	for _, c := range key {
		if c >= utf8.RuneSelf {
			ascii = false
			break
		}
	}
	for i, name := range keys {
		if (!ascii || len(key) == len(name)) && strings.EqualFold(string(key), name) {
			return i
		}
	}
	return -1
}

// array consumes an array, calling elem to consume each element, and
// returns how many there were. A null in its place is reported.
func (s *scanner) array(elem func(i int) error) (n int, null bool, err error) {
	switch s.peek() {
	case '[':
	case 'n':
		return 0, true, s.literal("null")
	default:
		return 0, false, s.errorf("want an array")
	}
	s.pos++
	if s.peek() == ']' {
		s.pos++
		return 0, false, nil
	}
	for {
		if err := elem(n); err != nil {
			return n, false, err
		}
		n++
		switch s.peek() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			return n, false, nil
		default:
			return n, false, s.errorf("want ',' or ']' after an array element")
		}
	}
}

// stringBytes consumes a string literal and returns its unquoted
// content: a sub-slice of the input when the literal is plain ASCII
// with no escape, the scanner's scratch space otherwise. Either way the
// bytes are only valid until the next string is read and must be copied
// to be kept. peek must have seen the opening quote.
func (s *scanner) stringBytes() ([]byte, error) {
	start := s.pos + 1
	rest := s.data[start:]
	for i, c := range rest {
		if plainByte[c] {
			continue
		}
		if c == '"' {
			s.pos, s.unquoted = start+i+1, false
			return rest[:i], nil
		}
		s.unquoted = true
		return s.unquote(start, start+i)
	}
	s.unquoted = true
	return s.unquote(start, len(s.data))
}

// unquote is the slow path of stringBytes: the literal starting at
// start holds, at offset i, an escape, a multi-byte rune, a control
// byte or one of < > & (or ends there, unterminated). Invalid UTF-8 and
// unpaired surrogate escapes become U+FFFD, as in encoding/json.
func (s *scanner) unquote(start, i int) ([]byte, error) {
	b := append(s.scratch[:0], s.data[start:i]...)
	defer func() { s.scratch = b[:0] }()
	for i < len(s.data) {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			return b, nil
		case c == '\\':
			i++
			if i >= len(s.data) {
				s.pos = i
				return nil, s.errorf("unterminated escape")
			}
			switch c := s.data[i]; c {
			case '"', '\\', '/':
				b = append(b, c)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := s.hex4(i + 1)
				if r < 0 {
					s.pos = i
					return nil, s.errorf("invalid \\u escape")
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// A high surrogate pairs with a \u low surrogate
					// right behind it; anything else is replaced and
					// what follows is read on its own.
					if i+2 < len(s.data) && s.data[i+1] == '\\' && s.data[i+2] == 'u' {
						if dec := utf16.DecodeRune(r, s.hex4(i+3)); dec != unicode.ReplacementChar {
							i += 6
							r = dec
						}
					}
					if utf16.IsSurrogate(r) {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				s.pos = i
				return nil, s.errorf("invalid escape %q", c)
			}
			i++
		case c < ' ':
			s.pos = i
			return nil, s.errorf("control byte in a string")
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(s.data[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	s.pos = i
	return nil, s.errorf("unterminated string")
}

// hex4 reads four hex digits at offset i, -1 if there are not four.
func (s *scanner) hex4(i int) rune {
	if i+4 > len(s.data) {
		return -1
	}
	var r rune
	for _, c := range s.data[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number consumes a number literal and returns its text. peek must have
// seen its first byte ('-' or a digit).
func (s *scanner) number() ([]byte, error) {
	data, i := s.data, s.pos
	digits := func() bool { // consumes a run of digits; false if empty
		from := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i > from
	}
	if data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++ // a leading zero stands alone
	} else if !digits() {
		s.pos = i
		return nil, s.errorf("invalid number")
	}
	if i < len(data) && data[i] == '.' {
		if i++; !digits() {
			s.pos = i
			return nil, s.errorf("invalid number: want a digit after '.'")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			s.pos = i
			return nil, s.errorf("invalid number: want a digit in the exponent")
		}
	}
	lit := data[s.pos:i]
	s.pos = i
	return lit, nil
}

func isNumberStart(c byte) bool { return c == '-' || '0' <= c && c <= '9' }

// numberOrNull consumes a value for a numeric field: the text of a
// number literal, or nil for a null (which leaves the field alone) and
// for an error.
func (s *scanner) numberOrNull() ([]byte, error) {
	switch c := s.peek(); {
	case isNumberStart(c):
		return s.number()
	case c == 'n':
		return nil, s.literal("null")
	}
	return nil, s.errorf("want a number")
}

// str consumes a value for a string field: a string sets it, null
// leaves it alone, anything else is a type mismatch.
func (s *scanner) str(dst *string) error {
	b, null, err := s.strBytes()
	if err == nil && !null {
		*dst = string(b)
	}
	return err
}

// strBytes is str for callers that map the text instead of keeping it;
// b is valid until the next string is read.
func (s *scanner) strBytes() (b []byte, null bool, err error) {
	switch s.peek() {
	case '"':
		b, err = s.stringBytes()
		return b, false, err
	case 'n':
		return nil, true, s.literal("null")
	}
	return nil, false, s.errorf("want a string")
}

// maxPresize bounds the slice strs makes before it has seen the
// elements, so a body of commas cannot ask for 16 times its size.
const maxPresize = 4096

// strs consumes a value for a []string field the way reflection fills
// one: null makes it nil; an array is decoded element by element into
// the slice's existing storage — a null element keeps whatever that
// slot held, which is the empty string unless the member is a repeat —
// and an empty array yields an empty, non-nil slice. conv, when
// non-nil, builds each string from its bytes in place of a plain copy.
func (s *scanner) strs(dst *[]string, conv func([]byte) string) error {
	full := (*dst)[:cap(*dst)]
	n, null, err := s.array(func(i int) error {
		switch {
		case full == nil:
			// Size a fresh slice by the commas up to the first ']':
			// exact unless an element holds one of the two, a hint then.
			rest := s.data[s.pos:]
			if end := bytes.IndexByte(rest, ']'); end >= 0 {
				rest = rest[:end]
			}
			full = make([]string, min(bytes.Count(rest, []byte{','})+1, maxPresize))
		case i == len(full):
			full = append(full, "")
			full = full[:cap(full)]
		}
		b, null, err := s.strBytes()
		if err != nil || null {
			return err
		}
		if conv != nil {
			full[i] = conv(b)
		} else {
			full[i] = string(b)
		}
		return nil
	})
	switch {
	case err != nil:
		return err
	case null:
		*dst = nil
	case n == 0:
		*dst = []string{}
	default:
		*dst = full[:n]
	}
	return nil
}

// integer consumes a value for an int field: a number literal that is
// an integer in range sets it (1e2 and 1.0 are mismatches, as for
// reflection), null leaves it alone.
func (s *scanner) integer(dst *int) error {
	lit, err := s.numberOrNull()
	if lit == nil {
		return err
	}
	if len(lit) <= 9 && lit[0] != '-' { // fits any int
		n := 0
		for _, c := range lit {
			if c < '0' || c > '9' {
				return s.errorf("number %s is not an integer", lit)
			}
			n = n*10 + int(c-'0')
		}
		*dst = n
		return nil
	}
	n, err := strconv.ParseInt(string(lit), 10, 0)
	if err != nil {
		return s.errorf("number %s is not an int", lit)
	}
	*dst = int(n)
	return nil
}

// float consumes a value for a float64 field.
func (s *scanner) float(dst *float64) error {
	lit, err := s.numberOrNull()
	if lit == nil {
		return err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return s.errorf("number %s overflows float64", lit)
	}
	*dst = f
	return nil
}

// skip consumes any value without decoding it, checking its syntax;
// depth is the number of arrays and objects the value sits in.
func (s *scanner) skip(depth int) error {
	switch c := s.peek(); {
	case c == '"':
		_, err := s.stringBytes()
		return err
	case c == '{' || c == '[':
		if depth >= maxDepth {
			return s.errorf("exceeded max depth")
		}
		if c == '[' {
			_, _, err := s.array(func(int) error { return s.skip(depth + 1) })
			return err
		}
		_, err := s.object(nil, func(int, []byte) error { return s.skip(depth + 1) })
		return err
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case isNumberStart(c):
		_, err := s.number()
		return err
	}
	return s.errorf("want a value")
}

// unknown consumes the value of a member the document does not define,
// handing it to extra when there is one.
func (s *scanner) unknown(key []byte, extra func(key, value []byte) error) error {
	if extra != nil && s.unquoted {
		key = bytes.Clone(key) // skipping the value may unquote over it
	}
	s.peek()
	start := s.pos
	if err := s.skip(1); err != nil || extra == nil {
		return err
	}
	return extra(key, s.data[start:s.pos])
}

// place consumes the members of a place object into p.
func (s *scanner) place(p *PlaceDoc) (null bool, err error) {
	return s.object(placeKeys[:], func(k int, _ []byte) error {
		switch k {
		case kPlaceName:
			return s.str(&p.Name)
		case kLat:
			return s.float(&p.Lat)
		case kLon:
			return s.float(&p.Lon)
		case kCountry:
			return s.str(&p.Country)
		}
		return s.skip(2)
	})
}

// fieldCode builds the string of one "fields" element: the attribute's
// own constant for a known wire code, so a fetched profile does not
// allocate a copy of every code it lists.
func fieldCode(b []byte) string {
	if a, ok := profile.AttrFromWireCode(string(b)); ok {
		return a.WireCode()
	}
	return string(b)
}

// profileDoc consumes a profile document (or a null) into d.
func (s *scanner) profileDoc(d *ProfileDoc, extra func(key, value []byte) error) error {
	_, err := s.object(profileKeys[:], func(k int, key []byte) error {
		switch k {
		case kID:
			return s.str(&d.ID)
		case kName:
			return s.str(&d.Name)
		case kFields:
			return s.strs(&d.Fields, fieldCode)
		case kGender:
			return s.str(&d.Gender)
		case kRelationship:
			return s.str(&d.Relationship)
		case kPlacesLived:
			return s.strs(&d.PlacesLived, nil)
		case kPlace:
			if d.Place == nil && s.peek() == '{' {
				d.Place = new(PlaceDoc)
			}
			null, err := s.place(d.Place)
			if null {
				d.Place = nil
			}
			return err
		case kOccupation:
			return s.str(&d.Occupation)
		case kInCircleCount:
			return s.integer(&d.InCircleCount)
		case kOutCircleCount:
			return s.integer(&d.OutCircleCount)
		}
		return s.unknown(key, extra)
	})
	return err
}

// profile is DecodeProfile's direct scan: profileDoc and ToProfile in
// one pass. It gives up with errRepeatedMember where only the document
// form reproduces reflection's result.
func (s *scanner) profile(id *string, p *profile.Profile, extra func(key, value []byte) error) error {
	*id, *p = "", profile.Profile{}
	var (
		place    PlaceDoc
		hasPlace bool
		seen     uint // bit k set once member k was read
	)
	_, err := s.object(profileKeys[:], func(k int, key []byte) error {
		if k < 0 {
			return s.unknown(key, extra)
		}
		if repeatable := uint(1<<kFields | 1<<kPlacesLived | 1<<kPlace); seen&repeatable&(1<<k) != 0 {
			return errRepeatedMember
		}
		seen |= 1 << k
		switch k {
		case kID:
			return s.str(id)
		case kName:
			return s.str(&p.Name)
		case kFields:
			_, _, err := s.array(func(int) error {
				b, _, err := s.strBytes()
				if a, ok := profile.AttrFromWireCode(string(b)); ok {
					p.Public = p.Public.With(a)
				}
				return err
			})
			return err
		case kGender:
			b, null, err := s.strBytes()
			if !null {
				p.Gender = profile.ParseGender(string(b))
			}
			return err
		case kRelationship:
			b, null, err := s.strBytes()
			if !null {
				p.Relationship = profile.ParseRelationship(string(b))
			}
			return err
		case kPlacesLived:
			return s.strs(&p.PlacesLived, nil)
		case kPlace:
			null, err := s.place(&place)
			hasPlace = !null
			return err
		case kOccupation:
			b, null, err := s.strBytes()
			if !null {
				p.Occupation = profile.ParseOccupation(string(b))
			}
			return err
		case kInCircleCount:
			return s.integer(&p.DeclaredInDegree)
		default: // kOutCircleCount
			return s.integer(&p.DeclaredOutDegree)
		}
	})
	if err != nil {
		return err
	}
	// ToProfile's rule: a value counts only if its field is listed.
	if !p.Public.Has(profile.AttrGender) {
		p.Gender = profile.GenderUnknown
	}
	if !p.Public.Has(profile.AttrRelationship) {
		p.Relationship = profile.RelUnknown
	}
	if !p.Public.Has(profile.AttrOccupation) {
		p.Occupation = profile.OccupationOther
	}
	if !p.Public.Has(profile.AttrPlacesLived) || len(p.PlacesLived) == 0 {
		p.PlacesLived = nil
	}
	if p.Public.Has(profile.AttrPlacesLived) && hasPlace {
		p.Place, p.CountryCode = place.Name, place.Country
		p.Loc = geo.Point{Lat: place.Lat, Lon: place.Lon}
	}
	return nil
}
