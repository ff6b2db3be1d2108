package prof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
)

// The decoder reads the stable subset of the pprof profile.proto format
// that runtime/pprof emits — sample/location/function/label records plus
// the string table — with nothing but a gzip reader and a hand-rolled
// protobuf varint walker. Mappings, addresses, and the drop/keep-frame
// regexes are skipped: the analyzer works on resolved function names,
// which Go profiles always carry.

// ValueType names one sample dimension, e.g. {Type: "cpu", Unit:
// "nanoseconds"}.
type ValueType struct {
	Type, Unit string
}

// Frame is one resolved stack frame.
type Frame struct {
	Func string
	File string
	Line int64
}

// Sample is one decoded profile sample: a stack (leaf first, inline
// frames expanded) with one value per sample type and the pprof labels
// attached via runtime/pprof.Do.
type Sample struct {
	Stack     []Frame
	Value     []int64
	Labels    map[string]string
	NumLabels map[string]int64
}

// Label returns the sample's value for a string label key ("" when
// absent).
func (s *Sample) Label(key string) string { return s.Labels[key] }

// Profile is a decoded pprof profile.
type Profile struct {
	SampleTypes       []ValueType
	DefaultSampleType string
	Samples           []Sample
	PeriodType        ValueType
	Period            int64
	TimeNanos         int64
	DurationNanos     int64
	Comments          []string
}

// ValueIndex returns the index into Sample.Value for the named sample
// type, or -1 when the profile has no such dimension.
func (p *Profile) ValueIndex(typ string) int {
	for i, st := range p.SampleTypes {
		if st.Type == typ {
			return i
		}
	}
	return -1
}

// DefaultValueIndex picks the dimension analysis should use when the
// caller has no preference: the profile's declared default sample type
// when present, else "cpu" (CPU profiles), else "inuse_space" (heap),
// else the last dimension — matching `go tool pprof`'s defaults.
func (p *Profile) DefaultValueIndex() int {
	if p.DefaultSampleType != "" {
		if i := p.ValueIndex(p.DefaultSampleType); i >= 0 {
			return i
		}
	}
	for _, typ := range []string{"cpu", "inuse_space"} {
		if i := p.ValueIndex(typ); i >= 0 {
			return i
		}
	}
	return len(p.SampleTypes) - 1
}

// Decode reads one pprof profile, gzipped or raw, from r.
func Decode(r io.Reader) (*Profile, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("prof: gunzip: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("prof: gunzip: %w", err)
		}
		if err := zr.Close(); err != nil {
			return nil, fmt.Errorf("prof: gunzip: %w", err)
		}
	}
	return decodeProfile(raw)
}

// ReadFile decodes the profile stored at path.
func ReadFile(path string) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("prof: %s: %w", path, err)
	}
	return p, nil
}

// --- raw proto model, resolved against the string table at the end ---

type rawSample struct {
	locIDs []uint64
	values []int64
	labels []rawLabel
}

type rawLabel struct {
	key, str, num, numUnit int64 // key/str/numUnit are string-table indices
}

type rawLocation struct {
	id    uint64
	lines []rawLine
}

type rawLine struct {
	funcID uint64
	line   int64
}

type rawFunction struct {
	id                 uint64
	name, file         int64 // string-table indices
	systemName, startL int64 //nolint:unused — decoded for completeness
}

func decodeProfile(data []byte) (*Profile, error) {
	var (
		strTab      []string
		sampleTypes []struct{ typ, unit int64 }
		periodType  struct{ typ, unit int64 }
		samples     []rawSample
		locs        = map[uint64]*rawLocation{}
		funcs       = map[uint64]*rawFunction{}
		comments    []int64
		defaultType int64
		out         Profile
	)
	d := protoDecoder{buf: data}
	for d.len() > 0 {
		field, wire, ok := d.tag()
		if !ok {
			return nil, d.fail("truncated field tag")
		}
		switch field {
		case 1: // sample_type
			msg, ok := d.bytes(wire)
			if !ok {
				return nil, d.fail("bad sample_type")
			}
			typ, unit, err := decodeValueType(msg)
			if err != nil {
				return nil, err
			}
			sampleTypes = append(sampleTypes, struct{ typ, unit int64 }{typ, unit})
		case 2: // sample
			msg, ok := d.bytes(wire)
			if !ok {
				return nil, d.fail("bad sample")
			}
			s, err := decodeSample(msg)
			if err != nil {
				return nil, err
			}
			samples = append(samples, s)
		case 4: // location
			msg, ok := d.bytes(wire)
			if !ok {
				return nil, d.fail("bad location")
			}
			loc, err := decodeLocation(msg)
			if err != nil {
				return nil, err
			}
			locs[loc.id] = loc
		case 5: // function
			msg, ok := d.bytes(wire)
			if !ok {
				return nil, d.fail("bad function")
			}
			fn, err := decodeFunction(msg)
			if err != nil {
				return nil, err
			}
			funcs[fn.id] = fn
		case 6: // string_table
			msg, ok := d.bytes(wire)
			if !ok {
				return nil, d.fail("bad string_table entry")
			}
			strTab = append(strTab, string(msg))
		case 9:
			out.TimeNanos, ok = d.int64(wire)
			if !ok {
				return nil, d.fail("bad time_nanos")
			}
		case 10:
			out.DurationNanos, ok = d.int64(wire)
			if !ok {
				return nil, d.fail("bad duration_nanos")
			}
		case 11: // period_type
			msg, ok := d.bytes(wire)
			if !ok {
				return nil, d.fail("bad period_type")
			}
			typ, unit, err := decodeValueType(msg)
			if err != nil {
				return nil, err
			}
			periodType = struct{ typ, unit int64 }{typ, unit}
		case 12:
			out.Period, ok = d.int64(wire)
			if !ok {
				return nil, d.fail("bad period")
			}
		case 13:
			vals, ok := d.int64s(wire)
			if !ok {
				return nil, d.fail("bad comment")
			}
			comments = append(comments, vals...)
		case 14:
			defaultType, ok = d.int64(wire)
			if !ok {
				return nil, d.fail("bad default_sample_type")
			}
		default: // mapping, drop/keep_frames, future fields
			if !d.skip(wire) {
				return nil, d.fail(fmt.Sprintf("cannot skip field %d", field))
			}
		}
	}

	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strTab)) {
			return "", fmt.Errorf("prof: string index %d outside table of %d", i, len(strTab))
		}
		return strTab[i], nil
	}
	var err error
	for _, st := range sampleTypes {
		var vt ValueType
		if vt.Type, err = str(st.typ); err != nil {
			return nil, err
		}
		if vt.Unit, err = str(st.unit); err != nil {
			return nil, err
		}
		out.SampleTypes = append(out.SampleTypes, vt)
	}
	if out.PeriodType.Type, err = str(periodType.typ); err != nil {
		return nil, err
	}
	if out.PeriodType.Unit, err = str(periodType.unit); err != nil {
		return nil, err
	}
	if out.DefaultSampleType, err = str(defaultType); err != nil {
		return nil, err
	}
	for _, c := range comments {
		s, err := str(c)
		if err != nil {
			return nil, err
		}
		out.Comments = append(out.Comments, s)
	}

	// Resolve locations once into frame slices; samples alias them.
	frames := make(map[uint64][]Frame, len(locs))
	for id, loc := range locs {
		fs := make([]Frame, 0, len(loc.lines))
		for _, ln := range loc.lines {
			fr := Frame{Line: ln.line}
			if fn := funcs[ln.funcID]; fn != nil {
				if fr.Func, err = str(fn.name); err != nil {
					return nil, err
				}
				if fr.File, err = str(fn.file); err != nil {
					return nil, err
				}
			}
			fs = append(fs, fr)
		}
		frames[id] = fs
	}

	out.Samples = make([]Sample, 0, len(samples))
	for _, rs := range samples {
		s := Sample{Value: rs.values}
		for _, lid := range rs.locIDs {
			fs, ok := frames[lid]
			if !ok {
				return nil, fmt.Errorf("prof: sample references unknown location %d", lid)
			}
			s.Stack = append(s.Stack, fs...)
		}
		for _, lb := range rs.labels {
			key, err := str(lb.key)
			if err != nil {
				return nil, err
			}
			if lb.str != 0 {
				v, err := str(lb.str)
				if err != nil {
					return nil, err
				}
				if s.Labels == nil {
					s.Labels = make(map[string]string)
				}
				s.Labels[key] = v
			} else {
				if s.NumLabels == nil {
					s.NumLabels = make(map[string]int64)
				}
				s.NumLabels[key] = lb.num
			}
		}
		out.Samples = append(out.Samples, s)
	}
	return &out, nil
}

func decodeValueType(msg []byte) (typ, unit int64, err error) {
	d := protoDecoder{buf: msg}
	for d.len() > 0 {
		field, wire, ok := d.tag()
		if !ok {
			return 0, 0, d.fail("truncated ValueType")
		}
		switch field {
		case 1:
			typ, ok = d.int64(wire)
		case 2:
			unit, ok = d.int64(wire)
		default:
			ok = d.skip(wire)
		}
		if !ok {
			return 0, 0, d.fail("bad ValueType field")
		}
	}
	return typ, unit, nil
}

func decodeSample(msg []byte) (rawSample, error) {
	var s rawSample
	d := protoDecoder{buf: msg}
	for d.len() > 0 {
		field, wire, ok := d.tag()
		if !ok {
			return s, d.fail("truncated Sample")
		}
		switch field {
		case 1:
			ids, ok2 := d.uint64s(wire)
			if !ok2 {
				return s, d.fail("bad Sample.location_id")
			}
			s.locIDs = append(s.locIDs, ids...)
		case 2:
			vals, ok2 := d.int64s(wire)
			if !ok2 {
				return s, d.fail("bad Sample.value")
			}
			s.values = append(s.values, vals...)
		case 3:
			lmsg, ok2 := d.bytes(wire)
			if !ok2 {
				return s, d.fail("bad Sample.label")
			}
			lb, err := decodeLabel(lmsg)
			if err != nil {
				return s, err
			}
			s.labels = append(s.labels, lb)
		default:
			if !d.skip(wire) {
				return s, d.fail("bad Sample field")
			}
		}
	}
	return s, nil
}

func decodeLabel(msg []byte) (rawLabel, error) {
	var lb rawLabel
	d := protoDecoder{buf: msg}
	for d.len() > 0 {
		field, wire, ok := d.tag()
		if !ok {
			return lb, d.fail("truncated Label")
		}
		switch field {
		case 1:
			lb.key, ok = d.int64(wire)
		case 2:
			lb.str, ok = d.int64(wire)
		case 3:
			lb.num, ok = d.int64(wire)
		case 4:
			lb.numUnit, ok = d.int64(wire)
		default:
			ok = d.skip(wire)
		}
		if !ok {
			return lb, d.fail("bad Label field")
		}
	}
	return lb, nil
}

func decodeLocation(msg []byte) (*rawLocation, error) {
	loc := &rawLocation{}
	d := protoDecoder{buf: msg}
	for d.len() > 0 {
		field, wire, ok := d.tag()
		if !ok {
			return nil, d.fail("truncated Location")
		}
		switch field {
		case 1:
			loc.id, ok = d.uint64(wire)
			if !ok {
				return nil, d.fail("bad Location.id")
			}
		case 4:
			lmsg, ok2 := d.bytes(wire)
			if !ok2 {
				return nil, d.fail("bad Location.line")
			}
			ln, err := decodeLine(lmsg)
			if err != nil {
				return nil, err
			}
			loc.lines = append(loc.lines, ln)
		default:
			if !d.skip(wire) {
				return nil, d.fail("bad Location field")
			}
		}
	}
	return loc, nil
}

func decodeLine(msg []byte) (rawLine, error) {
	var ln rawLine
	d := protoDecoder{buf: msg}
	for d.len() > 0 {
		field, wire, ok := d.tag()
		if !ok {
			return ln, d.fail("truncated Line")
		}
		switch field {
		case 1:
			ln.funcID, ok = d.uint64(wire)
		case 2:
			ln.line, ok = d.int64(wire)
		default:
			ok = d.skip(wire)
		}
		if !ok {
			return ln, d.fail("bad Line field")
		}
	}
	return ln, nil
}

func decodeFunction(msg []byte) (*rawFunction, error) {
	fn := &rawFunction{}
	d := protoDecoder{buf: msg}
	for d.len() > 0 {
		field, wire, ok := d.tag()
		if !ok {
			return nil, d.fail("truncated Function")
		}
		switch field {
		case 1:
			fn.id, ok = d.uint64(wire)
		case 2:
			fn.name, ok = d.int64(wire)
		case 3:
			fn.systemName, ok = d.int64(wire)
		case 4:
			fn.file, ok = d.int64(wire)
		case 5:
			fn.startL, ok = d.int64(wire)
		default:
			ok = d.skip(wire)
		}
		if !ok {
			return nil, d.fail("bad Function field")
		}
	}
	return fn, nil
}

// --- minimal protobuf wire-format walker ---

const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

type protoDecoder struct {
	buf []byte
	pos int
}

func (d *protoDecoder) len() int { return len(d.buf) - d.pos }

func (d *protoDecoder) fail(msg string) error {
	return fmt.Errorf("prof: malformed profile at byte %d: %s", d.pos, msg)
}

// varint reads one base-128 varint.
func (d *protoDecoder) varint() (uint64, bool) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if d.pos >= len(d.buf) {
			return 0, false
		}
		b := d.buf[d.pos]
		d.pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, true
		}
	}
	return 0, false // >10 bytes: malformed
}

// tag reads one field tag, returning (fieldNumber, wireType).
func (d *protoDecoder) tag() (int, int, bool) {
	v, ok := d.varint()
	if !ok || v>>3 > 1<<29 {
		return 0, 0, false
	}
	return int(v >> 3), int(v & 7), true
}

// bytes reads a length-delimited field body.
func (d *protoDecoder) bytes(wire int) ([]byte, bool) {
	if wire != wireBytes {
		return nil, false
	}
	n, ok := d.varint()
	if !ok || n > uint64(d.len()) {
		return nil, false
	}
	out := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return out, true
}

// uint64 reads one varint scalar.
func (d *protoDecoder) uint64(wire int) (uint64, bool) {
	if wire != wireVarint {
		return 0, false
	}
	return d.varint()
}

// int64 reads one varint scalar as a signed value (plain two's
// complement, the proto3 int64 encoding — not zigzag).
func (d *protoDecoder) int64(wire int) (int64, bool) {
	v, ok := d.uint64(wire)
	return int64(v), ok
}

// uint64s reads a repeated varint field: either one unpacked element or
// a packed run.
func (d *protoDecoder) uint64s(wire int) ([]uint64, bool) {
	switch wire {
	case wireVarint:
		v, ok := d.varint()
		if !ok {
			return nil, false
		}
		return []uint64{v}, true
	case wireBytes:
		body, ok := d.bytes(wire)
		if !ok {
			return nil, false
		}
		sub := protoDecoder{buf: body}
		var out []uint64
		for sub.len() > 0 {
			v, ok := sub.varint()
			if !ok {
				return nil, false
			}
			out = append(out, v)
		}
		return out, true
	default:
		return nil, false
	}
}

func (d *protoDecoder) int64s(wire int) ([]int64, bool) {
	us, ok := d.uint64s(wire)
	if !ok {
		return nil, false
	}
	out := make([]int64, len(us))
	for i, u := range us {
		out[i] = int64(u)
	}
	return out, true
}

// skip discards one field body of any supported wire type.
func (d *protoDecoder) skip(wire int) bool {
	switch wire {
	case wireVarint:
		_, ok := d.varint()
		return ok
	case wireFixed64:
		if d.len() < 8 {
			return false
		}
		d.pos += 8
		return true
	case wireBytes:
		_, ok := d.bytes(wire)
		return ok
	case wireFixed32:
		if d.len() < 4 {
			return false
		}
		d.pos += 4
		return true
	default:
		return false
	}
}
