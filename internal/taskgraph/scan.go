package taskgraph

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// Scanner reads the strict subset of JSON that the wire fast path
// accepts, in one forward pass over a byte slice it never copies. It
// exists so a request envelope and the graph inside it can be decoded in
// a single hand-written scan instead of two reflection passes.
//
// The subset is chosen so that whatever the scanner accepts, encoding/json
// decodes to the same values. Anything outside it declines: a syntax
// error, a string with an escape sequence, a control character or invalid
// UTF-8, a number that does not convert to the requested type exactly as
// encoding/json would convert it, null where a value is required, and —
// through Field — an unknown, case-variant or duplicate key. Declining is
// sticky: every later call is a no-op returning zero values, and the
// caller checks OK once at the end. A declined input is not an error; it
// only means the fast path does not vouch for it, and the caller hands the
// same bytes to encoding/json, which alone words every rejection.
type Scanner struct {
	data []byte
	pos  int
	bad  bool

	// The last literal Float converted and its value: program graphs
	// repeat a handful of loads and volumes across all their tasks and
	// edges, so most literals equal the one before and skip ParseFloat.
	lastOff, lastEnd int
	lastVal          float64
}

// NewScanner returns a scanner positioned at the start of data.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

// OK reports whether everything read so far lies inside the subset.
func (s *Scanner) OK() bool { return !s.bad }

// Pos returns the offset of the next unread byte.
func (s *Scanner) Pos() int { return s.pos }

// End reports whether the input was accepted and nothing but whitespace
// follows the last value read.
func (s *Scanner) End() bool { return s.peek() == 0 && !s.bad && s.pos == len(s.data) }

// peek skips whitespace and returns the next byte, or 0 at the end of
// the input or once declined.
func (s *Scanner) peek() byte {
	if s.pos < len(s.data) && s.data[s.pos] > ' ' && !s.bad {
		return s.data[s.pos] // compact JSON: no whitespace to skip
	}
	for !s.bad && s.pos < len(s.data) {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return c
		}
	}
	return 0
}

// expect consumes the byte c or declines.
func (s *Scanner) expect(c byte) {
	if s.peek() != c {
		s.bad = true
		return
	}
	s.pos++
}

// literal consumes the keyword lit, whose first byte peek already saw.
func (s *Scanner) literal(lit string) {
	if len(s.data)-s.pos < len(lit) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		s.bad = true
		return
	}
	s.pos += len(lit)
}

// Begin consumes the '{' or '[' that opens an object or array.
func (s *Scanner) Begin(open byte) { s.expect(open) }

// More reports whether another member of the open object or array
// follows, consuming the comma before it; i counts the members already
// read. At the closing byte it consumes it and returns false, as it does
// once the scanner has declined. The idiom is
//
//	for i := 0; sc.More('}', i); i++ { ... }
func (s *Scanner) More(close byte, i int) bool {
	c := s.peek()
	if c == close {
		s.pos++
		return false
	}
	if i > 0 {
		s.expect(',')
	}
	return !s.bad
}

// Field reads an object member's key and the colon after it, leaving the
// scanner (and Pos) at the member's value, and returns the key if it is
// one of names (at most 32, matched case-sensitively) not already marked
// in seen. An unknown or repeated key declines and returns "".
// encoding/json would match a key case-insensitively, ignore an unknown
// one and let a repeated one overwrite, so none of those may pass here.
func (s *Scanner) Field(seen *uint32, names []string) string {
	s.expect('"')
	if s.bad {
		return ""
	}
	// A key in the subset is one of names verbatim, so match the names
	// against the input directly: anything else — an escaped, unknown or
	// unterminated key — matches none and declines.
	rest := s.data[s.pos:]
	for i, name := range names {
		if len(rest) > len(name) && rest[len(name)] == '"' && string(rest[:len(name)]) == name {
			if *seen&(1<<i) != 0 {
				break
			}
			*seen |= 1 << i
			s.pos += len(name) + 1
			s.expect(':')
			if s.peek(); s.bad {
				return ""
			}
			return name
		}
	}
	s.bad = true
	return ""
}

// Null consumes a null literal if one comes next and reports whether it
// did.
func (s *Scanner) Null() bool {
	if s.peek() != 'n' {
		return false
	}
	s.literal("null")
	return !s.bad
}

// Bool reads true or false.
func (s *Scanner) Bool() bool {
	switch s.peek() {
	case 't':
		s.literal("true")
		return !s.bad
	case 'f':
		s.literal("false")
	default:
		s.bad = true
	}
	return false
}

// Str reads a string and returns its bytes, which alias the input.
func (s *Scanner) Str() []byte {
	off, end := s.str()
	return s.data[off:end]
}

// str reads a string and returns the offsets of its contents. Escape
// sequences, control characters and invalid UTF-8 decline: without them
// the contents are exactly the bytes encoding/json would decode.
func (s *Scanner) str() (off, end int) {
	if s.peek() != '"' {
		s.bad = true
		return 0, 0
	}
	off = s.pos + 1
	d := s.data
	for i := off; i < len(d); {
		switch c := d[i]; {
		case c == '"':
			s.pos = i + 1
			return off, i
		case c >= 0x20 && c != '\\' && c < utf8.RuneSelf:
			i++
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && size == 1 {
				s.bad = true
				return 0, 0
			}
			i += size
		default: // control character or escape
			s.bad = true
			return 0, 0
		}
	}
	s.bad = true
	return 0, 0
}

// number reads one JSON number and returns its literal and whether it is
// an integer literal (no fraction, no exponent).
func (s *Scanner) number() (lit []byte, integer bool) {
	c := s.peek()
	if c != '-' && (c < '0' || c > '9') {
		s.bad = true
		return nil, false
	}
	d, i := s.data, s.pos
	if d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		s.bad = true
		return nil, false
	}
	integer = true
	if i < len(d) && d[i] == '.' {
		integer = false
		i++
		if i = digits(d, i); d[i-1] == '.' { // no digit after the point
			s.bad = true
			return nil, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		integer = false
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := digits(d, i)
		if j == i { // no exponent digit
			s.bad = true
			return nil, false
		}
		i = j
	}
	lit = d[s.pos:i]
	s.pos = i
	return lit, integer
}

// digits returns the offset of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// Int64 reads an integer literal, accepting exactly what
// strconv.ParseInt(lit, 10, 64) accepts. A fraction or exponent declines:
// encoding/json reports a type error for 1.0 or 1e3 into an integer.
func (s *Scanner) Int64() int64 {
	lit, integer := s.number()
	if s.bad || !integer {
		s.bad = true
		return 0
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	// JSON integers have no leading zeros, so 20 or more digits overflow;
	// 19 digits fit a uint64 and are range-checked below.
	if len(lit) > 19 {
		s.bad = true
		return 0
	}
	var u uint64
	for _, c := range lit {
		u = u*10 + uint64(c-'0')
	}
	switch {
	case neg && u <= 1<<63:
		return int64(-u)
	case !neg && u <= math.MaxInt64:
		return int64(u)
	}
	s.bad = true
	return 0
}

// Int reads an integer literal into an int, declining where Int64 does
// or where the value does not fit an int.
func (s *Scanner) Int() int {
	v := s.Int64()
	if int64(int(v)) != v {
		s.bad = true
		return 0
	}
	return int(v)
}

// Float reads a number exactly as encoding/json converts it into a
// float64 (strconv.ParseFloat); a value outside the float64 range
// declines. Integer literals of at most 15 digits are exact in a float64
// and skip the general conversion, as does a literal equal to the one
// converted before it.
func (s *Scanner) Float() float64 {
	lit, integer := s.number()
	if s.bad {
		return 0
	}
	if integer && len(lit) <= 15 && lit[0] != '-' {
		var v int64
		for _, c := range lit {
			v = v*10 + int64(c-'0')
		}
		return float64(v)
	}
	if string(lit) == string(s.data[s.lastOff:s.lastEnd]) {
		return s.lastVal
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		s.bad = true
		return 0
	}
	s.lastOff, s.lastEnd, s.lastVal = s.pos-len(lit), s.pos, f
	return f
}
