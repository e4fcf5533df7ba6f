// Package jsonx is a small stdlib-only JSON scanner and encoder for the
// request path. Decoders built on Scanner walk a document once, reading
// each member straight into its destination, with the decoding rules of
// encoding/json unmarshaling into a struct:
//
//   - keys match field names exactly or under Unicode simple case folding
//     (Fields.Lookup), and a repeated key decodes again over the previous
//     value, so the last one wins and nested objects merge;
//   - null leaves a value unchanged (callers zero pointers and slices
//     themselves, as encoding/json does);
//   - strings are unescaped as encoding/json does it: invalid UTF-8 and
//     lone surrogates become U+FFFD;
//   - numbers parse with strconv and a number out of range is a type
//     error;
//   - a type mismatch is recorded and the value skipped, and the scan goes
//     on, so the whole document is still checked for syntax;
//   - nesting deeper than encoding/json's limit (10000) is a syntax error;
//   - bytes after the first value are never looked at, as json.Decoder
//     leaves them unread.
//
// The encoder half (AppendString, AppendFloat) writes the bytes
// json.Marshal writes for a string or a float64.
package jsonx

import (
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// Scanner reads one JSON value from a byte slice. Its errors are sticky:
// after a syntax error every read returns a zero value and More returns
// false, so decoders check Err once at the end.
type Scanner struct {
	data  []byte
	pos   int
	depth int
	fresh bool  // just entered an object or array: no comma before the first member
	err   error // first syntax error; the scan stops
	bad   error // first type error; the scan goes on
}

// NewScanner returns a scanner positioned at the start of data. Strings
// it returns may alias data, which must not change while they are in use.
func NewScanner(data []byte) *Scanner {
	return &Scanner{data: data}
}

// Err returns the first syntax error, or else the first type error.
func (s *Scanner) Err() error {
	if s.err != nil {
		return s.err
	}
	return s.bad
}

// SyntaxErr returns the first syntax error only.
func (s *Scanner) SyntaxErr() error { return s.err }

// SwapTypeErr replaces the recorded type error with err and returns the
// previous one. A decoder scopes type errors to one nested value by
// swapping in nil before it and swapping the outer error back after.
func (s *Scanner) SwapTypeErr(err error) error {
	prev := s.bad
	s.bad = err
	return prev
}

// Mismatch records a type error at the current offset (the first one
// wins) and skips the value that caused it.
func (s *Scanner) Mismatch(format string, args ...any) {
	if s.bad == nil && s.err == nil {
		s.bad = fmt.Errorf("json: %s (offset %d)", fmt.Sprintf(format, args...), s.pos)
	}
	s.Skip()
}

func (s *Scanner) syntax(msg string) {
	if s.err == nil {
		if s.pos >= len(s.data) {
			s.err = errors.New("json: unexpected end of JSON input")
		} else {
			s.err = fmt.Errorf("json: invalid character %q %s (offset %d)", s.data[s.pos], msg, s.pos)
		}
	}
	s.pos = len(s.data)
}

// Peek skips whitespace and returns the next byte, or 0 at the end of
// the input or after a syntax error.
func (s *Scanner) Peek() byte {
	if s.err != nil {
		return 0
	}
	d := s.data
	for i := s.pos; i < len(d); i++ {
		if c := d[i]; c > ' ' || (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
			s.pos = i
			return c
		}
	}
	s.pos = len(d)
	return 0
}

// Null consumes a null literal if one comes next.
func (s *Scanner) Null() bool {
	if s.Peek() != 'n' {
		return false
	}
	s.literal("null")
	return s.err == nil
}

func (s *Scanner) literal(lit string) {
	if len(s.data)-s.pos >= len(lit) && string(s.data[s.pos:s.pos+len(lit)]) == lit {
		s.pos += len(lit)
		return
	}
	for i := 0; i < len(lit) && s.pos < len(s.data) && s.data[s.pos] == lit[i]; i++ {
		s.pos++
	}
	s.syntax("in literal " + lit)
}

// Object enters an object if one comes next. Anything else is a type
// error: it is skipped and Object returns false.
func (s *Scanner) Object() bool { return s.enter('{', "object") }

// Array enters an array if one comes next, like Object.
func (s *Scanner) Array() bool { return s.enter('[', "array") }

func (s *Scanner) enter(open byte, what string) bool {
	c := s.Peek()
	if c != open {
		if c != 0 {
			s.Mismatch("cannot decode %s into %s", kindOf(c), what)
		} else {
			s.syntax("")
		}
		return false
	}
	s.pos++
	s.depth++
	if s.depth > maxDepth {
		s.syntax("exceeding max depth")
		return false
	}
	s.fresh = true
	return true
}

// More reports whether another member or element of the innermost open
// object ('}') or array (']') follows, consuming the separating comma. At
// the closing delimiter it consumes it and returns false.
func (s *Scanner) More(close byte) bool {
	c := s.Peek()
	if s.err != nil {
		return false
	}
	if c == close {
		s.pos++
		s.depth--
		s.fresh = false
		return false
	}
	if s.fresh {
		s.fresh = false
		return true
	}
	if c != ',' {
		if close == '}' {
			s.syntax("after object key:value pair")
		} else {
			s.syntax("after array element")
		}
		return false
	}
	s.pos++
	return true
}

// Key reads an object member's key and the colon after it.
func (s *Scanner) Key() []byte {
	if s.Peek() != '"' {
		s.syntax("looking for beginning of object key string")
		return nil
	}
	k := s.str()
	if s.Peek() != ':' {
		s.syntax("after object key")
		return nil
	}
	s.pos++
	return k
}

// String reads a string value, unescaped. The result aliases the input
// unless the string holds escapes or invalid UTF-8.
func (s *Scanner) String() ([]byte, bool) {
	if c := s.Peek(); c != '"' {
		s.mismatch(c, "string")
		return nil, false
	}
	b := s.str()
	return b, s.err == nil
}

// Float reads a number into a float64.
func (s *Scanner) Float() (float64, bool) {
	lit, ok := s.number("float64")
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		s.rangeErr(lit, "float64")
		return 0, false
	}
	return f, true
}

// Int reads an integer number into an int.
func (s *Scanner) Int() (int, bool) {
	lit, ok := s.number("int")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		s.rangeErr(lit, "int")
		return 0, false
	}
	return int(n), true
}

// Uint64 reads a non-negative integer number into a uint64.
func (s *Scanner) Uint64() (uint64, bool) {
	lit, ok := s.number("uint64")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		s.rangeErr(lit, "uint64")
		return 0, false
	}
	return n, true
}

// Bool reads true or false.
func (s *Scanner) Bool() (v, ok bool) {
	switch s.Peek() {
	case 't':
		s.literal("true")
		return true, s.err == nil
	case 'f':
		s.literal("false")
		return false, s.err == nil
	}
	s.mismatch(s.Peek(), "bool")
	return false, false
}

// FloatTo decodes a number into *dst, as encoding/json decodes into a
// float64 field: null, or a value of another type, leaves *dst unchanged.
func (s *Scanner) FloatTo(dst *float64) {
	if s.Null() {
		return
	}
	if f, ok := s.Float(); ok {
		*dst = f
	}
}

// BytesTo decodes a string into *dst like FloatTo.
func (s *Scanner) BytesTo(dst *[]byte) {
	if s.Null() {
		return
	}
	if b, ok := s.String(); ok {
		*dst = b
	}
}

// Grow returns v with room for element i of a slice being decoded, the
// way encoding/json extends one: an element left past the length by an
// earlier decode of the same member is reused, not zeroed.
func Grow[T any](v []T, i int) []T {
	if i < len(v) {
		return v
	}
	if i < cap(v) {
		return v[:i+1]
	}
	var zero T
	return append(v, zero)
}

// Shrink ends the decode of a slice that saw n elements.
func Shrink[T any](v []T, n int) []T {
	if n == 0 {
		return nil
	}
	return v[:n]
}

func (s *Scanner) rangeErr(lit []byte, what string) {
	if s.bad == nil {
		s.bad = fmt.Errorf("json: cannot decode number %s into %s", lit, what)
	}
}

func (s *Scanner) mismatch(c byte, what string) {
	if c == 0 {
		s.syntax("looking for beginning of value")
		return
	}
	s.Mismatch("cannot decode %s into %s", kindOf(c), what)
}

func (s *Scanner) number(what string) ([]byte, bool) {
	c := s.Peek()
	if c != '-' && (c < '0' || c > '9') {
		s.mismatch(c, what)
		return nil, false
	}
	start := s.pos
	s.skipNumber()
	return s.data[start:s.pos], s.err == nil
}

func kindOf(c byte) string {
	switch c {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case 'n':
		return "null"
	default:
		return "number"
	}
}

// Skip consumes one value of any kind, checking its syntax.
func (s *Scanner) Skip() {
	var arr [32]byte
	open := arr[:0] // closing delimiters of the containers Skip entered
	for {
		switch c := s.Peek(); c {
		case '{', '[':
			s.pos++
			s.depth++
			if s.depth > maxDepth {
				s.syntax("exceeding max depth")
				return
			}
			s.fresh = true
			close := byte(']')
			if c == '{' {
				close = '}'
			}
			if !s.More(close) {
				break // empty container: a complete value
			}
			open = append(open, close)
			if close == '}' {
				s.skipKey()
			}
			continue
		case '"':
			s.skipStr()
		case 't':
			s.literal("true")
		case 'f':
			s.literal("false")
		case 'n':
			s.literal("null")
		default:
			if c == '-' || (c >= '0' && c <= '9') {
				s.skipNumber()
			} else {
				s.syntax("looking for beginning of value")
			}
		}
		// A value ended: close every container it completes, then step
		// to the next member or element of the innermost one still open.
		for len(open) > 0 && s.err == nil {
			close := open[len(open)-1]
			if s.More(close) {
				if close == '}' {
					s.skipKey()
				}
				break
			}
			open = open[:len(open)-1]
		}
		if s.err != nil || len(open) == 0 {
			return
		}
	}
}

func (s *Scanner) skipKey() {
	if s.Peek() != '"' {
		s.syntax("looking for beginning of object key string")
		return
	}
	s.skipStr()
	if s.Peek() != ':' {
		s.syntax("after object key")
		return
	}
	s.pos++
}

// skipStr consumes a string literal at s.pos, checking it as str does
// but without unescaping it.
func (s *Scanner) skipStr() {
	d := s.data
	for i := s.pos + 1; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			s.pos = i + 1
			return
		case c < ' ':
			s.pos = i
			s.syntax("in string literal")
			return
		case c == '\\':
			if i+1 >= len(d) {
				break
			}
			switch d[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				if getu4(d[i:]) < 0 {
					s.pos = i
					s.syntax("in \\u hexadecimal character escape")
					return
				}
				i += 5
			default:
				s.pos = i + 1
				s.syntax("in string escape code")
				return
			}
		}
	}
	s.pos = len(d)
	s.syntax("")
}

func (s *Scanner) skipNumber() {
	d := s.data
	i := s.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && d[i] >= '1' && d[i] <= '9':
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
	default:
		s.pos = i
		s.syntax("in numeric literal")
		return
	}
	if i < len(d) && d[i] == '.' {
		i++
		if i >= len(d) || d[i] < '0' || d[i] > '9' {
			s.pos = i
			s.syntax("after decimal point in numeric literal")
			return
		}
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || d[i] < '0' || d[i] > '9' {
			s.pos = i
			s.syntax("in exponent of numeric literal")
			return
		}
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
	}
	s.pos = i
}

// str consumes a string literal at s.pos and returns it unescaped.
func (s *Scanner) str() []byte {
	d := s.data
	start := s.pos + 1
	i := start
	// Fast path: no escapes, control bytes or invalid UTF-8.
	for i < len(d) {
		c := d[i]
		if c == '"' {
			s.pos = i + 1
			return d[start:i]
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(d[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	// Slow path: unescape into a copy, grown as the string goes (its end
	// is not known yet, and sizing for the rest of the input would cost
	// quadratic memory on a document full of escaped strings).
	out := append(make([]byte, 0, i-start+16), d[start:i]...)
	for i < len(d) {
		c := d[i]
		switch {
		case c == '"':
			s.pos = i + 1
			return out
		case c < ' ':
			s.pos = i
			s.syntax("in string literal")
			return nil
		case c == '\\':
			if i+1 >= len(d) {
				s.pos = len(d)
				s.syntax("")
				return nil
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
				i += 2
			case 'b':
				out = append(out, '\b')
				i += 2
			case 'f':
				out = append(out, '\f')
				i += 2
			case 'n':
				out = append(out, '\n')
				i += 2
			case 'r':
				out = append(out, '\r')
				i += 2
			case 't':
				out = append(out, '\t')
				i += 2
			case 'u':
				r := getu4(d[i:])
				if r < 0 {
					s.pos = i
					s.syntax("in \\u hexadecimal character escape")
					return nil
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, getu4(d[i:])); dec != unicode.ReplacementChar {
						out = utf8.AppendRune(out, dec)
						i += 6
						break
					}
					r = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, r)
			default:
				s.pos = i + 1
				s.syntax("in string escape code")
				return nil
			}
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	s.pos = len(d)
	s.syntax("")
	return nil
}

// getu4 decodes a \uXXXX escape at the start of b, or returns -1.
func getu4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}
