package jsonx

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes json.Marshal writes unescaped.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// AppendString appends s as a JSON string, byte for byte as json.Marshal
// writes it: <, > and & escaped, U+2028 and U+2029 escaped, and each byte
// of invalid UTF-8 replaced by \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
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
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f as json.Marshal writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21 up,
// with a one-digit negative exponent unpadded (1e-7, not 1e-07). A NaN
// or an infinity is an error, as it is for json.Marshal.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	// An integer below 1e15 is exactly representable with room to spare,
	// so its shortest round-trip decimal is its own digits.
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		if f == 0 && math.Signbit(f) {
			return append(dst, '-', '0'), nil
		}
		return strconv.AppendInt(dst, int64(f), 10), nil
	}
	if b, ok := appendShortDecimal(dst, f); ok {
		return b, nil
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendShortDecimal writes f when it is, to the last bit, the float
// nearest a decimal with one to three places below 1e11 (0.2, 1.5,
// 0.02), without the general shortest-digits search. It reports false
// for anything else. The output matches strconv's shortest form: the
// decimal round-trips (float64(n)/10^k is correctly rounded), it has no
// trailing zero, and below 1e11 a float's spacing is under 10^-3, so no
// other decimal with as few places round-trips.
func appendShortDecimal(dst []byte, f float64) ([]byte, bool) {
	a := math.Abs(f)
	if a >= 1e11 {
		return dst, false
	}
	for k, pow := 1, 10.0; k <= 3; k, pow = k+1, pow*10 {
		m := a * pow
		if m != math.Trunc(m) {
			continue
		}
		n := int64(m)
		if n%10 == 0 || float64(n)/pow != a {
			return dst, false
		}
		if f < 0 {
			dst = append(dst, '-')
		}
		p := int64(pow)
		dst = strconv.AppendInt(dst, n/p, 10)
		dst = append(dst, '.')
		frac := n % p
		for q := p / 10; q > frac && q > 1; q /= 10 {
			dst = append(dst, '0')
		}
		return strconv.AppendInt(dst, frac, 10), true
	}
	return dst, false
}
