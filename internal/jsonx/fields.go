package jsonx

import (
	"unicode"
	"unicode/utf8"
)

// Fields is the key table of one decoded object: Lookup maps a key to the
// index of its name, the way encoding/json picks a struct field.
type Fields struct {
	names  []string
	folded []string
}

// NewFields returns the table for the given names, indexed in order.
func NewFields(names ...string) *Fields {
	f := &Fields{names: names, folded: make([]string, len(names))}
	for i, n := range names {
		f.folded[i] = string(appendFolded(nil, []byte(n)))
	}
	return f
}

// Lookup returns the index of the name key matches exactly or, failing
// that, under Unicode simple case folding ("NAME" and "ſlo_ms" select
// name and slo_ms); -1 if none does.
func (f *Fields) Lookup(key []byte) int {
	for i, n := range f.names {
		if string(key) == n {
			return i
		}
	}
	var arr [32]byte
	k := appendFolded(arr[:0], key)
	for i, n := range f.folded {
		if string(k) == n {
			return i
		}
	}
	return -1
}

// appendFolded is encoding/json's name folding: ASCII upper-cased, every
// other rune mapped to the smallest rune of its simple fold orbit.
func appendFolded(out, in []byte) []byte {
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		out = utf8.AppendRune(out, foldRune(r))
		i += n
	}
	return out
}

func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}
