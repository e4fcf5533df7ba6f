package jsonx

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"
)

// FuzzScanner checks the scanner against encoding/json on one value:
// Skip accepts exactly the documents json.Valid accepts (up to the bytes
// after the first value, which it never reads), and String unescapes a
// string literal to what json.Unmarshal gives.
func FuzzScanner(f *testing.F) {
	for _, s := range []string{
		`{}`, `[]`, `null`, `true`, `false`, `0`, `-0`, `01`, `1.`, `1e`, `-`, `1e400`, `"a"`,
		`{"a":[1,2,{"b":null}],"c":"é😀\ud800x"}`, `[1,]`, `{,}`, `{"a" 1}`, `{"a":1,}`,
		"\"\xff\xfe\"", "\"a\tb\"", `"\'"`, `"\uZZZZ"`, `"\/\b\f\n\r\t"`, `[[[[]]]]`, `[{"a":[{}]}]`,
		`{"a":1}x`, ` {"a" : [ 1 , 2 ] } `, `nul`, `tru`, `[1 2]`, `{"a":1]`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		s := NewScanner([]byte(doc))
		s.Skip()
		if err := s.Err(); err != nil {
			if json.Valid([]byte(doc)) {
				t.Fatalf("Skip rejects valid %q: %v", doc, err)
			}
		} else {
			var v json.RawMessage
			if err := json.NewDecoder(strings.NewReader(doc)).Decode(&v); err != nil {
				t.Fatalf("Skip accepts %q, json.Decoder: %v", doc, err)
			}
		}

		if NewScanner([]byte(doc)).Null() {
			return // null into a string is a no-op, which callers handle
		}
		s = NewScanner([]byte(doc))
		got, ok := s.String()
		var want string
		werr := json.NewDecoder(strings.NewReader(doc)).Decode(&want)
		if (ok && s.Err() == nil) != (werr == nil) {
			t.Fatalf("String(%q) ok=%v err=%v, json err %v", doc, ok, s.Err(), werr)
		}
		if werr == nil && string(got) != want {
			t.Fatalf("String(%q) = %q, json gives %q", doc, got, want)
		}
	})
}

// FuzzAppend checks the encoder half byte for byte against json.Marshal.
func FuzzAppend(f *testing.F) {
	f.Add("plain", 1.5)
	f.Add("<a href=\"x\">&amp;</a>\u2028\u2029\x7f\x00\x1f\t\n\r\b\f\\", 1e21)
	f.Add("\xff\xc3\xed\xa0\x80ok", 1e-7)
	f.Add("é😀", 999999999999999999999.0)
	f.Add("", math.Copysign(0, -1))
	f.Add("x", 5e-324)
	f.Add("x", math.MaxFloat64)
	f.Add("x", 123456789.125)
	f.Add("x", 0.2)
	f.Add("x", -10.05)
	f.Add("x", 99999999999.999)
	f.Fuzz(func(t *testing.T, str string, x float64) {
		want, err := json.Marshal(str)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, str); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal gives %s", str, got, want)
		}
		want, werr := json.Marshal(x)
		got, gerr := AppendFloat(nil, x)
		if (gerr == nil) != (werr == nil) || !bytes.Equal(got, want) && gerr == nil {
			t.Fatalf("AppendFloat(%v) = %s, %v; json.Marshal gives %s, %v", x, got, gerr, want, werr)
		}
	})
}

// TestAppendFloatShortDecimals sweeps the decimals the short path takes,
// and their neighbours one bit away, against json.Marshal.
func TestAppendFloatShortDecimals(t *testing.T) {
	check := func(x float64) {
		want, _ := json.Marshal(x)
		if got, err := AppendFloat(nil, x); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) = %s, %v; json.Marshal gives %s", x, got, err, want)
		}
	}
	for n := int64(-30000); n <= 30000; n++ {
		for _, pow := range []float64{10, 100, 1000} {
			x := float64(n) / pow
			check(x)
			check(math.Nextafter(x, math.Inf(1)))
			check(math.Nextafter(x, math.Inf(-1)))
		}
	}
	for _, x := range []float64{0.1 + 0.2, 1e11 - 0.5, 99999999999.999, 1e10 + 0.125, 0.001, 0.009, 123456.789, -0.05} {
		check(x)
		check(math.Nextafter(x, 0))
	}
}

// TestEscapedStringsCostTheirOwnSize: unescaping a string allocates for
// that string, not for the rest of the document, and skipping one
// allocates nothing.
func TestEscapedStringsCostTheirOwnSize(t *testing.T) {
	doc := []byte("[" + strings.Repeat(`"a\u0041\n\ud83d\ude00b",`, 20000) + `"end"]`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewScanner(doc)
	n := 0
	if s.Array() {
		for s.More(']') {
			if b, ok := s.String(); !ok || string(b) != "aA\n\U0001F600b" && string(b) != "end" {
				t.Fatalf("String = %q, %v", b, ok)
			}
			n++
		}
	}
	skip := NewScanner(doc)
	skip.Skip()
	runtime.ReadMemStats(&after)
	if err := s.Err(); err != nil || n != 20001 || skip.Err() != nil {
		t.Fatalf("scanned %d strings: %v, skip: %v", n, err, skip.Err())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Errorf("scanning a %d-byte document allocated %d bytes", len(doc), grew)
	}
}

func TestAppendFloatNonFinite(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if b, err := AppendFloat([]byte("k:"), x); err == nil || string(b) != "k:" {
			t.Errorf("AppendFloat(%v) = %q, %v; want the input back and an error", x, b, err)
		}
	}
}

func TestFieldsLookupFolds(t *testing.T) {
	f := NewFields("name", "slo_ms", "pressure_k")
	for key, want := range map[string]int{
		"name": 0, "NAME": 0, "Name": 0, "slo_ms": 1, "ſlo_ms": 1, "SLO_MS": 1,
		"pressure_k": 2, "pressure_K": 2, "pressure_K": 2,
		"names": -1, "nam": -1, "slo-ms": -1, "": -1,
	} {
		if got := f.Lookup([]byte(key)); got != want {
			t.Errorf("Lookup(%q) = %d, want %d", key, got, want)
		}
	}
}

func TestNumbersMatchEncodingJSON(t *testing.T) {
	for _, lit := range []string{"0", "-0", "1.5", "1e400", "-1", "18446744073709551615", "18446744073709551616",
		"9223372036854775807", "9223372036854775808", "2.0", "1e2", "01", "-", "1.e3"} {
		var wf float64
		var wu uint64
		var wi int
		// A decoder, like the scanner, stops after the first value.
		ferr := json.NewDecoder(strings.NewReader(lit)).Decode(&wf)
		uerr := json.NewDecoder(strings.NewReader(lit)).Decode(&wu)
		ierr := json.NewDecoder(strings.NewReader(lit)).Decode(&wi)

		s := NewScanner([]byte(lit))
		f, ok := s.Float()
		if (ok && s.Err() == nil) != (ferr == nil) || ok && f != wf {
			t.Errorf("Float(%s) = %v, %v; json %v, %v", lit, f, s.Err(), wf, ferr)
		}
		s = NewScanner([]byte(lit))
		u, ok := s.Uint64()
		if (ok && s.Err() == nil) != (uerr == nil) || ok && u != wu {
			t.Errorf("Uint64(%s) = %v, %v; json %v, %v", lit, u, s.Err(), wu, uerr)
		}
		s = NewScanner([]byte(lit))
		i, ok := s.Int()
		if (ok && s.Err() == nil) != (ierr == nil) || ok && i != wi {
			t.Errorf("Int(%s) = %v, %v; json %v, %v", lit, i, s.Err(), wi, ierr)
		}
	}
}
