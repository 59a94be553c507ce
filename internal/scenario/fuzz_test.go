package scenario

import (
	"bytes"
	"testing"
)

// FuzzParseSpec: ParseSpec returns an error and never panics, and any
// spec it accepts re-encodes canonically, parses back, and re-encodes
// to the same bytes.
func FuzzParseSpec(f *testing.F) {
	for _, s := range Builtin() {
		f.Add(s.JSON())
	}
	f.Add([]byte(`{"TRAFFIC":{"MESSAGES":3,"messages":9}}`))
	f.Add([]byte(`{"traffic":{"mesages":3}}`))
	// An explicit empty policy once re-encoded as absent, which parses
	// back as the default "symmetric".
	f.Add([]byte(`{"topology":{"kind":"switch","nodes":4,"procsPerNode":1,"policy":""}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		enc := s.JSON()
		back, err := ParseSpec(enc)
		if err != nil {
			t.Fatalf("accepted spec does not parse back: %v\n%s", err, enc)
		}
		if again := back.JSON(); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not stable:\n%s\nvs\n%s", enc, again)
		}
	})
}

// FuzzParseSweep is FuzzParseSpec for sweep files; acceptance includes
// a successful grid expansion.
func FuzzParseSweep(f *testing.F) {
	for _, sw := range BuiltinSweeps() {
		f.Add(sw.JSON())
	}
	f.Add([]byte(`{"name":"s","base":{"TRAFFIC":{"MESSAGES":3,"messages":9}}}`))
	f.Add([]byte(`{"name":"s","base":{"traffic":{"mesages":3}}}`))
	f.Add([]byte(`{"name":"s","base":{"topology":{"policy":""}},"grid":{"seeds":[1,2]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sw, err := ParseSweep(data)
		if err != nil {
			return
		}
		enc := sw.JSON()
		back, err := ParseSweep(enc)
		if err != nil {
			t.Fatalf("accepted sweep does not parse back: %v\n%s", err, enc)
		}
		if again := back.JSON(); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not stable:\n%s\nvs\n%s", enc, again)
		}
	})
}
