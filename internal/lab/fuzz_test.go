package lab

import (
	"bytes"
	"testing"
)

// FuzzParseStudy: ParseStudy returns an error and never panics, and any
// study it accepts re-encodes canonically, parses back, and re-encodes
// to the same bytes.
func FuzzParseStudy(f *testing.F) {
	for _, st := range BuiltinStudies() {
		f.Add(st.JSON())
	}
	f.Add([]byte(`{"name":"s","jobs":[{"name":"a","kind":"scenario","target":"permutation"},{"name":"b","kind":"sweep","sweeep":"smoke-grid"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ParseStudy(data)
		if err != nil {
			return
		}
		enc := st.JSON()
		back, err := ParseStudy(enc)
		if err != nil {
			t.Fatalf("accepted study does not parse back: %v\n%s", err, enc)
		}
		if again := back.JSON(); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not stable:\n%s\nvs\n%s", enc, again)
		}
	})
}
