package strictjson

import (
	"strings"
	"testing"
)

type inner struct {
	AtMS  float64 `json:"atMS"`
	Plain int
	Skip  int `json:"-"`
}

type Embedded struct {
	Promoted int `json:"promoted"`
}

type outer struct {
	Embedded
	Name   string           `json:"name,omitempty"`
	In     inner            `json:"in"`
	Ptr    *inner           `json:"ptr,omitempty"`
	List   []inner          `json:"list"`
	ByName map[string]inner `json:"byName"`
	Any    any              `json:"any"`
}

func TestDecodeAccepts(t *testing.T) {
	in := `{"name":"x","promoted":2,"in":{"atMS":1.5,"Plain":3},"ptr":{"atMS":2},
		"list":[{"atMS":1},{"atMS":2}],"byName":{"k":{"atMS":4}},
		"any":{"ANY":[[[{"case":"free"}]]]}}` + "\n"
	var v outer
	if err := Decode([]byte(in), &v); err != nil {
		t.Fatal(err)
	}
	if v.Promoted != 2 || v.In.AtMS != 1.5 || v.In.Plain != 3 || v.Ptr.AtMS != 2 ||
		len(v.List) != 2 || v.List[1].AtMS != 2 || v.ByName["k"].AtMS != 4 {
		t.Errorf("decoded %+v", v)
	}
}

func TestDecodeRejects(t *testing.T) {
	for _, tc := range []struct{ name, in, want string }{
		{"case-folded key", `{"in":{"atMs":1}}`, `unknown field "atMs" at in.atMs (did you mean "atMS"?)`},
		{"case-folded untagged key", `{"in":{"plain":1}}`, `unknown field "plain" at in.plain (did you mean "Plain"?)`},
		{"case-folded duplicate", `{"NAME":"a","name":"b"}`, `unknown field "NAME" at NAME`},
		{"misspelled key", `{"in":{"atMz":1}}`, `unknown field "atMz" at in.atMz`},
		{"dash-tagged field", `{"in":{"Skip":1}}`, `unknown field "Skip" at in.Skip`},
		{"array element", `{"list":[{"atMS":1},{"untilMS":2}]}`, `unknown field "untilMS" at list[1].untilMS`},
		{"pointer target", `{"ptr":{"x":1}}`, `unknown field "x" at ptr.x`},
		{"map value", `{"byName":{"k":{"x":1}}}`, `unknown field "x" at byName.k.x`},
		{"duplicate key", `{"name":"a","name":"b"}`, `duplicate field "name" at name`},
		{"duplicate nested key", `{"in":{"atMS":1,"atMS":2}}`, `duplicate field "atMS" at in.atMS`},
		{"trailing object", `{} {}`, "trailing data"},
		{"trailing garbage", `{}]`, "trailing data"},
		{"truncated", `{"in":{`, "unexpected EOF"},
		{"empty", ``, "unexpected EOF"},
		{"type mismatch", `{"in":{"atMS":"x"}}`, "cannot unmarshal string"},
		{"syntax error", `{"in":}`, "invalid character"},
	} {
		var v outer
		if err := Decode([]byte(tc.in), &v); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Decode(%s) = %v, want an error containing %q", tc.name, tc.in, err, tc.want)
		}
	}
}

// TestDecodeDeepNesting: values skipped unchecked (here under an
// interface field) are consumed iteratively, so hostile nesting depth
// fails or succeeds like encoding/json does, without deep recursion.
func TestDecodeDeepNesting(t *testing.T) {
	const depth = 100000
	in := `{"any":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
	var v outer
	if err := Decode([]byte(in), &v); err == nil || !strings.Contains(err.Error(), "exceeded max depth") {
		t.Errorf("Decode(deep) = %v, want encoding/json's depth error", err)
	}
}
