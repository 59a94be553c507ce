package fault

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParsePlan: ParsePlan, Validate and Compile return errors and never
// panic, and any plan ParsePlan accepts re-encodes canonically, parses
// back, and re-encodes to the same bytes.
func FuzzParsePlan(f *testing.F) {
	// One plan per event kind, shaped like the scenario registry's
	// fault builtins and sweep presets.
	for _, doc := range []string{
		`{"events":[{"kind":"link-down","node":1,"atMS":1,"untilMS":6}]}`,
		`{"seed":3,"events":[{"kind":"link-flap","node":1,"atMS":0,"untilMS":10,"periodMS":1,"dutyCycle":0.6,"random":true}]}`,
		`{"seed":7,"events":[{"kind":"loss-burst","node":1,"atMS":0,"untilMS":50,"pEnterBurst":0.05,"pExitBurst":0.3,"burstLoss":0.8}]}`,
		`{"events":[{"kind":"port-blackout","node":2,"atMS":2,"untilMS":4},{"kind":"node-pause","node":0,"atMS":1,"untilMS":3},{"kind":"nic-stall","node":1,"atMS":0.5,"untilMS":0.75}]}`,
		`{"events":[{"kind":"link-down","node":1,"atMs":1,"untilMS":2}]}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted plan does not encode: %v", err)
		}
		back, err := ParsePlan(enc)
		if err != nil {
			t.Fatalf("accepted plan does not parse back: %v\n%s", err, enc)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not stable:\n%s\nvs\n%s", enc, again)
		}
		if p.Validate(0) != nil {
			return
		}
		if _, err := Compile(p, 1); err != nil {
			t.Fatalf("Compile rejected a plan Validate accepted: %v", err)
		}
	})
}
