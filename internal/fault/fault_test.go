package fault

import (
	"strings"
	"testing"

	"pushpull/internal/sim"
)

func ms(v float64) sim.Time { return msToTime(v) }

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		want string // substring of the error, "" for valid
	}{
		{"valid link-down", Event{Kind: KindLinkDown, Node: 0, AtMS: 1, UntilMS: 2}, ""},
		{"unknown kind", Event{Kind: "meteor-strike", AtMS: 0, UntilMS: 1}, "unknown kind"},
		{"node out of range", Event{Kind: KindLinkDown, Node: 9, AtMS: 0, UntilMS: 1}, "out of range"},
		{"negative node", Event{Kind: KindLinkDown, Node: -1, AtMS: 0, UntilMS: 1}, "out of range"},
		{"negative at", Event{Kind: KindLinkDown, AtMS: -1, UntilMS: 1}, "negative"},
		{"empty window", Event{Kind: KindLinkDown, AtMS: 2, UntilMS: 2}, "must exceed"},
		{"flap no period", Event{Kind: KindLinkFlap, AtMS: 0, UntilMS: 1, DutyCycle: 0.5}, "periodMS"},
		{"flap bad duty", Event{Kind: KindLinkFlap, AtMS: 0, UntilMS: 1, PeriodMS: 0.1, DutyCycle: 1.5}, "dutyCycle"},
		{"flap explodes", Event{Kind: KindLinkFlap, AtMS: 0, UntilMS: 1e9, PeriodMS: 0.001, DutyCycle: 0.5}, "periods"},
		{"burst bad prob", Event{Kind: KindLossBurst, AtMS: 0, UntilMS: 1, PEnterBurst: 2, BurstLoss: 0.5}, "outside [0,1]"},
		{"burst zero loss", Event{Kind: KindLossBurst, AtMS: 0, UntilMS: 1, PEnterBurst: 0.1, PExitBurst: 0.1}, "burstLoss"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Plan{Events: []Event{tc.ev}}
			err := p.Validate(4)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestParsePlanRejectsGarbage(t *testing.T) {
	if _, err := ParsePlan([]byte(`{nope`)); err == nil {
		t.Error("ParsePlan accepted malformed JSON")
	}
	p, err := ParsePlan([]byte(`{"seed":3,"events":[{"kind":"link-down","node":1,"atMS":1,"untilMS":2}]}`))
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if p.Seed != 3 || len(p.Events) != 1 || p.Events[0].Kind != KindLinkDown {
		t.Errorf("ParsePlan decoded %+v", p)
	}
}

func TestParsePlanRejectsUnknownFields(t *testing.T) {
	for _, doc := range []string{
		`{"seed":3,"evnets":[]}`,
		`{"events":[{"kind":"link-down","node":1,"atMS":1,"untilMS":2,"durationMS":1}]}`,
	} {
		_, err := ParsePlan([]byte(doc))
		if err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("ParsePlan(%s) = %v, want an unknown-field error", doc, err)
		}
	}
}

// TestParsePlanExactKeys: plan keys match exactly (encoding/json alone
// fills AtMS from "atMs"), and an unknown key is reported with its path.
func TestParsePlanExactKeys(t *testing.T) {
	for _, tc := range []struct{ doc, want string }{
		{`{"events":[{"kind":"link-down","node":1,"atMs":1,"untilMS":2}]}`, `unknown field "atMs" at events[0].atMs (did you mean "atMS"?)`},
		{`{"SEED":3,"events":[]}`, `unknown field "SEED" at SEED (did you mean "seed"?)`},
		{`{"events":[{"kind":"link-down","node":1,"atMS":1,"untilMS":2},{"kind":"nic-stall","untilMs":3}]}`, `unknown field "untilMs" at events[1].untilMs`},
	} {
		if _, err := ParsePlan([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParsePlan(%s) = %v, want an error containing %q", tc.doc, err, tc.want)
		}
	}
}

func TestParsePlanRejectsTrailingData(t *testing.T) {
	for _, doc := range []string{
		`{"events":[]} x`,
		`{"events":[]}{"events":[]}`,
		`{"events":[]}]`,
	} {
		if _, err := ParsePlan([]byte(doc)); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("ParsePlan(%s) = %v, want a trailing-data error", doc, err)
		}
	}
	if _, err := ParsePlan([]byte("{\"events\":[]}\n\t ")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

func TestCompileNilPlan(t *testing.T) {
	s, err := Compile(nil, 1)
	if err != nil {
		t.Fatalf("Compile(nil): %v", err)
	}
	if s != nil {
		t.Fatalf("Compile(nil) = %+v, want nil set (nil-check-only hot path)", s)
	}
}

func TestLinkDownWindowsMerged(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: KindLinkDown, Node: 1, AtMS: 5, UntilMS: 8},
		{Kind: KindLinkDown, Node: 1, AtMS: 1, UntilMS: 3},
		{Kind: KindLinkDown, Node: 1, AtMS: 2, UntilMS: 6}, // bridges the two
	}}
	s, err := Compile(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := s.LinkInjector(1)
	if in == nil {
		t.Fatal("no injector for faulted node")
	}
	for _, tc := range []struct {
		atMS float64
		lost bool
	}{{0.5, false}, {1, true}, {4, true}, {7.999, true}, {8, false}, {9, false}} {
		if got := in.Lose(ms(tc.atMS)); got != tc.lost {
			t.Errorf("Lose(@%gms) = %v, want %v", tc.atMS, got, tc.lost)
		}
	}
	if got, want := s.Downtime(1, ms(100)), 7*sim.Millisecond; got != want {
		t.Errorf("Downtime = %v, want %v (merged [1,8))", got, want)
	}
	if got, want := s.Downtime(1, ms(4)), 3*sim.Millisecond; got != want {
		t.Errorf("Downtime clamped to 4ms = %v, want %v", got, want)
	}
	if s.LinkInjector(0) != nil {
		t.Error("unfaulted node got a non-nil injector")
	}
	if got := s.LastFaultEnd(); got != ms(8) {
		t.Errorf("LastFaultEnd = %v, want 8 ms", got)
	}
}

func TestFlapDeterministicAcrossCompiles(t *testing.T) {
	p := &Plan{Seed: 9, Events: []Event{
		{Kind: KindLinkFlap, Node: 0, AtMS: 0, UntilMS: 10, PeriodMS: 1, DutyCycle: 0.6, Random: true},
	}}
	probe := func() (pattern []bool, down sim.Duration) {
		s, err := Compile(p, 42)
		if err != nil {
			t.Fatal(err)
		}
		in := s.LinkInjector(0)
		for us := 0; us < 10000; us += 50 {
			pattern = append(pattern, in.Lose(sim.Time(0).Add(sim.Duration(us)*sim.Microsecond)))
		}
		return pattern, s.Downtime(0, ms(10))
	}
	p1, d1 := probe()
	p2, d2 := probe()
	if d1 != d2 {
		t.Fatalf("downtime differs across compiles: %v vs %v", d1, d2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("flap pattern differs at probe %d", i)
		}
	}
	// 40% duty-cycle downtime over 10 ms, each period's down interval
	// possibly clipped at the plan end: strictly positive, at most 4 ms.
	if d1 <= 0 || d1 > 4*sim.Millisecond {
		t.Errorf("flap downtime = %v, want in (0, 4ms]", d1)
	}
	// A different cluster seed must move the random phases.
	s3, _ := Compile(p, 43)
	if got := s3.Downtime(0, ms(10)); got <= 0 {
		t.Errorf("reseeded flap downtime = %v, want positive", got)
	}
}

func TestGilbertElliottChain(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: KindLossBurst, Node: 2, AtMS: 0, UntilMS: 100,
			PEnterBurst: 0.2, PExitBurst: 0.2, BurstLoss: 1},
	}}
	s, err := Compile(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	in := s.LinkInjector(2)
	losses := 0
	const frames = 2000
	for i := 0; i < frames; i++ {
		if in.Lose(ms(float64(i) * 0.01)) {
			losses++
		}
	}
	if uint64(losses) != s.BurstLosses(2) {
		t.Errorf("observed %d losses, counter says %d", losses, s.BurstLosses(2))
	}
	// Stationary burst occupancy is pEnter/(pEnter+pExit) = 0.5 with
	// certain loss inside a burst: losses must be plentiful but partial.
	if losses < frames/10 || losses > frames*9/10 {
		t.Errorf("losses = %d of %d, want a partial correlated pattern", losses, frames)
	}
	// Outside the window the chain is frozen: no loss, no state advance.
	if in.Lose(ms(200)) {
		t.Error("chain lost a frame outside its window")
	}
	if got := s.BurstLosses(2); got != uint64(losses) {
		t.Errorf("out-of-window consult changed the loss counter: %d", got)
	}
}

func TestPortAndNICInjectors(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: KindPortBlackout, Node: 1, AtMS: 1, UntilMS: 2},
		{Kind: KindNICStall, Node: 2, AtMS: 3, UntilMS: 5},
		{Kind: KindNodePause, Node: 2, AtMS: 4, UntilMS: 6},
	}}
	s, err := Compile(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	pi := s.PortInjector(1)
	if pi == nil || !pi.Blocked(ms(1.5)) || pi.Blocked(ms(2.5)) {
		t.Error("port blackout window wrong")
	}
	if s.PortInjector(2) != nil {
		t.Error("node 2 has no port fault but got an injector")
	}
	ni := s.NICInjector(2)
	if ni == nil {
		t.Fatal("no NIC injector for node 2")
	}
	// During the pause the host drops rx; during stall-only it must not.
	if ni.RxDrop(ms(3.5)) {
		t.Error("rx dropped during a tx-only stall")
	}
	if !ni.RxDrop(ms(4.5)) {
		t.Error("rx not dropped during a node pause")
	}
	// Stall and pause overlap [4,5): tx may not fetch until the later
	// end (pause until 6).
	if until, stalled := ni.StallUntil(ms(4.5)); !stalled || until != ms(6) {
		t.Errorf("StallUntil(@4.5ms) = %v,%v, want 6ms,true", until, stalled)
	}
	if _, stalled := ni.StallUntil(ms(6.5)); stalled {
		t.Error("stalled after every window closed")
	}
	if got := s.Nodes(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Nodes() = %v, want [1 2]", got)
	}
	if got := s.LastFaultEnd(); got != ms(6) {
		t.Errorf("LastFaultEnd = %v, want 6 ms", got)
	}
}
