package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"pushpull/internal/sim"
)

// ev is a note-carrying event for tests that do not care about the
// typed fields.
func ev(t sim.Time, node int, kind Kind, note string) Event {
	return Event{T: t, Node: node, Kind: kind, Note: note}
}

func TestRecordAndEvents(t *testing.T) {
	r := NewRecorder(0)
	r.Record(ev(10, 0, KindSend, "a"))
	r.Record(ev(20, 1, KindPush, "b"))
	r.Record(Event{T: 30, Node: 0, Kind: KindComplete, Ch: Channel{0, 0, 1, 0}, MsgID: 7, Len: 42, Aux: [2]int{42}})

	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("Len = %d, want 3", len(evs))
	}
	if evs[0].Kind != KindSend || evs[1].Kind != KindPush || evs[2].Kind != KindComplete {
		t.Errorf("kinds out of order: %v %v %v", evs[0].Kind, evs[1].Kind, evs[2].Kind)
	}
	if evs[1].Text() != "b" {
		t.Errorf("note text = %q", evs[1].Text())
	}
	if got, want := evs[2].Text(), "n0.p0->n1.p0#7 complete: 42/42 bytes received"; got != want {
		t.Errorf("typed text = %q, want %q", got, want)
	}
	if evs[2].Ch != (Channel{0, 0, 1, 0}) || evs[2].MsgID != 7 || evs[2].Len != 42 {
		t.Errorf("typed fields not retained: %+v", evs[2])
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 || evs[2].Seq != 2 {
		t.Errorf("sequence numbers %d %d %d", evs[0].Seq, evs[1].Seq, evs[2].Seq)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Record(ev(1, 0, KindSend, "x")) // must not panic
	r.Record(Event{T: 2, Kind: KindPush, Len: 1})
	if r.Len() != 0 || r.Total() != 0 || r.Count(KindSend) != 0 {
		t.Error("nil recorder reported non-zero state")
	}
	if r.Events() != nil || r.Kinds() != nil {
		t.Error("nil recorder returned events")
	}
}

func TestCounterCountsWithoutRetaining(t *testing.T) {
	r := NewCounter()
	for i := 0; i < 5; i++ {
		r.Record(Event{T: sim.Time(i), Kind: KindPush, Len: i})
	}
	r.Record(ev(9, 0, "api", "mark"))
	if r.Count(KindPush) != 5 || r.Count("api") != 1 || r.Total() != 6 {
		t.Errorf("counts push=%d api=%d total=%d, want 5, 1, 6", r.Count(KindPush), r.Count("api"), r.Total())
	}
	if r.Len() != 0 || len(r.Events()) != 0 || r.Evicted() != 0 {
		t.Errorf("counter retained %d events, evicted %d", r.Len(), r.Evicted())
	}
	if kinds := r.Kinds(); len(kinds) != 2 || kinds[0] != "api" || kinds[1] != KindPush {
		t.Errorf("Kinds = %v, want [api push]", kinds)
	}
}

// hotEvents are the events the model records on its per-frame and
// per-message paths, one per kind and variant.
var hotEvents = []Event{
	{Kind: KindNICTx, Len: 1500, Aux: [2]int{0, 1}},
	{Kind: KindNICRx, Len: 1500, Aux: [2]int{0, 1}},
	{Kind: KindNICDrop, Len: 1500, Aux: [2]int{0, 1}},
	{Kind: KindNICDrop, Variant: HostPaused, Len: 1500, Aux: [2]int{0, 1}},
	{Kind: KindSend, Len: 4000, Aux: [2]int{760}},
	{Kind: KindSend, Variant: Intranode, Len: 4000, Aux: [2]int{760}},
	{Kind: KindSend, Variant: ThreePhase, Len: 4000},
	{Kind: KindPush, Off: 0, Len: 744, Aux: [2]int{1}},
	{Kind: KindDirect, Off: 744, Len: 1484, Aux: [2]int{3}},
	{Kind: KindDirect, Variant: Intranode, Len: 760},
	{Kind: KindPark, Off: 0, Len: 744, Aux: [2]int{1, 5}},
	{Kind: KindPark, Variant: Intranode, Len: 760, Aux: [2]int{1520}},
	{Kind: KindDiscard, Off: 744, Len: 16},
	{Kind: KindRefuse, Off: 1484, Len: 1484},
	{Kind: KindPullReq, Off: 760, Len: 3240, Aux: [2]int{2}},
	{Kind: KindPullGrant, Off: 760, Len: 3240, Aux: [2]int{2}},
	{Kind: KindPullGrant, Variant: ThreePhase, Len: 4000},
	{Kind: KindPullDispatch, Aux: [2]int{1}},
	{Kind: KindComplete, Len: 4000, Aux: [2]int{4000}},
	{Kind: KindRTO, Off: 17, Len: 4, Aux: [2]int{3}},
	{Kind: KindRTO, Variant: Exhausted, Off: 17, Len: 4, Aux: [2]int{8}},
	{Kind: KindRetransmit, Off: 17, Len: 1500},
}

// Recording a hot event formats nothing and allocates nothing, into a
// counting recorder and into a nil one.
func TestRecordHotEventsDoesNotAllocate(t *testing.T) {
	var nilRec *Recorder
	for _, rec := range []*Recorder{NewCounter(), nilRec} {
		for _, e := range hotEvents {
			if n := testing.AllocsPerRun(100, func() { rec.Record(e) }); n != 0 {
				t.Errorf("recording %s/%d into %p allocated %.1f times per event", e.Kind, e.Variant, rec, n)
			}
		}
	}
}

// TestEventTextGolden pins Event.String for every kind and variant to
// the text the model's former fmt.Sprintf call sites produced.
func TestEventTextGolden(t *testing.T) {
	ch := Channel{FromNode: 0, FromProc: 0, ToNode: 1, ToProc: 0}
	at := sim.Time(45 * sim.Microsecond)
	want := []string{
		"45.000µs n1 nic-tx        frame 0->1 1500B on wire",
		"45.000µs n1 nic-rx        frame 0->1 1500B in host ring",
		"45.000µs n1 nic-drop      frame 0->1 1500B lost to rx-ring overflow",
		"45.000µs n1 nic-drop      frame 0->1 1500B dropped: host paused",
		"45.000µs n1 send          n0.p0->n1.p0#3 send 4000B internode, push 760B",
		"45.000µs n1 send          n0.p0->n1.p0#3 send 4000B intranode, push 760B",
		"45.000µs n1 send          n0.p0->n1.p0#3 send 4000B three-phase",
		"45.000µs n1 push          n0.p0->n1.p0#3 push frag [0:744) preloaded=true",
		"45.000µs n1 direct        n0.p0->n1.p0#3 frag [744:2228) direct to destination on cpu3",
		"45.000µs n1 direct        n0.p0->n1.p0#3 pushed 760B direct to destination",
		"45.000µs n1 park          n0.p0->n1.p0#3 frag [0:744) parked in pushed buffer (slot 1/5)",
		"45.000µs n1 park          n0.p0->n1.p0#3 pushed 760B to pushed buffer (1520B held)",
		"45.000µs n1 discard       n0.p0->n1.p0#3 frag [744:760) DISCARDED: pushed buffer full, pull will re-fetch",
		"45.000µs n1 refuse        n0.p0->n1.p0#3 frag [1484:2968) REFUSED: pushed buffer full",
		"45.000µs n1 pull-req      n0.p0->n1.p0#3 pull request (ack) for [760:4000), 2 dropped ranges",
		"45.000µs n1 pull-grant    n0.p0->n1.p0#3 pull granted, transmitting [760:4000) + 2 redo ranges",
		"45.000µs n1 pull-grant    n0.p0->n1.p0#3 CTS received, transmitting 4000B",
		"45.000µs n1 pull-dispatch n0.p0->n1.p0#3 pull dispatched to cpu1",
		"45.000µs n1 complete      n0.p0->n1.p0#3 complete: 4000/4000 bytes received",
		"45.000µs n1 rto           timeout #3, window [17,21) retransmits",
		"45.000µs n1 rto           retransmission budget exhausted after 8 consecutive timeouts, window [17,21) abandoned",
		"45.000µs n1 retransmit    seq 17 (1500B)",
	}
	if len(want) != len(hotEvents) {
		t.Fatalf("%d golden lines for %d hot events", len(want), len(hotEvents))
	}
	for i, e := range hotEvents {
		e.T, e.Node = at, 1
		if e.Kind != KindNICTx && e.Kind != KindNICRx && e.Kind != KindNICDrop &&
			e.Kind != KindRTO && e.Kind != KindRetransmit {
			e.Ch, e.MsgID = ch, 3
		}
		if got := e.String(); got != want[i] {
			t.Errorf("event %d:\n got %q\nwant %q", i, got, want[i])
		}
	}
	// Cold events render their note verbatim; a kind without a typed
	// form and no note renders no text.
	cold := Event{T: at, Node: -1, Kind: KindError, Note: "peer node 2 unreachable: retransmission budget exhausted"}
	if got, w := cold.String(), "45.000µs n-1 error         peer node 2 unreachable: retransmission budget exhausted"; got != w {
		t.Errorf("note event:\n got %q\nwant %q", got, w)
	}
	if got := (Event{Kind: "api"}).Text(); got != "" {
		t.Errorf("empty api event text = %q", got)
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 7; i++ {
		r.Record(ev(sim.Time(i), 0, KindPush, ""))
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if r.Total() != 7 || r.Evicted() != 4 {
		t.Errorf("Total = %d Evicted = %d, want 7 and 4", r.Total(), r.Evicted())
	}
	evs := r.Events()
	for i, ev := range evs {
		if want := sim.Time(4 + i); ev.T != want {
			t.Errorf("event %d at %v, want %v (oldest must be evicted first)", i, ev.T, want)
		}
	}
	// Counters survive eviction.
	if r.Count(KindPush) != 7 {
		t.Errorf("Count = %d, want 7", r.Count(KindPush))
	}
}

func TestFilterOfKindBetween(t *testing.T) {
	r := NewRecorder(0)
	r.Record(ev(10, 0, KindSend, "s"))
	r.Record(ev(20, 1, KindPush, "p1"))
	r.Record(ev(30, 1, KindPush, "p2"))
	r.Record(ev(40, 0, KindComplete, "c"))

	if got := len(r.OfKind(KindPush)); got != 2 {
		t.Errorf("OfKind(push) = %d, want 2", got)
	}
	if got := len(r.Between(20, 40)); got != 2 {
		t.Errorf("Between(20,40) = %d events, want 2 (half-open)", got)
	}
	node1 := r.Filter(func(ev Event) bool { return ev.Node == 1 })
	if len(node1) != 2 {
		t.Errorf("Filter(node 1) = %d, want 2", len(node1))
	}
}

func TestKindsSortedAndSummary(t *testing.T) {
	r := NewRecorder(0)
	r.Record(ev(1, 0, KindPush, ""))
	r.Record(ev(2, 0, KindComplete, ""))
	r.Record(ev(3, 0, KindPush, ""))

	kinds := r.Kinds()
	if len(kinds) != 2 || kinds[0] != KindComplete || kinds[1] != KindPush {
		t.Errorf("Kinds = %v, want sorted [complete push]", kinds)
	}
	sum := r.Summary()
	if !strings.Contains(sum, "push") || !strings.Contains(sum, "2") {
		t.Errorf("Summary missing push count: %q", sum)
	}
}

func TestRenderFlatContainsEverything(t *testing.T) {
	r := NewRecorder(0)
	r.Record(ev(10, 0, KindSend, "hello"))
	r.Record(ev(20, 1, KindComplete, "world"))
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "hello") || !strings.Contains(out, "world") {
		t.Errorf("Render output missing events:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Errorf("Render produced %d lines, want 2", lines)
	}
}

func TestRenderColumnsIndentsByNode(t *testing.T) {
	r := NewRecorder(0)
	r.Record(ev(10, 0, KindSend, "left"))
	r.Record(ev(20, 5, KindComplete, "right"))
	r.Record(ev(30, -1, KindError, "gutter"))
	var b strings.Builder
	if err := r.RenderColumns(&b, 20); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	if strings.HasPrefix(lines[0], " ") {
		t.Errorf("node 0 event indented: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], strings.Repeat(" ", 20)) {
		t.Errorf("second node's column not indented: %q", lines[1])
	}
	if strings.HasPrefix(lines[2], " ") {
		t.Errorf("gutter event indented: %q", lines[2])
	}
}

func TestEventString(t *testing.T) {
	e := Event{T: sim.Time(1500), Node: 2, Kind: KindPullReq, Note: "x"}
	s := e.String()
	if !strings.Contains(s, "n2") || !strings.Contains(s, "pull-req") {
		t.Errorf("Event.String = %q", s)
	}
}

// Property: for any record sequence, Total == sum of per-kind counts, and
// retained events are a suffix of the recorded sequence in order.
func TestRecorderCountInvariant(t *testing.T) {
	kinds := []Kind{KindSend, KindPush, KindPark, KindComplete}
	f := func(choices []uint8, max uint8) bool {
		r := NewRecorder(int(max % 16))
		for i, c := range choices {
			r.Record(ev(sim.Time(i), int(c)%3, kinds[int(c)%len(kinds)], ""))
		}
		var sum uint64
		for _, k := range r.Kinds() {
			sum += r.Count(k)
		}
		if sum != uint64(len(choices)) || r.Total() != uint64(len(choices)) {
			return false
		}
		evs := r.Events()
		// Events are in recording order and are the most recent ones.
		for i := 1; i < len(evs); i++ {
			if evs[i].Seq != evs[i-1].Seq+1 {
				return false
			}
		}
		return len(evs) == 0 || evs[len(evs)-1].Seq == uint64(len(choices))-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
