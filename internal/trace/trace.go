// Package trace records structured protocol events from a simulation run.
//
// The messaging stack, the NIC model and the reliability layer publish
// typed events (push transmitted, fragment parked, pull granted, frame
// dropped, ...) into a Recorder. An Event is a fixed set of fields —
// time, node, kind, channel, message, byte range and a small aux/variant
// — and its text is rendered only when read (Event.String, Event.Text),
// so recording formats nothing.
//
// Every recorder keeps exact per-kind counters. Only a recorder built
// with NewRecorder also retains events, in a bounded ring, and renders
// them as a flat timeline or a per-node columnar view; one built with
// NewCounter only counts, and recording into it neither formats nor
// allocates in steady state. Scenario runs count (their results report
// per-kind event counts); cmd/pushpull-trace and tests retain, to show a
// messaging event's anatomy or assert on the order of protocol phases.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"pushpull/internal/sim"
)

// Kind classifies one protocol event. Kinds are open-ended strings so
// substrate packages can add their own without a central registry, but the
// messaging stack sticks to the constants below.
type Kind string

// Event kinds emitted by the Push-Pull stack.
const (
	// KindSend marks a send operation entering the send queue.
	KindSend Kind = "send"
	// KindPush marks a pushed fragment (or bare announcement) handed to
	// the wire during the push phase.
	KindPush Kind = "push"
	// KindDirect marks a fragment copied straight into the destination
	// buffer through the registered zero buffer (one copy).
	KindDirect Kind = "direct"
	// KindPark marks a fragment staged in the pushed buffer because no
	// receive operation was registered yet (second copy to come).
	KindPark Kind = "park"
	// KindDiscard marks a pushed fragment dropped for lack of pushed-
	// buffer space that the pull request will re-fetch.
	KindDiscard Kind = "discard"
	// KindRefuse marks a fully eager fragment refused for lack of pushed-
	// buffer space; go-back-N retransmission recovers it (the Fig. 6
	// Push-All collapse).
	KindRefuse Kind = "refuse"
	// KindPullReq marks the receive side's acknowledgement-cum-pull-
	// request leaving for the sender.
	KindPullReq Kind = "pull-req"
	// KindPullGrant marks the send side serving a pull request from the
	// send queue.
	KindPullGrant Kind = "pull-grant"
	// KindPullDispatch marks the intranode pull phase being handed to a
	// kernel thread on a chosen CPU.
	KindPullDispatch Kind = "pull-dispatch"
	// KindComplete marks a message fully received.
	KindComplete Kind = "complete"
	// KindError marks protocol-visible errors (unknown peers, oversized
	// messages).
	KindError Kind = "error"
)

// Event kinds emitted by the NIC model.
const (
	// KindNICTx marks a frame fully serialized onto the wire.
	KindNICTx Kind = "nic-tx"
	// KindNICRx marks a frame delivered to the protocol handler.
	KindNICRx Kind = "nic-rx"
	// KindNICDrop marks a frame lost to incoming-ring overflow.
	KindNICDrop Kind = "nic-drop"
)

// Event kinds emitted by the go-back-N layer.
const (
	// KindRTO marks a retransmission timeout firing.
	KindRTO Kind = "rto"
	// KindRetransmit marks one packet retransmission.
	KindRetransmit Kind = "retransmit"
)

// Channel names a Push-Pull channel (a directed sender->receiver process
// pair) by plain node and process numbers, so this package stays below
// the messaging stack it traces.
type Channel struct {
	FromNode, FromProc int
	ToNode, ToProc     int
}

// String renders the channel exactly as pushpull.ChannelID does.
func (c Channel) String() string {
	return fmt.Sprintf("n%d.p%d->n%d.p%d", c.FromNode, c.FromProc, c.ToNode, c.ToProc)
}

// Variant picks one of a kind's text forms. The zero Variant is every
// kind's primary form: the internode path for send, direct, park and
// pull-grant, rx-ring overflow for nic-drop, a timeout for rto.
type Variant uint8

const (
	// Primary is the kind's primary form.
	Primary Variant = iota
	// Intranode is the shared-memory form of send, direct and park.
	Intranode
	// ThreePhase is the three-phase rendezvous form of send and
	// pull-grant.
	ThreePhase
	// HostPaused is the nic-drop form for a frame arriving while a
	// fault paused the host.
	HostPaused
	// Exhausted is the rto form for a sender whose retransmission
	// budget ran out.
	Exhausted
)

// Event is one recorded protocol event. Hot model paths record the
// typed fields and leave Note empty; Text renders the description from
// them only when somebody reads it. What Off, Len and Aux hold depends
// on the kind:
//
//	send          Len message bytes, Aux[0] bytes pushed eagerly
//	push          [Off, Off+Len) fragment, Aux[0] 1 if preloaded
//	direct        [Off, Off+Len) fragment, Aux[0] CPU (Intranode: Len bytes)
//	park          [Off, Off+Len) fragment, Aux slots used and total
//	              (Intranode: Len bytes, Aux[0] bytes held)
//	discard       [Off, Off+Len) fragment
//	refuse        [Off, Off+Len) fragment
//	pull-req      [Off, Off+Len) range to pull, Aux[0] dropped ranges
//	pull-grant    [Off, Off+Len) range to send, Aux[0] redo ranges
//	              (ThreePhase: Len message bytes)
//	pull-dispatch Aux[0] CPU
//	complete      Len message bytes, Aux[0] bytes received
//	nic-tx/rx/drop Len payload bytes, Aux source and destination node
//	rto           [Off, Off+Len) window, Aux[0] timeouts (Exhausted:
//	              consecutive timeouts)
//	retransmit    Off sequence number, Len packet bytes
type Event struct {
	// T is the virtual time the event was recorded.
	T sim.Time
	// Node is the node the event happened on (-1 when not node-bound).
	Node int
	// Kind classifies the event.
	Kind Kind
	// Seq is the recorder-assigned sequence number (total order of
	// recording, stable across ring eviction).
	Seq uint64
	// Ch and MsgID name the message of a messaging-stack event.
	Ch    Channel
	MsgID uint64
	// Off, Len and Aux carry the kind's figures (see above).
	Off, Len int
	Aux      [2]int
	// Variant picks the text form.
	Variant Variant
	// Note, when set, is the preformatted description; cold events
	// (errors, ad-hoc marks) use it instead of the typed fields.
	Note string
}

func (ev Event) String() string {
	return fmt.Sprintf("%v n%d %-13s %s", ev.T, ev.Node, ev.Kind, ev.Text())
}

// Text renders the event's human-readable description: Note when set,
// else the kind's typed form.
func (ev Event) Text() string {
	if ev.Note != "" {
		return ev.Note
	}
	c, id, off, end := ev.Ch, ev.MsgID, ev.Off, ev.Off+ev.Len
	switch ev.Kind {
	case KindSend:
		switch ev.Variant {
		case Intranode:
			return fmt.Sprintf("%v#%d send %dB intranode, push %dB", c, id, ev.Len, ev.Aux[0])
		case ThreePhase:
			return fmt.Sprintf("%v#%d send %dB three-phase", c, id, ev.Len)
		}
		return fmt.Sprintf("%v#%d send %dB internode, push %dB", c, id, ev.Len, ev.Aux[0])
	case KindPush:
		return fmt.Sprintf("%v#%d push frag [%d:%d) preloaded=%v", c, id, off, end, ev.Aux[0] != 0)
	case KindDirect:
		if ev.Variant == Intranode {
			return fmt.Sprintf("%v#%d pushed %dB direct to destination", c, id, ev.Len)
		}
		return fmt.Sprintf("%v#%d frag [%d:%d) direct to destination on cpu%d", c, id, off, end, ev.Aux[0])
	case KindPark:
		if ev.Variant == Intranode {
			return fmt.Sprintf("%v#%d pushed %dB to pushed buffer (%dB held)", c, id, ev.Len, ev.Aux[0])
		}
		return fmt.Sprintf("%v#%d frag [%d:%d) parked in pushed buffer (slot %d/%d)", c, id, off, end, ev.Aux[0], ev.Aux[1])
	case KindDiscard:
		return fmt.Sprintf("%v#%d frag [%d:%d) DISCARDED: pushed buffer full, pull will re-fetch", c, id, off, end)
	case KindRefuse:
		return fmt.Sprintf("%v#%d frag [%d:%d) REFUSED: pushed buffer full", c, id, off, end)
	case KindPullReq:
		return fmt.Sprintf("%v#%d pull request (ack) for [%d:%d), %d dropped ranges", c, id, off, end, ev.Aux[0])
	case KindPullGrant:
		if ev.Variant == ThreePhase {
			return fmt.Sprintf("%v#%d CTS received, transmitting %dB", c, id, ev.Len)
		}
		return fmt.Sprintf("%v#%d pull granted, transmitting [%d:%d) + %d redo ranges", c, id, off, end, ev.Aux[0])
	case KindPullDispatch:
		return fmt.Sprintf("%v#%d pull dispatched to cpu%d", c, id, ev.Aux[0])
	case KindComplete:
		return fmt.Sprintf("%v#%d complete: %d/%d bytes received", c, id, ev.Aux[0], ev.Len)
	case KindNICTx:
		return fmt.Sprintf("frame %d->%d %dB on wire", ev.Aux[0], ev.Aux[1], ev.Len)
	case KindNICRx:
		return fmt.Sprintf("frame %d->%d %dB in host ring", ev.Aux[0], ev.Aux[1], ev.Len)
	case KindNICDrop:
		if ev.Variant == HostPaused {
			return fmt.Sprintf("frame %d->%d %dB dropped: host paused", ev.Aux[0], ev.Aux[1], ev.Len)
		}
		return fmt.Sprintf("frame %d->%d %dB lost to rx-ring overflow", ev.Aux[0], ev.Aux[1], ev.Len)
	case KindRTO:
		if ev.Variant == Exhausted {
			return fmt.Sprintf("retransmission budget exhausted after %d consecutive timeouts, window [%d,%d) abandoned", ev.Aux[0], off, end)
		}
		return fmt.Sprintf("timeout #%d, window [%d,%d) retransmits", ev.Aux[0], off, end)
	case KindRetransmit:
		return fmt.Sprintf("seq %d (%dB)", ev.Off, ev.Len)
	}
	return ""
}

// Recorder counts events per kind and, when built to retain them, keeps
// a bounded ring of the most recent ones (the oldest are evicted first).
// Counters stay exact after eviction and on recorders that retain
// nothing. The zero value is not usable; create recorders with
// NewRecorder or NewCounter.
//
// A nil *Recorder is safe to record into (the calls are no-ops), so model
// code can publish events unconditionally.
type Recorder struct {
	retain  bool
	max     int
	evs     []Event
	start   int // ring head
	seq     uint64
	evicted uint64
	counts  map[Kind]uint64
}

// NewRecorder returns an empty recorder retaining at most max events.
// max <= 0 means unbounded.
func NewRecorder(max int) *Recorder {
	return &Recorder{retain: true, max: max, counts: make(map[Kind]uint64)}
}

// NewCounter returns a recorder that only counts: it retains no events,
// so recording formats and boxes nothing, and allocates nothing once
// each kind has been counted.
func NewCounter() *Recorder {
	return &Recorder{counts: make(map[Kind]uint64)}
}

// Record counts ev and, on a retaining recorder, keeps it under the next
// sequence number. Recording into a nil recorder is a no-op.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.counts[ev.Kind]++
	ev.Seq = r.seq
	r.seq++
	if !r.retain {
		return
	}
	if r.max > 0 && len(r.evs) == r.max {
		// Evict the oldest by rotating the ring start.
		r.evs[r.start] = ev
		r.start = (r.start + 1) % r.max
		r.evicted++
		return
	}
	r.evs = append(r.evs, ev)
}

// Len reports the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.evs)
}

// Total reports the number of events ever recorded (including evicted).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.seq
}

// Evicted reports how many events the ring dropped.
func (r *Recorder) Evicted() uint64 {
	if r == nil {
		return 0
	}
	return r.evicted
}

// Count reports how many events of the given kind were ever recorded.
func (r *Recorder) Count(kind Kind) uint64 {
	if r == nil {
		return 0
	}
	return r.counts[kind]
}

// Events returns the retained events oldest-first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.evs))
	for i := 0; i < len(r.evs); i++ {
		out = append(out, r.evs[(r.start+i)%len(r.evs)])
	}
	return out
}

// Filter returns the retained events for which pred is true, oldest-first.
func (r *Recorder) Filter(pred func(Event) bool) []Event {
	var out []Event
	for _, ev := range r.Events() {
		if pred(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// OfKind returns the retained events of one kind, oldest-first.
func (r *Recorder) OfKind(kind Kind) []Event {
	return r.Filter(func(ev Event) bool { return ev.Kind == kind })
}

// Between returns the retained events with from <= T < to, oldest-first.
func (r *Recorder) Between(from, to sim.Time) []Event {
	return r.Filter(func(ev Event) bool { return ev.T >= from && ev.T < to })
}

// Kinds returns every kind ever recorded, sorted, for stable reports.
func (r *Recorder) Kinds() []Kind {
	if r == nil {
		return nil
	}
	kinds := make([]Kind, 0, len(r.counts))
	for k := range r.counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

// Summary renders one line per kind with its total count, sorted by kind.
func (r *Recorder) Summary() string {
	var b strings.Builder
	for _, k := range r.Kinds() {
		fmt.Fprintf(&b, "%-13s %d\n", k, r.Count(k))
	}
	return b.String()
}

// Render writes the retained events as a flat timeline, one per line.
func (r *Recorder) Render(w io.Writer) error {
	for _, ev := range r.Events() {
		if _, err := fmt.Fprintln(w, ev.String()); err != nil {
			return err
		}
	}
	return nil
}

// RenderColumns writes the retained events with one column per node, so
// concurrent activity on different machines reads side by side. Events
// with Node < 0 span the gutter. width is the column width (0 picks 44).
func (r *Recorder) RenderColumns(w io.Writer, width int) error {
	if width <= 0 {
		width = 44
	}
	nodes := r.nodeIDs()
	col := make(map[int]int, len(nodes))
	for i, n := range nodes {
		col[n] = i
	}
	for _, ev := range r.Events() {
		text := fmt.Sprintf("%v %s %s", ev.T, ev.Kind, ev.Text())
		var line strings.Builder
		if ev.Node < 0 {
			line.WriteString(text)
		} else {
			line.WriteString(strings.Repeat(" ", col[ev.Node]*width))
			line.WriteString(text)
		}
		if _, err := fmt.Fprintln(w, line.String()); err != nil {
			return err
		}
	}
	return nil
}

// nodeIDs lists the distinct non-negative node ids seen, sorted.
func (r *Recorder) nodeIDs() []int {
	seen := map[int]bool{}
	for _, ev := range r.Events() {
		if ev.Node >= 0 {
			seen[ev.Node] = true
		}
	}
	ids := make([]int, 0, len(seen))
	for n := range seen {
		ids = append(ids, n)
	}
	sort.Ints(ids)
	return ids
}
