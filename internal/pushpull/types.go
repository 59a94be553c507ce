package pushpull

import (
	"fmt"

	"pushpull/internal/ether"
	"pushpull/internal/sim"
	"pushpull/internal/trace"
	"pushpull/internal/vm"
)

// ProcessID names one communicating process: node number plus per-node
// process number.
type ProcessID struct {
	Node int
	Proc int
}

func (p ProcessID) String() string {
	if p == AnySource {
		return "any"
	}
	return fmt.Sprintf("n%d.p%d", p.Node, p.Proc)
}

// AnySource is the receive-matching wildcard: a receive posted with it
// binds the next eligible message from any sender.
var AnySource = ProcessID{Node: -1, Proc: -1}

// AnyTag is the tag-matching wildcard: a receive posted with it binds a
// message of any *application* tag — tags below ReservedTag. Reserved
// tags never match a wildcard, so infrastructure traffic (collective
// rounds in package coll) cannot be swallowed by an AnyTag receive
// posted while a collective is in flight. A receive naming a reserved
// tag explicitly still matches it.
const AnyTag = -1

// ReservedTag is the base of the reserved tag space. Tags at or above it
// belong to infrastructure protocols layered on the stack (package coll
// runs each collective on its own reserved lane); application tags must
// stay below it, and AnyTag wildcards only consider the application
// range.
const ReservedTag = 1 << 30

// ChannelID is one directed sender→receiver pair. Messages of one tag on
// a channel are delivered in FIFO order; each channel is backed by its
// own go-back-N sessions, so loss or refusal on one channel never stalls
// another channel's stream.
type ChannelID struct {
	From, To ProcessID
}

func (c ChannelID) String() string { return fmt.Sprintf("%v->%v", c.From, c.To) }

// traced names the channel the way trace events carry it.
func (c ChannelID) traced() trace.Channel {
	return trace.Channel{FromNode: c.From.Node, FromProc: c.From.Proc, ToNode: c.To.Node, ToProc: c.To.Proc}
}

// laneKey identifies one (channel, tag) matching lane. Receives bind a
// lane's messages strictly in the order they were sent, even when rail
// striping makes later messages' fragments arrive first.
type laneKey struct {
	ch  ChannelID
	tag int
}

// Wire geometry of the messaging layer.
const (
	// ProtoHeaderBytes is the per-fragment protocol header (channel,
	// message id, tag, offset, lengths, go-back-N sequence).
	ProtoHeaderBytes = 16
	// MaxFragData is the most message data one Ethernet frame carries.
	MaxFragData = ether.MTU - ProtoHeaderBytes
	// PushedSlotBytes is the internode pushed-buffer slot size: the
	// kernel stores each arriving fragment in a fixed-size slot (no
	// compaction), so a 4 KB pushed buffer holds two fragments.
	PushedSlotBytes = 2048
)

// SendOptions tunes one send operation beyond the stack's Options.
type SendOptions struct {
	// Tag labels the message for tagged receive matching; receives with
	// the same tag (or AnyTag) bind it.
	Tag int
	// BTP, when >= 0, overrides the internode PushPull Bytes-To-Push for
	// this one message (clamped to [0, len(data)]). Ignored by the other
	// modes, whose BTP is their defining constant.
	BTP int
}

// DefaultSendOptions is a tag-0 send at the protocol's configured BTP.
func DefaultSendOptions() SendOptions { return SendOptions{Tag: 0, BTP: -1} }

// RecvOptions tunes one receive operation.
type RecvOptions struct {
	// Tag is the tag to match, or AnyTag for any.
	Tag int
}

// Status reports what a completed receive actually bound: the source
// process and tag of the delivered message (informative when the receive
// was posted with AnySource or AnyTag). Valid distinguishes a real
// matched envelope from the zero Status of a failed or not-yet-completed
// operation — without it, a failure would be indistinguishable from a
// genuine rank-0/tag-0 match. A failed operation's Status carries its
// error in Err and leaves Valid false.
type Status struct {
	Source ProcessID
	Tag    int
	Valid  bool
	Err    error
}

// sendOp is a registered send operation, held in the endpoint's send
// queue until the message is fully transmitted (pulled or pushed).
type sendOp struct {
	ch    ChannelID
	msgID uint64
	tag   int
	addr  vm.VirtAddr
	data  []byte
	// pushed is how many leading bytes went in the push phase.
	pushed int
	// start is when the send operation was registered (adaptive-BTP
	// feedback measures pull-request round trips from it).
	start sim.Time
	// srcReadyAt is when source translation completes; pull-phase
	// transmission (which DMAs from the user buffer) cannot start
	// earlier.
	srcReadyAt sim.Time
	srcZB      vm.ZeroBuffer
	served     bool
	// done, when non-nil, marks a synchronous send (three-phase): the
	// sending thread parks on it until the handshake grant (internode)
	// or until the transfer is fully served (intranode).
	done *sim.Cond
	// grant is the received clear-to-send for a parked three-phase
	// sender.
	grant *pullReqMsg
	// err aborts a parked sender: set (with a broadcast on done) when
	// the peer is declared unreachable.
	err error
}

// recvOp is a registered receive operation. src and tag may be the
// wildcards; the bound channel is known only once a message matches.
type recvOp struct {
	src    ProcessID // AnySource matches any sender
	tag    int       // AnyTag matches any tag
	addr   vm.VirtAddr
	bufLen int
	// zbReadyAt is when destination translation completes; handler-side
	// direct copies must wait for it (relevant when translation is
	// registered first and masked).
	zbReadyAt sim.Time
	zb        vm.ZeroBuffer
	done      *sim.Cond
	msg       *inboundMsg
	err       error
}

// matches reports whether op's source/tag pattern covers message m. The
// AnyTag wildcard is restricted to application tags: reserved-tag
// traffic (collective rounds) only binds receives that name its exact
// tag, so a wildcard posted mid-collective can never swallow a round.
func (op *recvOp) matches(m *inboundMsg) bool {
	if op.src != AnySource && op.src != m.ch.From {
		return false
	}
	if op.tag == AnyTag {
		return m.tag < ReservedTag
	}
	return op.tag == m.tag
}

// inboundMsg tracks one message arriving at an endpoint.
type inboundMsg struct {
	ch    ChannelID
	msgID uint64
	tag   int
	// laneSeq is the message's sequence number within its (channel, tag)
	// lane; receives bind lanes in laneSeq order.
	laneSeq   uint64
	total     int
	pushTotal int // bytes the sender pushes eagerly
	buf       []byte
	received  int
	op        *recvOp // bound receive op, nil while unmatched
	// buffered fragments parked in the pushed buffer awaiting the recv.
	buffered []fragMsg
	slots    int // internode ring slots held
	intraBuf int // intranode pushed-buffer bytes held
	// dropped records pushed ranges the receiver discarded for lack of
	// buffer space; the pull request asks for them again. Only messages
	// with a pull phase may drop — fully eager transfers fall back to
	// go-back-N retransmission instead.
	dropped  []byteRange
	pullSent bool
	complete bool
}

func (m *inboundMsg) lane() laneKey { return laneKey{ch: m.ch, tag: m.tag} }

// byteRange is a half-open [Off, Off+N) range of message bytes.
type byteRange struct {
	Off, N int
}

// remaining reports bytes not yet accounted for by push or pull.
func (m *inboundMsg) pullRemainder() int { return m.total - m.pushTotal }

// fragMsg is a data-bearing protocol fragment (push or pull data).
type fragMsg struct {
	ch        ChannelID
	msgID     uint64
	tag       int
	laneSeq   uint64
	offset    int
	data      []byte
	total     int
	pushTotal int
	// preloaded marks fragments PIO-copied into the NIC FIFO by the
	// user-level trigger path (no host DMA on transmit).
	preloaded bool
	// pull marks pull-phase fragments (vs pushed fragments).
	pull bool
}

func (f fragMsg) wireBytes() int { return ProtoHeaderBytes + len(f.data) }

// pullReqMsg is the receive side's acknowledgement-cum-pull-request. It
// names the unsent tail plus any pushed ranges the receiver had to
// discard for lack of pushed-buffer space. It rides the channel's own
// control lane (receiver→sender), reliably.
type pullReqMsg struct {
	ch         ChannelID
	msgID      uint64
	fromOffset int
	redo       []byteRange
}

func (r pullReqMsg) wireBytes() int { return ProtoHeaderBytes + 4 + 8*len(r.redo) }

// linkAckMsg is a raw (non-go-back-N) cumulative link acknowledgement.
type linkAckMsg struct {
	ack uint32
}

func (linkAckMsg) wireBytes() int { return ProtoHeaderBytes }

// lane names one of a channel's three independent go-back-N streams.
// Splitting them is what makes refusal harmless outside its own lane: a
// refused eager fragment (which only happens when no receive is posted)
// can never sit in front of pull-phase data the receiver explicitly
// asked for, or in front of the control traffic that grants pulls.
type lane uint8

const (
	// laneEager carries sender→receiver pushed fragments — the
	// optimistic traffic a full pushed buffer may refuse.
	laneEager lane = iota
	// lanePull carries sender→receiver pull-phase fragments, which by
	// definition have a posted receive and are never refused.
	lanePull
	// laneCtrl carries receiver→sender pull requests.
	laneCtrl
	numLanes
)

func (l lane) String() string {
	switch l {
	case laneEager:
		return "eager"
	case lanePull:
		return "pull"
	case laneCtrl:
		return "ctrl"
	default:
		return fmt.Sprintf("lane(%d)", uint8(l))
	}
}

// toSender reports whether the lane flows receiver→sender.
func (l lane) toSender() bool { return l == laneCtrl }

// wireMsg is what rides in an ether.Frame payload: a go-back-N packet or
// a raw link ack, addressed to one channel's lane so the receiving stack
// can route it to that channel's session.
type wireMsg struct {
	ch    ChannelID
	lane  lane
	pkt   any  // gbn.Packet for the data plane
	isAck bool // linkAckMsg for the control plane
	ack   linkAckMsg
}

// vmAddr abbreviates the virtual-address type used throughout the
// protocol code.
type vmAddr = vm.VirtAddr

// simDuration abbreviates the virtual-duration type.
type simDuration = sim.Duration
