// Package ether models the cluster interconnect: 100 Mbit/s Fast Ethernet
// links (and optionally a store-and-forward switch) carrying Ethernet
// frames between NICs. Serialization time, framing overhead and the
// minimum frame size bound the achievable bandwidth exactly as on the
// paper's testbed, where 12.1 MB/s of the theoretical 12.5 MB/s payload
// rate was reached.
package ether

import (
	"fmt"

	"pushpull/internal/fault"
	"pushpull/internal/sim"
)

// Ethernet geometry. WireOverheadBytes covers preamble+SFD (8), MAC
// header (14), FCS (4) and a short interframe gap allowance.
const (
	MTU               = 1500 // max payload carried in one frame
	WireOverheadBytes = 30
	MinFrameBytes     = 64 // payload shorter than this is padded on the wire
)

// Config describes one link technology.
type Config struct {
	BitsPerSec  int64
	Propagation sim.Duration // cable + PHY latency, one way
	// LossRate is the probability that a fully serialized frame is lost
	// on the wire (bad cable, electrical noise). Zero on the paper's
	// back-to-back testbed; non-zero values exercise the go-back-N
	// recovery path. Draws come from the engine's deterministic RNG, so
	// runs remain exactly reproducible.
	LossRate float64
}

// FastEthernet is the paper's interconnect: 100 Mbit/s, back-to-back.
func FastEthernet() Config {
	return Config{
		BitsPerSec:  100_000_000,
		Propagation: 1000 * sim.Nanosecond,
	}
}

// Frame is one Ethernet frame in flight. Payload is the link-client
// protocol message (opaque here); PayloadBytes is its size on the wire
// including any protocol headers the client counts.
type Frame struct {
	Src, Dst     int // node IDs
	PayloadBytes int
	Payload      any
}

// WireTime reports how long serializing a frame with n payload bytes
// occupies the wire.
func (c Config) WireTime(n int) sim.Duration {
	if n < MinFrameBytes {
		n = MinFrameBytes
	}
	bits := int64(n+WireOverheadBytes) * 8
	return sim.Duration(bits * int64(sim.Second) / c.BitsPerSec)
}

// PayloadRate reports the steady-state payload bandwidth (bytes/s) for
// back-to-back frames of n payload bytes — the ceiling any protocol on
// this link can reach.
func (c Config) PayloadRate(n int) float64 {
	return float64(n) / c.WireTime(n).Seconds()
}

// Port is the attachment point of a NIC: frames delivered to the port are
// handed to the receive callback.
type Port interface {
	// NodeID identifies the attached node.
	NodeID() int
	// DeliverFrame hands a fully received frame to the NIC. It runs in
	// event context at the instant the last bit arrives.
	DeliverFrame(f Frame)
}

// Medium is anything a NIC can transmit frames on: a point-to-point Link,
// a switch port's link, or a shared-medium Hub.
type Medium interface {
	// Transmit serializes f on behalf of process p, blocking p for the
	// serialization (and, on shared media, contention) time, and delivers
	// the frame to its destination after the propagation delay.
	Transmit(p *sim.Process, from Port, f Frame)
	// TransmitStep is the tasklet-tier Transmit: one resume of the same
	// state machine, with cur carrying the resume point across parks.
	// Call it with a zero TxCursor to start a transmission, and again on
	// each wake until it reports true (frame fully serialized, delivery
	// scheduled). A false return means the tasklet has either registered
	// for a wake or armed a Sleep, and must simply return from its step.
	TransmitStep(tk *sim.Tasklet, cur *TxCursor, from Port, f Frame) bool
	// Config reports the medium's link technology.
	Config() Config
}

// TxCursor is the resume state of one in-progress TransmitStep
// transmission. The zero value starts a fresh transmission; the cursor is
// opaque to callers and interpreted by the medium that owns the
// transmission.
type TxCursor struct {
	pc        int8
	contended bool // hub: medium was busy at first carrier sense
}

// TxCursor resume points shared by the Medium implementations.
const (
	txAcquire     = iota // first acquisition attempt (counts contention)
	txReacquire          // wake-driven retry of the acquisition
	txBackoffDone        // hub: jam+backoff slept, serialization next
	txSerialized         // wire held for the serialization time; finish
)

// halfLink is one direction of a full-duplex link: its own wire
// resource, serialization state, counters and fault injector.
type halfLink struct {
	e    *sim.Engine
	cfg  Config
	dst  Port
	wire *sim.Resource
	sent uint64
	lost uint64

	// inj, when set, is the armed fault injector for this direction;
	// frames it claims are counted in faultLost. Nil (the default) costs
	// one comparison per frame.
	inj       *fault.LinkInjector
	faultLost uint64

	flight inFlight
}

// inFlight holds the frames that finished serializing on one medium and
// await delivery after its propagation delay. The delay is constant per
// medium, so deliveries fire in the order they were scheduled, and one
// prebound callback popping the FIFO head takes the same (now+d,
// PriorityNormal) slot a per-frame closure would, without allocating.
type inFlight struct {
	q         *sim.Queue[delivery]
	deliverFn func() // bound deliverNext, created once
}

type delivery struct {
	dst Port
	f   Frame
}

// send queues f for dst and schedules its delivery after prop.
func (w *inFlight) send(e *sim.Engine, prop sim.Duration, dst Port, f Frame) {
	if w.q == nil {
		w.q = sim.NewQueue[delivery](e, 0)
		w.deliverFn = w.deliverNext
	}
	w.q.TryPut(delivery{dst: dst, f: f})
	e.Schedule(prop, w.deliverFn)
}

// deliverNext hands the oldest in-flight frame to its port. The frame
// leaves the queue before the call, which may transmit again.
func (w *inFlight) deliverNext() {
	d, _ := w.q.TryGet()
	d.dst.DeliverFrame(d.f)
}

// Link is a full-duplex point-to-point Fast Ethernet segment between two
// ports. Each direction serializes independently (full duplex), so data
// and acknowledgement traffic do not contend.
type Link struct {
	cfg  Config
	a, b Port
	ab   halfLink // a -> b
	ba   halfLink // b -> a
}

// NewLink connects two ports back-to-back on one engine.
func NewLink(e *sim.Engine, cfg Config, a, b Port) *Link {
	return &Link{
		cfg: cfg,
		a:   a,
		b:   b,
		ab: halfLink{
			e: e, cfg: cfg, dst: b,
			wire: sim.NewResource(e, fmt.Sprintf("wire %d->%d", a.NodeID(), b.NodeID())),
		},
		ba: halfLink{
			e: e, cfg: cfg, dst: a,
			wire: sim.NewResource(e, fmt.Sprintf("wire %d->%d", b.NodeID(), a.NodeID())),
		},
	}
}

// Config reports the link technology.
func (l *Link) Config() Config { return l.cfg }

// FramesSent reports the number of frames fully serialized onto the link.
func (l *Link) FramesSent() uint64 { return l.ab.sent + l.ba.sent }

// FramesLost reports frames dropped by the configured loss rate.
func (l *Link) FramesLost() uint64 { return l.ab.lost + l.ba.lost }

// SetInjector arms one fault injector on both directions (nil disarms).
func (l *Link) SetInjector(in *fault.LinkInjector) { l.ab.inj, l.ba.inj = in, in }

// FaultLost reports frames dropped by the armed fault injectors.
func (l *Link) FaultLost() uint64 { return l.ab.faultLost + l.ba.faultLost }

// Transmit serializes f onto the wire on behalf of process p (the
// transmitting port's engine), blocking p for the serialization time, and
// delivers the frame to the far port after the propagation delay. from
// identifies which end is transmitting.
func (l *Link) Transmit(p *sim.Process, from Port, f Frame) {
	h := l.dir(from)
	h.wire.Use(p, l.cfg.WireTime(f.PayloadBytes))
	h.finish(f)
}

// TransmitStep implements Medium for tasklet transmitters: acquire the
// directional wire (parking on contention), hold it for the serialization
// time, then release and deliver — the exact event sequence Transmit
// produces for a process.
func (l *Link) TransmitStep(tk *sim.Tasklet, cur *TxCursor, from Port, f Frame) bool {
	h := l.dir(from)
	switch cur.pc {
	case txAcquire, txReacquire:
		if !h.wire.PollAcquire(tk, cur.pc == txAcquire) {
			cur.pc = txReacquire
			return false
		}
		cur.pc = txSerialized
		tk.Sleep(l.cfg.WireTime(f.PayloadBytes))
		return false
	default: // txSerialized
		h.wire.Release()
		h.finish(f)
		return true
	}
}

// dir resolves the transmitting direction's half-link.
func (l *Link) dir(from Port) *halfLink {
	switch from {
	case l.a:
		return &l.ab
	case l.b:
		return &l.ba
	default:
		panic(fmt.Sprintf("ether: transmit from foreign port on link %d<->%d", l.a.NodeID(), l.b.NodeID()))
	}
}

// finish runs once the frame has fully serialized: count it, draw the
// loss lottery, and schedule delivery after the propagation delay.
func (h *halfLink) finish(f Frame) {
	h.sent++
	if h.cfg.LossRate > 0 && h.e.Rand().Float64() < h.cfg.LossRate {
		h.lost++
		return // the frame corrupts on the wire; reliability recovers it
	}
	// Fault injection consults after the i.i.d. loss draw, so arming a
	// plan never perturbs the engine-RNG sequence of the base run.
	if h.inj != nil && h.inj.Lose(h.e.Now()) {
		h.faultLost++
		return
	}
	h.flight.send(h.e, h.cfg.Propagation, h.dst, f)
}
