package ether

import (
	"fmt"

	"pushpull/internal/fault"
	"pushpull/internal/sim"
)

// Switch is a store-and-forward Fast Ethernet switch. Each attached node
// hangs off its own full-duplex link to a switch port; a frame is fully
// received, looked up, queued on the destination port (dropping on queue
// overflow, as real switches do) and re-serialized toward its target.
//
// The paper's two-machine testbed is connected back-to-back, so the base
// experiments do not use a switch; it exists for the multi-node example
// topologies and scalability ablations.
type Switch struct {
	e       *sim.Engine
	cfg     Config
	fwd     sim.Duration // lookup/forwarding latency after last bit in
	ports   map[int]*switchPort
	dropped uint64
	// faultDropped counts frames the port-blackout injectors discarded at
	// the forwarding plane.
	faultDropped uint64
}

// NewSwitch creates a switch with the given per-port link technology and
// forwarding latency.
func NewSwitch(e *sim.Engine, cfg Config, forwarding sim.Duration) *Switch {
	return &Switch{e: e, cfg: cfg, fwd: forwarding, ports: make(map[int]*switchPort)}
}

// Dropped reports frames lost to output-queue overflow.
func (s *Switch) Dropped() uint64 { return s.dropped }

// FaultDropped reports frames discarded by armed port-blackout injectors.
func (s *Switch) FaultDropped() uint64 { return s.faultDropped }

// SetPortInjector arms a blackout injector on node's port (nil disarms).
// While blacked out, the port forwards nothing in either direction.
func (s *Switch) SetPortInjector(node int, in *fault.PortInjector) {
	p, ok := s.ports[node]
	if !ok {
		panic(fmt.Sprintf("ether: no switch port for node %d", node))
	}
	p.inj = in
}

// switchPort is the switch end of one attached link. Its transmitter is a
// tasklet pump: fetching runs as a resumable state machine with fetching/
// transmitting as the resume points, so draining a queued frame costs
// inline event dispatches instead of goroutine handoffs.
type switchPort struct {
	sw     *Switch
	nodeID int
	link   *Link
	outQ   *sim.Queue[Frame]

	tk       *sim.Tasklet
	sending  bool // resume point: false = fetch next frame, true = mid-transmit
	frame    Frame
	txCursor TxCursor

	inj *fault.PortInjector
}

// pump drains the output queue onto the attached node's link.
func (p *switchPort) pump(tk *sim.Tasklet) {
	for {
		if !p.sending {
			f, ok := p.outQ.PollGet(tk)
			if !ok {
				return
			}
			p.frame, p.txCursor, p.sending = f, TxCursor{}, true
		}
		if !p.link.TransmitStep(tk, &p.txCursor, p, p.frame) {
			return
		}
		p.sending, p.frame = false, Frame{}
	}
}

// NodeID implements Port; the switch port answers for the attached node's
// position on the link (it is "the other end" of node nodeID's link).
func (p *switchPort) NodeID() int { return p.nodeID }

// DeliverFrame receives a fully arrived frame from the attached node and
// forwards it toward its destination port.
func (p *switchPort) DeliverFrame(f Frame) {
	if p.inj != nil && p.inj.Blocked(p.sw.e.Now()) {
		p.sw.faultDropped++ // ingress port blacked out
		return
	}
	dst, ok := p.sw.ports[f.Dst]
	if !ok {
		p.sw.dropped++ // unknown destination: flood suppressed, count as drop
		return
	}
	p.sw.e.Schedule(p.sw.fwd, func() {
		if dst.inj != nil && dst.inj.Blocked(p.sw.e.Now()) {
			p.sw.faultDropped++ // egress port blacked out
			return
		}
		if !dst.outQ.TryPut(f) {
			p.sw.dropped++
		}
	})
}

// Attach connects a node-side port to the switch and returns the link the
// node's NIC should transmit on. outQueue bounds the per-port output
// queue in frames (0 = unbounded).
func (s *Switch) Attach(nodePort Port, outQueue int) *Link {
	sp := &switchPort{sw: s, nodeID: nodePort.NodeID(), outQ: sim.NewQueue[Frame](s.e, outQueue)}
	sp.outQ.SetName(fmt.Sprintf("switch-outq/%d", nodePort.NodeID()))
	link := NewLink(s.e, s.cfg, nodePort, sp)
	sp.link = link
	s.ports[nodePort.NodeID()] = sp
	// Per-port transmitter pump: drains the output queue onto the node's
	// link without a goroutine.
	sp.tk = s.e.NewTasklet(fmt.Sprintf("switch-tx/%d", nodePort.NodeID()), sp.pump)
	sp.tk.Start()
	return link
}
