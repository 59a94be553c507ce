package smp

import (
	"fmt"

	"pushpull/internal/sim"
)

// Policy selects how reception-handler invocations reach a processor
// (paper §2, stage 3).
type Policy int

// Handler invocation policies.
const (
	// Asymmetric delivers every interrupt to one pre-assigned processor.
	Asymmetric Policy = iota
	// Symmetric arbitrates each interrupt to the least loaded processor
	// (the paper's optimized configuration, cf. Intel MP 1.4 lowest
	// priority delivery).
	Symmetric
	// Polling dispenses with interrupts: a polling routine notices state
	// changes at its next tick, so invocation latency is quantized to the
	// polling period but avoids the interrupt dispatch cost.
	Polling
)

func (p Policy) String() string {
	switch p {
	case Asymmetric:
		return "asymmetric"
	case Symmetric:
		return "symmetric"
	case Polling:
		return "polling"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// InterruptController delivers device interrupts to processors according
// to the configured policy.
type InterruptController struct {
	node       *Node
	policy     Policy
	asymTarget int
	pollCPU    int
	raised     uint64
	// idle holds the handler workers parked between invocations, reused
	// LIFO; deliver starts a new worker only when none is idle.
	idle []*irqWorker
}

// irqWorker is a reusable interrupt-handler process. It runs one handler
// invocation at a time on its Thread, then returns to the controller's
// idle list and parks on wake until deliver hands it the next one.
type irqWorker struct {
	wake    *sim.Cond
	t       Thread
	cost    sim.Duration
	handler func(t *Thread)
}

func newInterruptController(n *Node) *InterruptController {
	return &InterruptController{node: n, policy: Symmetric}
}

// SetPolicy selects the delivery policy. For Asymmetric, target is the
// CPU that receives every interrupt; for Polling, target is the CPU whose
// polling routine serves requests. Symmetric ignores target.
func (ic *InterruptController) SetPolicy(p Policy, target int) {
	ic.policy = p
	ic.asymTarget = target
	ic.pollCPU = target
}

// Policy reports the delivery policy in force.
func (ic *InterruptController) Policy() Policy { return ic.policy }

// Raised reports how many handler invocations have been requested.
func (ic *InterruptController) Raised() uint64 { return ic.raised }

// Raise requests execution of handler in interrupt (or polling) context.
// The handler runs on a processor chosen by the policy after the delivery
// latency; its execution time is stolen from whatever that processor was
// doing at the time.
//
// Raise is tier-neutral: it only schedules, never blocks, so it may be
// called from any engine-context code — an event callback, a tasklet step
// (the NIC receive path raises from one), or a process body. The handler
// itself runs on an irq/ worker process, because handler bodies block
// (bus copies, Exec) and so need the process tier. Workers are reused: an
// idle one is woken for the invocation, and a new one is started only
// when every worker on the node is busy, so each node runs at most as
// many workers as it has overlapping handler invocations.
func (ic *InterruptController) Raise(name string, handler func(t *Thread)) {
	ic.raised++
	n := ic.node
	switch ic.policy {
	case Polling:
		// The polling routine notices the state change at its next tick.
		period := int64(n.Cfg.PollPeriod)
		now := int64(n.Engine.Now())
		wait := sim.Duration((now/period+1)*period - now)
		ic.deliver(name, n.CPUs[ic.pollCPU], wait, n.Cfg.PollCheck, handler)
	case Asymmetric:
		ic.deliver(name, n.CPUs[ic.asymTarget], 0, n.Cfg.InterruptDispatch, handler)
	case Symmetric:
		cpu := n.LeastLoadedCPU()
		ic.deliver(name, cpu, 0, n.Cfg.InterruptDispatch+n.Cfg.InterruptArbitration, handler)
	default:
		panic("smp: unknown interrupt policy")
	}
}

// deliver schedules handler on cpu after an untimed wait (polling delay)
// plus a timed dispatch cost charged to (and stolen from) the CPU. Waking
// an idle worker with SignalAfter(wait) takes the very slot GoAt(wait)
// would give a new worker's start, so reuse leaves the execution order
// unchanged.
func (ic *InterruptController) deliver(name string, cpu *Processor, wait, cost sim.Duration, handler func(t *Thread)) {
	if k := len(ic.idle) - 1; k >= 0 {
		w := ic.idle[k]
		ic.idle[k] = nil
		ic.idle = ic.idle[:k]
		w.t.CPU, w.cost, w.handler = cpu, cost, handler
		w.wake.SignalAfter(wait)
		return
	}
	n := ic.node
	w := &irqWorker{
		wake:    sim.NewCond(n.Engine),
		t:       Thread{Node: n, CPU: cpu, handler: true},
		cost:    cost,
		handler: handler,
	}
	n.Engine.GoAt(wait, "irq/"+name, func(p *sim.Process) { ic.serve(w, p) })
}

// serve is an irq worker's body: run the handed-over invocation, go idle,
// park until the next one.
func (ic *InterruptController) serve(w *irqWorker, p *sim.Process) {
	w.t.P = p
	for {
		w.t.Exec(w.cost)
		w.handler(&w.t)
		if ic.policy != Polling {
			w.t.Exec(ic.node.Cfg.InterruptExit)
		}
		w.handler = nil
		ic.idle = append(ic.idle, w)
		w.wake.Wait(p)
	}
}
