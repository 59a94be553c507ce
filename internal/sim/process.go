//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Process is a simulation coroutine running on a goroutine of its own. At
// most one process (or event callback) executes at any moment: the engine
// resumes a process, then blocks until the process parks again (by sleeping
// or waiting) or finishes. This strict hand-off keeps simulations
// deterministic and race-free.
//
// The hand-off is an iter.Pull coroutine: resuming is a direct goroutine
// switch (the runtime's coroswitch) that never passes through the
// scheduler's run queues.
//
// Process methods must only be called from within that process's own body.
type Process struct {
	e    *Engine
	name string
	// next runs the coroutine until it parks or finishes; yield, called
	// from the coroutine, hands control back. Both come from iter.Pull
	// when the start event runs.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// transferFn is the bound transfer method, created once: scheduling
	// p.transfer directly would allocate a fresh method-value closure on
	// every wake and sleep.
	transferFn func()
	// wakeFn is the wake-path resume: it clears wakePending before
	// transferring so double-wake detection sees the true state.
	wakeFn func()
	done   bool
	// started flips once the start event has run and the coroutine exists;
	// Shutdown must not resume a process that never started.
	started bool
	// pidx is this process's slot in the engine's registry (for O(1)
	// swap-removal on finish).
	pidx int
	// waiting marks the process as parked on a Cond/Queue/Resource so that
	// double-wakes can be detected as model bugs; parked records which cond,
	// for the diagnostic message.
	waiting     bool
	wakePending bool
	parked      *Cond
}

// shutdownSentinel is the poison panic used by Engine.Shutdown to unwind
// parked process coroutines; each process's recover treats it as a normal
// exit rather than a model fault.
type shutdownSentinel struct{}

// Go starts a new process running body at the current virtual time. The
// process is scheduled like any other event; body begins executing when the
// engine reaches that event.
func (e *Engine) Go(name string, body func(p *Process)) *Process {
	return e.GoAt(0, name, body)
}

// GoAt is like Go but delays the start of the process by d.
func (e *Engine) GoAt(d Duration, name string, body func(p *Process)) *Process {
	p := &Process{e: e, name: e.uniqueName(name)}
	e.spawned++
	p.transferFn = p.transfer
	p.wakeFn = func() {
		p.wakePending = false
		p.transfer()
	}
	e.nproc++
	p.pidx = len(e.procs)
	e.procs = append(e.procs, p)
	e.Schedule(d, func() {
		p.started = true
		p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer func() {
				// Capture a panic inside the process and re-raise it in
				// engine context (transfer), so callers of Run see the
				// model's own panic value. The shutdown sentinel is the
				// one expected unwinding.
				if r := recover(); r != nil {
					if _, ok := r.(shutdownSentinel); !ok {
						p.e.fault = r
					}
				}
				p.done = true
				p.e.unregister(p)
				p.e.nproc--
			}()
			body(p)
		})
		p.transfer()
	})
	return p
}

// transfer resumes the process and returns once it parks or finishes.
// Must be called from engine context.
func (p *Process) transfer() {
	p.next()
	if p.e.fault != nil {
		f := p.e.fault
		p.e.fault = nil
		panic(f)
	}
}

// park suspends the process until something resumes it. Must be called from
// process context. A resume during engine shutdown unwinds the coroutine
// instead of returning to the model.
func (p *Process) park() {
	p.yield(struct{}{})
	if p.e.dying {
		panic(shutdownSentinel{})
	}
}

// wake schedules the process to resume after virtual duration d, in the
// slot (now+d, PriorityNormal, next seq). It is the engine-side
// counterpart to park. Waking a finished process, or one
// whose previous wake has not run yet, is always a model bug; the panic
// carries enough context (process, virtual time, what it was parked on)
// to find it.
func (p *Process) wake(d Duration) {
	if p.done {
		panic(fmt.Sprintf("sim: waking finished process %s at %v (last parked on %s)",
			p.name, p.e.now, p.parkedDesc()))
	}
	if p.wakePending {
		panic(fmt.Sprintf("sim: double wake of process %s at %v (parked on %s)",
			p.name, p.e.now, p.parkedDesc()))
	}
	p.wakePending = true
	p.waiting = false
	p.e.At(p.e.now.Add(d), PriorityNormal, p.wakeFn)
}

// parkOn records the cond the process is registering on; with wake it
// implements the Waiter interface shared with tasklets.
func (p *Process) parkOn(c *Cond) {
	p.waiting = true
	p.parked = c
}

// parkedDesc describes what the process is (or was last) parked on.
func (p *Process) parkedDesc() string {
	switch {
	case p.parked == nil:
		return "nothing"
	case p.parked.name == "":
		return "an unnamed cond"
	default:
		return fmt.Sprintf("cond %q", p.parked.name)
	}
}

// Name reports the process's (unique) name.
func (p *Process) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Process) Engine() *Engine { return p.e }

// Now reports the current virtual time.
func (p *Process) Now() Time { return p.e.now }

// Done reports whether the process body has returned.
func (p *Process) Done() bool { return p.done }

// Sleep suspends the process for virtual duration d. Sleeping a negative
// duration panics; sleeping zero yields to other events at the same time.
//
// The wake takes the slot (now+d, PriorityNormal, next seq). When that
// slot would be the very next event to run anyway — nothing on the
// dispatch ring, no heap event before it, inside the running RunUntil
// limit, no Stop or Shutdown under way — Sleep consumes the slot in place:
// it takes the sequence number, counts the event and advances the clock
// without the two coroutine switches of parking. The execution order is
// exactly the one the scheduled wake would produce.
func (p *Process) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s sleeping negative duration %d", p.name, d))
	}
	e := p.e
	t := e.now.Add(d)
	if e.dqHead == len(e.dq) && !e.heapBefore(t, e.seq+1) &&
		t <= e.limit && !e.stopped && !e.dying {
		e.seq++
		e.executed++
		e.sleepsInline++
		e.now = t
		return
	}
	e.sleepsParked++
	e.At(t, PriorityNormal, p.transferFn)
	p.park()
}

// Yield lets every other event already scheduled at the current time run
// before the process continues.
func (p *Process) Yield() { p.Sleep(0) }
