package sim

import "fmt"

// Waiter is the parking contract shared by both execution tiers. A Waiter
// is anything the synchronization primitives (Cond, Queue, Resource) can
// park and later wake: goroutine-backed processes and inline tasklets both
// satisfy it, so both tiers share the same FIFO waiter lists and wake in
// one deterministic order.
//
// The interface is sealed (its methods are unexported): only Process and
// Tasklet implement it. Model code passes Waiter values through — e.g. a
// Subscribe(w Waiter) API — but never implements them.
type Waiter interface {
	// wake makes the waiter runnable after virtual duration d.
	wake(d Duration)
	// parkOn records which condition the waiter is registered on, for
	// diagnostics when a wake goes wrong.
	parkOn(c *Cond)
}

// Tasklet is the engine's second execution tier: a resumable state-machine
// callback dispatched inline, with zero goroutine handoff. Where a Process
// costs a coroutine switch to its goroutine and back per resume, a
// tasklet resume is an ordinary function call out of the event loop —
// same-timestamp wake chains batch through the direct-dispatch ring and
// never leave engine context.
//
// A tasklet's body is its step function. Each time the tasklet is started,
// woken, or a Sleep expires, the engine calls step(tk) once; the tasklet
// records its own resume point (typically a small pc field in the owning
// struct) and returns whenever it needs to park. Parking happens through
// the polling variants of the sync primitives — Queue.PollGet/PollPut,
// Resource.PollAcquire, Cond.Await — which register the tasklet for a
// wake instead of blocking, then report failure so step can return.
//
// Contract: a tasklet must park on at most one thing at a time — either a
// pending Sleep or a registration made by one failed Poll call — before
// returning from step. (The one exception is registering on conds that
// are only ever Broadcast, never Signalled, where a stale registration
// cannot steal a wake meant for another waiter; the collective-progression
// pump uses this to subscribe to several completions at once.) Wake is
// coalescing: waking an already-scheduled tasklet is a no-op, so redundant
// wakes are harmless as long as step re-checks its guard conditions.
//
// Like everything else in the engine, tasklets are single-threaded: step
// always runs in engine context, interleaved atomically with events and
// process segments in the engine's total (time, priority, seq) order.
type Tasklet struct {
	e    *Engine
	name string
	step func(*Tasklet)
	// runFn is the bound run method, created once so that scheduling a
	// resume never allocates.
	runFn     func()
	scheduled bool
	// waiting and parked mirror Process diagnostics: they record that the
	// tasklet registered on a cond, and which one.
	waiting bool
	parked  *Cond
}

// NewTasklet creates a tasklet that runs step each time it is woken. The
// tasklet is inert until Start (or Wake) is called.
func (e *Engine) NewTasklet(name string, step func(*Tasklet)) *Tasklet {
	tk := &Tasklet{e: e, name: e.uniqueName(name), step: step}
	tk.runFn = tk.run
	return tk
}

// run is the engine-side entry: clear scheduled before stepping so that
// the step function may immediately re-arm (Sleep) or be re-woken.
func (tk *Tasklet) run() {
	tk.scheduled = false
	tk.step(tk)
}

// Name reports the tasklet's (unique) name.
func (tk *Tasklet) Name() string { return tk.name }

// Engine returns the engine this tasklet runs on.
func (tk *Tasklet) Engine() *Engine { return tk.e }

// Now reports the current virtual time.
func (tk *Tasklet) Now() Time { return tk.e.now }

// Start schedules the tasklet's first step at the current virtual time.
// It consumes exactly one dispatch slot — the same cost as Engine.Go —
// which is what keeps process→tasklet conversions digest-neutral.
func (tk *Tasklet) Start() { tk.Wake() }

// Wake schedules the next step at the current virtual time. Waking a
// tasklet that is already scheduled is a no-op (wakes coalesce), so any
// number of same-instant signals produce exactly one step.
func (tk *Tasklet) Wake() { tk.wake(0) }

// wake and parkOn implement Waiter. A delayed wake coalesces like Wake:
// a tasklet already scheduled keeps its pending step.
func (tk *Tasklet) wake(d Duration) {
	if tk.scheduled {
		return
	}
	tk.scheduled = true
	tk.waiting = false
	tk.parked = nil
	tk.e.At(tk.e.now.Add(d), PriorityNormal, tk.runFn)
}

func (tk *Tasklet) parkOn(c *Cond) { tk.waiting = true; tk.parked = c }

// Sleep schedules the next step after virtual duration d. It must be the
// tasklet's only pending resume: sleeping while already scheduled (or
// instead of returning after a failed Poll registration) is a model bug.
func (tk *Tasklet) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: tasklet %s sleeping negative duration %d", tk.name, d))
	}
	if tk.scheduled {
		panic("sim: tasklet " + tk.name + " sleeping while already scheduled")
	}
	tk.scheduled = true
	tk.e.At(tk.e.now.Add(d), PriorityNormal, tk.runFn)
}
