package sim

// Cond is a condition variable for simulation processes and tasklets.
// Waiters are woken in FIFO order regardless of tier, which keeps
// simulations deterministic.
//
// Unlike sync.Cond there is no associated lock: the simulation's one-at-a-
// time execution model means state examined before Wait cannot change until
// the waiter parks.
type Cond struct {
	e       *Engine
	name    string
	waiters []Waiter
}

// NewCond returns a condition variable bound to engine e.
func NewCond(e *Engine) *Cond { return &Cond{e: e} }

// NewNamedCond is NewCond with a name that appears in wake diagnostics
// ("process X was parked on cond Y").
func NewNamedCond(e *Engine, name string) *Cond { return &Cond{e: e, name: name} }

// Name reports the cond's diagnostic name ("" if unnamed).
func (c *Cond) Name() string { return c.name }

// Await registers w at the tail of the waiter list without parking: the
// next Signal (or Broadcast) reaching that position wakes w. This is the
// tasklet-tier entry point — tasklets cannot block, so they register and
// return from their step instead. The caller must not register the same
// waiter twice before it is woken.
func (c *Cond) Await(w Waiter) {
	w.parkOn(c)
	c.waiters = append(c.waiters, w)
}

// Wait parks the calling process until another event calls Signal or
// Broadcast.
func (c *Cond) Wait(p *Process) {
	c.Await(p)
	p.park()
}

// WaitFor repeatedly waits until pred() reports true. pred is evaluated
// before the first wait, so no wake is lost if the condition already holds.
func (c *Cond) WaitFor(p *Process, pred func() bool) {
	for !pred() {
		c.Wait(p)
	}
}

// Signal wakes the longest-waiting waiter, if any. It reports whether a
// waiter was woken.
func (c *Cond) Signal() bool { return c.SignalAfter(0) }

// SignalAfter is Signal with the wake delayed by virtual duration d. The
// waiter resumes in the slot (now+d, PriorityNormal, next seq) — the slot
// Engine.GoAt(d) gives a new process's start — through one event, so
// handing work to a parked worker instead of starting a process for it
// leaves the execution order unchanged.
func (c *Cond) SignalAfter(d Duration) bool {
	if len(c.waiters) == 0 {
		return false
	}
	w := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters = c.waiters[:len(c.waiters)-1]
	w.wake(d)
	return true
}

// Broadcast wakes every waiting waiter, in FIFO order.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		w.wake(0)
	}
	c.waiters = c.waiters[:0]
}

// Waiting reports the number of registered waiters.
func (c *Cond) Waiting() int { return len(c.waiters) }
