package sim

import "fmt"

// Priority orders events that are scheduled for the same virtual time.
// Lower values run first. Most model code uses PriorityNormal; interrupt
// delivery uses PriorityHigh so that hardware beats software at equal
// timestamps, matching real machines where the APIC wins the race.
type Priority int32

// Event priorities, lowest runs first at equal timestamps.
const (
	PriorityHigh   Priority = -1
	PriorityNormal Priority = 0
	PriorityLow    Priority = 1
)

// event is one heap-scheduled callback. Event structs are pooled: the
// engine recycles them through a free list so steady-state scheduling
// allocates nothing, and gen tells a live incarnation from a recycled
// one so stale EventHandles are harmless.
type event struct {
	at   Time
	prio Priority
	seq  uint64 // insertion order; final tiebreak for determinism
	fn   func()
	idx  int    // position in the heap; -1 once popped or removed
	gen  uint64 // bumped on every recycle; EventHandles must match it
}

// EventHandle identifies one scheduled event so it can be cancelled.
// The zero EventHandle is valid and inert: Cancel on it is a no-op, so
// holders (timers, protocol state machines) need no armed/disarmed
// bookkeeping of their own.
type EventHandle struct {
	e   *Engine
	ev  *event
	gen uint64
}

// Cancel withdraws the event: it will not run, will not advance the
// virtual clock, and no longer counts as pending. The event is removed
// from the heap in place (sift repair), so cancelled events cost nothing
// at pop time and Pending()/memory stay proportional to live events.
// Cancelling twice, after the event ran, or through a zero handle is a
// no-op.
func (h EventHandle) Cancel() {
	// gen mismatch means the event struct was recycled (it ran, or was
	// cancelled already); idx < 0 catches the event currently executing.
	if h.ev == nil || h.ev.gen != h.gen || h.ev.idx < 0 {
		return
	}
	h.e.heapRemove(h.ev)
	h.e.release(h.ev)
}

// dispatchEntry is a same-time event on the direct-dispatch queue. The
// wake/Yield path — schedule at the current timestamp with normal
// priority — bypasses the heap entirely: entries carry only the sequence
// number needed to merge correctly against heap events, and live in a
// value ring so the hottest scheduling path allocates nothing.
type dispatchEntry struct {
	seq uint64
	fn  func()
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; create engines with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events []*event // index-tracked min-heap on (at, prio, seq)
	free   []*event // recycled event structs

	// dq is the same-time direct-dispatch FIFO: events at (now,
	// PriorityNormal) in seq order, dq[dqHead:] pending. Its entries
	// always carry the current virtual time — time cannot advance while
	// the queue is non-empty, because anything in it is already runnable.
	dq     []dispatchEntry
	dqHead int

	stopped bool
	// limit is the bound of the innermost running RunUntil: events later
	// than it stay queued, so an inline sleep must not pass it either.
	limit Time
	rng   *Rand

	nproc int        // live (not yet finished) processes
	procs []*Process // registry of live processes, for Shutdown
	// dying flips while Shutdown unwinds parked processes: park resumes
	// into a poison panic instead of returning to the model.
	dying     bool
	fault     any // panic captured from a process, re-raised in Run
	executed  uint64
	nameCount map[string]int

	// Observational counters (Stats); none of them steers execution.
	spawned      uint64
	sleepsInline uint64
	sleepsParked uint64
	peakHeap     int
}

// Stats is a snapshot of the engine's work counters. Every value is a
// deterministic function of the model and seed.
type Stats struct {
	// Executed counts events run, inline process sleeps included.
	Executed uint64 `json:"executed"`
	// Spawned counts processes created with Go or GoAt.
	Spawned uint64 `json:"spawned"`
	// SleepsInline counts Process.Sleep calls whose wake was the very
	// next event and which therefore advanced the clock without parking;
	// SleepsParked counts the ones that parked until a scheduled wake.
	SleepsInline uint64 `json:"sleepsInline"`
	SleepsParked uint64 `json:"sleepsParked"`
	// PeakHeap is the largest number of events the timed heap held at
	// once (the same-time dispatch ring is not counted).
	PeakHeap int `json:"peakHeap"`
}

// NewEngine returns an engine at virtual time zero with a deterministic
// random source derived from seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		rng:       NewRand(seed),
		nameCount: make(map[string]int),
	}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// Executed reports how many events have run so far; useful in tests.
func (e *Engine) Executed() uint64 { return e.executed }

// Stats reports the engine's work counters so far.
func (e *Engine) Stats() Stats {
	return Stats{
		Executed:     e.executed,
		Spawned:      e.spawned,
		SleepsInline: e.sleepsInline,
		SleepsParked: e.sleepsParked,
		PeakHeap:     e.peakHeap,
	}
}

// Schedule runs fn at virtual time e.Now()+d with normal priority.
func (e *Engine) Schedule(d Duration, fn func()) { e.At(e.now.Add(d), PriorityNormal, fn) }

// At runs fn at absolute virtual time t. Scheduling in the past panics:
// that is always a model bug, and silently clamping it would corrupt
// latency measurements. Events at the current time with normal priority
// take the direct-dispatch queue and never touch the heap.
func (e *Engine) At(t Time, prio Priority, fn func()) {
	if t == e.now && prio == PriorityNormal {
		e.seq++
		e.dq = append(e.dq, dispatchEntry{seq: e.seq, fn: fn})
		return
	}
	e.at(t, prio, fn)
}

// AtCancel is At returning a handle through which the event can be
// withdrawn again — the basis of cancellable timers. Cancellable events
// always go through the heap (the dispatch queue has no removal), so
// prefer At for events that will certainly run.
func (e *Engine) AtCancel(t Time, prio Priority, fn func()) EventHandle {
	ev := e.at(t, prio, fn)
	return EventHandle{e: e, ev: ev, gen: ev.gen}
}

func (e *Engine) at(t Time, prio Priority, fn func()) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	ev := e.alloc()
	ev.at, ev.prio, ev.seq, ev.fn = t, prio, e.seq, fn
	e.heapPush(ev)
	return ev
}

// alloc takes an event struct from the free list, or mints one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// release recycles an executed or cancelled event. Bumping gen here
// invalidates every outstanding handle to this incarnation.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.idx = -1
	ev.gen++
	e.free = append(e.free, ev)
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the event set is exhausted or Stop is
// called. It returns the final virtual time.
func (e *Engine) Run() Time { return e.RunUntil(Time(1<<63 - 1)) }

// RunUntil executes events with timestamps <= limit, then returns the
// virtual clock. The clock is left at the last executed event: it never
// moves to limit by itself, so RunUntil(5) with a single event at 10
// returns 0 and leaves that event pending.
//
// The loop is a two-way merge of the heap and the direct-dispatch queue:
// both are ordered by (time, priority, seq), so popping the smaller head
// preserves the engine's total execution order exactly.
func (e *Engine) RunUntil(limit Time) Time {
	e.stopped = false
	e.limit = limit
	for !e.stopped {
		hasDQ := e.dqHead < len(e.dq)
		if !hasDQ && len(e.events) == 0 {
			break
		}
		// The dispatch head's key is (e.now, PriorityNormal, seq).
		if !hasDQ || e.heapBefore(e.now, e.dq[e.dqHead].seq) {
			next := e.events[0]
			if next.at > limit {
				break
			}
			e.heapPopTop()
			e.now = next.at
			e.executed++
			fn := next.fn
			e.release(next)
			fn()
			continue
		}
		if e.now > limit {
			break
		}
		fn := e.dq[e.dqHead].fn
		e.dq[e.dqHead].fn = nil
		e.dqHead++
		if e.dqHead == len(e.dq) {
			e.dq, e.dqHead = e.dq[:0], 0
		} else if e.dqHead >= 64 && e.dqHead*2 >= len(e.dq) {
			// A self-sustaining same-time chain never fully drains the
			// queue; compact so consumed head space is reused. The
			// vacated tail must drop its closure references like the
			// pop path does, or they outlive their events.
			n := copy(e.dq, e.dq[e.dqHead:])
			for i := n; i < len(e.dq); i++ {
				e.dq[i].fn = nil
			}
			e.dq, e.dqHead = e.dq[:n], 0
		}
		e.executed++
		fn()
	}
	return e.now
}

// heapBefore reports whether the heap holds an event that runs before
// the slot (t, PriorityNormal, seq). It is the one comparison between
// the heap and a normal-priority slot: RunUntil merges the dispatch ring
// through it, and Process.Sleep asks it whether its own wake would be
// the next event.
func (e *Engine) heapBefore(t Time, seq uint64) bool {
	if len(e.events) == 0 {
		return false
	}
	top := e.events[0]
	if top.at != t {
		return top.at < t
	}
	return top.prio < PriorityNormal || (top.prio == PriorityNormal && top.seq < seq)
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.events) + (len(e.dq) - e.dqHead) }

// Live reports the number of live (started or pending) processes.
func (e *Engine) Live() int { return e.nproc }

// unregister removes p from the live-process registry by swapping the
// last entry into its slot. It runs either in engine context (never-
// started processes dropped by Shutdown) or in a finishing process's
// coroutine while the engine is suspended in transfer — exclusive either
// way.
func (e *Engine) unregister(p *Process) {
	last := len(e.procs) - 1
	moved := e.procs[last]
	e.procs[p.pidx] = moved
	moved.pidx = p.pidx
	e.procs[last] = nil
	e.procs = e.procs[:last]
}

// Shutdown tears the engine down: every parked process coroutine is
// resumed into a poison panic that unwinds it (running its defers), and
// the remaining event set is cleared. Idle workers parked between jobs —
// the interrupt-handler pool in smp, say — are parked processes like any
// other and unwind the same way. Without this, a run that ends with
// processes still parked — protocol pumps at virtual-budget exhaustion,
// for instance — leaks one goroutine per parked process for the life of
// the program.
//
// Shutdown must be called from engine context (never from inside a
// process), after Run/RunUntil has returned. The engine is dead
// afterwards: its event set is empty and scheduling into it is a bug.
// Calling Shutdown again is a harmless no-op. If a process defer panics
// during unwinding, the first such fault is re-raised after teardown
// completes.
func (e *Engine) Shutdown() {
	e.dying = true
	var fault any
	for len(e.procs) > 0 {
		p := e.procs[len(e.procs)-1]
		if !p.started {
			// The start event never ran, so no coroutine exists; clearing
			// the event set below disposes of the pending start.
			p.done = true
			e.unregister(p)
			e.nproc--
			continue
		}
		// The coroutine is suspended in park (a started, unfinished
		// process has nowhere else to block). Resume it; park sees dying
		// and panics the shutdown sentinel, the process's defer recovers
		// it and unregisters, and the coroutine returns.
		p.next()
		if e.fault != nil && fault == nil {
			fault = e.fault
		}
		e.fault = nil
	}
	e.dying = false
	// Drop the remaining event set: anything still scheduled (timers,
	// wake transfers for processes just unwound) must never run. Bump
	// generations so outstanding EventHandles turn inert.
	for _, ev := range e.events {
		ev.idx = -1
		ev.gen++
		ev.fn = nil
	}
	e.events = nil
	e.free = nil
	for i := range e.dq {
		e.dq[i].fn = nil
	}
	e.dq, e.dqHead = nil, 0
	if fault != nil {
		panic(fault)
	}
}

// eventLess is the engine's total execution order.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// The heap is hand-rolled rather than container/heap so that every
// element knows its own index (idx), which is what makes EventHandle
// .Cancel an O(log n) in-place removal instead of a tombstone.

func (e *Engine) heapPush(ev *event) {
	ev.idx = len(e.events)
	e.events = append(e.events, ev)
	if len(e.events) > e.peakHeap {
		e.peakHeap = len(e.events)
	}
	e.siftUp(ev.idx)
}

func (e *Engine) heapPopTop() {
	h := e.events
	h[0].idx = -1
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.events = h[:n]
	if n > 0 {
		e.events[0] = last
		last.idx = 0
		e.siftDown(0)
	}
}

// heapRemove takes ev out of the middle of the heap, repairing the
// invariant around the element moved into its slot.
func (e *Engine) heapRemove(ev *event) {
	i := ev.idx
	h := e.events
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.events = h[:n]
	ev.idx = -1
	if i == n {
		return
	}
	e.events[i] = last
	last.idx = i
	e.siftDown(i)
	if last.idx == i {
		e.siftUp(i)
	}
}

func (e *Engine) siftUp(i int) {
	h := e.events
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].idx = i
		i = parent
	}
	h[i] = ev
	ev.idx = i
}

func (e *Engine) siftDown(i int) {
	h := e.events
	n := len(h)
	ev := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && eventLess(h[r], h[l]) {
			m = r
		}
		if !eventLess(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].idx = i
		i = m
	}
	h[i] = ev
	ev.idx = i
}

// uniqueName disambiguates duplicate process names for tracing.
func (e *Engine) uniqueName(name string) string {
	n := e.nameCount[name]
	e.nameCount[name] = n + 1
	if n == 0 {
		return name
	}
	return fmt.Sprintf("%s#%d", name, n)
}
