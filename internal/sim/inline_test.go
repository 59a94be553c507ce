//go:build go1.23

package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The inline-sleep path (Process.Sleep consuming its own wake slot
// without parking) must leave the engine's total (time, priority, seq)
// order untouched. TestInlineSleepMatchesReference replays random
// workloads on the engine and on refSched, a deliberately naive
// scheduler in which every sleep is an event, and compares the traces.
// The guard tests below pin each condition of the inline check alone.

// Script operations shared by processes, tasklets and events.
const (
	opSleep  = iota // process: Sleep(d); tasklet: Sleep(d)
	opWait          // process only: wait on cond arg
	opSignal        // signal cond arg
	opEvent         // schedule a plain event at now+d with prio
	opArm           // schedule a cancellable event at now+d with prio
	opCancel        // cancel the arg-th armed event (mod the number armed)
	opStop          // Stop the running RunUntil
	opWake          // wake tasklet arg
	opNop
)

type scriptOp struct {
	kind int
	d    Duration
	prio Priority
	arg  int
	// then is what a scheduled event does when it runs: opNop, opSignal,
	// opWake or opStop (with thenArg).
	then, thenArg int
}

type workload struct {
	procs   [][]scriptOp
	starts  []Duration
	tasks   [][]scriptOp
	conds   int
	limits  []Time
	maxTime Time
}

func genWorkload(rng *rand.Rand) workload {
	w := workload{conds: 1 + rng.Intn(2)}
	ds := []Duration{0, 0, 1, 2, 3, 5}
	prios := []Priority{PriorityHigh, PriorityNormal, PriorityLow}
	ntask := rng.Intn(4)
	gen := func(n int, proc bool, self int) []scriptOp {
		ops := make([]scriptOp, n)
		for i := range ops {
			o := scriptOp{
				d:    ds[rng.Intn(len(ds))],
				prio: prios[rng.Intn(len(prios))],
				arg:  rng.Intn(8),
				then: opNop,
			}
			switch r := rng.Intn(100); {
			case r < 40:
				o.kind = opSleep
			case r < 50 && proc:
				o.kind = opWait
			case r < 60:
				o.kind = opSignal
			case r < 75:
				o.kind = opEvent
			case r < 83:
				o.kind = opArm
			case r < 90:
				o.kind = opCancel
			case r < 93:
				o.kind = opStop
			default:
				o.kind = opWake
			}
			switch o.kind {
			case opWait, opSignal:
				o.arg %= w.conds
			case opWake:
				// A tasklet waking itself and then sleeping would break
				// the one-pending-resume contract; aim elsewhere.
				if ntask == 0 || (ntask == 1 && self == 0) {
					o.kind = opNop
				} else if o.arg %= ntask; o.arg == self {
					o.arg = (o.arg + 1) % ntask
				}
			case opEvent, opArm:
				switch rng.Intn(4) {
				case 0:
					o.then, o.thenArg = opSignal, rng.Intn(w.conds)
				case 1:
					if ntask > 0 {
						o.then, o.thenArg = opWake, rng.Intn(ntask)
					}
				case 2:
					if rng.Intn(4) == 0 {
						o.then = opStop
					}
				}
			}
			ops[i] = o
		}
		return ops
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		w.procs = append(w.procs, gen(3+rng.Intn(10), true, -1))
		w.starts = append(w.starts, ds[rng.Intn(len(ds))])
	}
	for i := 0; i < ntask; i++ {
		w.tasks = append(w.tasks, gen(2+rng.Intn(8), false, i))
	}
	for i := 0; i < rng.Intn(4); i++ {
		w.limits = append(w.limits, Time(rng.Intn(30)))
	}
	for i := 1; i < len(w.limits); i++ {
		if w.limits[i] < w.limits[i-1] {
			w.limits[i] = w.limits[i-1]
		}
	}
	w.maxTime = Time(1 << 40)
	return w
}

// world is what the workload interpreter needs from a scheduler.
type world interface {
	now() Time
	counters() (executed, seq uint64)
	at(t Time, prio Priority, fn func())
	atCancel(t Time, prio Priority, fn func()) func()
	stop()
	signal(c int)
	wake(tk int)
	runUntil(limit Time) Time
	pending() int
}

// harness runs a workload's shared parts (effects, events, the RunUntil calls)
// on a world and records the trace.
type harness struct {
	w       world
	trace   []string
	cancels []func()
}

func (h *harness) record(who string) {
	ex, seq := h.w.counters()
	h.trace = append(h.trace, fmt.Sprintf("%s@%d#%d/%d", who, h.w.now(), ex, seq))
}

// effect performs a non-blocking op.
func (h *harness) effect(who string, o scriptOp) {
	switch o.kind {
	case opSignal:
		h.w.signal(o.arg)
	case opEvent:
		h.w.at(h.w.now().Add(o.d), o.prio, h.eventFn(who+"!ev", o))
	case opArm:
		h.cancels = append(h.cancels, h.w.atCancel(h.w.now().Add(o.d), o.prio, h.eventFn(who+"!tm", o)))
	case opCancel:
		if n := len(h.cancels); n > 0 {
			h.cancels[o.arg%n]()
		}
	case opStop:
		h.w.stop()
	case opWake:
		h.w.wake(o.arg)
	}
}

func (h *harness) eventFn(who string, o scriptOp) func() {
	return func() {
		h.record(who)
		h.effect(who, scriptOp{kind: o.then, arg: o.thenArg})
	}
}

func (h *harness) drive(wl workload) {
	for _, l := range wl.limits {
		h.w.runUntil(l)
		h.record(fmt.Sprintf("run(%d)", l))
	}
	// Stops may cut the unbounded run short; resume until drained.
	for i := 0; i < 50 && h.w.pending() > 0; i++ {
		h.w.runUntil(wl.maxTime)
		h.record("run")
	}
}

// engineWorld runs the workload on the real engine.
type engineWorld struct {
	e     *Engine
	conds []*Cond
	tasks []*Tasklet
}

func (w *engineWorld) now() Time                           { return w.e.now }
func (w *engineWorld) counters() (uint64, uint64)          { return w.e.executed, w.e.seq }
func (w *engineWorld) at(t Time, prio Priority, fn func()) { w.e.At(t, prio, fn) }
func (w *engineWorld) stop()                               { w.e.Stop() }
func (w *engineWorld) signal(c int)                        { w.conds[c].Signal() }
func (w *engineWorld) wake(tk int)                         { w.tasks[tk].Wake() }
func (w *engineWorld) runUntil(limit Time) Time            { return w.e.RunUntil(limit) }
func (w *engineWorld) pending() int                        { return w.e.Pending() }
func (w *engineWorld) atCancel(t Time, p Priority, f func()) func() {
	return w.e.AtCancel(t, p, f).Cancel
}

func runOnEngine(seed int64, wl workload) ([]string, Stats) {
	e := NewEngine(uint64(seed))
	w := &engineWorld{e: e}
	h := &harness{w: w}
	for i := 0; i < wl.conds; i++ {
		w.conds = append(w.conds, NewCond(e))
	}
	for i, script := range wl.tasks {
		script, pc := script, 0
		name := fmt.Sprintf("t%d", i)
		w.tasks = append(w.tasks, e.NewTasklet(name, func(tk *Tasklet) {
			who := fmt.Sprintf("%s.%d", name, pc)
			h.record(who)
			if pc >= len(script) {
				return
			}
			o := script[pc]
			pc++
			if o.kind == opSleep {
				tk.Sleep(o.d)
				return
			}
			h.effect(who, o)
		}))
	}
	for i, script := range wl.procs {
		script := script
		name := fmt.Sprintf("p%d", i)
		e.GoAt(wl.starts[i], name, func(p *Process) {
			for j, o := range script {
				who := fmt.Sprintf("%s.%d", name, j)
				h.record(who)
				switch o.kind {
				case opSleep:
					p.Sleep(o.d)
				case opWait:
					w.conds[o.arg].Wait(p)
				default:
					h.effect(who, o)
				}
			}
		})
	}
	for _, tk := range w.tasks {
		tk.Start()
	}
	h.drive(wl)
	st := e.Stats()
	e.Shutdown()
	return h.trace, st
}

// refSched is the reference: a linear-scan scheduler on (time, prio,
// seq) in which processes are explicit state machines and every sleep
// is an event.
type refSched struct {
	t        Time
	seq      uint64
	executed uint64
	stopped  bool
	q        []*refEvent
	conds    [][]*refProc
	tasks    []*refTask
}

type refEvent struct {
	at   Time
	prio Priority
	seq  uint64
	fn   func()
}

type refProc struct {
	r      *refSched
	h      *harness
	name   string
	script []scriptOp
	pc     int
}

type refTask struct {
	r         *refSched
	scheduled bool
	run       func()
}

func (r *refSched) now() Time                  { return r.t }
func (r *refSched) counters() (uint64, uint64) { return r.executed, r.seq }
func (r *refSched) stop()                      { r.stopped = true }
func (r *refSched) pending() int               { return len(r.q) }

func (r *refSched) at(t Time, prio Priority, fn func()) { r.schedule(t, prio, fn) }

func (r *refSched) schedule(t Time, prio Priority, fn func()) *refEvent {
	r.seq++
	ev := &refEvent{at: t, prio: prio, seq: r.seq, fn: fn}
	r.q = append(r.q, ev)
	return ev
}

func (r *refSched) atCancel(t Time, prio Priority, fn func()) func() {
	ev := r.schedule(t, prio, fn)
	return func() {
		for i, x := range r.q {
			if x == ev {
				r.q = append(r.q[:i], r.q[i+1:]...)
				return
			}
		}
	}
}

func (r *refSched) signal(c int) {
	if len(r.conds[c]) == 0 {
		return
	}
	p := r.conds[c][0]
	r.conds[c] = r.conds[c][1:]
	r.schedule(r.t, PriorityNormal, p.resume)
}

func (r *refSched) wake(i int) {
	tk := r.tasks[i]
	if tk.scheduled {
		return
	}
	tk.scheduled = true
	r.schedule(r.t, PriorityNormal, tk.run)
}

func (r *refSched) runUntil(limit Time) Time {
	r.stopped = false
	for !r.stopped && len(r.q) > 0 {
		m := 0
		for i, ev := range r.q {
			b := r.q[m]
			if ev.at < b.at || (ev.at == b.at && (ev.prio < b.prio || (ev.prio == b.prio && ev.seq < b.seq))) {
				m = i
			}
		}
		ev := r.q[m]
		if ev.at > limit {
			break
		}
		r.q = append(r.q[:m], r.q[m+1:]...)
		r.t = ev.at
		r.executed++
		ev.fn()
	}
	return r.t
}

// resume runs the process's script until it blocks or ends.
func (p *refProc) resume() {
	for p.pc < len(p.script) {
		o := p.script[p.pc]
		who := fmt.Sprintf("%s.%d", p.name, p.pc)
		p.pc++
		p.h.record(who)
		switch o.kind {
		case opSleep:
			p.r.schedule(p.r.t.Add(o.d), PriorityNormal, p.resume)
			return
		case opWait:
			p.r.conds[o.arg] = append(p.r.conds[o.arg], p)
			return
		default:
			p.h.effect(who, o)
		}
	}
}

func runOnReference(wl workload) []string {
	r := &refSched{conds: make([][]*refProc, wl.conds)}
	h := &harness{w: r}
	for i, script := range wl.tasks {
		script, pc := script, 0
		name := fmt.Sprintf("t%d", i)
		tk := &refTask{r: r}
		tk.run = func() {
			tk.scheduled = false
			who := fmt.Sprintf("%s.%d", name, pc)
			h.record(who)
			if pc >= len(script) {
				return
			}
			o := script[pc]
			pc++
			if o.kind == opSleep {
				tk.scheduled = true
				r.schedule(r.t.Add(o.d), PriorityNormal, tk.run)
				return
			}
			h.effect(who, o)
		}
		r.tasks = append(r.tasks, tk)
	}
	for i, script := range wl.procs {
		p := &refProc{r: r, h: h, name: fmt.Sprintf("p%d", i), script: script}
		r.schedule(r.t.Add(wl.starts[i]), PriorityNormal, p.resume)
	}
	for i := range r.tasks {
		r.wake(i)
	}
	h.drive(wl)
	return h.trace
}

func TestInlineSleepMatchesReference(t *testing.T) {
	var inline, parked uint64
	for seed := int64(0); seed < 400; seed++ {
		wl := genWorkload(rand.New(rand.NewSource(seed)))
		got, st := runOnEngine(seed, wl)
		want := runOnReference(wl)
		inline += st.SleepsInline
		parked += st.SleepsParked
		if fmt.Sprint(got) != fmt.Sprint(want) {
			for i := 0; i < len(got) || i < len(want); i++ {
				var g, w string
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				if g != w {
					t.Fatalf("seed %d: trace diverges at step %d: engine %q, reference %q\nengine    %v\nreference %v",
						seed, i, g, w, got, want)
				}
			}
		}
	}
	// Both paths must actually have been exercised.
	if inline == 0 || parked == 0 {
		t.Fatalf("sleeps inline %d, parked %d: the workloads miss a path", inline, parked)
	}
}

// sleepTrial runs one process that calls setup and then Sleep(5),
// logging what runs when.
func sleepTrial(setup func(e *Engine, log func(string))) ([]string, Stats) {
	e := NewEngine(1)
	var out []string
	log := func(s string) { out = append(out, fmt.Sprintf("%s@%d", s, e.Now())) }
	e.Go("sleeper", func(p *Process) {
		setup(e, log)
		p.Sleep(5)
		log("woke")
	})
	e.Run()
	return out, e.Stats()
}

func expectTrace(t *testing.T, got []string, want ...string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("trace %v, want %v", got, want)
	}
}

// TestSleepParksBehindDispatchRing: an event already on the same-time
// dispatch ring runs before the sleeper's wake, at the current time.
func TestSleepParksBehindDispatchRing(t *testing.T) {
	got, st := sleepTrial(func(e *Engine, log func(string)) {
		e.Schedule(0, func() { log("ring") })
	})
	expectTrace(t, got, "ring@0", "woke@5")
	if st.SleepsInline != 0 {
		t.Fatalf("SleepsInline = %d, want 0", st.SleepsInline)
	}
}

// TestSleepParksBehindEarlierSeq: a normal-priority event at the wake
// time that was scheduled first runs first.
func TestSleepParksBehindEarlierSeq(t *testing.T) {
	got, _ := sleepTrial(func(e *Engine, log func(string)) {
		e.Schedule(5, func() { log("normal") })
	})
	expectTrace(t, got, "normal@5", "woke@5")
}

// TestSleepParksBehindHighPriority: a high-priority event at the wake
// time runs first.
func TestSleepParksBehindHighPriority(t *testing.T) {
	got, _ := sleepTrial(func(e *Engine, log func(string)) {
		e.At(5, PriorityHigh, func() { log("high") })
	})
	expectTrace(t, got, "high@5", "woke@5")
}

// TestSleepInlineAheadOfLowPriority: a low-priority event at the wake
// time runs after the wake, so the sleep may (and does) go inline.
func TestSleepInlineAheadOfLowPriority(t *testing.T) {
	got, st := sleepTrial(func(e *Engine, log func(string)) {
		e.At(5, PriorityLow, func() { log("low") })
	})
	expectTrace(t, got, "woke@5", "low@5")
	if st.SleepsInline != 1 || st.SleepsParked != 0 {
		t.Fatalf("inline %d parked %d, want 1 0", st.SleepsInline, st.SleepsParked)
	}
}

// TestSleepPastLimitStaysPending: a wake beyond the running RunUntil
// limit stays queued and the clock does not pass the limit, so budget
// checks (Pending after RunUntil) see the same state as before.
func TestSleepPastLimitStaysPending(t *testing.T) {
	e := NewEngine(1)
	woke := Time(-1)
	e.Go("sleeper", func(p *Process) {
		p.Sleep(10)
		woke = p.Now()
	})
	if end := e.RunUntil(5); end != 0 || e.Now() != 0 {
		t.Fatalf("RunUntil(5) = %v, Now() = %v; want 0 0", end, e.Now())
	}
	if woke != -1 || e.Pending() != 1 {
		t.Fatalf("woke at %v with %d pending; want the wake still pending", woke, e.Pending())
	}
	e.Run()
	if woke != 10 {
		t.Fatalf("woke at %v, want 10", woke)
	}
}

// TestSleepAfterStopParks: after Stop the running RunUntil must return
// once the current event ends, so the sleeper's wake stays queued.
func TestSleepAfterStopParks(t *testing.T) {
	e := NewEngine(1)
	woke := Time(-1)
	e.Go("sleeper", func(p *Process) {
		e.Stop()
		p.Sleep(5)
		woke = p.Now()
	})
	if end := e.RunUntil(100); end != 0 || woke != -1 || e.Pending() != 1 {
		t.Fatalf("RunUntil returned %v with woke %v and %d pending; want 0, -1, 1", end, woke, e.Pending())
	}
	e.Run()
	if woke != 5 {
		t.Fatalf("woke at %v, want 5", woke)
	}
}

// TestSleepInDeferDuringShutdown: a process unwinding under Shutdown
// that sleeps in a defer parks and is unwound; the clock never moves.
func TestSleepInDeferDuringShutdown(t *testing.T) {
	e := NewEngine(1)
	c := NewCond(e)
	after := false
	e.Go("guarded", func(p *Process) {
		defer func() {
			p.Sleep(5)
			after = true
		}()
		c.Wait(p)
	})
	e.RunUntil(100)
	e.Shutdown()
	if after || e.Now() != 0 {
		t.Fatalf("sleep in a shutdown defer returned (after=%v, now=%v); want it unwound at 0", after, e.Now())
	}
	if e.Live() != 0 {
		t.Fatalf("Live() = %d after shutdown, want 0", e.Live())
	}
}

// TestRunUntilLeavesClockAtLastEvent pins RunUntil's clock contract: it
// never advances the clock to the limit by itself.
func TestRunUntilLeavesClockAtLastEvent(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, func() {})
	if end := e.RunUntil(5); end != 0 || e.Now() != 0 || e.Pending() != 1 {
		t.Fatalf("RunUntil(5) = %v, Now() = %v, Pending() = %d; want 0 0 1", end, e.Now(), e.Pending())
	}
	e.Schedule(2, func() {})
	if end := e.RunUntil(5); end != 2 || e.Pending() != 1 {
		t.Fatalf("RunUntil(5) = %v with %d pending; want 2 1", end, e.Pending())
	}
}
