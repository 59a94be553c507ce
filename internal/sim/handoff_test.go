package sim

import (
	"fmt"
	"testing"
)

// TestSignalAfterTakesGoAtSlot: waking a parked process with
// SignalAfter(d) resumes it in exactly the slot where GoAt(d) would
// start a new process, against competing events at the same time of
// every priority, scheduled both before and after the hand-off. This is
// what lets a reused worker replace a process per job without moving a
// digest.
func TestSignalAfterTakesGoAtSlot(t *testing.T) {
	for _, d := range []Duration{0, 3 * Microsecond} {
		run := func(viaCond bool) ([]string, uint64) {
			e := NewEngine(1)
			var log []string
			mark := func(what string) func() {
				return func() { log = append(log, fmt.Sprintf("%s@%v", what, e.Now())) }
			}
			c := NewCond(e)
			body := func(p *Process) {
				log = append(log, fmt.Sprintf("worker@%v", p.Now()))
				p.Sleep(Microsecond)
				log = append(log, fmt.Sprintf("worker-done@%v", p.Now()))
			}
			if viaCond {
				e.Go("worker", func(p *Process) {
					c.Wait(p)
					body(p)
				})
			}
			e.Schedule(10*Microsecond, func() {
				at := e.Now().Add(d)
				e.At(at, PriorityNormal, mark("normal-before"))
				e.At(at, PriorityLow, mark("low-before"))
				if viaCond {
					c.SignalAfter(d)
				} else {
					e.GoAt(d, "worker", body)
				}
				e.At(at, PriorityNormal, mark("normal-after"))
				e.At(at, PriorityHigh, mark("high-after"))
				e.At(at.Add(Microsecond), PriorityNormal, mark("later"))
			})
			e.Run()
			return log, e.Executed()
		}
		viaGo, goEvents := run(false)
		viaCond, condEvents := run(true)
		if fmt.Sprint(viaGo) != fmt.Sprint(viaCond) {
			t.Errorf("d=%v: SignalAfter order\n  %v\nGoAt order\n  %v", d, viaCond, viaGo)
		}
		// The cond engine additionally ran the worker's own start event.
		if condEvents != goEvents+1 {
			t.Errorf("d=%v: SignalAfter engine ran %d events, GoAt engine %d; want exactly one more (the start)", d, condEvents, goEvents)
		}
	}
}

// TestProcessResumeDoesNotAllocate: a steady-state resume — wake event,
// coroutine switch in, park, switch back — allocates nothing.
func TestProcessResumeDoesNotAllocate(t *testing.T) {
	e := NewEngine(1)
	e.Go("sleeper", func(p *Process) {
		for {
			p.Sleep(Microsecond)
		}
	})
	e.RunUntil(0)
	allocs := testing.AllocsPerRun(1000, func() {
		e.RunUntil(e.Now().Add(Microsecond))
	})
	e.Shutdown()
	if allocs != 0 {
		t.Errorf("process resume allocates %.1f times, want 0", allocs)
	}
}
