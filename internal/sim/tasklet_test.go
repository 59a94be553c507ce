package sim

import (
	"strings"
	"testing"
)

// TestTaskletQueuePump is the canonical pump shape: a tasklet consumer
// draining a queue fed by a process producer, parking via PollGet when
// the queue runs dry and waking on the Put signal.
func TestTaskletQueuePump(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 2)
	var got []int
	tk := e.NewTasklet("pump", func(tk *Tasklet) {
		for {
			v, ok := q.PollGet(tk)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	tk.Start()
	e.Go("producer", func(p *Process) {
		for i := 0; i < 5; i++ {
			q.Put(p, i)
			p.Sleep(Microsecond)
		}
	})
	e.Run()
	if len(got) != 5 {
		t.Fatalf("pump drained %d items, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i)
		}
	}
}

// TestTaskletSleepResumes checks that Sleep re-arms the step function at
// the right virtual time and that a state-machine pc survives parking.
func TestTaskletSleepResumes(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	pc := 0
	tk := e.NewTasklet("sleeper", func(tk *Tasklet) {
		times = append(times, tk.Now())
		if pc < 3 {
			pc++
			tk.Sleep(10 * Microsecond)
		}
	})
	tk.Start()
	e.Run()
	want := []Time{0, Time(10 * Microsecond), Time(20 * Microsecond), Time(30 * Microsecond)}
	if len(times) != len(want) {
		t.Fatalf("stepped %d times, want %d", len(times), len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("step %d at %v, want %v", i, times[i], want[i])
		}
	}
}

// TestTaskletWakeCoalesces: any number of same-instant wakes produce
// exactly one step.
func TestTaskletWakeCoalesces(t *testing.T) {
	e := NewEngine(1)
	steps := 0
	tk := e.NewTasklet("coalesce", func(tk *Tasklet) { steps++ })
	tk.Wake()
	tk.Wake()
	tk.Wake()
	e.Run()
	if steps != 1 {
		t.Fatalf("3 wakes ran %d steps, want 1", steps)
	}
	// After the step ran, a new wake schedules again.
	tk.Wake()
	e.Run()
	if steps != 2 {
		t.Fatalf("re-wake ran %d total steps, want 2", steps)
	}
}

// TestTaskletSleepWhileScheduledPanics: double-arming is a model bug.
func TestTaskletSleepWhileScheduledPanics(t *testing.T) {
	e := NewEngine(1)
	tk := e.NewTasklet("bad", func(tk *Tasklet) {})
	tk.Wake()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Sleep while scheduled did not panic")
		}
		if !strings.Contains(r.(string), "already scheduled") {
			t.Fatalf("panic %q lacks diagnosis", r)
		}
	}()
	tk.Sleep(Microsecond)
}

// TestTaskletNegativeSleepPanics mirrors the process-tier contract.
func TestTaskletNegativeSleepPanics(t *testing.T) {
	e := NewEngine(1)
	tk := e.NewTasklet("neg", func(tk *Tasklet) {})
	defer func() {
		if recover() == nil {
			t.Fatal("negative Sleep did not panic")
		}
	}()
	tk.Sleep(-1)
}

// TestMixedTierCondFIFO parks a process and a tasklet on one cond and
// checks Signal wakes them in registration order, whatever the tier.
func TestMixedTierCondFIFO(t *testing.T) {
	e := NewEngine(1)
	c := NewNamedCond(e, "mixed")
	var order []string
	e.Go("proc", func(p *Process) {
		c.Wait(p)
		order = append(order, "proc")
	})
	tk := e.NewTasklet("task", func(tk *Tasklet) {
		order = append(order, "task")
	})
	e.Schedule(Microsecond, func() { c.Await(tk) }) // register after the process
	e.Schedule(2*Microsecond, func() { c.Signal() })
	e.Schedule(3*Microsecond, func() { c.Signal() })
	e.Run()
	if len(order) != 2 || order[0] != "proc" || order[1] != "task" {
		t.Fatalf("wake order %v, want [proc task]", order)
	}
}

// TestTaskletProcessSlotEquivalence pins the property the protocol
// conversions rely on: a tasklet Start and Sleep consume scheduling
// slots exactly like Engine.Go and Process.Sleep, so an interleaved
// third party observes the identical sequence numbering either way.
func TestTaskletProcessSlotEquivalence(t *testing.T) {
	run := func(useTasklet bool) []uint64 {
		e := NewEngine(7)
		var seqs []uint64
		mark := func() { seqs = append(seqs, e.Executed()) }
		if useTasklet {
			pc := 0
			tk := e.NewTasklet("x", func(tk *Tasklet) {
				if pc < 2 {
					pc++
					tk.Sleep(0)
				}
			})
			tk.Start()
		} else {
			e.Go("x", func(p *Process) {
				p.Yield()
				p.Yield()
			})
		}
		e.Schedule(0, mark)
		e.Schedule(0, mark)
		e.Schedule(0, mark)
		e.Run()
		return seqs
	}
	p, tk := run(false), run(true)
	if len(p) != len(tk) {
		t.Fatalf("marker counts differ: %v vs %v", p, tk)
	}
	for i := range p {
		if p[i] != tk[i] {
			t.Fatalf("marker %d saw executed=%d under processes, %d under tasklets", i, p[i], tk[i])
		}
	}
}

// TestPollAcquireContendedOnce: the first failed attempt counts one
// contention; re-attempts after wakes (first=false) do not inflate it.
func TestPollAcquireContendedOnce(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "bus")
	e.Go("holder", func(p *Process) {
		r.Acquire(p)
		p.Sleep(10 * Microsecond)
		r.Release()
		p.Sleep(10 * Microsecond) // reacquired by the tasklet in between
	})
	acquired := false
	first := true
	tk := e.NewTasklet("taker", func(tk *Tasklet) {
		if !r.PollAcquire(tk, first) {
			first = false
			return
		}
		acquired = true
		r.Release()
	})
	e.Schedule(Microsecond, func() { tk.Start() })
	e.Run()
	if !acquired {
		t.Fatal("tasklet never acquired the resource")
	}
	if got := r.Contended(); got != 1 {
		t.Fatalf("Contended() = %d, want 1 (one logical acquire, however many retries)", got)
	}
}

// TestPollPutDefersWithoutDropping: a full queue defers the producer
// tasklet — the item is retried, never counted dropped.
func TestPollPutDefersWithoutDropping(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 1)
	q.TryPut(99)
	sent := false
	tk := e.NewTasklet("src", func(tk *Tasklet) {
		if !sent {
			if !q.PollPut(tk, 7) {
				return
			}
			sent = true
		}
	})
	tk.Start()
	e.Go("sink", func(p *Process) {
		p.Sleep(Microsecond)
		if v := q.Get(p); v != 99 {
			t.Errorf("first item %d, want 99", v)
		}
		p.Sleep(Microsecond)
		if v := q.Get(p); v != 7 {
			t.Errorf("second item %d, want 7", v)
		}
	})
	e.Run()
	if !sent {
		t.Fatal("deferred PollPut never completed")
	}
	if q.Dropped() != 0 {
		t.Fatalf("Dropped() = %d, want 0 (deferred is not dropped)", q.Dropped())
	}
}

// TestMixedTiersDeterministic runs a process/tasklet mesh twice and
// checks the trace matches — the same determinism contract the process
// tier has always had, now across both tiers. Run under -race this also
// exercises the memory-model handoff between goroutines and engine
// context.
func TestMixedTiersDeterministic(t *testing.T) {
	run := func() []int {
		e := NewEngine(42)
		q := NewQueue[int](e, 4)
		var trace []int
		tk := e.NewTasklet("pump", func(tk *Tasklet) {
			for {
				v, ok := q.PollGet(tk)
				if !ok {
					return
				}
				trace = append(trace, v)
			}
		})
		tk.Start()
		for i := 0; i < 3; i++ {
			i := i
			e.Go("feeder", func(p *Process) {
				for j := 0; j < 5; j++ {
					q.Put(p, i*100+j)
					p.Sleep(Duration(e.Rand().Intn(10)) * Microsecond)
				}
			})
		}
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != 15 || len(b) != 15 {
		t.Fatalf("traces have %d and %d items, want 15", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestDoubleWakePanicsWithContext: waking a process whose wake is
// already pending panics, naming the process, time, and cond.
func TestDoubleWakePanicsWithContext(t *testing.T) {
	e := NewEngine(1)
	c := NewNamedCond(e, "the-cond")
	e.Go("victim", func(p *Process) { c.Wait(p) })
	e.Schedule(Microsecond, func() {
		c.Broadcast() // first wake
		defer func() {
			r := recover()
			if r == nil {
				t.Error("double wake did not panic")
				return
			}
			msg := r.(string)
			for _, want := range []string{"double wake", "victim", `cond "the-cond"`, "1.000µs"} {
				if !strings.Contains(msg, want) {
					t.Errorf("panic %q missing %q", msg, want)
				}
			}
			e.Stop() // the victim's wake is still pending; don't run it twice
		}()
		e.procs[0].wake(0) // second wake of the same park
	})
	e.Run()
}

// TestWakeFinishedProcessPanics: a wake landing after the process
// finished names the process and what it last parked on.
func TestWakeFinishedProcessPanics(t *testing.T) {
	e := NewEngine(1)
	c := NewNamedCond(e, "stale")
	var victim *Process
	e.Go("shortlived", func(p *Process) {
		victim = p
		c.Wait(p)
	})
	e.Schedule(Microsecond, func() { c.Broadcast() })
	e.Schedule(2*Microsecond, func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("waking a finished process did not panic")
				return
			}
			msg := r.(string)
			for _, want := range []string{"finished process", "shortlived", `cond "stale"`} {
				if !strings.Contains(msg, want) {
					t.Errorf("panic %q missing %q", msg, want)
				}
			}
		}()
		victim.wake(0)
	})
	e.Run()
}
