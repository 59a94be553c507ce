package sim

import "testing"

// The sim core is the tax every simulated byte pays; these benchmarks
// watch the three hot paths — heap scheduling, process context
// switches, and timer arm/disarm — with -benchmem so allocation
// regressions are visible. BENCH_sim.json at the repo root records the
// baseline.

// BenchmarkScheduleRun measures raw event throughput: schedule-and-run
// batches of future events through the heap, steady state.
func BenchmarkScheduleRun(b *testing.B) {
	e := NewEngine(1)
	const batch = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			e.Schedule(Duration(j%16)*Microsecond, func() {})
		}
		e.Run()
	}
	b.ReportMetric(float64(b.N*batch), "events")
}

// BenchmarkSameTimeDispatch measures the wake/Yield shape: every event
// schedules its successor at the current virtual time.
func BenchmarkSameTimeDispatch(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	var step func()
	step = func() {
		if n < b.N {
			n++
			e.Schedule(0, step)
		}
	}
	e.Schedule(0, step)
	e.Run()
}

// BenchmarkProcessSwitch measures one full engine->process->engine
// context switch: two processes alternately yielding. Each yield finds
// the other process's resume already queued, so none advances inline.
func BenchmarkProcessSwitch(b *testing.B) {
	e := NewEngine(1)
	body := func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Yield()
		}
	}
	e.Go("a", body)
	e.Go("b", body)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	// Only the last yield, with the other process finished, may go inline.
	if st := e.Stats(); st.SleepsInline > 1 {
		b.Fatalf("%d of %d yields advanced inline: not measuring a switch", st.SleepsInline, 2*b.N)
	}
}

// BenchmarkProcessSleep measures a lone process sleeping d > 0: its wake
// is always the next event, so every sleep advances the clock inline
// without leaving the process.
func BenchmarkProcessSleep(b *testing.B) {
	e := NewEngine(1)
	e.Go("sleeper", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkTimerArmCancel measures the retransmission-timer shape: arm a
// timer, then disarm it before expiry, repeatedly — the go-back-N sender
// does exactly this for every acked window.
func BenchmarkTimerArmCancel(b *testing.B) {
	e := NewEngine(1)
	tm := NewTimer(e, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	var step func()
	step = func() {
		if n < b.N {
			n++
			tm.Reset(Millisecond)
			tm.Stop()
			e.Schedule(Microsecond, step)
		}
	}
	e.Schedule(0, step)
	e.Run()
	if pending := e.Pending(); pending != 0 {
		b.Fatalf("Pending() = %d after drain, want 0", pending)
	}
}

// BenchmarkTaskletSwitch is BenchmarkProcessSwitch's counterpart on the
// inline tier: two tasklets alternately yielding (Sleep(0)), the resume
// shape of every converted protocol pump. The gap between the two
// numbers is the goroutine context switch the tasklet tier eliminates.
func BenchmarkTaskletSwitch(b *testing.B) {
	e := NewEngine(1)
	mk := func(name string) *Tasklet {
		n := 0
		var tk *Tasklet
		tk = e.NewTasklet(name, func(*Tasklet) {
			if n < b.N {
				n++
				tk.Sleep(0)
			}
		})
		return tk
	}
	mk("a").Start()
	mk("b").Start()
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
