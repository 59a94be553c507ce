package smp

import (
	"runtime"
	"testing"
	"time"

	"pushpull/internal/sim"
)

// TestNonOverlappingInterruptsShareOneWorker: interrupts that each finish
// before the next is raised all run on the same handler process.
func TestNonOverlappingInterruptsShareOneWorker(t *testing.T) {
	e := sim.NewEngine(1)
	n := newNode(e)
	procs := map[*sim.Process]int{}
	const N = 10
	for i := 0; i < N; i++ {
		e.Schedule(sim.Duration(i)*sim.Millisecond, func() {
			n.IRQ.Raise("rx", func(h *Thread) {
				procs[h.P]++
				h.Exec(10 * sim.Microsecond)
			})
		})
	}
	e.Run()
	if len(procs) != 1 {
		t.Fatalf("%d non-overlapping interrupts started %d handler processes, want 1", N, len(procs))
	}
	for _, runs := range procs {
		if runs != N {
			t.Fatalf("the handler process ran %d invocations, want %d", runs, N)
		}
	}
	if e.Live() != 1 {
		t.Errorf("Live() = %d after the run, want 1 idle worker", e.Live())
	}
	e.Shutdown()
}

// TestOverlappingInterruptsStartOneWorkerEach: K interrupts in flight at
// once need K handler processes, and a later wave reuses them.
func TestOverlappingInterruptsStartOneWorkerEach(t *testing.T) {
	e := sim.NewEngine(1)
	n := newNode(e)
	procs := map[*sim.Process]int{}
	const K = 5
	for wave := 0; wave < 2; wave++ {
		e.Schedule(sim.Duration(wave)*sim.Millisecond, func() {
			for i := 0; i < K; i++ {
				n.IRQ.Raise("rx", func(h *Thread) {
					procs[h.P]++
					h.Exec(100 * sim.Microsecond)
				})
			}
		})
	}
	e.Run()
	if len(procs) != K {
		t.Fatalf("%d overlapping interrupts started %d handler processes, want %d", K, len(procs), K)
	}
	for p, runs := range procs {
		if runs != 2 {
			t.Errorf("%s ran %d invocations over two waves, want 2", p.Name(), runs)
		}
	}
	e.Shutdown()
}

// TestHandlerPanicSurfacesFromRun: a panic inside a handler — on a fresh
// worker and on a reused one — is re-raised by Engine.Run.
func TestHandlerPanicSurfacesFromRun(t *testing.T) {
	for _, reused := range []bool{false, true} {
		e := sim.NewEngine(1)
		n := newNode(e)
		if reused {
			e.Schedule(0, func() { n.IRQ.Raise("rx", func(*Thread) {}) })
		}
		e.Schedule(sim.Millisecond, func() {
			n.IRQ.Raise("rx", func(*Thread) { panic("handler boom") })
		})
		func() {
			defer func() {
				if r := recover(); r != "handler boom" {
					t.Errorf("reused=%v: Run recovered %v, want the handler's panic", reused, r)
				}
			}()
			e.Run()
		}()
		e.Shutdown()
	}
}

// settledGoroutines samples runtime.NumGoroutine until it stops falling.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// TestShutdownUnwindsIdleIRQWorkers: handler workers parked between
// invocations are processes like any other; Shutdown unwinds them and
// leaves no goroutine behind.
func TestShutdownUnwindsIdleIRQWorkers(t *testing.T) {
	base := settledGoroutines()
	e := sim.NewEngine(1)
	n := newNode(e)
	e.Schedule(0, func() {
		for i := 0; i < 4; i++ {
			n.IRQ.Raise("rx", func(h *Thread) { h.Exec(sim.Microsecond) })
		}
	})
	e.Run()
	if e.Live() != 4 {
		t.Fatalf("Live() = %d before shutdown, want 4 idle workers", e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live() = %d after shutdown, want 0", e.Live())
	}
	if got := settledGoroutines(); got > base {
		t.Fatalf("%d goroutines after shutdown, baseline %d: idle workers leaked", got, base)
	}
}
