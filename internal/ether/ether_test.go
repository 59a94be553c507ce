package ether

import (
	"testing"

	"pushpull/internal/sim"
)

// collector is a Port that records delivered frames.
type collector struct {
	id     int
	frames []Frame
	times  []sim.Time
	e      *sim.Engine
}

func (c *collector) NodeID() int { return c.id }
func (c *collector) DeliverFrame(f Frame) {
	c.frames = append(c.frames, f)
	c.times = append(c.times, c.e.Now())
}

func TestWireTime(t *testing.T) {
	cfg := FastEthernet()
	// 1500-byte payload: (1500+30)*8 bits at 100 Mb/s = 122.4 µs
	if got := cfg.WireTime(1500); got != 122400*sim.Nanosecond {
		t.Errorf("WireTime(1500) = %v, want 122.4µs", got)
	}
	// Minimum frame: 4-byte payload padded to 64: (64+30)*8 = 7.52µs
	if got := cfg.WireTime(4); got != 7520*sim.Nanosecond {
		t.Errorf("WireTime(4) = %v, want 7.52µs", got)
	}
}

func TestPayloadRateCeilingNearPaper(t *testing.T) {
	cfg := FastEthernet()
	rate := cfg.PayloadRate(MTU-16) / 1e6 // MTU minus a protocol header
	if rate < 12.0 || rate > 12.5 {
		t.Errorf("payload ceiling = %.2f MB/s, want ~12.1-12.2 (paper reaches 12.1)", rate)
	}
}

func TestLinkDelivers(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := FastEthernet()
	a := &collector{id: 0, e: e}
	b := &collector{id: 1, e: e}
	l := NewLink(e, cfg, a, b)
	e.Go("tx", func(p *sim.Process) {
		l.Transmit(p, a, Frame{Src: 0, Dst: 1, PayloadBytes: 100, Payload: "hello"})
	})
	e.Run()
	if len(b.frames) != 1 || b.frames[0].Payload != "hello" {
		t.Fatalf("b received %v", b.frames)
	}
	want := sim.Time(cfg.WireTime(100) + sim.Duration(cfg.Propagation))
	if b.times[0] != want {
		t.Errorf("delivery at %v, want %v", b.times[0], want)
	}
	if len(a.frames) != 0 {
		t.Error("frame echoed to sender")
	}
}

func TestLinkSerializesOneDirection(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := FastEthernet()
	a := &collector{id: 0, e: e}
	b := &collector{id: 1, e: e}
	l := NewLink(e, cfg, a, b)
	for i := 0; i < 2; i++ {
		e.Go("tx", func(p *sim.Process) {
			l.Transmit(p, a, Frame{Src: 0, Dst: 1, PayloadBytes: 1500})
		})
	}
	e.Run()
	if len(b.times) != 2 {
		t.Fatal("frames lost")
	}
	gap := b.times[1].Sub(b.times[0])
	if gap != cfg.WireTime(1500) {
		t.Errorf("back-to-back gap = %v, want one wire time %v", gap, cfg.WireTime(1500))
	}
}

func TestLinkFullDuplex(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := FastEthernet()
	a := &collector{id: 0, e: e}
	b := &collector{id: 1, e: e}
	l := NewLink(e, cfg, a, b)
	e.Go("txA", func(p *sim.Process) {
		l.Transmit(p, a, Frame{Src: 0, Dst: 1, PayloadBytes: 1500})
	})
	e.Go("txB", func(p *sim.Process) {
		l.Transmit(p, b, Frame{Src: 1, Dst: 0, PayloadBytes: 1500})
	})
	e.Run()
	// Opposite directions must not serialize against each other.
	want := sim.Time(cfg.WireTime(1500) + sim.Duration(cfg.Propagation))
	if a.times[0] != want || b.times[0] != want {
		t.Errorf("full-duplex deliveries at %v / %v, want both %v", a.times[0], b.times[0], want)
	}
}

func TestLinkForeignPortPanics(t *testing.T) {
	e := sim.NewEngine(1)
	a := &collector{id: 0, e: e}
	b := &collector{id: 1, e: e}
	c := &collector{id: 2, e: e}
	l := NewLink(e, FastEthernet(), a, b)
	e.Go("bad", func(p *sim.Process) {
		defer func() {
			if recover() == nil {
				t.Error("transmit from foreign port did not panic")
			}
		}()
		l.Transmit(p, c, Frame{Src: 2, Dst: 1, PayloadBytes: 10})
	})
	e.Run()
}

func TestSwitchForwards(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := FastEthernet()
	sw := NewSwitch(e, cfg, 2*sim.Microsecond)
	a := &collector{id: 0, e: e}
	b := &collector{id: 1, e: e}
	la := sw.Attach(a, 0)
	sw.Attach(b, 0)
	e.Go("tx", func(p *sim.Process) {
		la.Transmit(p, a, Frame{Src: 0, Dst: 1, PayloadBytes: 200, Payload: 42})
	})
	e.Run()
	if len(b.frames) != 1 || b.frames[0].Payload != 42 {
		t.Fatalf("switch did not forward: %v", b.frames)
	}
	// Store-and-forward: at least two serializations plus forwarding.
	minTime := sim.Time(2*cfg.WireTime(200) + 2*sim.Duration(cfg.Propagation) + 2*sim.Microsecond)
	if b.times[0] < minTime {
		t.Errorf("delivery at %v faster than store-and-forward minimum %v", b.times[0], minTime)
	}
}

func TestSwitchUnknownDestinationDropped(t *testing.T) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e, FastEthernet(), 0)
	a := &collector{id: 0, e: e}
	la := sw.Attach(a, 0)
	e.Go("tx", func(p *sim.Process) {
		la.Transmit(p, a, Frame{Src: 0, Dst: 99, PayloadBytes: 64})
	})
	e.Run()
	if sw.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", sw.Dropped())
	}
}

func TestSwitchOutputQueueOverflow(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := FastEthernet()
	sw := NewSwitch(e, cfg, 0)
	a := &collector{id: 0, e: e}
	b := &collector{id: 1, e: e}
	c := &collector{id: 2, e: e}
	la := sw.Attach(a, 1) // 1-frame output queues
	lc := sw.Attach(c, 1)
	sw.Attach(b, 1)
	// Two senders blast frames at b simultaneously; with a 1-frame output
	// queue some must drop.
	for i := 0; i < 4; i++ {
		e.Go("txA", func(p *sim.Process) {
			la.Transmit(p, a, Frame{Src: 0, Dst: 1, PayloadBytes: 1500})
		})
		e.Go("txC", func(p *sim.Process) {
			lc.Transmit(p, c, Frame{Src: 2, Dst: 1, PayloadBytes: 1500})
		})
	}
	e.Run()
	if sw.Dropped() == 0 {
		t.Error("congested 1-frame output queue never dropped")
	}
	if len(b.frames)+int(sw.Dropped()) != 8 {
		t.Errorf("delivered %d + dropped %d != sent 8", len(b.frames), sw.Dropped())
	}
}

// countPort is a Port that only counts deliveries, so a delivery itself
// allocates nothing.
type countPort struct{ id, n int }

func (c *countPort) NodeID() int        { return c.id }
func (c *countPort) DeliverFrame(Frame) { c.n++ }

// TestSteadyTransmitDoesNotAllocate: once warm, transmitting a frame on
// a Link or a Hub and delivering it allocates nothing — the in-flight
// FIFO and its prebound delivery callback replace a closure per frame.
func TestSteadyTransmitDoesNotAllocate(t *testing.T) {
	e := sim.NewEngine(1)
	a := &countPort{id: 0}
	b := &countPort{id: 1}
	hub := NewHub(e, FastEthernet())
	hub.Attach(a)
	hub.Attach(b)
	f := Frame{Src: 0, Dst: 1, PayloadBytes: 100, Payload: &countPort{}}
	for _, m := range []Medium{NewLink(e, FastEthernet(), a, b), hub} {
		var cur TxCursor
		tk := e.NewTasklet("tx", func(tk *sim.Tasklet) {
			if m.TransmitStep(tk, &cur, a, f) {
				cur = TxCursor{}
			}
		})
		before := b.n
		allocs := testing.AllocsPerRun(100, func() {
			tk.Wake()
			e.Run()
		})
		if b.n-before != 101 {
			t.Fatalf("%T: %d frames delivered, want 101", m, b.n-before)
		}
		if allocs != 0 {
			t.Errorf("%T: transmit and deliver allocates %.1f times per frame, want 0", m, allocs)
		}
	}
}

// TestInFlightOrderUnderLongPropagation: with a propagation delay a
// hundred frames long, the in-flight FIFO never drains while the sender
// streams, so it compacts; deliveries keep their order and timing.
func TestInFlightOrderUnderLongPropagation(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := FastEthernet()
	cfg.Propagation = 100 * cfg.WireTime(100)
	a := &collector{id: 0, e: e}
	b := &collector{id: 1, e: e}
	l := NewLink(e, cfg, a, b)
	const n = 300
	e.Go("tx", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			l.Transmit(p, a, Frame{Src: 0, Dst: 1, PayloadBytes: 100, Payload: i})
		}
	})
	e.Run()
	if len(b.frames) != n {
		t.Fatalf("%d frames delivered, want %d", len(b.frames), n)
	}
	for i, f := range b.frames {
		want := sim.Time(sim.Duration(i+1)*cfg.WireTime(100) + cfg.Propagation)
		if b.times[i] != want {
			t.Fatalf("frame %d delivered at %v, want %v", i, b.times[i], want)
		}
		if f.Payload != i {
			t.Fatalf("delivery %d carried frame %v", i, f.Payload)
		}
	}
	if l.ab.flight.q.Len() != 0 {
		t.Fatalf("%d frames still in flight after the run", l.ab.flight.q.Len())
	}
}
