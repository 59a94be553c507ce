package pushpull_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"pushpull/internal/cluster"
	"pushpull/internal/pushpull"
	"pushpull/internal/sim"
	"pushpull/internal/smp"
	"pushpull/internal/trace"
)

func threePhaseOptions() pushpull.Options {
	opts := pushpull.DefaultOptions()
	opts.Mode = pushpull.ThreePhase
	// The classical protocol predates the paper's optimizations.
	opts.MaskTranslation = false
	opts.OverlapAck = false
	opts.UserTrigger = false
	return opts
}

func TestThreePhaseIntegrityInternode(t *testing.T) {
	for _, n := range []int{1, 16, 100, 1480, 1500, 3000, 8192, 40000} {
		c := internodeCluster(threePhaseOptions())
		data := pattern(n, 7)
		got, _ := runTransfer(t, c, 0, 0, 1, 0, data, 0, 0)
		if !bytes.Equal(got, data) {
			t.Errorf("size %d: received bytes differ", n)
		}
	}
}

func TestThreePhaseIntegrityIntranode(t *testing.T) {
	for _, n := range []int{1, 16, 4096, 40000} {
		c := intranodeCluster(threePhaseOptions())
		data := pattern(n, 3)
		got, _ := runTransfer(t, c, 0, 0, 0, 1, data, 0, 0)
		if !bytes.Equal(got, data) {
			t.Errorf("size %d: received bytes differ", n)
		}
	}
}

// The paper's motivation: the three-phase handshake penalizes short
// messages, which Push-Pull avoids by pushing eagerly. A short internode
// message must complete strictly earlier under full-opt Push-Pull.
func TestThreePhaseHandshakePenaltyShortMessages(t *testing.T) {
	latency := func(opts pushpull.Options) sim.Time {
		c := internodeCluster(opts)
		_, done := runTransfer(t, c, 0, 0, 1, 0, pattern(64, 1), 0, 0)
		return done
	}
	tp := latency(threePhaseOptions())
	pp := latency(pushpull.DefaultOptions())
	if pp >= tp {
		t.Errorf("push-pull (%v) not faster than three-phase (%v) for 64 B", pp, tp)
	}
	// The gap must be at least one wire round trip of a minimum frame —
	// that is what the handshake costs.
	minGap := cluster.DefaultConfig().Net.WireTime(0) * 2
	if tp.Sub(pp) < minGap {
		t.Errorf("handshake gap %v smaller than a minimum-frame round trip %v", tp.Sub(pp), minGap)
	}
}

// Three-phase sends are synchronous: with the receiver arriving late, the
// sender cannot return from Send before the receiver has posted its
// receive (internode: the CTS cannot have been sent earlier).
func TestThreePhaseSenderBlocksUntilReceiverPosts(t *testing.T) {
	const recvDelay = 2 * sim.Millisecond
	for _, intra := range []bool{false, true} {
		var c *cluster.Cluster
		rNode, rProc := 1, 0
		if intra {
			c = intranodeCluster(threePhaseOptions())
			rNode, rProc = 0, 1
		} else {
			c = internodeCluster(threePhaseOptions())
		}
		sender := c.Endpoint(0, 0)
		receiver := c.Endpoint(rNode, rProc)
		data := pattern(5000, 9)
		src := sender.Alloc(len(data))
		dst := receiver.Alloc(len(data))
		var sendReturned sim.Time
		c.Nodes[0].Spawn("sender", sender.CPU, func(th *smp.Thread) {
			if err := sender.Send(th, receiver.ID, src, data); err != nil {
				t.Errorf("send: %v", err)
			}
			sendReturned = th.Now()
		})
		c.Nodes[rNode].SpawnAt(recvDelay, "receiver", receiver.CPU, func(th *smp.Thread) {
			if _, err := receiver.Recv(th, sender.ID, dst, len(data)); err != nil {
				t.Errorf("recv: %v", err)
			}
		})
		c.Run()
		if sendReturned < sim.Time(recvDelay) {
			t.Errorf("intra=%v: three-phase send returned at %v, before the receive was posted at %v",
				intra, sendReturned, sim.Time(recvDelay))
		}
	}
}

// The wire never carries message data before the CTS: every data-bearing
// event must follow the pull request in the trace, the CTS asks for the
// whole message, and the direct copies after it tile the message in order.
func TestThreePhaseNoDataBeforeCTS(t *testing.T) {
	c := internodeCluster(threePhaseOptions())
	rec := trace.NewRecorder(0)
	c.SetRecorder(rec)
	data := pattern(4000, 2)
	got, _ := runTransfer(t, c, 0, 0, 1, 0, data, 0, 0)
	if !bytes.Equal(got, data) {
		t.Fatal("received bytes differ")
	}

	reqs := rec.OfKind(trace.KindPullReq)
	if len(reqs) != 1 {
		t.Fatalf("want exactly one CTS, traced %d", len(reqs))
	}
	cts := reqs[0].Seq
	want := trace.Channel{FromNode: 0, FromProc: 0, ToNode: 1, ToProc: 0}
	if r := reqs[0]; r.Ch != want || r.Off != 0 || r.Len != len(data) {
		t.Errorf("CTS %v: want channel %v, range [0:%d)", r, want, len(data))
	}
	next := 0
	for _, ev := range rec.OfKind(trace.KindDirect) {
		if ev.Seq < cts {
			t.Errorf("data copied to destination before CTS: %v", ev)
		}
		if ev.Ch != want || ev.Off != next {
			t.Errorf("direct copy %v: want channel %v, offset %d", ev, want, next)
		}
		next = ev.Off + ev.Len
	}
	if next != len(data) {
		t.Errorf("direct copies end at byte %d, want %d", next, len(data))
	}
	if n := rec.Count(trace.KindPush); n != 0 {
		t.Errorf("three-phase pushed %d data fragments; want none", n)
	}
	if rec.Count(trace.KindPullGrant) == 0 {
		t.Error("no pull-grant event traced")
	}
}

// Property: three-phase delivers any payload intact for any size and any
// receiver timing, inter- and intranode.
func TestThreePhaseIntegrityProperty(t *testing.T) {
	f := func(sz uint16, delayUS uint16, seed byte, intra bool) bool {
		n := int(sz)%20000 + 1
		var c *cluster.Cluster
		rNode, rProc := 1, 0
		if intra {
			c = intranodeCluster(threePhaseOptions())
			rNode, rProc = 0, 1
		} else {
			c = internodeCluster(threePhaseOptions())
		}
		data := pattern(n, seed)
		got, _ := runTransfer(t, c, 0, 0, rNode, rProc, data,
			0, sim.Duration(delayUS%5000)*sim.Microsecond)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
