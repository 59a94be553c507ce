package pushpull

import (
	"fmt"

	"pushpull/internal/smp"
	"pushpull/internal/trace"
)

// sendInter is the internode send path. With the user-level trigger the
// pushed fragments are PIO-copied into the NIC's outgoing FIFO from user
// space — no system call, no translation — and the source translation is
// either masked (scheduled after transmission starts, §4.3) or paid up
// front. Push-and-Acknowledge Overlapping (§4.4) splits the pushed bytes
// into BTP(1)+BTP(2) so the receiver's pull request overlaps the second
// fragment's wire time. Every fragment rides the channel's own data-lane
// go-back-N session.
func (s *Stack) sendInter(t *smp.Thread, ep *Endpoint, ch ChannelID, msgID uint64, addr vmAddr, data []byte, so SendOptions, laneSeq uint64) {
	if s.Opts.Mode == ThreePhase {
		s.sendInterThreePhase(t, ep, ch, msgID, addr, data, so, laneSeq)
		return
	}
	cfg := s.Node.Cfg
	opts := s.Opts
	total := len(data)
	btp := opts.interBTP(total)
	if so.BTP >= 0 && opts.Mode == PushPull {
		btp = so.BTP
	} else if s.Adapter != nil && opts.Mode == PushPull {
		btp = s.Adapter.BTP(ch, total)
	}
	if btp < 0 {
		btp = 0
	}
	if btp > total {
		btp = total
	}
	sess := s.outSession(ch)

	t.Exec(cfg.CallOverhead)
	if !opts.UserTrigger {
		t.Exec(cfg.SyscallEntry)
	}
	t.Exec(cfg.QueueOp) // register the send operation
	s.event(trace.Event{Kind: trace.KindSend, Ch: ch.traced(), MsgID: msgID, Len: total, Aux: [2]int{btp}})

	op := &sendOp{ch: ch, msgID: msgID, tag: so.Tag, addr: addr, data: data, pushed: btp, start: t.Now()}
	ep.sendOps[sendKey{ch, msgID}] = op

	translated := total == 0 // nothing to translate for an empty message
	translate := func() {
		translated = true
		cost := ep.Space.TranslateCost(addr, total)
		op.srcReadyAt = t.Now().Add(cost)
		t.Exec(cost)
		op.srcZB = translateOrDie(ep.Space, addr, total)
	}
	if !opts.MaskTranslation && total > 0 {
		// Unmasked: find out physical addresses before any transmission.
		translate()
	}

	// Push phase. Fragment the pushed bytes: BTP(1)+BTP(2) when
	// overlapping, one run otherwise; each run is further split at the
	// MTU. Push-All PIO-copies only its first fragment; the rest DMA
	// from host memory and therefore need the translation first.
	runs := pushRuns(opts, btp, total)
	pioBudget := btp
	if opts.Mode == PushAll {
		if pioBudget > MaxFragData {
			pioBudget = MaxFragData
		}
	}
	off := 0
	for _, run := range runs {
		if run == 0 {
			// Empty first run: transmit a bare announcement so the pull
			// request is triggered as early as possible.
			ann := fragMsg{ch: ch, msgID: msgID, tag: so.Tag, laneSeq: laneSeq, total: total, pushTotal: btp, preloaded: true}
			if opts.UserTrigger {
				t.Exec(s.nicTrigger())
			} else {
				t.Exec(s.nicKernelTrigger())
			}
			sess.send(laneEager, ann.wireBytes(), ann)
			continue
		}
		for run > 0 {
			n := run
			if n > MaxFragData {
				n = MaxFragData
			}
			frag := fragMsg{
				ch:        ch,
				msgID:     msgID,
				tag:       so.Tag,
				laneSeq:   laneSeq,
				offset:    off,
				data:      data[off : off+n],
				total:     total,
				pushTotal: btp,
			}
			if opts.UserTrigger && off < pioBudget {
				// Copy into the mapped FIFO and ring the doorbell from
				// user space.
				t.PIO(frag.wireBytes())
				t.Exec(s.nicTrigger())
				frag.preloaded = true
			} else if opts.UserTrigger {
				// Descriptor queued through the mapped ring (Push-All's
				// later fragments DMA from host memory).
				t.Exec(s.nicTrigger())
			} else {
				// Kernel driver transmit path: per-frame descriptor and
				// ring work the user-level trigger eliminates.
				t.Exec(s.nicKernelTrigger())
			}
			if opts.Mode == PushAll && off+n > pioBudget && !translated {
				// Push-All cannot push everything through the FIFO: the
				// remaining fragments DMA from the user buffer, so the
				// translation must happen now, hidden only by the first
				// fragment's wire time.
				translate()
			}
			ev := trace.Event{Kind: trace.KindPush, Ch: ch.traced(), MsgID: msgID, Off: frag.offset, Len: n}
			if frag.preloaded {
				ev.Aux[0] = 1
			}
			s.event(ev)
			sess.send(laneEager, frag.wireBytes(), frag)
			off += n
			run -= n
		}
	}
	if btp == 0 {
		// Pushing nothing (Push-Zero, a zero-length message, or Push-Pull
		// swept down to BTP=0): the push phase transfers no data, but the
		// announcement frame still occupies the wire (the paper's point
		// about Push-Zero wasting bandwidth in the early-receiver test).
		ann := fragMsg{ch: ch, msgID: msgID, tag: so.Tag, laneSeq: laneSeq, total: total, pushTotal: 0, preloaded: true}
		if opts.UserTrigger {
			t.Exec(s.nicTrigger())
		} else {
			t.Exec(s.nicKernelTrigger())
		}
		sess.send(laneEager, ann.wireBytes(), ann)
	}

	if !translated {
		// Masked: translation happens after transmission was initiated,
		// overlapping the wire time of the pushed fragments.
		translate()
	}

	if btp == total {
		// Fully pushed (or zero-length): nothing to pull; the send op is
		// complete.
		s.finishSend(ep, op)
	}
	if !opts.UserTrigger {
		t.Exec(cfg.SyscallExit)
	}
}

// pushRuns reports the eager transmission runs for btp pushed bytes of a
// total-byte message. The BTP(1)/BTP(2) split only matters when a pull
// phase will follow; a message that fits entirely in the push goes out in
// one run, which is why the paper's four optimization variants coincide
// below 760 bytes (Fig. 4).
func pushRuns(opts Options, btp, total int) []int {
	if btp <= 0 {
		return nil
	}
	if opts.Mode == PushPull && opts.OverlapAck && btp < total {
		b1 := opts.BTP1
		if b1 > btp {
			b1 = btp
		}
		if b2 := btp - b1; b2 > 0 {
			// A zero-byte first run still emits an (empty) announcement
			// fragment, so the receiver's acknowledgement can overlap the
			// second fragment even when BTP(1)=0 — the configuration of
			// the paper's §5.2 BTP(2) sweep.
			return []int{b1, b2}
		}
		return []int{b1}
	}
	return []int{btp}
}

// deliverFrag handles one in-order data fragment at the receive side,
// in reception-handler context. It reports false when the fragment could
// not be buffered, which the go-back-N layer treats as loss — stalling
// only this channel's stream.
func (s *Stack) deliverFrag(t *smp.Thread, f fragMsg) bool {
	cfg := s.Node.Cfg
	ep := s.eps[f.ch.To.Proc]
	if ep == nil {
		panic(fmt.Sprintf("pushpull: fragment for missing endpoint %v", f.ch.To))
	}
	m := ep.findInbound(f.ch, f.msgID)
	if m == nil {
		t.Exec(cfg.QueueOp)
		m = &inboundMsg{
			ch:        f.ch,
			msgID:     f.msgID,
			tag:       f.tag,
			laneSeq:   f.laneSeq,
			total:     f.total,
			pushTotal: f.pushTotal,
			buf:       make([]byte, f.total),
		}
		ep.addInbound(m)
	}
	if m.op != nil {
		if len(f.data) > 0 {
			s.event(trace.Event{Kind: trace.KindDirect, Ch: f.ch.traced(), MsgID: f.msgID, Off: f.offset, Len: len(f.data), Aux: [2]int{t.CPU.ID}})
		}
		// Receive registered: copy straight into the destination buffer
		// through its zero buffer (one copy). The destination's
		// translation may still be in flight when masked — wait for it.
		if rdy := m.op.zbReadyAt; t.Now() < rdy {
			t.P.Sleep(rdy.Sub(t.Now()))
		}
		if len(f.data) > 0 {
			t.Copy(len(f.data), false)
			copy(m.buf[f.offset:], f.data)
			m.received += len(f.data)
		}
		// Push-and-Acknowledge Overlapping: the handler answers the
		// first pushed fragment with the pull request immediately, while
		// later pushed fragments are still on the wire.
		ep.maybeStartPull(t, m, true)
		if m.received == m.total {
			ep.complete(t, m)
		}
		return true
	}
	// No receive yet: park the fragment in the pushed buffer. Fragments
	// carrying data occupy one slot each; empty announcements are pure
	// metadata.
	if len(f.data) > 0 {
		switch {
		case ep.ring.tryReserveSlot():
			m.slots++
			m.buffered = append(m.buffered, f)
			s.event(trace.Event{Kind: trace.KindPark, Ch: f.ch.traced(), MsgID: f.msgID, Off: f.offset, Len: len(f.data), Aux: [2]int{ep.ring.slotsUsed(), ep.ring.slots}})
		case !m.pullSent && f.pushTotal < f.total:
			// Buffer full, but a pull phase is still to come: discard
			// this optimistic push and let the pull request re-fetch the
			// range. Accepting (and acking) the fragment keeps the
			// in-order stream moving — refusing it would stall pull
			// traffic of earlier messages behind the retransmission.
			m.dropped = append(m.dropped, byteRange{Off: f.offset, N: len(f.data)})
			s.discardedBytes += uint64(len(f.data))
			s.event(trace.Event{Kind: trace.KindDiscard, Ch: f.ch.traced(), MsgID: f.msgID, Off: f.offset, Len: len(f.data)})
		default:
			// Fully eager message (Push-All or a short fully-pushed
			// transfer): no pull phase exists to re-fetch the data, so
			// the fragment must be refused and recovered by go-back-N —
			// the paper's Fig. 6 collapse, now confined to this
			// channel's eager lane. (The pullSent guard above is pure
			// defense: match-time capacity validation means a receive
			// never detaches after starting a pull, so an unbound
			// message with the pull request already out cannot occur —
			// but if it ever did, a discard here would be an
			// unrecoverable hole, while refusal retransmits.)
			s.event(trace.Event{Kind: trace.KindRefuse, Ch: f.ch.traced(), MsgID: f.msgID, Off: f.offset, Len: len(f.data)})
			return false
		}
	}
	t.Exec(cfg.QueueOp)
	if m.op != nil && m.op.done != nil {
		m.op.done.Broadcast()
	}
	return true
}

// sendPullReq transmits the acknowledgement-cum-pull-request for m from
// the receive side (handler or receive process context), on the
// channel's own control lane.
func (s *Stack) sendPullReq(t *smp.Thread, m *inboundMsg) {
	cfg := s.Node.Cfg
	t.Exec(cfg.QueueOp)
	t.Exec(s.nicKernelTrigger())
	s.event(trace.Event{Kind: trace.KindPullReq, Ch: m.ch.traced(), MsgID: m.msgID, Off: m.pushTotal, Len: m.total - m.pushTotal, Aux: [2]int{len(m.dropped)}})
	req := pullReqMsg{ch: m.ch, msgID: m.msgID, fromOffset: m.pushTotal, redo: m.dropped}
	s.inSession(m.ch).send(laneCtrl, req.wireBytes(), req)
}

// servePull runs at the send side when the pull request arrives: grant it
// and transmit the rest of the message from the send queue (arrow 1b.2).
func (s *Stack) servePull(t *smp.Thread, req pullReqMsg) {
	cfg := s.Node.Cfg
	ep := s.eps[req.ch.From.Proc]
	if ep == nil {
		panic(fmt.Sprintf("pushpull: pull request for missing endpoint %v", req.ch.From))
	}
	key := sendKey{req.ch, req.msgID}
	op := ep.sendOps[key]
	if op == nil || op.served {
		return // duplicate pull request after go-back-N retransmission
	}
	t.Exec(cfg.QueueOp)
	if s.Adapter != nil {
		redo := 0
		for _, r := range req.redo {
			redo += r.N
		}
		s.Adapter.OnPullRequest(req.ch, redo, t.Now().Sub(op.start))
	}
	if op.done != nil {
		// Three-phase: the CTS wakes the parked sender, which transmits
		// from its own thread; the handler only delivers the grant.
		s.grantThreePhase(op, req)
		return
	}
	// The pull data DMAs from the user source buffer: its translation
	// must have finished (masking scheduled it behind the push wire
	// time, which is almost always enough — but never break causality).
	if t.Now() < op.srcReadyAt {
		t.P.Sleep(op.srcReadyAt.Sub(t.Now()))
	}
	s.event(trace.Event{Kind: trace.KindPullGrant, Ch: req.ch.traced(), MsgID: req.msgID, Off: op.pushed, Len: len(op.data) - op.pushed, Aux: [2]int{len(req.redo)}})
	sess := s.outSession(req.ch)
	total := len(op.data)
	ranges := append(append([]byteRange(nil), req.redo...), byteRange{Off: op.pushed, N: total - op.pushed})
	for _, r := range ranges {
		for off, end := r.Off, r.Off+r.N; off < end; {
			n := end - off
			if n > MaxFragData {
				n = MaxFragData
			}
			frag := fragMsg{
				ch:        req.ch,
				msgID:     req.msgID,
				tag:       op.tag,
				offset:    off,
				data:      op.data[off : off+n],
				total:     total,
				pushTotal: op.pushed,
				pull:      true,
			}
			t.Exec(s.nicKernelTrigger())
			sess.send(lanePull, frag.wireBytes(), frag)
			off += n
		}
	}
	s.finishSend(ep, op)
}
