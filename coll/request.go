package coll

import (
	"fmt"

	"pushpull/comm"
	"pushpull/internal/sim"
)

// ReservedTag is the base of the tag space collective rounds travel
// under: the k-th collective a rank starts uses tag ReservedTag+k.
// Keeping collective traffic on its own tag lanes is what lets a rank
// mix point-to-point calls (which default to tag 0) with in-flight
// collectives on the same channels without cross-matching, and the
// per-collective sequence keeps even several outstanding non-blocking
// collectives apart — provided every rank starts its collectives in
// the same order (the usual SPMD requirement). Application tags must
// stay below ReservedTag; the matcher enforces the split, so even
// wildcard AnyTag receives posted while a collective is in flight only
// see application traffic, never collective rounds.
const ReservedTag = comm.ReservedTag

// A collective is expressed as a sequence of rounds. Each round posts
// all its sends (nonblocking) and then all its receives; the round
// completes when every operation has. Sequencing rounds — rather than
// issuing everything up front — is what lets receive data feed the next
// round's sends (the reduce combines, the allgather block rotation).

// msg is one outgoing message of a round; rcv one expected arrival.
type msg struct {
	to   int
	data []byte
}

type rcv struct {
	from int
	n    int
}

type round struct {
	sends []msg
	recvs []rcv
}

// stepper generates rounds one at a time. got holds the previous
// round's received payloads in recvs order (nil before the first
// round). done=true ends the collective with result (nil for
// result-less ops and non-root ranks).
type stepper func(got [][]byte) (next round, result []byte, done bool)

// sched builds steppers by chaining phases: each phase's after-hook
// runs when its round completes and pushes the successor phase(s), so
// data-dependent rounds are built from actually-received bytes.
type sched struct {
	queue []phase
	res   []byte
}

type phase struct {
	rd    round
	after func(got [][]byte)
}

func (s *sched) push(rd round, after func(got [][]byte)) {
	s.queue = append(s.queue, phase{rd: rd, after: after})
}

func (s *sched) stepper() stepper {
	var pending func(got [][]byte)
	return func(got [][]byte) (round, []byte, bool) {
		if pending != nil {
			f := pending
			pending = nil
			f(got)
		}
		if len(s.queue) == 0 {
			return round{}, s.res, true
		}
		ph := s.queue[0]
		s.queue = s.queue[1:]
		pending = ph.after
		return ph.rd, nil, false
	}
}

// then runs a to completion, then the stepper makeB builds from a's
// result — the composition behind reduce-then-broadcast AllReduce,
// gather-then-broadcast AllGather and the tree Barrier.
func then(a stepper, makeB func(res []byte) stepper) stepper {
	var b stepper
	return func(got [][]byte) (round, []byte, bool) {
		for {
			if b != nil {
				return b(got)
			}
			rd, res, done := a(got)
			if !done {
				return rd, nil, false
			}
			b = makeB(res)
			got = nil
		}
	}
}

// Request is a collective in flight — the comm.Op-style handle returned
// by the nonblocking collectives. Complete it with Wait (blocking) or
// poll it with Test; completing more than once returns the same
// outcome. All methods must be called from the owning rank's thread.
//
// Requests returned by the public I* calls are driven by their World's
// progression tasklet: as each round's operations complete, the tasklet
// posts the next round, so multi-round collectives keep moving while the
// application computes — no Test polling required.
type Request struct {
	r      *Rank
	step   stepper
	tag    int // this collective's lane in the reserved tag space
	sends  []*comm.Op
	recvs  []*comm.Op
	result []byte
	err    error
	done   bool
	// progressed marks a Request owned by the World's progression
	// tasklet; doneC is its completion broadcast, which Wait parks on.
	progressed bool
	doneC      *sim.Cond
}

// progressed hands a freshly started Request to the World's progression
// tasklet, which advances its rounds as their operations complete. The
// first round was already posted (and charged) on the rank's thread;
// subsequent rounds post asynchronously from the tasklet.
func (r *Rank) progressed(rq *Request) *Request {
	if rq.done {
		return rq // completed at start (e.g. single-rank world): nothing to drive
	}
	rq.progressed = true
	// The completion cond lives on the rank's node engine: Broadcast runs
	// from the node's progression tasklet and Wait parks the rank's own
	// thread.
	rq.doneC = sim.NewNamedCond(r.w.c.Nodes[r.cm.ID().Node].Engine, fmt.Sprintf("coll-done/r%d.t%d", r.id, rq.tag))
	r.w.enqueueProgress(rq)
	return rq
}

// start builds a Request on its own collective tag and posts the first
// round.
func (r *Rank) start(st stepper) *Request {
	rq := &Request{r: r, step: st, tag: r.nextCollTag()}
	rq.advance(nil)
	return rq
}

// advance feeds the previous round's receives to the stepper and posts
// the next non-empty round (empty rounds — ranks idle in a phase — are
// skipped immediately). A progressed Request posts through the async
// variants — advance then runs on the progression tasklet, where there
// is no rank thread to charge, so the posting cost lands on the helper
// threads instead.
func (rq *Request) advance(got [][]byte) {
	for {
		rd, res, done := rq.step(got)
		if done {
			rq.result, rq.done = res, true
			rq.sends, rq.recvs = nil, nil
			return
		}
		got = nil
		if len(rd.sends) == 0 && len(rd.recvs) == 0 {
			continue
		}
		rq.sends = rq.sends[:0]
		rq.recvs = rq.recvs[:0]
		for _, m := range rd.sends {
			var op *comm.Op
			if rq.progressed {
				op = rq.r.cm.IsendAsync(rq.r.peer(m.to), m.data, comm.WithTag(rq.tag))
			} else {
				//pushpull:lint-allow taskletblock guarded by rq.progressed: this branch runs only when the owning rank thread pumps the request, never from the progression tasklet
				op = rq.r.cm.Isend(rq.r.t, rq.r.peer(m.to), m.data, comm.WithTag(rq.tag))
			}
			rq.sends = append(rq.sends, op)
		}
		for _, v := range rd.recvs {
			var op *comm.Op
			if rq.progressed {
				op = rq.r.cm.IrecvAsync(rq.r.peer(v.from), v.n, comm.WithTag(rq.tag))
			} else {
				//pushpull:lint-allow taskletblock guarded by rq.progressed: this branch runs only when the owning rank thread pumps the request, never from the progression tasklet
				op = rq.r.cm.Irecv(rq.r.t, rq.r.peer(v.from), v.n, comm.WithTag(rq.tag))
			}
			rq.recvs = append(rq.recvs, op)
		}
		return
	}
}

// subscribe registers w for a wake when any still-pending operation of
// the round in flight completes. Operation conds are broadcast-only, so
// the registrations coexist with each other and with parked waiters.
func (rq *Request) subscribe(w sim.Waiter) {
	for _, op := range rq.sends {
		op.Subscribe(w)
	}
	for _, op := range rq.recvs {
		op.Subscribe(w)
	}
}

// pump drives a progressed Request one step from the progression
// tasklet: if the round in flight has fully completed, it posts the next
// round and subscribes w to it. It reports true once the collective is
// done (broadcasting doneC to release waiters), false while rounds
// remain — in which case w stays subscribed to the pending operations
// and will be woken again.
func (rq *Request) pump(w sim.Waiter) bool {
	if rq.done {
		return true
	}
	for _, op := range rq.sends {
		done, _, err := op.Test()
		if err != nil {
			rq.fail(err)
			rq.doneC.Broadcast()
			return true
		}
		if !done {
			return false
		}
	}
	for _, op := range rq.recvs {
		done, _, err := op.Test()
		if err != nil {
			rq.fail(err)
			rq.doneC.Broadcast()
			return true
		}
		if !done {
			return false
		}
	}
	got := make([][]byte, len(rq.recvs))
	for i, op := range rq.recvs {
		_, data, _ := op.Test()
		got[i] = data
	}
	rq.advance(got)
	if rq.done {
		rq.doneC.Broadcast()
		return true
	}
	rq.subscribe(w)
	return false
}

func (rq *Request) fail(err error) {
	rq.err = err
	rq.done = true
	rq.sends, rq.recvs = nil, nil
}

// Wait parks the rank until the collective completes and returns its
// result: the received data for Bcast, the reduction on participating
// ranks for Reduce/AllReduce, the rank-major concatenation for
// AllGather, nil for Barrier.
func (rq *Request) Wait() ([]byte, error) {
	if rq.progressed {
		// The progression tasklet advances the rounds; just park on the
		// completion broadcast.
		for !rq.done {
			rq.doneC.Wait(rq.r.t.P)
			rq.r.t.Exec(rq.r.t.Node.Cfg.WakeLatency)
		}
		return rq.result, rq.err
	}
	for !rq.done {
		got := make([][]byte, len(rq.recvs))
		for i, op := range rq.recvs {
			data, err := op.Wait(rq.r.t)
			if err != nil {
				rq.fail(err)
				return nil, rq.err
			}
			got[i] = data
		}
		for _, op := range rq.sends {
			if _, err := op.Wait(rq.r.t); err != nil {
				rq.fail(err)
				return nil, rq.err
			}
		}
		rq.advance(got)
	}
	return rq.result, rq.err
}

// Test reports whether the collective has completed, without blocking.
// Requests from the public I* calls advance in the background (the
// World's progression tasklet posts each next round as the previous one
// completes), so Test is a pure poll — calling it inside compute phases
// is never needed for progress, only for checking.
func (rq *Request) Test() (bool, []byte, error) {
	if rq.progressed {
		return rq.done, rq.result, rq.err
	}
	// A plain (internal, blocking-wrapper) Request has no progression
	// tasklet: polling advances it, posting the next round when the one
	// in flight has completed.
	for !rq.done {
		for _, op := range rq.sends {
			done, _, err := op.Test()
			if err != nil {
				rq.fail(err)
				return true, nil, rq.err
			}
			if !done {
				return false, nil, nil
			}
		}
		// Confirm every receive completed before collecting payloads, so
		// a poll that finds the round still in flight costs no allocation
		// — Test is called from inside compute loops.
		for _, op := range rq.recvs {
			done, _, err := op.Test()
			if err != nil {
				rq.fail(err)
				return true, nil, rq.err
			}
			if !done {
				return false, nil, nil
			}
		}
		got := make([][]byte, len(rq.recvs))
		for i, op := range rq.recvs {
			_, data, _ := op.Test()
			got[i] = data
		}
		rq.advance(got)
	}
	return true, rq.result, rq.err
}

// WaitAll completes every Request in order and returns the first error.
func WaitAll(reqs ...*Request) error {
	var first error
	for _, rq := range reqs {
		if _, err := rq.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
