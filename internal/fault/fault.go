// Package fault implements deterministic fault injection for the
// simulated cluster: a Plan is a virtual-time schedule of typed fault
// events — link down/up intervals, flapping links, correlated loss
// bursts, switch-port blackouts, node pauses and NIC transmit stalls —
// compiled into per-component injectors that the network layers consult
// on their hot paths. With no plan armed every injector pointer is nil,
// so the cost of the subsystem is a single nil check per frame and every
// unfaulted run stays bit-identical.
//
// Determinism: all randomized behavior (random flap phases, the
// Gilbert–Elliott burst chain) draws from private xorshift64* streams
// seeded from the plan seed, the cluster seed and the event's position —
// never from the engine's RNG — so arming a plan does not perturb the
// rest of the simulation's random sequence, and the same plan over the
// same seed replays exactly.
package fault

import (
	"fmt"
	"sort"

	"pushpull/internal/sim"
	"pushpull/internal/strictjson"
)

// Kind names a fault event type.
type Kind string

const (
	// KindLinkDown takes node's link (or its switch access link) down for
	// [AtMS, UntilMS): every frame in either direction is lost.
	KindLinkDown Kind = "link-down"
	// KindLinkFlap toggles node's link with period PeriodMS over
	// [AtMS, UntilMS): up for DutyCycle of each period, down for the
	// rest. With Random set, the down interval lands at a seeded-random
	// phase within each period instead of at the end.
	KindLinkFlap Kind = "link-flap"
	// KindLossBurst overlays a two-state Gilbert–Elliott loss chain on
	// node's link for [AtMS, UntilMS): in the good state frames pass, in
	// the burst state they are lost with probability BurstLoss; the chain
	// enters the burst state with PEnterBurst and leaves it with
	// PExitBurst per consulted frame.
	KindLossBurst Kind = "loss-burst"
	// KindPortBlackout blocks node's switch port for [AtMS, UntilMS):
	// the switch forwards nothing to or from that port.
	KindPortBlackout Kind = "port-blackout"
	// KindNodePause freezes node's host for [AtMS, UntilMS): its NIC
	// drops every received frame (nobody drains the ring) and stalls
	// transmit fetches until the pause lifts.
	KindNodePause Kind = "node-pause"
	// KindNICStall stalls node's NIC transmit engine for [AtMS, UntilMS):
	// frames queue but none are fetched until the window ends. Reception
	// is unaffected.
	KindNICStall Kind = "nic-stall"
)

// Event is one scheduled fault. Times are virtual milliseconds from the
// start of the run; the fault is active over [AtMS, UntilMS).
type Event struct {
	Kind Kind `json:"kind"`
	Node int  `json:"node"`

	AtMS    float64 `json:"atMS"`
	UntilMS float64 `json:"untilMS"`

	// Flap parameters (KindLinkFlap).
	PeriodMS  float64 `json:"periodMS,omitempty"`
	DutyCycle float64 `json:"dutyCycle,omitempty"` // fraction of each period the link is UP
	Random    bool    `json:"random,omitempty"`    // seeded-random down phase per period

	// Gilbert–Elliott parameters (KindLossBurst).
	PEnterBurst float64 `json:"pEnterBurst,omitempty"`
	PExitBurst  float64 `json:"pExitBurst,omitempty"`
	BurstLoss   float64 `json:"burstLoss,omitempty"`
}

// Plan is a deterministic fault schedule: the events plus an optional
// seed that (mixed with the cluster seed) drives all randomized fault
// behavior.
type Plan struct {
	Seed   uint64  `json:"seed,omitempty"`
	Events []Event `json:"events"`
}

// ParsePlan decodes a JSON fault plan. Keys must match exactly; unknown
// keys and any data after the plan object are errors (see
// strictjson.Decode).
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	if err := strictjson.Decode(data, &p); err != nil {
		return nil, fmt.Errorf("fault: parse plan: %w", err)
	}
	return &p, nil
}

// maxFlapPeriods bounds the window expansion of one flap event, so a
// malformed plan (tiny period over a huge window) cannot compile into
// millions of intervals.
const maxFlapPeriods = 100000

// Validate checks the plan against a cluster of the given node count
// (pass 0 to skip the range check).
func (p *Plan) Validate(nodes int) error {
	for i, ev := range p.Events {
		prefix := fmt.Sprintf("fault: event %d (%s)", i, ev.Kind)
		switch ev.Kind {
		case KindLinkDown, KindLinkFlap, KindLossBurst, KindPortBlackout, KindNodePause, KindNICStall:
		default:
			return fmt.Errorf("fault: event %d has unknown kind %q", i, ev.Kind)
		}
		if ev.Node < 0 || (nodes > 0 && ev.Node >= nodes) {
			return fmt.Errorf("%s: node %d out of range [0,%d)", prefix, ev.Node, nodes)
		}
		if ev.AtMS < 0 {
			return fmt.Errorf("%s: atMS %v is negative", prefix, ev.AtMS)
		}
		if ev.UntilMS <= ev.AtMS {
			return fmt.Errorf("%s: untilMS %v must exceed atMS %v", prefix, ev.UntilMS, ev.AtMS)
		}
		if ev.Kind == KindLinkFlap {
			if ev.PeriodMS <= 0 {
				return fmt.Errorf("%s: periodMS %v must be positive", prefix, ev.PeriodMS)
			}
			if ev.DutyCycle < 0 || ev.DutyCycle > 1 {
				return fmt.Errorf("%s: dutyCycle %v outside [0,1]", prefix, ev.DutyCycle)
			}
			if (ev.UntilMS-ev.AtMS)/ev.PeriodMS > maxFlapPeriods {
				return fmt.Errorf("%s: expands to more than %d periods", prefix, maxFlapPeriods)
			}
		}
		if ev.Kind == KindLossBurst {
			for _, pr := range []struct {
				name string
				v    float64
			}{{"pEnterBurst", ev.PEnterBurst}, {"pExitBurst", ev.PExitBurst}, {"burstLoss", ev.BurstLoss}} {
				if pr.v < 0 || pr.v > 1 {
					return fmt.Errorf("%s: %s %v outside [0,1]", prefix, pr.name, pr.v)
				}
			}
			if ev.BurstLoss == 0 {
				return fmt.Errorf("%s: burstLoss must be positive", prefix)
			}
		}
	}
	return nil
}

// window is one half-open active interval [from, to).
type window struct {
	from, to sim.Time
}

// windows is a sorted, merged, non-overlapping interval set.
type windows []window

func (ws windows) contains(t sim.Time) bool {
	// Plans hold a handful of windows; linear scan with an early exit on
	// the sorted set beats a binary search at these sizes.
	for _, w := range ws {
		if t < w.from {
			return false
		}
		if t < w.to {
			return true
		}
	}
	return false
}

// end returns the end of the window containing t (t must be contained).
func (ws windows) end(t sim.Time) sim.Time {
	for _, w := range ws {
		if t >= w.from && t < w.to {
			return w.to
		}
	}
	return t
}

// total sums window lengths clipped to [0, limit].
func (ws windows) total(limit sim.Time) sim.Duration {
	var d sim.Duration
	for _, w := range ws {
		to := w.to
		if to > limit {
			to = limit
		}
		if to > w.from {
			d += to.Sub(w.from)
		}
	}
	return d
}

// merge sorts and coalesces overlapping or touching intervals.
func merge(ws windows) windows {
	if len(ws) <= 1 {
		return ws
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].from < ws[j].from })
	out := ws[:1]
	for _, w := range ws[1:] {
		last := &out[len(out)-1]
		if w.from <= last.to {
			if w.to > last.to {
				last.to = w.to
			}
		} else {
			out = append(out, w)
		}
	}
	return out
}

func msToTime(ms float64) sim.Time {
	return sim.Time(0).Add(sim.Duration(ms * float64(sim.Millisecond)))
}

// geChain is one two-state Gilbert–Elliott loss process, active within
// its window and frozen outside it. Each consulted frame advances the
// state machine and, in the burst state, is lost with BurstLoss.
type geChain struct {
	win     window
	rng     *sim.Rand
	pEnter  float64
	pExit   float64
	loss    float64
	inBurst bool
	losses  uint64
}

func (g *geChain) lose(now sim.Time) bool {
	if now < g.win.from || now >= g.win.to {
		return false
	}
	lost := false
	if g.inBurst && g.rng.Float64() < g.loss {
		lost = true
		g.losses++
	}
	if g.inBurst {
		if g.rng.Float64() < g.pExit {
			g.inBurst = false
		}
	} else if g.rng.Float64() < g.pEnter {
		g.inBurst = true
	}
	return lost
}

// linkState is the compiled per-node link fault state: merged down
// windows (link-down plus expanded flap periods) and optional loss-burst
// chains.
type linkState struct {
	down   windows
	bursts []*geChain
}

func (st *linkState) lose(now sim.Time) bool {
	if st.down.contains(now) {
		return true
	}
	for _, g := range st.bursts {
		if g.lose(now) {
			return true
		}
	}
	return false
}

// nicState is the compiled per-node NIC/host fault state.
type nicState struct {
	pause windows // node-pause: rx drops and tx stalls
	stall windows // nic-stall: tx stalls only
}

// Set is a compiled plan: per-node injector state plus the metadata the
// degradation report needs. Obtain one with Compile.
type Set struct {
	links map[int]*linkState
	ports map[int]windows
	nics  map[int]*nicState

	lastEnd sim.Time
}

// Compile expands and validates a plan into a Set. seed is the cluster
// seed, mixed with the plan's own seed to derive every private random
// stream. A nil plan compiles to a nil Set: every injector accessor on
// the way down then hands out nil, keeping the unfaulted hot path to a
// single pointer comparison.
func Compile(p *Plan, seed uint64) (*Set, error) {
	if p == nil {
		return nil, nil
	}
	if err := p.Validate(0); err != nil {
		return nil, err
	}
	s := &Set{
		links: make(map[int]*linkState),
		ports: make(map[int]windows),
		nics:  make(map[int]*nicState),
	}
	link := func(node int) *linkState {
		st := s.links[node]
		if st == nil {
			st = &linkState{}
			s.links[node] = st
		}
		return st
	}
	nic := func(node int) *nicState {
		st := s.nics[node]
		if st == nil {
			st = &nicState{}
			s.nics[node] = st
		}
		return st
	}
	for i, ev := range p.Events {
		from, to := msToTime(ev.AtMS), msToTime(ev.UntilMS)
		if to > s.lastEnd {
			s.lastEnd = to
		}
		// One private stream per event: deterministic, independent of
		// event order elsewhere in the plan and of the engine's RNG.
		evSeed := seed ^ p.Seed ^ (uint64(i)+1)*0x9E3779B97F4A7C15 ^ uint64(ev.Node)<<32
		switch ev.Kind {
		case KindLinkDown:
			link(ev.Node).down = append(link(ev.Node).down, window{from, to})
		case KindLinkFlap:
			rng := sim.NewRand(evSeed)
			period := sim.Duration(ev.PeriodMS * float64(sim.Millisecond))
			downLen := sim.Duration((1 - ev.DutyCycle) * float64(period))
			if downLen <= 0 {
				break // duty cycle 1: never down
			}
			st := link(ev.Node)
			for start := from; start < to; start = start.Add(period) {
				off := period - downLen // deterministic: up first, down at the tail
				if ev.Random && period > downLen {
					off = rng.Duration(period - downLen)
				}
				wFrom := start.Add(off)
				wTo := wFrom.Add(downLen)
				if wTo > to {
					wTo = to
				}
				if wTo > wFrom {
					st.down = append(st.down, window{wFrom, wTo})
				}
			}
		case KindLossBurst:
			link(ev.Node).bursts = append(link(ev.Node).bursts, &geChain{
				win:    window{from, to},
				rng:    sim.NewRand(evSeed),
				pEnter: ev.PEnterBurst,
				pExit:  ev.PExitBurst,
				loss:   ev.BurstLoss,
			})
		case KindPortBlackout:
			s.ports[ev.Node] = append(s.ports[ev.Node], window{from, to})
		case KindNodePause:
			nic(ev.Node).pause = append(nic(ev.Node).pause, window{from, to})
		case KindNICStall:
			nic(ev.Node).stall = append(nic(ev.Node).stall, window{from, to})
		}
	}
	for _, st := range s.links {
		st.down = merge(st.down)
	}
	for node, ws := range s.ports {
		s.ports[node] = merge(ws)
	}
	for _, st := range s.nics {
		st.pause = merge(st.pause)
		st.stall = merge(st.stall)
	}
	return s, nil
}

// LinkInjector is consulted by an ether.Link for every frame it carries;
// it covers the link faults of every endpoint node passed to
// Set.LinkInjector.
type LinkInjector struct {
	states []*linkState
}

// Lose reports whether the frame in flight at virtual time now is lost
// to an injected fault.
func (in *LinkInjector) Lose(now sim.Time) bool {
	lost := false
	for _, st := range in.states {
		if st.lose(now) {
			lost = true
		}
	}
	return lost
}

// LinkInjector returns the injector covering the link faults of the
// given endpoint nodes, or nil if none of them has any (the nil keeps
// the unfaulted hot path a single comparison).
func (s *Set) LinkInjector(nodes ...int) *LinkInjector {
	var sts []*linkState
	for _, n := range nodes {
		if st := s.links[n]; st != nil {
			sts = append(sts, st)
		}
	}
	if len(sts) == 0 {
		return nil
	}
	return &LinkInjector{states: sts}
}

// HubInjector is consulted by an ether.Hub per frame with the frame's
// endpoints: a frame is lost if either endpoint's link is faulted.
type HubInjector struct {
	states map[int]*linkState
}

// Lose reports whether a src→dst frame at virtual time now is lost.
func (in *HubInjector) Lose(now sim.Time, src, dst int) bool {
	lost := false
	if st := in.states[src]; st != nil && st.lose(now) {
		lost = true
	}
	if st := in.states[dst]; st != nil && st.lose(now) {
		lost = true
	}
	return lost
}

// HubInjector returns the shared-medium injector, or nil if the plan has
// no link faults at all.
func (s *Set) HubInjector() *HubInjector {
	if len(s.links) == 0 {
		return nil
	}
	return &HubInjector{states: s.links}
}

// PortInjector is consulted by a switch port; Blocked frames are dropped
// at the forwarding plane.
type PortInjector struct {
	ws windows
}

// Blocked reports whether the port is blacked out at virtual time now.
func (in *PortInjector) Blocked(now sim.Time) bool { return in.ws.contains(now) }

// PortInjector returns node's switch-port injector, or nil.
func (s *Set) PortInjector(node int) *PortInjector {
	ws := s.ports[node]
	if len(ws) == 0 {
		return nil
	}
	return &PortInjector{ws: ws}
}

// NICInjector is consulted by a NIC on its receive and transmit paths.
type NICInjector struct {
	st *nicState
}

// RxDrop reports whether a received frame is dropped because the host is
// paused at virtual time now.
func (in *NICInjector) RxDrop(now sim.Time) bool { return in.st.pause.contains(now) }

// StallUntil reports the time the NIC's transmit engine may next fetch a
// frame, if a stall or pause window covers now.
func (in *NICInjector) StallUntil(now sim.Time) (sim.Time, bool) {
	until := now
	if in.st.pause.contains(now) {
		if e := in.st.pause.end(now); e > until {
			until = e
		}
	}
	if in.st.stall.contains(now) {
		if e := in.st.stall.end(now); e > until {
			until = e
		}
	}
	return until, until > now
}

// NICInjector returns node's NIC injector, or nil.
func (s *Set) NICInjector(node int) *NICInjector {
	st := s.nics[node]
	if st == nil {
		return nil
	}
	return &NICInjector{st: st}
}

// Downtime reports how long node's link was forced down within [0, end].
func (s *Set) Downtime(node int, end sim.Time) sim.Duration {
	st := s.links[node]
	if st == nil {
		return 0
	}
	return st.down.total(end)
}

// BurstLosses reports frames the node's Gilbert–Elliott chains have lost
// so far.
func (s *Set) BurstLosses(node int) uint64 {
	var n uint64
	if st := s.links[node]; st != nil {
		for _, g := range st.bursts {
			n += g.losses
		}
	}
	return n
}

// LastFaultEnd reports the end of the latest scheduled fault window —
// the instant after which the network is clean and recovery time is
// measured.
func (s *Set) LastFaultEnd() sim.Time { return s.lastEnd }

// Nodes returns the sorted set of nodes any fault touches.
func (s *Set) Nodes() []int {
	seen := map[int]bool{}
	for n := range s.links {
		seen[n] = true
	}
	for n := range s.ports {
		seen[n] = true
	}
	for n := range s.nics {
		seen[n] = true
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}
