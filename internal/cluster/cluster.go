// Package cluster assembles complete simulated COMPs (Clusters Of
// Multi-Processors): SMP nodes with NICs, joined back-to-back or through
// a store-and-forward switch, each running a Push-Pull Messaging stack.
// It is the top-level entry point the examples and the benchmark harness
// build on.
package cluster

import (
	"errors"
	"fmt"

	"pushpull/internal/ether"
	"pushpull/internal/fault"
	"pushpull/internal/nic"
	"pushpull/internal/pushpull"
	"pushpull/internal/sim"
	"pushpull/internal/smp"
	"pushpull/internal/trace"
)

// Config describes a cluster to build. DefaultConfig reproduces the
// paper's testbed: two quad Pentium Pro nodes, DEC 21140 Fast Ethernet
// back-to-back, symmetric interrupts, fully optimized Push-Pull.
type Config struct {
	Nodes        int
	ProcsPerNode int
	SMP          smp.Config
	NIC          nic.Config
	Net          ether.Config
	Opts         pushpull.Options
	Policy       smp.Policy
	PolicyTarget int
	// Rails is the number of NICs (and back-to-back links) per node —
	// the paper's §6 outlook of driving multiple network interfaces with
	// multiple processors. Values above 1 require a two-node,
	// switch-less cluster. Zero means one.
	Rails int
	// UseSwitch inserts a store-and-forward switch; required (and
	// defaulted) for more than two nodes. Two-node clusters default to a
	// back-to-back link, like the paper's testbed.
	UseSwitch bool
	// UseHub joins all nodes on one shared half-duplex segment instead of
	// a switch or back-to-back link — the hub-vs-switch ablation.
	// Mutually exclusive with UseSwitch and Rails > 1.
	UseHub bool
	// SwitchForward is the switch's forwarding latency.
	SwitchForward sim.Duration
	// SwitchQueueFrames bounds each switch output queue (0 = unbounded).
	SwitchQueueFrames int
	Seed              uint64
	// FaultPlan, when set, is compiled against the seed and armed on the
	// topology: link faults on the back-to-back or switch access links
	// (or the hub), port blackouts on the switch, pause/stall windows on
	// the NICs. Nil costs nothing anywhere.
	FaultPlan *fault.Plan
}

// DefaultConfig is the paper's two-node testbed.
func DefaultConfig() Config {
	return Config{
		Nodes:             2,
		ProcsPerNode:      1,
		SMP:               smp.DefaultConfig(),
		NIC:               nic.DEC21140(),
		Net:               ether.FastEthernet(),
		Opts:              pushpull.DefaultOptions(),
		Policy:            smp.Symmetric,
		SwitchForward:     3 * sim.Microsecond,
		SwitchQueueFrames: 64,
		Seed:              1,
	}
}

// Cluster is a built simulation: engine, nodes, stacks, endpoints.
type Cluster struct {
	// Engine runs every node, NIC, medium and switch of the cluster.
	Engine *sim.Engine
	Nodes  []*smp.Node
	Stacks []*pushpull.Stack
	NICs   []*nic.NIC
	Switch *ether.Switch
	Hub    *ether.Hub
	Links  []*ether.Link // back-to-back links, rail-major (empty otherwise)
	// SwitchLinks are the per-node access links of a switch topology, in
	// node order (empty otherwise).
	SwitchLinks []*ether.Link
	// Faults is the compiled fault plan armed on this cluster, nil when
	// none was configured.
	Faults *fault.Set
}

// normalize applies the defaulting rules New has always used: more than
// two nodes force a switch unless a hub was asked for.
func (cfg Config) normalize() Config {
	if cfg.Nodes > 2 && !cfg.UseHub {
		cfg.UseSwitch = true
	}
	return cfg
}

// Validate reports configuration errors without building anything, so
// callers assembling configs from user input (e.g. scenario specs) can
// reject them gracefully instead of hitting New's panics.
func (cfg Config) Validate() error {
	cfg = cfg.normalize()
	if cfg.Nodes < 1 {
		return fmt.Errorf("cluster: need at least one node")
	}
	if cfg.ProcsPerNode < 1 {
		return fmt.Errorf("cluster: need at least one process per node")
	}
	if cfg.UseHub && cfg.UseSwitch {
		return fmt.Errorf("cluster: UseHub and UseSwitch are mutually exclusive")
	}
	if cfg.UseHub && cfg.Rails > 1 {
		return fmt.Errorf("cluster: multi-rail requires point-to-point links, not a hub")
	}
	if cfg.Rails > 1 && cfg.Nodes > 1 && (cfg.Nodes != 2 || cfg.UseSwitch) {
		return fmt.Errorf("cluster: multi-rail requires a two-node back-to-back topology")
	}
	if cfg.FaultPlan != nil {
		if err := cfg.FaultPlan.Validate(cfg.Nodes); err != nil {
			return err
		}
	}
	return nil
}

// New builds a cluster. It panics on inconsistent configuration — the
// callers are experiment definitions, not user input (which should be
// screened with Validate first).
func New(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.normalize()

	e := sim.NewEngine(cfg.Seed)
	c := &Cluster{Engine: e}

	for i := 0; i < cfg.Nodes; i++ {
		n := smp.NewNode(e, i, cfg.SMP)
		n.IRQ.SetPolicy(cfg.Policy, cfg.PolicyTarget)
		st := pushpull.NewStack(n, cfg.Opts)
		for p := 0; p < cfg.ProcsPerNode; p++ {
			st.NewEndpoint(p, p%cfg.SMP.NumCPUs)
		}
		c.Nodes = append(c.Nodes, n)
		c.Stacks = append(c.Stacks, st)
	}

	if cfg.Nodes == 1 {
		return c // intranode-only cluster: no network
	}

	if cfg.FaultPlan != nil {
		fs, err := fault.Compile(cfg.FaultPlan, cfg.Seed)
		if err != nil {
			panic(err) // Validate above accepted the plan; compile errors are bugs
		}
		c.Faults = fs
	}

	// Validate (above) already rejected multi-rail on anything but a
	// two-node back-to-back topology.
	rails := cfg.Rails
	if rails <= 0 {
		rails = 1
	}

	// NICs are laid out node-major: node i's rail r is NICs[i*rails+r].
	for i, n := range c.Nodes {
		for r := 0; r < rails; r++ {
			nc := nic.New(n, cfg.NIC)
			if c.Faults != nil {
				nc.SetFaultInjector(c.Faults.NICInjector(n.ID))
			}
			c.NICs = append(c.NICs, nc)
			c.Stacks[i].AttachNIC(nc)
		}
	}

	switch {
	case cfg.UseHub:
		c.Hub = ether.NewHub(e, cfg.Net)
		if c.Faults != nil {
			c.Hub.SetInjector(c.Faults.HubInjector())
		}
		for _, nc := range c.NICs {
			c.Hub.Attach(nc)
			nc.AttachLink(c.Hub)
		}
	case !cfg.UseSwitch && cfg.Nodes == 2:
		for r := 0; r < rails; r++ {
			a, b := c.NICs[r], c.NICs[rails+r]
			link := ether.NewLink(e, cfg.Net, a, b)
			if c.Faults != nil {
				link.SetInjector(c.Faults.LinkInjector(a.NodeID(), b.NodeID()))
			}
			a.AttachLink(link)
			b.AttachLink(link)
			c.Links = append(c.Links, link)
		}
	default:
		c.Switch = ether.NewSwitch(e, cfg.Net, cfg.SwitchForward)
		for _, nc := range c.NICs {
			link := c.Switch.Attach(nc, cfg.SwitchQueueFrames)
			nc.AttachLink(link)
			c.SwitchLinks = append(c.SwitchLinks, link)
			if c.Faults != nil {
				link.SetInjector(c.Faults.LinkInjector(nc.NodeID()))
				c.Switch.SetPortInjector(nc.NodeID(), c.Faults.PortInjector(nc.NodeID()))
			}
		}
	}

	for i := range c.Stacks {
		for j := range c.Stacks {
			if i != j {
				c.Stacks[i].AddPeer(j)
			}
		}
	}
	return c
}

// ProcsPerNode reports the number of processes on each node. Clusters
// are built uniformly (every node gets cfg.ProcsPerNode endpoints), so
// the first stack answers for all of them.
func (c *Cluster) ProcsPerNode() int { return c.Stacks[0].Procs() }

// Procs reports the total number of processes in the cluster — the
// bound for rank enumeration, replacing the old probe-until-nil loops.
func (c *Cluster) Procs() int { return len(c.Stacks) * c.ProcsPerNode() }

// Endpoint returns process proc on node node.
func (c *Cluster) Endpoint(node, proc int) *pushpull.Endpoint {
	ep := c.Stacks[node].Endpoint(proc)
	if ep == nil {
		panic(fmt.Sprintf("cluster: no endpoint %d on node %d", proc, node))
	}
	return ep
}

// Spawn starts an application thread named name on node's CPU cpu.
func (c *Cluster) Spawn(node, cpu int, name string, body func(t *smp.Thread)) {
	c.Nodes[node].Spawn(name, cpu, body)
}

// Run drives the simulation to completion and returns the final virtual
// time.
func (c *Cluster) Run() sim.Time { return c.Engine.Run() }

// RunUntil executes events with timestamps <= limit and returns the
// virtual clock, which is left at the last executed event: it does not
// move to limit when the next event lies beyond it.
func (c *Cluster) RunUntil(limit sim.Time) sim.Time { return c.Engine.RunUntil(limit) }

// Now reports the cluster's virtual time.
func (c *Cluster) Now() sim.Time { return c.Engine.Now() }

// Pending reports queued events across the whole cluster.
func (c *Cluster) Pending() int { return c.Engine.Pending() }

// ErrBudget marks a run that exhausted its virtual-time budget with
// events still pending — the signature of a protocol deadlock or
// retransmission livelock. Both RunWithin and the scenario engine's
// budget errors wrap it (scenario.ErrVirtualBudget is this value), so
// errors.Is classifies them uniformly.
var ErrBudget = errors.New("virtual-time budget exhausted")

// RunWithin drives the simulation at most budget of virtual time and
// returns an ErrBudget-wrapping error if events were still pending when
// it expired. The examples run under it so a stalled protocol fails
// their smoke runs instead of spinning.
func (c *Cluster) RunWithin(budget sim.Duration) (sim.Time, error) {
	limit := c.Now().Add(budget) // relative: reusable on an advanced engine
	end := c.RunUntil(limit)
	if n := c.Pending(); n > 0 {
		return end, fmt.Errorf("cluster: %w: %v elapsed with %d events still pending (deadlock or livelock)", ErrBudget, budget, n)
	}
	return end, nil
}

// Shutdown tears the simulation down once a run is over, unwinding every
// still-parked process goroutine (rank threads at budget exhaustion, IRQ
// handlers mid-copy) so a finished cluster holds no goroutines. The
// cluster is unusable afterwards; call it last, and not at all if the
// engine will run again.
func (c *Cluster) Shutdown() { c.Engine.Shutdown() }

// SetRecorder attaches one structured trace recorder to every stack (and
// through them every NIC and go-back-N session) in the cluster.
func (c *Cluster) SetRecorder(rec *trace.Recorder) {
	for _, st := range c.Stacks {
		st.SetRecorder(rec)
	}
}

// FrameLoss is the cluster-wide frame-death ledger: every place the
// topology can discard a frame, attributed to its cause. The sum answers
// "where did frames die" for any run.
type FrameLoss struct {
	// LinkLost / HubLost are i.i.d. LossRate drops on the wires;
	// LinkFaultLost / HubFaultLost are injected link faults.
	LinkLost, LinkFaultLost uint64
	HubLost, HubFaultLost   uint64
	// SwitchDropped is output-queue overflow (plus unknown destinations);
	// SwitchFaultDropped is injected port blackouts.
	SwitchDropped, SwitchFaultDropped uint64
	// NICRxDropped is incoming-ring overflow; NICFaultDropped is frames
	// discarded while the host was paused by an injected fault.
	NICRxDropped, NICFaultDropped uint64
}

// Total sums every counted frame death.
func (fl FrameLoss) Total() uint64 {
	return fl.LinkLost + fl.LinkFaultLost + fl.HubLost + fl.HubFaultLost +
		fl.SwitchDropped + fl.SwitchFaultDropped + fl.NICRxDropped + fl.NICFaultDropped
}

// FrameLoss aggregates the loss counters of every medium and NIC in the
// cluster.
func (c *Cluster) FrameLoss() FrameLoss {
	var fl FrameLoss
	for _, l := range c.Links {
		fl.LinkLost += l.FramesLost()
		fl.LinkFaultLost += l.FaultLost()
	}
	for _, l := range c.SwitchLinks {
		fl.LinkLost += l.FramesLost()
		fl.LinkFaultLost += l.FaultLost()
	}
	if c.Hub != nil {
		fl.HubLost = c.Hub.FramesLost()
		fl.HubFaultLost = c.Hub.FaultLost()
	}
	if c.Switch != nil {
		fl.SwitchDropped = c.Switch.Dropped()
		fl.SwitchFaultDropped = c.Switch.FaultDropped()
	}
	for _, nc := range c.NICs {
		fl.NICRxDropped += nc.RxDropped()
		fl.NICFaultDropped += nc.FaultDropped()
	}
	return fl
}
