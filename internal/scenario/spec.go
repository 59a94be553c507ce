// Package scenario is the declarative workload engine: one Spec — a
// plain struct with a stable JSON encoding — composes a topology (hub,
// switch or back-to-back via internal/ether and internal/cluster), a
// protocol configuration (Push-Zero / Push-All / fixed-BTP Push-Pull /
// adaptive AIMD via internal/adapt) and a traffic pattern, then runs the
// whole thing deterministically on the simulation engine and emits a
// machine-readable Result.
//
// The paper's experiments (internal/bench) are expressed through the
// same engine; the pattern vocabulary additionally covers workload
// shapes the bespoke bench drivers could not: hotspot (all-to-one),
// random permutation, bursty on/off senders, pipeline chains, and an
// irregular wavefront where every received message triggers sends of
// data-derived sizes to data-derived targets.
package scenario

import (
	"encoding/json"
	"fmt"

	"pushpull/coll"
	"pushpull/internal/adapt"
	"pushpull/internal/cluster"
	"pushpull/internal/fault"
	"pushpull/internal/gbn"
	"pushpull/internal/pushpull"
	"pushpull/internal/sim"
	"pushpull/internal/smp"
	"pushpull/internal/strictjson"
)

// Spec is one complete declarative scenario. The zero value is not
// runnable; start from DefaultSpec (or ParseSpec, which overlays JSON on
// the defaults so absent fields keep the paper's testbed values).
type Spec struct {
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	Seed        uint64   `json:"seed"`
	Topology    Topology `json:"topology"`
	Protocol    Protocol `json:"protocol"`
	Traffic     Traffic  `json:"traffic"`
	// MaxVirtualMS bounds the run's virtual time (default 10 virtual
	// minutes). The modelled protocol can livelock — a refused
	// fully-eager fragment retransmits on RTO forever if the pushed
	// buffer slots it needs are held by messages queued behind it — and
	// the budget turns such runs into reported errors instead of hangs.
	MaxVirtualMS float64 `json:"maxVirtualMS,omitempty"`
	// Faults, when set, is the deterministic fault plan armed on the
	// topology (see internal/fault): link down/flap windows, correlated
	// loss bursts, switch-port blackouts, node pauses, NIC stalls. Runs
	// with a plan report a degradation section in their Result.
	Faults *fault.Plan `json:"faults,omitempty"`
	// ParallelWorkers is kept only so that old spec files naming it
	// fail with a clear message: in-run parallelism was removed, and
	// Validate rejects any non-zero value. It affects no run.
	ParallelWorkers int `json:"parallelWorkers,omitempty"`
}

// Topology selects the machines and the interconnect joining them.
type Topology struct {
	// Kind is "back-to-back" (two nodes, direct cables — the paper's
	// testbed), "switch" (store-and-forward), "hub" (one shared
	// half-duplex segment) or "intranode" (a single SMP node, no
	// network).
	Kind         string `json:"kind"`
	Nodes        int    `json:"nodes"`
	ProcsPerNode int    `json:"procsPerNode"`
	// Rails is the number of NICs + cables per node (back-to-back only).
	Rails int `json:"rails,omitempty"`
	// SwitchForwardUS and SwitchQueueFrames tune the switch model.
	SwitchForwardUS   float64 `json:"switchForwardUS,omitempty"`
	SwitchQueueFrames int     `json:"switchQueueFrames,omitempty"`
	// LossRate is the probability a serialized frame is lost on the wire.
	LossRate float64 `json:"lossRate,omitempty"`
	// Policy is the reception-handler invocation method: "symmetric",
	// "asymmetric" or "polling" (§2 stage 3 of the paper).
	Policy       string  `json:"policy"`
	PolicyTarget int     `json:"policyTarget,omitempty"`
	PollPeriodUS float64 `json:"pollPeriodUS,omitempty"`
}

// Protocol configures the messaging stack on every node.
type Protocol struct {
	// Mode is "push-pull", "push-zero", "push-all" or "three-phase".
	Mode string `json:"mode"`
	// BTP / BTP1 / BTP2 / IntraBTP are the paper's Bytes-To-Push knobs.
	BTP      int `json:"btp"`
	BTP1     int `json:"btp1"`
	BTP2     int `json:"btp2"`
	IntraBTP int `json:"intraBTP"`
	// PushedBufBytes sizes each endpoint's pushed buffer.
	PushedBufBytes int `json:"pushedBufBytes"`
	// The three optimizing techniques of §4.3/§4.4.
	MaskTranslation bool `json:"maskTranslation"`
	OverlapAck      bool `json:"overlapAck"`
	UserTrigger     bool `json:"userTrigger"`
	// Ablation knobs (§4.1, §4.2).
	PullLocal         bool `json:"pullLocal,omitempty"`
	DisableZeroBuffer bool `json:"disableZeroBuffer,omitempty"`
	// Go-back-N reliability parameters.
	GBNWindow int     `json:"gbnWindow"`
	RTOMs     float64 `json:"rtoMs"`
	// AdaptiveRTO switches go-back-N from the fixed RTO to the RFC
	// 6298-style SRTT/RTTVAR estimator with exponential backoff;
	// MinRTOMs/MaxRTOMs clamp it (zero = the gbn package defaults).
	AdaptiveRTO bool    `json:"adaptiveRTO,omitempty"`
	MinRTOMs    float64 `json:"minRTOMs,omitempty"`
	MaxRTOMs    float64 `json:"maxRTOMs,omitempty"`
	// MaxRetries, when positive, is the retransmission budget: that many
	// consecutive timeouts with no progress declare the peer unreachable
	// and fail its operations with ErrPeerUnreachable.
	MaxRetries int `json:"maxRetries,omitempty"`
	// Adaptive installs the AIMD BTP controller (§3's dynamic
	// pushed-buffer remark) on every stack. AdaptMax bounds the adapted
	// BTP; zero means the pushed buffer size.
	Adaptive bool `json:"adaptive,omitempty"`
	AdaptMax int  `json:"adaptMax,omitempty"`
}

// Traffic selects the workload shape the built cluster runs. Fields not
// used by the chosen pattern are ignored.
type Traffic struct {
	// Pattern is one of the names in Patterns().
	Pattern string `json:"pattern"`
	// Size is the message size in bytes (fixed-size patterns; the
	// wavefront's root message size).
	Size int `json:"size"`
	// Messages is the per-sender message count (iterations for the
	// ping-pong style patterns; initial wavefront width).
	Messages int `json:"messages"`
	// ComputeX and ComputeY are the early/late receiver NOP counts
	// (pattern "earlylate", paper §5.3).
	ComputeX int64 `json:"computeX,omitempty"`
	ComputeY int64 `json:"computeY,omitempty"`
	// DelayUS delays the receiver's start (pattern "oneshot").
	DelayUS float64 `json:"delayUS,omitempty"`
	// BurstLen and BurstIdleUS shape the on/off senders (pattern
	// "bursty"): BurstLen back-to-back messages, then BurstIdleUS of
	// silence.
	BurstLen    int     `json:"burstLen,omitempty"`
	BurstIdleUS float64 `json:"burstIdleUS,omitempty"`
	// Root is the hotspot sink / wavefront origin rank.
	Root int `json:"root,omitempty"`
	// Fanout and Depth bound the wavefront: every message below Depth
	// triggers Fanout data-derived sends.
	Fanout int `json:"fanout,omitempty"`
	Depth  int `json:"depth,omitempty"`
	// MinSize and MaxSize bound the wavefront's data-derived sizes.
	MinSize int `json:"minSize,omitempty"`
	MaxSize int `json:"maxSize,omitempty"`
	// Algorithm selects the collective algorithm for the patterns that
	// take one (see coll.Algorithms); empty means the op's default.
	Algorithm string `json:"algorithm,omitempty"`
	// SegmentBytes sets the segment size of the segmented collective
	// algorithms (bcast pattern with "ring-seg"); 0 means
	// coll.DefaultSegmentBytes.
	SegmentBytes int `json:"segmentBytes,omitempty"`
}

// DefaultSpec is the paper's fully optimized two-node testbed running a
// 1000-iteration 1400 B ping-pong.
func DefaultSpec() Spec {
	opts := pushpull.DefaultOptions()
	g := gbn.DefaultConfig()
	return Spec{
		Name: "default",
		Seed: 1,
		Topology: Topology{
			Kind:         "back-to-back",
			Nodes:        2,
			ProcsPerNode: 1,
			Policy:       "symmetric",
		},
		Protocol: Protocol{
			Mode:            "push-pull",
			BTP:             opts.BTP,
			BTP1:            opts.BTP1,
			BTP2:            opts.BTP2,
			IntraBTP:        opts.IntraBTP,
			PushedBufBytes:  opts.PushedBufBytes,
			MaskTranslation: opts.MaskTranslation,
			OverlapAck:      opts.OverlapAck,
			UserTrigger:     opts.UserTrigger,
			GBNWindow:       g.Window,
			RTOMs:           float64(g.RTO / sim.Millisecond),
		},
		Traffic: Traffic{
			Pattern:  "pingpong",
			Size:     1400,
			Messages: 1000,
		},
	}
}

// ParseSpec overlays JSON onto DefaultSpec, so a spec file only states
// what differs from the paper's testbed. Keys must match exactly;
// unknown keys and trailing data are errors (see strictjson.Decode).
func ParseSpec(data []byte) (Spec, error) {
	s := DefaultSpec()
	if err := strictjson.Decode(data, &s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// JSON renders the spec canonically (indented, stable field order).
func (s Spec) JSON() []byte {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err) // plain-data struct: cannot fail
	}
	return out
}

// Validate reports spec errors without building anything.
func (s Spec) Validate() error {
	if _, err := parseMode(s.Protocol.Mode); err != nil {
		return err
	}
	if _, ok := patterns[s.Traffic.Pattern]; !ok {
		return fmt.Errorf("scenario: unknown traffic pattern %q (have %v)", s.Traffic.Pattern, PatternNames())
	}
	if s.Traffic.Size <= 0 {
		return fmt.Errorf("scenario: traffic size must be positive, got %d", s.Traffic.Size)
	}
	if s.Traffic.Messages <= 0 {
		return fmt.Errorf("scenario: traffic messages must be positive, got %d", s.Traffic.Messages)
	}
	if alg := s.Traffic.Algorithm; alg != "" {
		op, ok := collAlgOp[s.Traffic.Pattern]
		if !ok {
			return fmt.Errorf("scenario: pattern %q does not take an algorithm (patterns with one: %v)", s.Traffic.Pattern, algPatternNames())
		}
		if err := coll.ValidateAlgorithm(op, coll.Algorithm(alg)); err != nil {
			return err
		}
	}
	if s.Traffic.SegmentBytes < 0 {
		return fmt.Errorf("scenario: traffic segmentBytes %d is negative", s.Traffic.SegmentBytes)
	}
	if s.ParallelWorkers != 0 {
		return fmt.Errorf("scenario: parallelWorkers %d: in-run parallelism was removed; run independent points in parallel with sweep -workers", s.ParallelWorkers)
	}
	cfg, err := s.clusterConfig()
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	// Every pattern needs a communicating pair; the two-endpoint
	// patterns would otherwise panic deep in the cluster builder on a
	// one-process topology.
	if cfg.Nodes*cfg.ProcsPerNode < 2 {
		return fmt.Errorf("scenario: topology has %d process(es); every pattern needs at least 2", cfg.Nodes*cfg.ProcsPerNode)
	}
	return nil
}

func parseMode(mode string) (pushpull.Mode, error) {
	switch mode {
	case "push-pull":
		return pushpull.PushPull, nil
	case "push-zero":
		return pushpull.PushZero, nil
	case "push-all":
		return pushpull.PushAll, nil
	case "three-phase":
		return pushpull.ThreePhase, nil
	default:
		return 0, fmt.Errorf("scenario: unknown protocol mode %q", mode)
	}
}

func parsePolicy(policy string) (smp.Policy, error) {
	switch policy {
	case "", "symmetric":
		return smp.Symmetric, nil
	case "asymmetric":
		return smp.Asymmetric, nil
	case "polling":
		return smp.Polling, nil
	default:
		return 0, fmt.Errorf("scenario: unknown interrupt policy %q", policy)
	}
}

// clusterConfig lowers the declarative topology + protocol onto the
// cluster builder's configuration.
func (s Spec) clusterConfig() (cluster.Config, error) {
	cfg := cluster.DefaultConfig()
	cfg.Seed = s.Seed

	t := s.Topology
	if t.Nodes > 0 {
		cfg.Nodes = t.Nodes
	}
	if t.ProcsPerNode > 0 {
		cfg.ProcsPerNode = t.ProcsPerNode
	}
	switch t.Kind {
	case "", "back-to-back":
		// Direct cables join exactly two nodes; silently substituting a
		// switch would mislabel the results, so bigger clusters must say
		// "switch" or "hub" explicitly.
		if cfg.Nodes > 2 {
			return cluster.Config{}, fmt.Errorf("scenario: topology kind %q supports at most 2 nodes, got %d (use \"switch\" or \"hub\")", "back-to-back", cfg.Nodes)
		}
	case "switch":
		cfg.UseSwitch = true
	case "hub":
		cfg.UseHub = true
	case "intranode":
		cfg.Nodes = 1
		if t.ProcsPerNode <= 1 {
			cfg.ProcsPerNode = 2
		}
	default:
		return cluster.Config{}, fmt.Errorf("scenario: unknown topology kind %q", t.Kind)
	}
	if t.Rails > 0 {
		cfg.Rails = t.Rails
	}
	if t.SwitchForwardUS > 0 {
		cfg.SwitchForward = sim.Duration(t.SwitchForwardUS * float64(sim.Microsecond))
	}
	if t.SwitchQueueFrames > 0 {
		cfg.SwitchQueueFrames = t.SwitchQueueFrames
	}
	cfg.Net.LossRate = t.LossRate
	policy, err := parsePolicy(t.Policy)
	if err != nil {
		return cluster.Config{}, err
	}
	cfg.Policy = policy
	cfg.PolicyTarget = t.PolicyTarget
	if t.PollPeriodUS > 0 {
		cfg.SMP.PollPeriod = sim.Duration(t.PollPeriodUS * float64(sim.Microsecond))
	}

	p := s.Protocol
	mode, err := parseMode(p.Mode)
	if err != nil {
		return cluster.Config{}, err
	}
	cfg.Opts.Mode = mode
	cfg.Opts.BTP = p.BTP
	cfg.Opts.BTP1 = p.BTP1
	cfg.Opts.BTP2 = p.BTP2
	cfg.Opts.IntraBTP = p.IntraBTP
	if p.PushedBufBytes > 0 {
		cfg.Opts.PushedBufBytes = p.PushedBufBytes
	}
	cfg.Opts.MaskTranslation = p.MaskTranslation
	cfg.Opts.OverlapAck = p.OverlapAck
	cfg.Opts.UserTrigger = p.UserTrigger
	cfg.Opts.PullLocal = p.PullLocal
	cfg.Opts.DisableZeroBuffer = p.DisableZeroBuffer
	if p.GBNWindow > 0 {
		cfg.Opts.GBN.Window = p.GBNWindow
	}
	if p.RTOMs > 0 {
		cfg.Opts.GBN.RTO = sim.Duration(p.RTOMs * float64(sim.Millisecond))
	}
	cfg.Opts.GBN.Adaptive = p.AdaptiveRTO
	if p.MinRTOMs > 0 {
		cfg.Opts.GBN.MinRTO = sim.Duration(p.MinRTOMs * float64(sim.Millisecond))
	}
	if p.MaxRTOMs > 0 {
		cfg.Opts.GBN.MaxRTO = sim.Duration(p.MaxRTOMs * float64(sim.Millisecond))
	}
	if p.MaxRetries > 0 {
		cfg.Opts.GBN.MaxRetries = p.MaxRetries
	}
	if err := cfg.Opts.Validate(); err != nil {
		return cluster.Config{}, err
	}
	cfg.FaultPlan = s.Faults
	return cfg, nil
}

// adaptConfig builds the AIMD controller configuration for an adaptive
// spec.
func (s Spec) adaptConfig(opts pushpull.Options) adapt.Config {
	ac := adapt.DefaultConfig()
	ac.Max = s.Protocol.AdaptMax
	if ac.Max <= 0 {
		ac.Max = opts.PushedBufBytes
	}
	return ac
}
