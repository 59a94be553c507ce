package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"pushpull/internal/cluster"
	"pushpull/internal/sim"
	"pushpull/internal/stats"
)

// Result is the machine-readable outcome of one scenario run. Every
// field is derived from virtual time and deterministic counters, so a
// given (spec, seed) pair produces a byte-identical encoding — the
// Digest makes that property checkable at a glance.
type Result struct {
	// Scenario and Pattern identify what ran; Seed is the run's seed.
	Scenario string `json:"scenario"`
	Pattern  string `json:"pattern"`
	Seed     uint64 `json:"seed"`
	// Ranks is the number of communicating endpoints.
	Ranks int `json:"ranks"`
	// VirtualUS is the final virtual clock in microseconds.
	VirtualUS float64 `json:"virtualUS"`
	// Receives counts completed application-level Recv operations
	// across all endpoints — pattern payloads plus the barrier/credit
	// exchanges some patterns use (it always equals the sum of the
	// Endpoints' Received fields). Bytes counts pattern payload bytes
	// only; wire-level protocol traffic is visible in Events.
	Receives uint64 `json:"receives"`
	Bytes    uint64 `json:"bytes"`
	// ThroughputMBps is Bytes over the full virtual run time.
	ThroughputMBps float64 `json:"throughputMBps"`
	// Latency summarizes the pattern's per-message samples (µs) with the
	// paper's middle-80% trimmed-mean methodology.
	Latency stats.Summary `json:"latency"`
	// Endpoints reports per-endpoint completed operation counts.
	Endpoints []EndpointResult `json:"endpoints"`
	// Events counts structured protocol events by kind (push, park,
	// discard, pull-req, rto, retransmit, ...).
	Events map[string]uint64 `json:"events"`
	// DiscardedBytes totals pushed bytes receivers dropped for lack of
	// pushed-buffer space (re-fetched by the pull phase).
	DiscardedBytes uint64 `json:"discardedBytes"`
	// Degradation is present only when the spec armed a fault plan. It
	// is part of the digest: a fault scenario pins its degradation and
	// recovery behaviour exactly like its traffic.
	Degradation *Degradation `json:"degradation,omitempty"`
	// FrameLoss breaks down where frames died in the fabric, attached
	// for every networked run. It is set after sealing and excluded
	// from the digest (see seal), so the pre-existing pinned digests —
	// including the lossy ones — are unaffected by its introduction.
	FrameLoss *cluster.FrameLoss `json:"frameLoss,omitempty"`
	// Engine reports the simulation kernel's work for the run: events
	// executed, processes spawned, process sleeps advanced inline versus
	// parked, and the peak heap depth. Deterministic, but set after
	// sealing and excluded from the digest like FrameLoss, so it can grow
	// without moving a pinned digest.
	Engine *sim.Stats `json:"engine,omitempty"`
	// Samples holds the raw per-message latencies (µs) when the run was
	// asked to keep them.
	Samples []float64 `json:"samples,omitempty"`
	// Digest is a SHA-256 over the canonical encoding of everything
	// above (including samples): two runs agree iff their digests do.
	Digest string `json:"digest"`
}

// EndpointResult is one endpoint's operation counters.
type EndpointResult struct {
	Node     int    `json:"node"`
	Proc     int    `json:"proc"`
	Sent     uint64 `json:"sent"`
	Received uint64 `json:"received"`
}

// Degradation quantifies fault impact and transport reaction for a run
// that armed a fault plan (Spec.Faults).
type Degradation struct {
	// Nodes reports per-node fault exposure and reaction, by node ID.
	Nodes []NodeDegradation `json:"nodes"`
	// Totals of the per-node transport counters below.
	Retransmissions uint64 `json:"retransmissions"`
	Timeouts        uint64 `json:"timeouts"`
	Recovered       uint64 `json:"recovered"`
	FailedOps       uint64 `json:"failedOps"`
	// BackoffRTO summarizes the adaptive timeout values (µs) armed
	// after each expiry — count/mean/p50/p90/p99/max, the tail being
	// what exponential backoff is about — with a histogram exposing the
	// spread. Present only when Protocol.AdaptiveRTO is on and at least
	// one timeout fired.
	BackoffRTO  *stats.Quantiles `json:"backoffRTO,omitempty"`
	BackoffHist *stats.Histogram `json:"backoffHist,omitempty"`
	// LastFaultUS is the virtual time the last scheduled fault window
	// ended (clamped to the run's end); RecoveryUS is how long the run
	// kept going after that — the post-fault recovery tail, 0 when the
	// run finished inside a fault window.
	LastFaultUS float64 `json:"lastFaultUS"`
	RecoveryUS  float64 `json:"recoveryUS"`
}

// NodeDegradation is one node's view of the plan: how long its
// links/ports were scheduled unusable, what the burst overlay ate, and
// how its outbound go-back-N sessions reacted.
type NodeDegradation struct {
	Node int `json:"node"`
	// DowntimeUS totals this node's scheduled link/port/pause downtime
	// windows, merged and clamped to the run's end.
	DowntimeUS float64 `json:"downtimeUS"`
	// BurstLosses counts frames the Gilbert–Elliott overlay dropped on
	// this node's links.
	BurstLosses uint64 `json:"burstLosses"`
	// Outbound session counters summed over all peers.
	Retransmissions uint64 `json:"retransmissions"`
	Timeouts        uint64 `json:"timeouts"`
	Recovered       uint64 `json:"recovered"`
	// FailedOps counts operations this node failed with an
	// unreachable-peer error; DeadPeers lists who it gave up on.
	FailedOps uint64 `json:"failedOps"`
	DeadPeers []int  `json:"deadPeers,omitempty"`
}

// seal computes the digest. keepSamples controls whether the raw
// samples stay in the emitted result; they are always digested, so the
// digest is insensitive to the choice.
func (r *Result) seal(samples []float64, keepSamples bool) {
	r.Samples = samples
	r.Digest = ""
	fl, eng := r.FrameLoss, r.Engine
	r.FrameLoss, r.Engine = nil, nil // observational, not digested (restored below)
	enc, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain-data struct: cannot fail
	}
	sum := sha256.Sum256(enc)
	r.Digest = hex.EncodeToString(sum[:])
	r.FrameLoss, r.Engine = fl, eng
	if !keepSamples {
		r.Samples = nil
	}
}

// JSON renders the result indented for files and stdout.
func (r *Result) JSON() []byte {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err)
	}
	return out
}
