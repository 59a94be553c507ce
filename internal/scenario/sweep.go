package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"pushpull/internal/fault"
	"pushpull/internal/strictjson"
)

// Sweep is a declarative parameter study: one base Spec expanded over a
// cartesian grid of parameter axes. Like Spec it is a plain struct with
// a stable JSON encoding, so sweeps are files too. Each grid point is an
// independent scenario run with its own engine; the expansion order —
// and therefore the result order and the aggregate digest — is fixed by
// the spec alone, never by scheduling.
type Sweep struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Base supplies every field the grid does not vary.
	Base Spec `json:"base"`
	Grid Grid `json:"grid"`
}

// Grid names the swept axes. An empty axis keeps the base value; the
// expansion is the cartesian product of the non-empty axes, ordered
// nodes (outermost) > procsPerNode > pushedBufBytes > sizes >
// lossRates > rtoMs > gbnWindow > algorithms > faultPlans > seeds
// (innermost).
type Grid struct {
	// Nodes varies Topology.Nodes.
	Nodes []int `json:"nodes,omitempty"`
	// ProcsPerNode varies Topology.ProcsPerNode.
	ProcsPerNode []int `json:"procsPerNode,omitempty"`
	// PushedBufBytes varies Protocol.PushedBufBytes.
	PushedBufBytes []int `json:"pushedBufBytes,omitempty"`
	// Sizes varies Traffic.Size.
	Sizes []int `json:"sizes,omitempty"`
	// LossRates varies Topology.LossRate.
	LossRates []float64 `json:"lossRates,omitempty"`
	// RTOMs varies Protocol.RTOMs (the go-back-N fixed retransmission
	// timeout, milliseconds).
	RTOMs []float64 `json:"rtoMs,omitempty"`
	// GBNWindows varies Protocol.GBNWindow (the go-back-N send window,
	// frames).
	GBNWindows []int `json:"gbnWindows,omitempty"`
	// Algorithms varies Traffic.Algorithm (collective patterns only —
	// expansion fails on a pattern with no algorithm axis).
	Algorithms []string `json:"algorithms,omitempty"`
	// FaultPlans varies Spec.Faults over the named presets of
	// FaultPlanByName ("none" clears the base plan), so degradation
	// studies sweep fault shapes like any other parameter.
	FaultPlans []string `json:"faultPlans,omitempty"`
	// Seeds varies Seed.
	Seeds []uint64 `json:"seeds,omitempty"`
}

// FaultPlanNames lists the named fault-plan presets a sweep's
// faultPlans axis accepts, sorted.
func FaultPlanNames() []string { return []string{"blackout-5ms", "burst-loss", "flap", "none"} }

// FaultPlanByName returns a preset fault plan for sweep axes: small,
// one-event shapes targeting node 1 (present in every networked
// topology). "none" returns nil — the clean-baseline cell.
func FaultPlanByName(name string) (*fault.Plan, error) {
	switch name {
	case "none":
		return nil, nil
	case "blackout-5ms":
		return &fault.Plan{Events: []fault.Event{
			{Kind: fault.KindLinkDown, Node: 1, AtMS: 1, UntilMS: 6},
		}}, nil
	case "flap":
		return &fault.Plan{Events: []fault.Event{
			{Kind: fault.KindLinkFlap, Node: 1, AtMS: 0, UntilMS: 10,
				PeriodMS: 1, DutyCycle: 0.6, Random: true},
		}}, nil
	case "burst-loss":
		return &fault.Plan{Events: []fault.Event{
			{Kind: fault.KindLossBurst, Node: 1, AtMS: 0, UntilMS: 20,
				PEnterBurst: 0.03, PExitBurst: 0.25, BurstLoss: 0.5},
		}}, nil
	}
	return nil, fmt.Errorf("scenario: unknown fault plan %q (have %v)", name, FaultPlanNames())
}

// Point is one expanded grid cell: a complete runnable Spec plus its
// position in grid order. FaultPlan records the cell's faultPlans
// preset name ("" when that axis is not swept) — the plan itself lives
// in Spec.Faults, but results label cells by name.
type Point struct {
	Index     int
	Spec      Spec
	FaultPlan string
}

// maxSweepPoints bounds a grid's expansion. Every point is a whole
// simulation, so a larger grid is a mistake, and expanding it would
// exhaust memory before the first point ran.
const maxSweepPoints = 10000

// Points reports the expansion size without expanding. It saturates at
// math.MaxInt instead of overflowing.
func (g Grid) Points() int {
	n := 1
	for _, axis := range []int{
		len(g.Nodes), len(g.ProcsPerNode), len(g.PushedBufBytes), len(g.Sizes), len(g.LossRates),
		len(g.RTOMs), len(g.GBNWindows), len(g.Algorithms), len(g.FaultPlans), len(g.Seeds),
	} {
		if axis > 0 {
			if n > math.MaxInt/axis {
				return math.MaxInt
			}
			n *= axis
		}
	}
	return n
}

// Expand materializes the grid in its deterministic order. Every point
// is validated; an invalid cell (e.g. a nodes value the base topology
// kind cannot host) fails the whole expansion, so a sweep never runs
// half a study.
func (sw Sweep) Expand() ([]Point, error) {
	if n := sw.Grid.Points(); n > maxSweepPoints {
		return nil, fmt.Errorf("scenario: sweep grid has %d points, more than the %d a sweep may expand to", n, maxSweepPoints)
	}
	// Non-positive axis values would be silently ignored by the spec
	// lowering (clusterConfig only applies them when > 0), leaving the
	// point labelled with a parameter it did not run — reject them
	// outright. Sizes <= 0 are caught by Spec.Validate below.
	for _, n := range sw.Grid.Nodes {
		if n <= 0 {
			return nil, fmt.Errorf("scenario: sweep grid nodes value %d is not positive", n)
		}
	}
	for _, p := range sw.Grid.ProcsPerNode {
		if p <= 0 {
			return nil, fmt.Errorf("scenario: sweep grid procsPerNode value %d is not positive", p)
		}
	}
	for _, b := range sw.Grid.PushedBufBytes {
		if b <= 0 {
			return nil, fmt.Errorf("scenario: sweep grid pushedBufBytes value %d is not positive", b)
		}
	}
	for _, r := range sw.Grid.RTOMs {
		if r <= 0 {
			return nil, fmt.Errorf("scenario: sweep grid rtoMs value %g is not positive", r)
		}
	}
	for _, w := range sw.Grid.GBNWindows {
		if w <= 0 {
			return nil, fmt.Errorf("scenario: sweep grid gbnWindows value %d is not positive", w)
		}
	}
	for _, l := range sw.Grid.LossRates {
		if l < 0 || l > 1 {
			return nil, fmt.Errorf("scenario: sweep grid loss rate %g outside [0, 1]", l)
		}
	}
	for _, a := range sw.Grid.Algorithms {
		// An empty value would silently mean "the default" while the
		// point's name claims an explicit algorithm — reject it.
		if a == "" {
			return nil, fmt.Errorf("scenario: sweep grid algorithms value is empty (name an algorithm explicitly)")
		}
	}
	for _, f := range sw.Grid.FaultPlans {
		// Resolve every preset up front: a typo fails the expansion, not
		// point N of a half-run study.
		if _, err := FaultPlanByName(f); err != nil {
			return nil, fmt.Errorf("scenario: sweep grid faultPlans: %w", err)
		}
	}
	axes := []struct {
		key    string
		n      int
		format func(i int) string
		apply  func(s *Spec, i int)
	}{
		{"nodes", len(sw.Grid.Nodes),
			func(i int) string { return fmt.Sprintf("%d", sw.Grid.Nodes[i]) },
			func(s *Spec, i int) { s.Topology.Nodes = sw.Grid.Nodes[i] }},
		{"procs", len(sw.Grid.ProcsPerNode),
			func(i int) string { return fmt.Sprintf("%d", sw.Grid.ProcsPerNode[i]) },
			func(s *Spec, i int) { s.Topology.ProcsPerNode = sw.Grid.ProcsPerNode[i] }},
		{"buf", len(sw.Grid.PushedBufBytes),
			func(i int) string { return fmt.Sprintf("%d", sw.Grid.PushedBufBytes[i]) },
			func(s *Spec, i int) { s.Protocol.PushedBufBytes = sw.Grid.PushedBufBytes[i] }},
		{"size", len(sw.Grid.Sizes),
			func(i int) string { return fmt.Sprintf("%d", sw.Grid.Sizes[i]) },
			func(s *Spec, i int) { s.Traffic.Size = sw.Grid.Sizes[i] }},
		{"loss", len(sw.Grid.LossRates),
			func(i int) string { return fmt.Sprintf("%g", sw.Grid.LossRates[i]) },
			func(s *Spec, i int) { s.Topology.LossRate = sw.Grid.LossRates[i] }},
		{"rto", len(sw.Grid.RTOMs),
			func(i int) string { return fmt.Sprintf("%g", sw.Grid.RTOMs[i]) },
			func(s *Spec, i int) { s.Protocol.RTOMs = sw.Grid.RTOMs[i] }},
		{"win", len(sw.Grid.GBNWindows),
			func(i int) string { return fmt.Sprintf("%d", sw.Grid.GBNWindows[i]) },
			func(s *Spec, i int) { s.Protocol.GBNWindow = sw.Grid.GBNWindows[i] }},
		{"alg", len(sw.Grid.Algorithms),
			func(i int) string { return sw.Grid.Algorithms[i] },
			func(s *Spec, i int) { s.Traffic.Algorithm = sw.Grid.Algorithms[i] }},
		{"faults", len(sw.Grid.FaultPlans),
			func(i int) string { return sw.Grid.FaultPlans[i] },
			func(s *Spec, i int) {
				p, _ := FaultPlanByName(sw.Grid.FaultPlans[i]) // pre-validated above
				s.Faults = p
			}},
		{"seed", len(sw.Grid.Seeds),
			func(i int) string { return fmt.Sprintf("%d", sw.Grid.Seeds[i]) },
			func(s *Spec, i int) { s.Seed = sw.Grid.Seeds[i] }},
	}

	base := sw.Base
	name := sw.Name
	if name == "" {
		name = base.Name
	}
	points := make([]Point, 0, sw.Grid.Points())
	// idx walks the mixed-radix counter over the non-empty axes, seeds
	// fastest — a plain counting loop keeps the order self-evident.
	idx := make([]int, len(axes))
	for {
		spec := base
		suffix := ""
		faultPlan := ""
		for a, ax := range axes {
			if ax.n == 0 {
				continue
			}
			ax.apply(&spec, idx[a])
			if ax.key == "faults" {
				faultPlan = ax.format(idx[a])
			}
			if suffix != "" {
				suffix += ","
			}
			suffix += ax.key + "=" + ax.format(idx[a])
		}
		spec.Name = name
		if suffix != "" {
			spec.Name = name + "/" + suffix
		}
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("scenario: sweep %q point %q: %w", name, spec.Name, err)
		}
		points = append(points, Point{Index: len(points), Spec: spec, FaultPlan: faultPlan})

		// Increment the counter, innermost (last) axis fastest.
		a := len(axes) - 1
		for ; a >= 0; a-- {
			if axes[a].n == 0 {
				continue
			}
			idx[a]++
			if idx[a] < axes[a].n {
				break
			}
			idx[a] = 0
		}
		if a < 0 {
			return points, nil
		}
	}
}

// PointResult is one grid cell's outcome. Exactly one of Error and
// Result is set: a point whose run fails (validation, livelock budget,
// or a panic out of the protocol model) is reported in place, so one
// pathological cell cannot void a 200-point study.
type PointResult struct {
	Index          int     `json:"index"`
	Name           string  `json:"name"`
	Nodes          int     `json:"nodes"`
	PushedBufBytes int     `json:"pushedBufBytes"`
	Size           int     `json:"size"`
	LossRate       float64 `json:"lossRate"`
	Algorithm      string  `json:"algorithm,omitempty"`
	// FaultPlan names the cell's faultPlans preset ("" when the axis is
	// not swept).
	FaultPlan string `json:"faultPlan,omitempty"`
	Seed      uint64 `json:"seed"`
	Error     string `json:"error,omitempty"`
	// BudgetExhausted flags an Error that was a virtual-time-budget
	// exhaustion (protocol deadlock or retransmission livelock), so
	// sweeps over pathological cells are machine-checkable without
	// string matching. PeerUnreachable flags the structured failure
	// instead: the transport diagnosed a dead peer and failed fast.
	BudgetExhausted bool    `json:"budgetExhausted,omitempty"`
	PeerUnreachable bool    `json:"peerUnreachable,omitempty"`
	Result          *Result `json:"result,omitempty"`
}

// SweepResult is the machine-readable outcome of a whole sweep, in grid
// order. Nothing in it depends on wall time or worker count: running the
// same sweep with 1 worker or GOMAXPROCS produces a byte-identical
// encoding, and the aggregate Digest makes that checkable at a glance.
type SweepResult struct {
	Sweep       string        `json:"sweep"`
	Description string        `json:"description,omitempty"`
	Points      int           `json:"points"`
	Failed      int           `json:"failed"`
	Results     []PointResult `json:"results"`
	// Digest is a SHA-256 over every point's digest (or error) in grid
	// order: two sweeps agree iff all their runs do.
	Digest string `json:"digest"`
}

// JSON renders the sweep result indented for files and stdout.
func (r *SweepResult) JSON() []byte {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err) // plain-data struct: cannot fail
	}
	return out
}

// ParallelFor runs do(i) for every i in [0, n) across a pool of
// workers. It is the repo's one across-runs parallelism primitive: each
// do call owns its simulation engines outright (engines are single-
// threaded by design), so parallelism lives strictly across runs, never
// within one, and results indexed by i need no locking. workers <= 0
// means GOMAXPROCS; ParallelFor returns when every call has.
func ParallelFor(n, workers int, do func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			do(i)
		}
		return
	}
	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				do(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		indices <- i
	}
	close(indices)
	wg.Wait()
}

// RunSweep expands the sweep and runs every point across a worker pool,
// one simulation engine per goroutine. workers <= 0 means GOMAXPROCS.
// Results come back in grid order regardless of completion order.
func RunSweep(sw Sweep, workers int, opts ...RunOption) (*SweepResult, error) {
	points, err := sw.Expand()
	if err != nil {
		return nil, err
	}
	results := make([]PointResult, len(points))
	ParallelFor(len(points), workers, func(i int) {
		results[i] = runPoint(points[i], opts...)
	})

	name := sw.Name
	if name == "" {
		name = sw.Base.Name
	}
	res := &SweepResult{
		Sweep:       name,
		Description: sw.Description,
		Points:      len(results),
		Results:     results,
	}
	h := sha256.New()
	for i := range results {
		pr := &results[i]
		if pr.Error != "" {
			res.Failed++
			fmt.Fprintf(h, "%d %s error %s\n", pr.Index, pr.Name, pr.Error)
			continue
		}
		fmt.Fprintf(h, "%d %s %s\n", pr.Index, pr.Name, pr.Result.Digest)
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))
	return res, nil
}

// runPoint runs one cell, converting errors and model panics into the
// point's Error field. The recover matters under parallelism: a panic
// escaping a worker goroutine would kill the whole process, turning one
// bad cell into zero results.
func runPoint(pt Point, opts ...RunOption) (pr PointResult) {
	s := pt.Spec
	pr = PointResult{
		Index:          pt.Index,
		Name:           s.Name,
		Nodes:          s.Topology.Nodes,
		PushedBufBytes: s.Protocol.PushedBufBytes,
		Size:           s.Traffic.Size,
		LossRate:       s.Topology.LossRate,
		Algorithm:      s.Traffic.Algorithm,
		FaultPlan:      pt.FaultPlan,
		Seed:           s.Seed,
	}
	defer func() {
		if r := recover(); r != nil {
			pr.Result = nil
			pr.Error = fmt.Sprintf("panic: %v", r)
		}
	}()
	res, err := Run(s, opts...)
	if err != nil {
		pr.Error = err.Error()
		pr.BudgetExhausted = IsBudgetError(err)
		pr.PeerUnreachable = IsPeerUnreachable(err)
		return pr
	}
	pr.Result = res
	return pr
}

// ParseSweep overlays JSON onto a default-rooted sweep, so a sweep file
// only states what differs from the paper's testbed (mirroring
// ParseSpec, strictness included).
func ParseSweep(data []byte) (Sweep, error) {
	sw := Sweep{Base: DefaultSpec()}
	if err := strictjson.Decode(data, &sw); err != nil {
		return Sweep{}, fmt.Errorf("scenario: parsing sweep: %w", err)
	}
	if _, err := sw.Expand(); err != nil {
		return Sweep{}, err
	}
	return sw, nil
}

// JSON renders the sweep spec canonically.
func (sw Sweep) JSON() []byte {
	out, err := json.MarshalIndent(sw, "", "  ")
	if err != nil {
		panic(err)
	}
	return out
}

// BuiltinSweeps returns the named parameter studies shipped with the
// engine: a small grid for CI determinism checks and a larger study
// exercising every axis.
func BuiltinSweeps() []Sweep {
	smoke := Sweep{
		Name:        "smoke-grid",
		Description: "small CI grid: permutation traffic over nodes x size x seed (8 points, seconds)",
		Base:        DefaultSpec(),
	}
	smoke.Base.Topology = Topology{Kind: "switch", Nodes: 2, ProcsPerNode: 1, Policy: "symmetric"}
	smoke.Base.Traffic = Traffic{Pattern: "permutation", Size: 1400, Messages: 10}
	smoke.Grid = Grid{
		Nodes: []int{2, 4},
		Sizes: []int{256, 1400},
		Seeds: []uint64{1, 2},
	}

	study := Sweep{
		Name:        "perm-study",
		Description: "48-point study: permutation latency vs nodes x pushed buffer x size x loss x seed",
		Base:        DefaultSpec(),
	}
	study.Base.Topology = Topology{Kind: "switch", Nodes: 4, ProcsPerNode: 1, Policy: "symmetric"}
	study.Base.Protocol.RTOMs = 2
	study.Base.Traffic = Traffic{Pattern: "permutation", Size: 1400, Messages: 30}
	study.Grid = Grid{
		Nodes:          []int{4, 6},
		PushedBufBytes: []int{4096, 16384},
		Sizes:          []int{1400, 4096},
		LossRates:      []float64{0, 0.005},
		Seeds:          []uint64{1, 2, 3},
	}

	collSmoke := Sweep{
		Name:        "coll-smoke",
		Description: "CI grid for the collective family: allreduce over nodes x algorithm x seed (16 points, seconds)",
		Base:        DefaultSpec(),
	}
	collSmoke.Base.Topology = Topology{Kind: "switch", Nodes: 4, ProcsPerNode: 1, Policy: "symmetric"}
	collSmoke.Base.Traffic = Traffic{Pattern: "allreduce", Size: 1024, Messages: 5}
	collSmoke.Grid = Grid{
		Nodes:      []int{2, 4},
		Algorithms: []string{"tree", "recursive-doubling", "ring", "rs-ag"},
		Seeds:      []uint64{1, 2},
	}

	faultSmoke := Sweep{
		Name:        "fault-smoke",
		Description: "CI grid for the fault family: internode ping-pong over faultPlan x seed (8 points, seconds) — pins that every preset degrades and recovers identically across worker counts",
		Base:        DefaultSpec(),
	}
	faultSmoke.Base.Traffic = Traffic{Pattern: "pingpong", Size: 1400, Messages: 100}
	faultSmoke.Base.Protocol.RTOMs = 2
	faultSmoke.Base.Protocol.AdaptiveRTO = true
	faultSmoke.Base.Protocol.MaxRetries = 10
	faultSmoke.Base.MaxVirtualMS = 3000
	faultSmoke.Grid = Grid{
		FaultPlans: []string{"none", "blackout-5ms", "flap", "burst-loss"},
		Seeds:      []uint64{1, 2},
	}

	protoGrid := Sweep{
		Name:        "proto-grid",
		Description: "CI grid for the transport axes: internode ping-pong over procsPerNode x rtoMs x gbnWindow on a lossy wire (8 points, seconds)",
		Base:        DefaultSpec(),
	}
	protoGrid.Base.Topology.LossRate = 0.002 // make the RTO/window axes matter
	protoGrid.Base.Traffic = Traffic{Pattern: "pingpong", Size: 1400, Messages: 50}
	protoGrid.Grid = Grid{
		ProcsPerNode: []int{1, 2},
		RTOMs:        []float64{2, 8},
		GBNWindows:   []int{8, 32},
	}

	return []Sweep{smoke, study, collSmoke, faultSmoke, protoGrid}
}

// SweepNames lists the builtin sweep names, sorted.
func SweepNames() []string {
	sweeps := BuiltinSweeps()
	names := make([]string, 0, len(sweeps))
	for _, sw := range sweeps {
		names = append(names, sw.Name)
	}
	sort.Strings(names)
	return names
}

// SweepByName returns the builtin sweep with the given name.
func SweepByName(name string) (Sweep, error) {
	for _, sw := range BuiltinSweeps() {
		if sw.Name == name {
			return sw, nil
		}
	}
	return Sweep{}, fmt.Errorf("scenario: unknown sweep %q (have %v)", name, SweepNames())
}
