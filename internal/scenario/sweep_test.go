package scenario

import (
	"math"
	"strings"
	"testing"
)

// smallSweep shrinks a sweep's traffic for test wall time.
func smallSweep(sw Sweep) Sweep {
	if sw.Base.Traffic.Messages > 5 {
		sw.Base.Traffic.Messages = 5
	}
	return sw
}

// TestSweepExpansionOrder: the grid expands in the documented axis order
// (nodes > buf > size > loss > seed, seeds innermost), empty axes keep
// the base value, and every point gets a self-describing name.
func TestSweepExpansionOrder(t *testing.T) {
	sw := Sweep{Name: "order", Base: DefaultSpec()}
	sw.Base.Topology = Topology{Kind: "switch", Nodes: 2, ProcsPerNode: 1}
	sw.Base.Traffic = Traffic{Pattern: "pingpong", Size: 64, Messages: 3}
	sw.Grid = Grid{
		Nodes: []int{2, 4},
		Sizes: []int{64, 1400},
		Seeds: []uint64{7, 8},
	}
	if got := sw.Grid.Points(); got != 8 {
		t.Fatalf("Points() = %d, want 8", got)
	}
	points, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("expanded %d points, want 8", len(points))
	}
	wantNames := []string{
		"order/nodes=2,size=64,seed=7",
		"order/nodes=2,size=64,seed=8",
		"order/nodes=2,size=1400,seed=7",
		"order/nodes=2,size=1400,seed=8",
		"order/nodes=4,size=64,seed=7",
		"order/nodes=4,size=64,seed=8",
		"order/nodes=4,size=1400,seed=7",
		"order/nodes=4,size=1400,seed=8",
	}
	for i, p := range points {
		if p.Index != i {
			t.Errorf("point %d carries index %d", i, p.Index)
		}
		if p.Spec.Name != wantNames[i] {
			t.Errorf("point %d name = %q, want %q", i, p.Spec.Name, wantNames[i])
		}
		// The unswept axes keep base values.
		if p.Spec.Protocol.PushedBufBytes != sw.Base.Protocol.PushedBufBytes {
			t.Errorf("point %d lost the base pushed-buffer size", i)
		}
		if p.Spec.Topology.LossRate != 0 {
			t.Errorf("point %d invented a loss rate", i)
		}
	}
	if points[5].Spec.Topology.Nodes != 4 || points[5].Spec.Traffic.Size != 64 || points[5].Spec.Seed != 8 {
		t.Errorf("point 5 = %+v, want nodes=4 size=64 seed=8", points[5].Spec)
	}
}

// TestSweepExpansionValidatesEveryPoint: one invalid cell fails the
// whole expansion — a sweep never silently runs half a study.
func TestSweepExpansionValidatesEveryPoint(t *testing.T) {
	sw := Sweep{Name: "invalid", Base: DefaultSpec()} // back-to-back base
	sw.Grid = Grid{Nodes: []int{2, 8}}                // 8 nodes needs a switch
	if _, err := sw.Expand(); err == nil || !strings.Contains(err.Error(), "at most 2 nodes") {
		t.Fatalf("Expand() = %v, want the back-to-back node-count error", err)
	}
}

// TestSweepExpansionRejectsInertAxisValues: non-positive nodes/buffer
// values and out-of-range loss rates would be silently ignored by the
// spec lowering while still labelling the point — they must fail the
// expansion instead of mislabelling a study.
func TestSweepExpansionRejectsInertAxisValues(t *testing.T) {
	cases := []struct {
		name string
		grid Grid
		want string
	}{
		{"zero nodes", Grid{Nodes: []int{0, 2}}, "nodes value 0"},
		{"zero buffer", Grid{PushedBufBytes: []int{0}}, "pushedBufBytes value 0"},
		{"negative loss", Grid{LossRates: []float64{-0.1}}, "loss rate -0.1"},
		{"loss above one", Grid{LossRates: []float64{1.5}}, "loss rate 1.5"},
		{"empty algorithm", Grid{Algorithms: []string{""}}, "algorithms value is empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw := Sweep{Name: "inert", Base: DefaultSpec(), Grid: tc.grid}
			if _, err := sw.Expand(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Expand() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// The algorithm axis expands onto Traffic.Algorithm with labelled point
// names, and a base pattern without an algorithm axis fails expansion.
func TestSweepAlgorithmAxis(t *testing.T) {
	sw := Sweep{Name: "alg", Base: DefaultSpec()}
	sw.Base.Topology = Topology{Kind: "switch", Nodes: 2, ProcsPerNode: 1, Policy: "symmetric"}
	sw.Base.Traffic = Traffic{Pattern: "allreduce", Size: 256, Messages: 2}
	sw.Grid = Grid{Algorithms: []string{"tree", "ring"}}
	points, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("expanded %d points, want 2", len(points))
	}
	for i, wantAlg := range []string{"tree", "ring"} {
		if got := points[i].Spec.Traffic.Algorithm; got != wantAlg {
			t.Errorf("point %d algorithm = %q, want %q", i, got, wantAlg)
		}
		wantName := "alg/alg=" + wantAlg
		if points[i].Spec.Name != wantName {
			t.Errorf("point %d name = %q, want %q", i, points[i].Spec.Name, wantName)
		}
	}

	sw.Base.Traffic = Traffic{Pattern: "pingpong", Size: 256, Messages: 2}
	if _, err := sw.Expand(); err == nil || !strings.Contains(err.Error(), "does not take an algorithm") {
		t.Errorf("Expand() on a pattern without an algorithm axis = %v, want rejection", err)
	}
}

// TestSweepWorkerCountDoesNotChangeResults is the subsystem's core
// guarantee: 1 worker and many workers produce byte-identical sweep
// results, aggregate digest included. Running this under -race also
// checks the pool for data races.
func TestSweepWorkerCountDoesNotChangeResults(t *testing.T) {
	sw, err := SweepByName("smoke-grid")
	if err != nil {
		t.Fatal(err)
	}
	sw = smallSweep(sw)
	serial, err := RunSweep(sw, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSweep(sw, 8)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Digest != parallel.Digest {
		t.Fatalf("worker count changed the aggregate digest:\n  1 worker:  %s\n  8 workers: %s",
			serial.Digest, parallel.Digest)
	}
	if string(serial.JSON()) != string(parallel.JSON()) {
		t.Fatal("same digest but different sweep encodings")
	}
	if serial.Failed != 0 {
		t.Fatalf("%d of %d smoke-grid points failed", serial.Failed, serial.Points)
	}
	if serial.Points != sw.Grid.Points() {
		t.Fatalf("ran %d points, grid says %d", serial.Points, sw.Grid.Points())
	}
}

// TestSweepReportsPointFailuresInPlace: a cell whose run fails (here: a
// virtual-time budget exhausted immediately) is reported in its grid
// slot with the error, and healthy cells still produce results.
func TestSweepReportsPointFailuresInPlace(t *testing.T) {
	base := DefaultSpec()
	base.Topology = Topology{Kind: "switch", Nodes: 2, ProcsPerNode: 1}
	base.Traffic = Traffic{Pattern: "pingpong", Size: 64, Messages: 3}
	base.MaxVirtualMS = 0.0001 // nothing completes inside this budget
	sw := Sweep{Name: "doomed", Base: base, Grid: Grid{Seeds: []uint64{1, 2}}}
	res, err := RunSweep(sw, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 2 {
		t.Fatalf("Failed = %d, want 2", res.Failed)
	}
	for i, pr := range res.Results {
		if pr.Index != i {
			t.Errorf("result %d carries index %d", i, pr.Index)
		}
		if pr.Result != nil || !strings.Contains(pr.Error, "budget") || !pr.BudgetExhausted {
			t.Errorf("point %d: Result=%v Error=%q BudgetExhausted=%v, want a flagged virtual-budget error and no result", i, pr.Result, pr.Error, pr.BudgetExhausted)
		}
	}
	// Determinism holds for failures too.
	again, err := RunSweep(sw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest != res.Digest {
		t.Fatalf("failure digests differ across worker counts: %s vs %s", res.Digest, again.Digest)
	}
}

// TestSweepPointResultsCarryTheirParameters: downstream analysis reads
// the swept parameters off each PointResult, not by re-deriving the grid.
func TestSweepPointResultsCarryTheirParameters(t *testing.T) {
	sw, err := SweepByName("smoke-grid")
	if err != nil {
		t.Fatal(err)
	}
	sw = smallSweep(sw)
	res, err := RunSweep(sw, 0) // 0 = GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	points, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range res.Results {
		spec := points[i].Spec
		if pr.Nodes != spec.Topology.Nodes || pr.Size != spec.Traffic.Size ||
			pr.Seed != spec.Seed || pr.Name != spec.Name {
			t.Errorf("point %d result parameters %+v do not match its spec", i, pr)
		}
		if pr.Result == nil || pr.Result.Digest == "" {
			t.Errorf("point %d has no sealed result", i)
		}
		if pr.Result != nil && pr.Result.Seed != spec.Seed {
			t.Errorf("point %d ran seed %d, spec says %d", i, pr.Result.Seed, spec.Seed)
		}
	}
}

// TestParseSweepStrict mirrors TestParseSpecStrict for sweep files,
// including a stray key inside the base spec.
func TestParseSweepStrict(t *testing.T) {
	for _, tc := range []struct{ name, in, want string }{
		{"stray top-level key", `{"name":"s","grdi":{}}`, `unknown field "grdi"`},
		{"stray grid key", `{"name":"s","grid":{"seedz":[1]}}`, `unknown field "seedz"`},
		{"stray base key", `{"name":"s","base":{"protocol":{"maxRetrys":1}}}`, `unknown field "maxRetrys"`},
		{"trailing bytes", `{"name":"s"}x`, "trailing data"},
	} {
		if _, err := ParseSweep([]byte(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ParseSweep(%s) error = %v, want one mentioning %q", tc.name, tc.in, err, tc.want)
		}
	}
}

// TestParseSweepExactKeys: sweep keys, the base spec's included, match
// exactly, and an unknown key is reported with its path.
func TestParseSweepExactKeys(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{`{"name":"s","base":{"TRAFFIC":{"MESSAGES":3,"messages":9}}}`, `unknown field "TRAFFIC" at base.TRAFFIC (did you mean "traffic"?)`},
		{`{"name":"s","grid":{"Seeds":[1]}}`, `unknown field "Seeds" at grid.Seeds (did you mean "seeds"?)`},
		{`{"name":"s","base":{"traffic":{"mesages":3}}}`, `unknown field "mesages" at base.traffic.mesages`},
	} {
		if _, err := ParseSweep([]byte(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseSweep(%s) error = %v, want one containing %q", tc.in, err, tc.want)
		}
	}
}

// TestSweepPointCap: a grid whose axis product exceeds the expansion
// bound, or overflows int, is rejected before anything is allocated.
func TestSweepPointCap(t *testing.T) {
	ten := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	sw := Sweep{Name: "big", Base: DefaultSpec(), Grid: Grid{
		Sizes: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, Seeds: ten,
		GBNWindows: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, PushedBufBytes: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		LossRates: []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}}
	if _, err := sw.Expand(); err == nil || !strings.Contains(err.Error(), "100000 points") {
		t.Errorf("Expand(100000 points) = %v, want a point-cap error", err)
	}
	// 80^10 overflows int to a negative count, which once reached
	// make([]Point, 0, n) and panicked.
	r := make([]int, 80)
	for i := range r {
		r[i] = i + 1
	}
	sw.Grid = Grid{Nodes: r, ProcsPerNode: r, PushedBufBytes: r, Sizes: r, RTOMs: make([]float64, 80),
		GBNWindows: r, LossRates: make([]float64, 80), Algorithms: make([]string, 80),
		FaultPlans: make([]string, 80), Seeds: make([]uint64, 80)}
	if n := sw.Grid.Points(); n != math.MaxInt {
		t.Errorf("Points() = %d for an 80^10-point grid, want saturation at math.MaxInt", n)
	}
	if _, err := sw.Expand(); err == nil || !strings.Contains(err.Error(), "more than the 10000") {
		t.Errorf("Expand(80^10 points) = %v, want a point-cap error", err)
	}
}

// TestSweepJSONRoundTrip: sweep specs are files; rendering and parsing
// one back must be the identity, and parsing overlays base defaults.
func TestSweepJSONRoundTrip(t *testing.T) {
	for _, sw := range BuiltinSweeps() {
		back, err := ParseSweep(sw.JSON())
		if err != nil {
			t.Fatalf("%s: %v", sw.Name, err)
		}
		if string(back.JSON()) != string(sw.JSON()) {
			t.Errorf("%s: JSON round trip changed the sweep", sw.Name)
		}
	}
	// A sparse sweep file inherits the testbed defaults in its base.
	sparse, err := ParseSweep([]byte(`{"name":"sparse","base":{"topology":{"kind":"switch","nodes":2},"traffic":{"pattern":"pingpong","size":64,"messages":3}},"grid":{"seeds":[1,2,3]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if sparse.Base.Protocol.BTP != DefaultSpec().Protocol.BTP {
		t.Errorf("sparse sweep lost protocol defaults: %+v", sparse.Base.Protocol)
	}
	if sparse.Grid.Points() != 3 {
		t.Errorf("sparse sweep expands to %d points, want 3", sparse.Grid.Points())
	}
}
