package bench

import (
	"fmt"

	"pushpull/internal/cluster"
	"pushpull/internal/pushpull"
	"pushpull/internal/sim"
	"pushpull/internal/smp"
	"pushpull/internal/stats"
	"pushpull/internal/vm"
)

// Params tunes an experiment run.
type Params struct {
	// Iters is the number of timed iterations per point; the paper used
	// 1000. Reduce for quicker runs.
	Iters int
}

// DefaultParams matches the paper's methodology.
func DefaultParams() Params { return Params{Iters: 1000} }

// Experiment is one reproducible artifact of the paper's evaluation.
type Experiment struct {
	ID    string
	Title string
	// Paper summarizes what the original reports, for side-by-side
	// reading.
	Paper string
	Run   func(p Params) []*stats.Table
}

// All lists every experiment, paper figures first, ablations after.
func All() []Experiment {
	return []Experiment{
		{
			ID:    "fig3",
			Title: "Figure 3: intranode single-trip latency vs message size (pushed buffer 12 KB)",
			Paper: "7.5 µs minimum at 10 B; Push-All degrades abruptly around 4000 B; Push-Pull steady",
			Run:   runFig3,
		},
		{
			ID:    "fig4",
			Title: "Figure 4: internode latency under the three optimizing techniques (BTP(1)=80, BTP(2)=680)",
			Paper: "identical curves up to 760 B; beyond it full < overlap-only < mask-only < none",
			Run:   runFig4,
		},
		{
			ID:    "fig6-early",
			Title: "Figure 6 (left): early receiver test (x=500k, y=100k NOPs, pushed buffer 4 KB)",
			Paper: "Push-Zero constantly slower; Push-Pull and Push-All close, Push-Pull slightly ahead",
			Run:   runFig6Early,
		},
		{
			ID:    "fig6-late",
			Title: "Figure 6 (right): late receiver test (x=100k, y=300k NOPs, pushed buffer 4 KB)",
			Paper: "Push-All fastest below 3072 B then collapses (~150 ms via go-back-N); Push-Pull < Push-Zero throughout",
			Run:   runFig6Late,
		},
		{
			ID:    "btp2",
			Title: "§5.2 test 1: sweep BTP(2) with BTP(1)=0 (1400 B messages)",
			Paper: "latency falls as BTP(2) grows, bottoming out around 680 B",
			Run:   runBTP2,
		},
		{
			ID:    "btp1",
			Title: "§5.2 test 2: sweep BTP(1) with BTP(2)=680 (1400 B messages)",
			Paper: "small BTP(1) helps; beyond a threshold latency grows — 80 B chosen",
			Run:   runBTP1,
		},
		{
			ID:    "headline",
			Title: "Headline numbers (abstract / §5 / §6)",
			Paper: "intranode 7.5 µs & 350.9 MB/s; internode 34.9 µs & 12.1 MB/s; translation ~12-13 µs hidden",
			Run:   runHeadline,
		},
		{
			ID:    "ablation-interrupt",
			Title: "Ablation: reception-handler invocation method (§2 stage 3, §4.1)",
			Paper: "symmetric interrupt chosen for the optimized configuration",
			Run:   runAblationInterrupt,
		},
		{
			ID:    "ablation-trigger",
			Title: "Ablation: user-level NIC trigger vs kernel driver path (§4.3)",
			Paper: "user-level direct thread invocation required for translation masking",
			Run:   runAblationTrigger,
		},
		{
			ID:    "ablation-zerobuf",
			Title: "Ablation: cross-space zero buffer vs shared-segment double copy (§4.2)",
			Paper: "zero buffer eliminates one copy: bandwidth up, latency down intranode",
			Run:   runAblationZeroBuf,
		},
		{
			ID:    "multirail",
			Title: "Extension (§6 outlook): bandwidth scaling with multiple NICs per node",
			Paper: "future work in the paper: 'a more general mechanism to work with multiple network interfaces'",
			Run:   runMultiRail,
		},
		{
			ID:    "ablation-polling",
			Title: "Ablation: polling period vs internode latency (§2 stage 3)",
			Paper: "polling is lightweight but its frequency bounds responsiveness",
			Run:   runAblationPolling,
		},
		{
			ID:    "ablation-pullcpu",
			Title: "Ablation: pull phase on least-loaded CPU vs receiver's CPU (§4.1)",
			Paper: "offloaded pull overlaps communication with computation on other processors",
			Run:   runAblationPullCPU,
		},
		{
			ID:    "threephase",
			Title: "Baseline: classical three-phase handshake protocol vs Push-Pull (§1)",
			Paper: "three-phase 'introduced a significant amount of overheads during the handshaking phase'",
			Run:   runThreePhase,
		},
		{
			ID:    "ablation-loss",
			Title: "Ablation: frame loss rate vs latency and bandwidth (go-back-N recovery, §5.3/[10])",
			Paper: "the implemented go-back-n reliable protocol resumes transmission after drops",
			Run:   runAblationLoss,
		},
		{
			ID:    "hub",
			Title: "Ablation: back-to-back vs switch vs shared-medium hub",
			Paper: "the testbed uses back-to-back Fast Ethernet; a hub halves the wire and collides acks with data",
			Run:   runHub,
		},
		{
			ID:    "adaptive",
			Title: "Extension: adaptive AIMD BTP controller (§3 dynamic pushed-buffer remark)",
			Paper: "applications can dynamically change the size of the pushed buffer to adapt to the runtime environment",
			Run:   runAdaptive,
		},
		{
			ID:    "collective",
			Title: "Application layer: 4-node allreduce across messaging modes",
			Paper: "the compute-then-communicate pattern of §5.3, lifted to whole collectives",
			Run:   runCollective,
		},
		{
			ID:    "scale",
			Title: "Scalability: ring allgather vs node count over a switch",
			Paper: "beyond the paper's two-node testbed; its conclusion asks for multi-interface, multi-node scaling",
			Run:   runScale,
		},
		{
			ID:    "longvector",
			Title: "Long vectors: segmented ring Bcast and reduce-scatter+allgather AllReduce (8 ranks)",
			Paper: "beyond the paper: bandwidth-optimal schedules keep every link busy once transfers dwarf per-hop latency",
			Run:   runLongVector,
		},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// baseConfig is the paper's testbed with protocol options opts.
func baseConfig(opts pushpull.Options) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Opts = opts
	return cfg
}

// fig3Sizes includes the paper's x points plus fill-in sizes around the
// Push-All cliff.
var fig3Sizes = []int{10, 500, 1000, 2000, 3000, 3500, 4000, 4500, 5000, 6000, 7000, 8192}

func runFig3(p Params) []*stats.Table {
	tab := stats.NewTable(
		"Figure 3: intranode single-trip mean latency, pushed buffer 12 KB",
		"size(B)", "single-trip µs, middle-80% mean")
	for _, mode := range []pushpull.Mode{pushpull.PushZero, pushpull.PushPull, pushpull.PushAll} {
		s := tab.AddSeries(mode.String())
		for _, n := range fig3Sizes {
			opts := pushpull.DefaultOptions()
			opts.Mode = mode
			opts.PushedBufBytes = 12 << 10
			w := Workload{Cluster: baseConfig(opts), Intra: true, Size: n, Iters: p.Iters}
			s.Add(float64(n), SingleTrip(w).TrimmedMean)
		}
	}
	return []*stats.Table{tab}
}

// fig4Variant describes one optimization combination of Figure 4.
type fig4Variant struct {
	label   string
	mask    bool
	overlap bool
}

func fig4Variants() []fig4Variant {
	return []fig4Variant{
		{"no-optimization", false, false},
		{"mask-only", true, false},
		{"overlap-only", false, true},
		{"full-optimization", true, true},
	}
}

func fig4Options(v fig4Variant) pushpull.Options {
	opts := pushpull.DefaultOptions()
	opts.MaskTranslation = v.mask
	// Masking requires (and implies) the user-level trigger; the other
	// variants go through the kernel driver path.
	opts.UserTrigger = v.mask
	opts.OverlapAck = v.overlap
	return opts
}

var fig4Sizes = []int{4, 100, 200, 400, 600, 760, 800, 1000, 1200, 1400}

func runFig4(p Params) []*stats.Table {
	tab := stats.NewTable(
		"Figure 4: internode single-trip mean latency under optimizing techniques",
		"size(B)", "single-trip µs, middle-80% mean")
	for _, v := range fig4Variants() {
		s := tab.AddSeries(v.label)
		for _, n := range fig4Sizes {
			w := Workload{Cluster: baseConfig(fig4Options(v)), Size: n, Iters: p.Iters}
			s.Add(float64(n), SingleTrip(w).TrimmedMean)
		}
	}
	return []*stats.Table{tab}
}

var fig6Sizes = []int{4, 1024, 2048, 3072, 4096, 5120, 6144, 7168, 8192}

// Early/late receiver NOP counts (paper §5.3).
const (
	earlyX, earlyY = 500_000, 100_000
	lateX, lateY   = 100_000, 300_000
)

func runFig6(p Params, x, y int64, what string) []*stats.Table {
	tab := stats.NewTable(
		fmt.Sprintf("Figure 6 (%s receiver): compute-then-communicate ping-pong, pushed buffer 4 KB", what),
		"size(B)", "single-trip µs, middle-80% mean")
	iters := p.Iters
	if iters > 200 {
		// Each iteration burns milliseconds of virtual compute (and the
		// Push-All collapse hundreds of ms); 200 iterations already give
		// a stable trimmed mean in a noise-free simulation.
		iters = 200
	}
	for _, mode := range []pushpull.Mode{pushpull.PushZero, pushpull.PushPull, pushpull.PushAll} {
		s := tab.AddSeries(mode.String())
		for _, n := range fig6Sizes {
			opts := pushpull.DefaultOptions()
			opts.Mode = mode
			opts.PushedBufBytes = 4096
			w := Workload{Cluster: baseConfig(opts), Size: n, Iters: iters}
			s.Add(float64(n), EarlyLate(w, x, y).TrimmedMean)
		}
	}
	return []*stats.Table{tab}
}

func runFig6Early(p Params) []*stats.Table { return runFig6(p, earlyX, earlyY, "early") }
func runFig6Late(p Params) []*stats.Table  { return runFig6(p, lateX, lateY, "late") }

func runBTP2(p Params) []*stats.Table {
	tab := stats.NewTable(
		"BTP(2) sweep at BTP(1)=0, 1400 B messages (overlap only)",
		"BTP2(B)", "single-trip µs, middle-80% mean")
	s := tab.AddSeries("push-pull")
	for btp2 := 0; btp2 <= 1400; btp2 += 100 {
		opts := pushpull.DefaultOptions()
		opts.BTP1 = 0
		opts.BTP2 = btp2
		opts.BTP = btp2
		w := Workload{Cluster: baseConfig(opts), Size: 1400, Iters: p.Iters}
		s.Add(float64(btp2), SingleTrip(w).TrimmedMean)
	}
	tab.Comment = fmt.Sprintf("paper picks BTP(2)=680; this run's minimum is at %g", argminX(s))
	return []*stats.Table{tab}
}

func runBTP1(p Params) []*stats.Table {
	tab := stats.NewTable(
		"BTP(1) sweep at BTP(2)=680, 1400 B messages",
		"BTP1(B)", "single-trip µs, middle-80% mean")
	s := tab.AddSeries("push-pull")
	for btp1 := 0; btp1 <= 400; btp1 += 20 {
		opts := pushpull.DefaultOptions()
		opts.BTP1 = btp1
		opts.BTP2 = 680
		opts.BTP = btp1 + 680
		w := Workload{Cluster: baseConfig(opts), Size: 1400, Iters: p.Iters}
		s.Add(float64(btp1), SingleTrip(w).TrimmedMean)
	}
	tab.Comment = fmt.Sprintf("paper picks BTP(1)=80; this run's minimum is at %g", argminX(s))
	return []*stats.Table{tab}
}

func argminX(s *stats.Series) float64 {
	bestX, bestY := 0.0, 0.0
	for i, pt := range s.Points {
		if i == 0 || pt.Y < bestY {
			bestX, bestY = pt.X, pt.Y
		}
	}
	return bestX
}

func runHeadline(p Params) []*stats.Table {
	tab := stats.NewTable("Headline numbers: paper vs this reproduction", "row", "value")
	paper := tab.AddSeries("paper")
	ours := tab.AddSeries("measured")
	row := 0
	add := func(name string, paperVal, ourVal float64) {
		tab.Comment += fmt.Sprintf("row %d: %s; ", row, name)
		paper.Add(float64(row), paperVal)
		ours.Add(float64(row), ourVal)
		row++
	}

	intra := pushpull.DefaultOptions()
	intra.PushedBufBytes = 12 << 10
	wIntra := Workload{Cluster: baseConfig(intra), Intra: true, Size: 10, Iters: p.Iters}
	add("intranode 10B single-trip µs", 7.5, SingleTrip(wIntra).TrimmedMean)

	peakIntra := 0.0
	for _, n := range []int{2000, 4000, 8192, 16384} {
		w := Workload{Cluster: baseConfig(intra), Intra: true, Size: n, Iters: p.Iters / 4}
		if bw := Bandwidth(w); bw > peakIntra {
			peakIntra = bw
		}
	}
	add("intranode peak bandwidth MB/s", 350.9, peakIntra)

	inter := pushpull.DefaultOptions()
	wInter := Workload{Cluster: baseConfig(inter), Size: 4, Iters: p.Iters}
	add("internode 4B single-trip µs", 34.9, SingleTrip(wInter).TrimmedMean)

	peakInter := 0.0
	for _, n := range []int{16384, 65536} {
		w := Workload{Cluster: baseConfig(inter), Size: n, Iters: p.Iters / 10}
		if bw := Bandwidth(w); bw > peakInter {
			peakInter = bw
		}
	}
	add("internode peak bandwidth MB/s", 12.1, peakInter)

	space := vm.NewAddressSpace("probe", vm.NewFrameAllocator(1<<24), vm.DefaultCostModel())
	addr := space.Alloc(64 << 10)
	add("address translation of a 64KB message µs (paper: ~12-13 hidden by masking)",
		12.5, space.TranslateCost(addr, 64<<10).Microseconds())

	pa := pushpull.DefaultOptions()
	pa.Mode = pushpull.PushAll
	pa.PushedBufBytes = 4096
	wPA := Workload{Cluster: baseConfig(pa), Size: 3072, Iters: 1}
	add("push-all late-receiver 3072B recovery ms (paper: ~150)",
		150, OneShot(wPA, sim.Duration(sim.Millisecond))/1000)

	return []*stats.Table{tab}
}

func runAblationInterrupt(p Params) []*stats.Table {
	tab := stats.NewTable(
		"Ablation: internode single-trip latency by handler invocation method",
		"size(B)", "single-trip µs, middle-80% mean")
	type pol struct {
		label  string
		policy smp.Policy
	}
	for _, pc := range []pol{{"symmetric", smp.Symmetric}, {"asymmetric-cpu0", smp.Asymmetric}, {"polling-5us", smp.Polling}} {
		s := tab.AddSeries(pc.label)
		for _, n := range []int{4, 760, 1400, 8192} {
			cfg := baseConfig(pushpull.DefaultOptions())
			cfg.Policy = pc.policy
			cfg.PolicyTarget = 0
			w := Workload{Cluster: cfg, Size: n, Iters: p.Iters / 2}
			s.Add(float64(n), SingleTrip(w).TrimmedMean)
		}
	}
	return []*stats.Table{tab}
}

func runAblationTrigger(p Params) []*stats.Table {
	tab := stats.NewTable(
		"Ablation: user-level trigger vs kernel driver transmit path (masking off to isolate)",
		"size(B)", "single-trip µs, middle-80% mean")
	for _, user := range []bool{true, false} {
		label := "kernel-trigger"
		if user {
			label = "user-trigger"
		}
		s := tab.AddSeries(label)
		for _, n := range []int{4, 200, 760, 1400} {
			opts := pushpull.DefaultOptions()
			opts.UserTrigger = user
			opts.MaskTranslation = false
			w := Workload{Cluster: baseConfig(opts), Size: n, Iters: p.Iters / 2}
			s.Add(float64(n), SingleTrip(w).TrimmedMean)
		}
	}
	return []*stats.Table{tab}
}

func runAblationZeroBuf(p Params) []*stats.Table {
	lat := stats.NewTable(
		"Ablation: intranode latency, zero buffer vs shared-segment double copy",
		"size(B)", "single-trip µs, middle-80% mean")
	bw := stats.NewTable(
		"Ablation: intranode bandwidth, zero buffer vs shared-segment double copy",
		"size(B)", "MB/s")
	for _, zero := range []bool{true, false} {
		label := "double-copy"
		if zero {
			label = "zero-buffer"
		}
		sl := lat.AddSeries(label)
		sb := bw.AddSeries(label)
		opts := pushpull.DefaultOptions()
		opts.DisableZeroBuffer = !zero
		opts.PushedBufBytes = 64 << 10
		for _, n := range []int{1000, 4000, 8192, 16384} {
			w := Workload{Cluster: baseConfig(opts), Intra: true, Size: n, Iters: p.Iters / 2}
			sl.Add(float64(n), SingleTrip(w).TrimmedMean)
			sb.Add(float64(n), Bandwidth(w))
		}
	}
	return []*stats.Table{lat, bw}
}

// runAblationPullCPU measures how much a co-scheduled computation slows
// down when the intranode pull threads run on its CPU instead of an idle
// one: the §4.1 overlap argument, quantified.
func runAblationPullCPU(p Params) []*stats.Table {
	tab := stats.NewTable(
		"Ablation: compute slowdown from pull placement (100 x 8 KB messages during a 10 ms computation)",
		"row", "worker completion ms")
	labels := []string{"least-loaded", "receiver-cpu"}
	tab.Comment = "row 0: worker co-located with the receiving process (CPU 1)"
	for _, label := range labels {
		s := tab.AddSeries(label)
		opts := pushpull.DefaultOptions()
		opts.PushedBufBytes = 64 << 10
		opts.PullLocal = label == "receiver-cpu"
		cfg := baseConfig(opts)
		cfg.Nodes = 1
		cfg.ProcsPerNode = 2
		c := cluster.New(cfg)
		a, b := c.Endpoint(0, 0), c.Endpoint(0, 1)
		const msgs = 100
		const msgSize = 8192
		src, dst := a.Alloc(msgSize), b.Alloc(msgSize)
		payload := make([]byte, msgSize)
		c.Spawn(0, a.CPU, "sender", func(t *smp.Thread) {
			for i := 0; i < msgs; i++ {
				must(a.Send(t, b.ID, src, payload))
			}
		})
		c.Spawn(0, b.CPU, "receiver", func(t *smp.Thread) {
			for i := 0; i < msgs; i++ {
				_, err := b.Recv(t, a.ID, dst, msgSize)
				must(err)
			}
		})
		var workerDone sim.Time
		// The worker shares CPU 1 with the receiving process.
		c.Spawn(0, b.CPU, "worker", func(t *smp.Thread) {
			t.Compute(2_000_000) // 10 ms at 200 MHz
			workerDone = t.Now()
		})
		c.Run()
		c.Shutdown()
		s.Add(0, sim.Duration(workerDone).Microseconds()/1000)
	}
	return []*stats.Table{tab}
}

// runMultiRail measures internode bandwidth at 64 KB messages with 1-4
// NICs per node, demonstrating the §6 extension: fragments stripe across
// rails, so aggregate bandwidth approaches rails x 12.1 MB/s.
func runMultiRail(p Params) []*stats.Table {
	tab := stats.NewTable(
		"Extension: internode bandwidth vs NIC rails (64 KB messages)",
		"rails", "MB/s")
	s := tab.AddSeries("push-pull")
	for rails := 1; rails <= 4; rails++ {
		opts := pushpull.DefaultOptions()
		opts.PushedBufBytes = 64 << 10
		cfg := baseConfig(opts)
		cfg.Rails = rails
		w := Workload{Cluster: cfg, Size: 64 << 10, Iters: p.Iters / 20}
		s.Add(float64(rails), Bandwidth(w))
	}
	return []*stats.Table{tab}
}

// runAblationPolling sweeps the polling period: short periods approach
// (and beat) interrupt latency at the cost of a busy processor; long
// periods quantize every frame arrival up to the period.
func runAblationPolling(p Params) []*stats.Table {
	tab := stats.NewTable(
		"Ablation: internode 4 B single-trip latency vs reception method",
		"poll period µs (0 = symmetric interrupt)", "single-trip µs, middle-80% mean")
	s := tab.AddSeries("latency")
	// Baseline: symmetric interrupts.
	base := baseConfig(pushpull.DefaultOptions())
	w := Workload{Cluster: base, Size: 4, Iters: p.Iters / 2}
	s.Add(0, SingleTrip(w).TrimmedMean)
	for _, period := range []sim.Duration{1, 2, 5, 10, 20, 50} {
		cfg := baseConfig(pushpull.DefaultOptions())
		cfg.Policy = smp.Polling
		cfg.SMP.PollPeriod = period * sim.Microsecond
		w := Workload{Cluster: cfg, Size: 4, Iters: p.Iters / 2}
		s.Add(float64(period), SingleTrip(w).TrimmedMean)
	}
	return []*stats.Table{tab}
}
