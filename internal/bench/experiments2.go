package bench

// Experiments beyond the paper's figures: the three-phase historical
// baseline, damaged-cable and hub topologies, the adaptive BTP
// controller, and the collective/application layer. Each is registered
// in All() and regenerable through cmd/pushpull-bench.

import (
	"fmt"

	"pushpull/coll"
	"pushpull/internal/adapt"
	"pushpull/internal/cluster"
	"pushpull/internal/gbn"
	"pushpull/internal/pushpull"
	"pushpull/internal/sim"
	"pushpull/internal/smp"
	"pushpull/internal/stats"
)

// threePhaseOptions is the classical protocol: no optimizations, kernel
// trigger, synchronous handshake.
func threePhaseOptions() pushpull.Options {
	opts := pushpull.DefaultOptions()
	opts.Mode = pushpull.ThreePhase
	opts.MaskTranslation = false
	opts.OverlapAck = false
	opts.UserTrigger = false
	return opts
}

var threePhaseSizes = []int{4, 100, 400, 760, 1400, 3000, 8192}

func runThreePhase(p Params) []*stats.Table {
	tab := stats.NewTable(
		"Three-phase handshake baseline vs Push-Pull (internode)",
		"size(B)", "single-trip µs, middle-80% mean")
	variants := []struct {
		label string
		opts  pushpull.Options
	}{
		{"three-phase", threePhaseOptions()},
		{"push-zero full-opt", func() pushpull.Options {
			o := pushpull.DefaultOptions()
			o.Mode = pushpull.PushZero
			return o
		}()},
		{"push-pull full-opt", pushpull.DefaultOptions()},
	}
	for _, v := range variants {
		s := tab.AddSeries(v.label)
		for _, n := range threePhaseSizes {
			w := Workload{Cluster: baseConfig(v.opts), Size: n, Iters: p.Iters}
			s.Add(float64(n), SingleTrip(w).TrimmedMean)
		}
	}
	tab.Comment = "the paper's §1 motivation: the handshake penalizes every size, worst in relative terms for short messages"
	return []*stats.Table{tab}
}

// lossRates swept by the damaged-cable ablation.
var lossRates = []float64{0, 0.0001, 0.001, 0.01, 0.05}

func runAblationLoss(p Params) []*stats.Table {
	iters := p.Iters
	if iters > 300 {
		iters = 300 // every recovery costs an RTO of virtual time
	}
	lossOpts := func() pushpull.Options {
		opts := pushpull.DefaultOptions()
		opts.GBN = gbn.Config{Window: 8, RTO: 2 * sim.Millisecond}
		return opts
	}

	lat := stats.NewTable(
		"Frame loss ablation: 1400 B internode single-trip latency vs loss rate (RTO 2 ms)",
		"loss(%)", "single-trip µs")
	trimmed := lat.AddSeries("middle-80% mean")
	plain := lat.AddSeries("plain mean")
	for _, rate := range lossRates {
		cfg := baseConfig(lossOpts())
		cfg.Net.LossRate = rate
		w := Workload{Cluster: cfg, Size: 1400, Iters: iters}
		sum := SingleTrip(w)
		trimmed.Add(rate*100, sum.TrimmedMean)
		plain.Add(rate*100, sum.Mean)
	}
	lat.Comment = "the paper's trimmed estimator hides rare recoveries at low loss rates; the plain mean exposes them"

	bw := stats.NewTable(
		"Frame loss ablation: 8192 B internode bandwidth vs loss rate (RTO 2 ms)",
		"loss(%)", "MB/s")
	s := bw.AddSeries("push-pull full-opt")
	for _, rate := range lossRates {
		cfg := baseConfig(lossOpts())
		cfg.Net.LossRate = rate
		w := Workload{Cluster: cfg, Size: 8192, Iters: iters}
		s.Add(rate*100, Bandwidth(w))
	}
	return []*stats.Table{lat, bw}
}

// hub topologies compared by the hub-vs-switch ablation.
func runHub(p Params) []*stats.Table {
	topologies := []struct {
		label string
		mut   func(*cluster.Config)
	}{
		{"back-to-back", func(*cluster.Config) {}},
		{"switch", func(c *cluster.Config) { c.UseSwitch = true }},
		{"hub (half-duplex)", func(c *cluster.Config) { c.UseHub = true }},
	}

	lat := stats.NewTable(
		"Topology ablation: internode single-trip latency",
		"size(B)", "single-trip µs, middle-80% mean")
	for _, topo := range topologies {
		s := lat.AddSeries(topo.label)
		for _, n := range []int{4, 760, 1400, 4096, 8192} {
			cfg := baseConfig(pushpull.DefaultOptions())
			topo.mut(&cfg)
			w := Workload{Cluster: cfg, Size: n, Iters: p.Iters}
			s.Add(float64(n), SingleTrip(w).TrimmedMean)
		}
	}

	bw := stats.NewTable(
		"Topology ablation: internode bandwidth (data and acks share the hub's one wire)",
		"size(B)", "MB/s")
	for _, topo := range topologies {
		s := bw.AddSeries(topo.label)
		for _, n := range []int{1400, 8192} {
			cfg := baseConfig(pushpull.DefaultOptions())
			topo.mut(&cfg)
			w := Workload{Cluster: cfg, Size: n, Iters: p.Iters}
			s.Add(float64(n), Bandwidth(w))
		}
	}
	bw.Comment = "the testbed (and every serious COMP of the era) used a switch or back-to-back cabling; the hub shows why"

	jit := stats.NewTable(
		"Topology ablation: 8192 B latency distribution (contention jitter the trimmed mean hides)",
		"percentile", "single-trip µs")
	for _, topo := range topologies {
		s := jit.AddSeries(topo.label)
		cfg := baseConfig(pushpull.DefaultOptions())
		topo.mut(&cfg)
		samples := SingleTripSamples(Workload{Cluster: cfg, Size: 8192, Iters: p.Iters})
		q := stats.QuantileSummary(samples)
		s.Add(50, q.P50)
		s.Add(90, q.P90)
		s.Add(99, q.P99)
	}
	return []*stats.Table{lat, bw, jit}
}

// adaptivePhases drives one sender through an early-receiver phase then a
// late-receiver phase and reports per-phase mean latency plus the wire
// bytes wasted on discarded pushes. The receiver clocks the exchange: it
// grants a 4-byte credit, optionally computes past the push's arrival
// (late phase), then posts its receive — so the lateness is a constant
// phase offset, not a drifting queue.
func adaptivePhases(p Params, adaptive bool) (early, late float64, wasted uint64, finalBTP int) {
	iters := p.Iters
	if iters > 200 {
		iters = 200
	}
	cfg := cluster.DefaultConfig()
	cfg.Opts.PushedBufBytes = 2048 // one ring slot: a late 2-fragment push overflows
	c := cluster.New(cfg)
	defer c.Shutdown()
	var ctl *adapt.Controller
	if adaptive {
		ac := adapt.DefaultConfig()
		// Never push more than the receiver's pushed buffer: beyond it a
		// fully pushed message both overflows (go-back-N recovery) and
		// yields no pull-request feedback to learn from.
		ac.Max = cfg.Opts.PushedBufBytes
		ctl = adapt.NewController(ac)
		c.Stacks[0].SetAdapter(ctl)
	}

	sender := c.Endpoint(0, 0)
	receiver := c.Endpoint(1, 0)
	const size = 3000
	msg := make([]byte, size)
	credit := []byte{1, 2, 3, 4}
	src := sender.Alloc(size)
	creditDst := sender.Alloc(4)
	dst := receiver.Alloc(size)
	creditSrc := receiver.Alloc(4)

	sendStart := make([]sim.Time, 2*iters)
	recvDone := make([]sim.Time, 2*iters)

	c.Nodes[0].Spawn("sender", sender.CPU, func(t *smp.Thread) {
		for i := 0; i < 2*iters; i++ {
			_, err := sender.Recv(t, receiver.ID, creditDst, 4)
			must(err)
			sendStart[i] = t.Now()
			must(sender.Send(t, receiver.ID, src, msg))
		}
	})
	c.Nodes[1].Spawn("receiver", receiver.CPU, func(t *smp.Thread) {
		for i := 0; i < 2*iters; i++ {
			must(receiver.Send(t, sender.ID, creditSrc, credit))
			if i >= iters {
				// Late phase: the push lands ~70 µs after the credit; the
				// receive is posted ~300 µs after it, every time.
				t.Compute(60_000)
			}
			_, err := receiver.Recv(t, sender.ID, dst, size)
			must(err)
			recvDone[i] = t.Now()
		}
	})
	c.Run()

	phase := func(from, to int) float64 {
		xs := make([]float64, 0, to-from)
		for i := from; i < to; i++ {
			xs = append(xs, recvDone[i].Sub(sendStart[i]).Microseconds())
		}
		return stats.TrimmedMean(xs, 0.10)
	}
	early, late = phase(0, iters), phase(iters, 2*iters)
	wasted = c.Stacks[1].DiscardedBytes()
	finalBTP = 760
	if ctl != nil {
		finalBTP = ctl.Current(pushpull.ChannelID{From: sender.ID, To: receiver.ID})
	}
	return early, late, wasted, finalBTP
}

func runAdaptive(p Params) []*stats.Table {
	tab := stats.NewTable(
		"Adaptive BTP (§3: \"applications can dynamically change the size of the pushed buffer\"): 3000 B messages, 2 KB pushed buffer",
		"phase (0=early recv, 1=late recv)", "send-to-complete µs, middle-80% mean")
	sEarly, sLate, dis, btp := adaptivePhases(p, false)
	aEarly, aLate, adis, abtp := adaptivePhases(p, true)
	st := tab.AddSeries("static BTP=760")
	st.Add(0, sEarly)
	st.Add(1, sLate)
	ad := tab.AddSeries("adaptive AIMD")
	ad.Add(0, aEarly)
	ad.Add(1, aLate)
	tab.Comment = fmt.Sprintf(
		"static: %d B of pushes discarded and re-pulled, BTP stays %d; adaptive: %d B wasted, BTP ends at %d — AIMD finds the largest push the late receiver's buffer absorbs",
		dis, btp, adis, abtp)
	return []*stats.Table{tab}
}

// runCollective measures allreduce at the application layer across
// messaging modes on a four-node COMP.
func runCollective(p Params) []*stats.Table {
	iters := p.Iters
	if iters > 50 {
		iters = 50 // each iteration is a full collective on 4 nodes
	}
	tab := stats.NewTable(
		"Collective layer: 4-node allreduce (recursive doubling) vs vector size",
		"vector(B)", "µs per allreduce, mean over iterations")
	modes := []pushpull.Mode{pushpull.PushPull, pushpull.PushZero, pushpull.PushAll, pushpull.ThreePhase}
	for _, mode := range modes {
		s := tab.AddSeries(mode.String())
		for _, vec := range []int{64, 1024, 8192} {
			cfg := cluster.DefaultConfig()
			cfg.Nodes = 4
			cfg.Opts.Mode = mode
			cfg.Opts.PushedBufBytes = 64 << 10
			w := coll.NewWorld(cluster.New(cfg))
			var start, end sim.Time
			vecBytes := vec
			w.Run(func(r *coll.Rank) {
				data := make([]byte, vecBytes)
				for i := range data {
					data[i] = byte(r.ID() + i)
				}
				r.Barrier()
				if r.ID() == 0 {
					start = r.Thread().Now()
				}
				for i := 0; i < iters; i++ {
					r.AllReduce(data, coll.XorBytes, coll.WithAlgorithm(coll.RecursiveDoubling))
				}
				r.Barrier()
				if r.ID() == 0 {
					end = r.Thread().Now()
				}
			})
			w.Cluster().Shutdown()
			s.Add(float64(vec), end.Sub(start).Microseconds()/float64(iters))
		}
	}
	tab.Comment = "collective steps are the §5.3 early/late races; push-pull stays near the per-pattern best while three-phase pays its handshake on every exchange"
	return []*stats.Table{tab}
}

// LongVectorCollective runs iters of body on a fresh ranks-node
// switched COMP and reports the mean per-op virtual time plus the
// busiest node's transmitted wire bytes per op — the volume metric the
// bandwidth-optimal schedules are judged by (a balanced schedule has no
// hot node; a rooted tree concentrates full vectors on the root). The
// root bench2 rows and the longvector experiment share it.
func LongVectorCollective(ranks, iters int, body func(r *coll.Rank)) (perOp, maxTxPerOp float64) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = ranks
	cfg.UseSwitch = true
	cfg.Opts.PushedBufBytes = 64 << 10
	c := cluster.New(cfg)
	defer c.Shutdown()
	w := coll.NewWorld(c)
	var start, end sim.Time
	w.Run(func(r *coll.Rank) {
		r.Barrier()
		if r.ID() == 0 {
			start = r.Thread().Now()
		}
		for i := 0; i < iters; i++ {
			body(r)
		}
		r.Barrier()
		if r.ID() == 0 {
			end = r.Thread().Now()
		}
	})
	var maxTx uint64
	for _, st := range c.Stacks {
		if tx := st.NIC().TxBytes(); tx > maxTx {
			maxTx = tx
		}
	}
	return end.Sub(start).Microseconds() / float64(iters), float64(maxTx) / float64(iters)
}

// runLongVector characterizes the long-vector algorithms: the segmented
// ring Bcast (pipelined chain) against the plain store-and-forward
// ring, and the reduce-scatter + allgather AllReduce against the
// rooted tree, on an eight-node switched COMP.
func runLongVector(p Params) []*stats.Table {
	iters := p.Iters
	if iters > 10 {
		iters = 10 // every iteration moves hundreds of KB through the switch
	}
	const ranks = 8
	sizes := []int{16 << 10, 64 << 10, 256 << 10}

	bc := stats.NewTable(
		"Long-vector Bcast on 8 switched ranks: store-and-forward ring vs segmented (pipelined) ring",
		"vector(B)", "µs per bcast, mean over iterations")
	for _, v := range []struct {
		label string
		opts  []coll.Opt
	}{
		{"ring (store-and-forward)", []coll.Opt{coll.WithAlgorithm(coll.Ring)}},
		{"ring-seg (8 KiB segments)", []coll.Opt{coll.WithAlgorithm(coll.RingSegmented), coll.WithSegment(8192)}},
	} {
		s := bc.AddSeries(v.label)
		for _, n := range sizes {
			data := make([]byte, n)
			perOp, _ := LongVectorCollective(ranks, iters, func(r *coll.Rank) {
				var src []byte
				if r.ID() == 0 {
					src = data
				}
				r.Bcast(0, src, n, v.opts...)
			})
			s.Add(float64(n), perOp)
		}
	}
	bc.Comment = "segmentation keeps all 7 links busy at once: completion ~T(n) + 6·T(seg) instead of 7·T(n)"

	art := stats.NewTable(
		"Long-vector AllReduce on 8 switched ranks: rooted tree vs reduce-scatter + allgather",
		"vector(B)", "µs per allreduce, mean over iterations")
	arv := stats.NewTable(
		"Long-vector AllReduce volume: busiest node's transmitted wire bytes per operation",
		"vector(B)", "B per op at the hottest NIC")
	for _, v := range []struct {
		label string
		alg   coll.Algorithm
	}{
		{"tree (reduce+bcast)", coll.Tree},
		{"rs-ag (reduce-scatter+allgather)", coll.RSAG},
	} {
		st := art.AddSeries(v.label)
		sv := arv.AddSeries(v.label)
		for _, n := range sizes {
			alg := v.alg
			perOp, maxTx := LongVectorCollective(ranks, iters, func(r *coll.Rank) {
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(r.ID() + i)
				}
				r.AllReduce(data, coll.XorBytes, coll.WithAlgorithm(alg))
			})
			st.Add(float64(n), perOp)
			sv.Add(float64(n), maxTx)
		}
	}
	arv.Comment = "the tree's root moves ⌈log2 n⌉ full vectors each way; rs-ag moves 2·(n-1)/n of one vector per rank, evenly"
	return []*stats.Table{bc, art, arv}
}

// runScale measures an 8 KB ring allgather while the COMP grows — the
// multi-node scalability the paper's conclusion reaches toward.
func runScale(p Params) []*stats.Table {
	iters := p.Iters
	if iters > 30 {
		iters = 30
	}
	tab := stats.NewTable(
		"Scalability: 8 KB-per-rank ring allgather vs node count (store-and-forward switch)",
		"nodes", "µs per allgather, mean over iterations")
	for _, mode := range []pushpull.Mode{pushpull.PushPull, pushpull.PushAll} {
		s := tab.AddSeries(mode.String())
		for _, nodes := range []int{2, 3, 4, 6} {
			cfg := cluster.DefaultConfig()
			cfg.Nodes = nodes
			cfg.UseSwitch = true
			cfg.Opts.Mode = mode
			cfg.Opts.PushedBufBytes = 64 << 10
			w := coll.NewWorld(cluster.New(cfg))
			var start, end sim.Time
			w.Run(func(r *coll.Rank) {
				data := make([]byte, 8192)
				r.Barrier()
				if r.ID() == 0 {
					start = r.Thread().Now()
				}
				for i := 0; i < iters; i++ {
					r.AllGather(data, 8192)
				}
				r.Barrier()
				if r.ID() == 0 {
					end = r.Thread().Now()
				}
			})
			w.Cluster().Shutdown()
			s.Add(float64(nodes), end.Sub(start).Microseconds()/float64(iters))
		}
	}
	tab.Comment = "ring steps grow linearly with nodes; each step is bounded by the 100 Mbit/s wire, so the curve is near-linear until switch queues contend"
	return []*stats.Table{tab}
}
