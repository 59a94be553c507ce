package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"time"

	"pushpull/internal/cluster"
	"pushpull/internal/scenario"
	"pushpull/internal/trace"
)

// outcome is one scenario run as the benchmark saw it from outside.
type outcome struct {
	name   string
	dur    time.Duration
	digest string
	err    error
	work   work
}

// work is the simulated work one run reports in its Result. Every field
// is deterministic for a given spec and seed, so a host-only change
// must leave all of them exactly as they were.
type work struct {
	events, nicTx, nicRx, push, direct, park, discard, refuse, pullReq,
	retransmit, rto, receives, bytes, discardedBytes uint64
	virtualMS float64
}

func (a *work) add(b work) {
	a.events += b.events
	a.nicTx += b.nicTx
	a.nicRx += b.nicRx
	a.push += b.push
	a.direct += b.direct
	a.park += b.park
	a.discard += b.discard
	a.refuse += b.refuse
	a.pullReq += b.pullReq
	a.retransmit += b.retransmit
	a.rto += b.rto
	a.receives += b.receives
	a.bytes += b.bytes
	a.discardedBytes += b.discardedBytes
	a.virtualMS += b.virtualMS
}

func workOf(r *scenario.Result) work {
	w := work{
		nicTx:          r.Events[string(trace.KindNICTx)],
		nicRx:          r.Events[string(trace.KindNICRx)],
		push:           r.Events[string(trace.KindPush)],
		direct:         r.Events[string(trace.KindDirect)],
		park:           r.Events[string(trace.KindPark)],
		discard:        r.Events[string(trace.KindDiscard)],
		refuse:         r.Events[string(trace.KindRefuse)],
		pullReq:        r.Events[string(trace.KindPullReq)],
		retransmit:     r.Events[string(trace.KindRetransmit)],
		rto:            r.Events[string(trace.KindRTO)],
		receives:       r.Receives,
		bytes:          r.Bytes,
		discardedBytes: r.DiscardedBytes,
		virtualMS:      r.VirtualUS / 1000,
	}
	for _, n := range r.Events {
		w.events += n
	}
	return w
}

// runOne runs one spec and times the public call. A panic out of the
// model is a failed run, not a dead benchmark.
func runOne(s scenario.Spec) (o outcome) {
	o.name = s.Name
	defer func() {
		if r := recover(); r != nil {
			o.err = fmt.Errorf("panic: %v", r)
		}
	}()
	start := time.Now()
	res, err := scenario.Run(s)
	o.dur = time.Since(start)
	if err != nil {
		o.err = err
		return o
	}
	o.digest = res.Digest
	o.work = workOf(res)
	return o
}

// pass is one execution of every run of a workload.
type pass struct {
	wall time.Duration
	runs []outcome
}

func (p pass) events() uint64 {
	var n uint64
	for _, o := range p.runs {
		n += o.work.events
	}
	return n
}

func (p pass) busy() time.Duration {
	var d time.Duration
	for _, o := range p.runs {
		d += o.dur
	}
	return d
}

// runPass runs every spec of w once on a pool of the given size.
func runPass(w *workload, workers int) pass {
	runs := make([]outcome, len(w.specs))
	start := time.Now()
	scenario.ParallelFor(len(w.specs), workers, func(i int) {
		runs[i] = runOne(w.specs[i])
	})
	return pass{wall: time.Since(start), runs: runs}
}

// failures counts the runs of p that failed: an error (which includes
// an exhausted virtual-time budget), a panic, or a digest other than
// want's entry for the same run.
func failures(p pass, want []string) int {
	n := 0
	for i, o := range p.runs {
		if o.err != nil || o.digest != want[i] {
			n++
		}
	}
	return n
}

// aggregateDigest hashes every run's name and digest (or error) in run
// order: two passes agree iff all their runs do.
func aggregateDigest(p pass) string {
	h := sha256.New()
	for i, o := range p.runs {
		if o.err != nil {
			fmt.Fprintf(h, "%d %s error %v\n", i, o.name, o.err)
			continue
		}
		fmt.Fprintf(h, "%d %s %s\n", i, o.name, o.digest)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// setupPass times cluster.New plus Shutdown for every run of w, on the
// cluster each run builds, and returns each construction's duration.
func setupPass(w *workload) []time.Duration {
	out := make([]time.Duration, len(w.specs))
	for i, s := range w.specs {
		cfg := constructionConfig(s)
		start := time.Now()
		c := cluster.New(cfg)
		c.Shutdown()
		out[i] = time.Since(start)
	}
	return out
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Runtime metrics read around a measured window.
const (
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mAllocObjects = "/gc/heap/allocs:objects"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mHeapLive     = "/gc/heap/live:bytes"
	mCPUGC        = "/cpu/classes/gc/total:cpu-seconds"
	mCPUTotal     = "/cpu/classes/total:cpu-seconds"
	mCPUIdle      = "/cpu/classes/idle:cpu-seconds"
	mSchedLat     = "/sched/latencies:seconds"
)

var runtimeMetricNames = []string{
	mAllocBytes, mAllocObjects, mGCCycles, mHeapLive, mCPUGC, mCPUTotal, mCPUIdle, mSchedLat,
}

// rtSnapshot is one read of the runtime metrics above.
type rtSnapshot map[string]metrics.Value

func readRuntime() rtSnapshot {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	snap := make(rtSnapshot, len(samples))
	for _, s := range samples {
		snap[s.Name] = s.Value
	}
	return snap
}

func (s rtSnapshot) num(name string) float64 {
	v := s[name]
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	panic(fmt.Sprintf("runtime metric %s is not scalar on this Go version", name))
}

// delta is after minus before for a scalar metric.
func delta(before, after rtSnapshot, name string) float64 {
	return after.num(name) - before.num(name)
}

// histQuantile returns the q-quantile of the samples added to a
// runtime histogram between two snapshots, as the upper bound of the
// bucket holding it (the lower bound when that is +Inf).
func histQuantile(before, after rtSnapshot, name string, q float64) float64 {
	a := after[name].Float64Histogram()
	b := before[name].Float64Histogram()
	counts := make([]uint64, len(a.Counts))
	var total uint64
	for i := range a.Counts {
		counts[i] = a.Counts[i] - b.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			hi := a.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return a.Buckets[i]
			}
			return hi
		}
	}
	return a.Buckets[len(a.Buckets)-1]
}
