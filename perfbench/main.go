// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one named workload of scenario runs through the
// public internal/scenario API for a fixed host-time window, checks
// every run's digest, and prints each metric by name and unit, ending
// with one JSON line:
//
//	go build -o perfbench . && ./perfbench --workload sweep-ci --seed 0 --seconds 10 --trace 0
//
// Run it from the repository root (perfbench/run.sh builds and runs it
// there). --trace 0 measures the end-to-end metrics; --trace 1 makes a
// separate profiled run that splits host CPU across the repository's
// packages and reports the per-layer metrics. Nothing inside the
// program is instrumented: every time is taken around a public call.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minRuns is the size of a block of timed runs: it leaves at least ten
// samples beyond the block's nearest-rank p90. minPasses gives every
// median over passes a few samples even when one pass outlasts the
// window.
const (
	minRuns   = 110
	minPasses = 3
)

// setupWindow is the host time spent on repeated set-up measurement,
// and minSetupReps the fewest repetitions, so the reported median
// rests on many samples.
const (
	setupWindow  = 2 * time.Second
	minSetupReps = 7
)

func main() {
	workloadName := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 0, "offset added to every run's seed; 0 checks against the pinned digests")
	seconds := flag.Float64("seconds", 10, "host seconds of measured passes")
	traced := flag.Int("trace", 0, "1 makes the profiled per-layer run instead of the end-to-end one")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	w, err := newWorkload(*workloadName, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := measure(os.Stdout, w, *seed, ".", "perfbench", time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the state of one benchmark invocation.
type run struct {
	w      *workload
	out    io.Writer
	want   []string // each run's expected digest
	ref    pass     // the one-worker reference pass
	tried  int
	failed int
	vals   map[string]float64
}

// check counts p's runs and failures, and names the first failing run.
func (r *run) check(p pass) {
	r.tried += len(p.runs)
	n := failures(p, r.want)
	if n > 0 && r.failed == 0 {
		for i, o := range p.runs {
			if o.err != nil || o.digest != r.want[i] {
				fmt.Fprintf(os.Stderr, "perfbench: run %q failed: err=%v digest=%s want %s\n", o.name, o.err, o.digest, r.want[i])
				break
			}
		}
	}
	r.failed += n
}

// measure runs workload w and returns the result line. root is the
// repository root and dir the benchmark's directory, both relative to
// the working directory.
func measure(out io.Writer, w *workload, seed uint64, root, dir string, window time.Duration, traced bool) (*result, error) {
	r := &run{w: w, out: out, vals: make(map[string]float64)}
	fmt.Fprintf(out, "workload %s: %d runs per pass, closed loop, %d worker(s), seed offset %d, GOMAXPROCS %d, nproc %d\n",
		w.name, len(w.specs), w.workers, seed, runtime.GOMAXPROCS(0), runtime.NumCPU())

	// The reference pass runs on one worker. It warms the heap and
	// caches, fixes the expected digests at a seed nobody pinned, and
	// gives the worker-count check its single-worker side.
	r.ref = runPass(w, 1)
	if seed == 0 {
		want, err := expectedDigests(w, root, dir)
		if err != nil {
			return nil, err
		}
		r.want = want
	} else {
		r.want = make([]string, len(r.ref.runs))
		for i, o := range r.ref.runs {
			r.want[i] = o.digest
		}
	}
	r.check(r.ref)
	fmt.Fprintf(out, "digest %s (reference pass, 1 worker)\n", aggregateDigest(r.ref))

	// Set-up is measured after the passes, so its allocation churn
	// cannot set the peak RSS the passes report.
	if traced {
		if err := r.perLayer(window); err != nil {
			return nil, err
		}
		_, r.vals["span.cluster_new_ms"] = r.measureSetup()
	} else {
		agg, err := r.endToEnd(window)
		if err != nil {
			return nil, err
		}
		r.vals["setup_s"], _ = r.measureSetup()
		fmt.Fprintf(out, "digest %s (first measured pass, %d worker(s))\n", agg, w.workers)
	}
	fmt.Fprintf(out, "fail_rate %g (%d failed of %d runs attempted)\n", float64(r.failed)/float64(r.tried), r.failed, r.tried)

	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := r.vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "  %-24s %14.6g %-6s %s\n", d.name, v, d.unit, d.note)
	}
	if len(r.vals) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, declared %d", len(r.vals), len(defs))
	}
	return &result{
		Correct:   r.failed == 0,
		Attempted: r.tried,
		Failed:    r.failed,
		Metrics:   metrics,
	}, nil
}

// measureSetup times cluster construction and teardown for every run
// of a pass, repeatedly, and returns the median seconds per pass and
// the median milliseconds per construction.
func (r *run) measureSetup() (perPass, perConstruction float64) {
	var passes, each []float64
	start := time.Now()
	for len(passes) < minSetupReps || time.Since(start) < setupWindow {
		var sum time.Duration
		for _, d := range setupPass(r.w) {
			sum += d
			each = append(each, float64(d)/float64(time.Millisecond))
		}
		passes = append(passes, sum.Seconds())
	}
	fmt.Fprintf(r.out, "setup: %d repetitions of %d constructions\n", len(passes), len(r.w.specs))
	return median(passes), median(each)
}

// passes runs w's closed loop until the window has elapsed and at
// least minPasses passes have been timed.
func (r *run) passes(window time.Duration, after func(pass)) []pass {
	var ps []pass
	start := time.Now()
	for time.Since(start) < window || len(ps) < minPasses {
		p := runPass(r.w, r.w.workers)
		r.check(p)
		ps = append(ps, p)
		if after != nil {
			after(p)
		}
	}
	return ps
}

// endToEnd measures the end-to-end metrics with profiling off and
// returns the first measured pass's aggregate digest. Every figure is a
// median over parts of the window, so a burst of load from outside the
// process moves it less than it would a pooled figure. The run-time
// median is taken per pass: a pass holds one run of each spec, so its
// median comes from the middle specs' typical runs, where a pooled
// median would sit on the edge between two specs' clusters of times. The p90 and the peak RSS are taken
// per block of consecutive passes holding at least minRuns runs; runs
// after the last full block count towards the other figures only.
func (r *run) endToEnd(window time.Duration) (string, error) {
	var (
		ps                 []pass
		rates, walls, runs []float64
		p50s, p90s, peaks  []float64
	)
	if err := resetPeakRSS(); err != nil {
		return "", err
	}
	before := readRuntime()
	begin := time.Now()
	for time.Since(begin) < window || len(p90s) == 0 {
		p := runPass(r.w, r.w.workers)
		r.check(p)
		ps = append(ps, p)
		rates = append(rates, float64(p.events())/p.wall.Seconds())
		walls = append(walls, p.wall.Seconds())
		start := len(runs)
		for _, o := range p.runs {
			runs = append(runs, float64(o.dur)/float64(time.Millisecond))
		}
		p50s = append(p50s, median(runs[start:]))
		if len(runs) < minRuns {
			continue
		}
		rss, err := peakRSSMB()
		if err != nil {
			return "", err
		}
		if err := resetPeakRSS(); err != nil {
			return "", err
		}
		peaks = append(peaks, rss)
		p90s = append(p90s, quantile(runs, 0.9))
		runs = runs[:0]
	}
	after := readRuntime()

	n := 0
	for _, p := range ps {
		n += len(p.runs)
	}
	r.vals["events_per_s"] = median(rates)
	r.vals["run_ms_p50"] = median(p50s)
	r.vals["run_ms_p90"] = median(p90s)
	r.vals["alloc_mb_per_run"] = delta(before, after, mAllocBytes) / float64(n) / (1 << 20)
	r.vals["allocs_per_run"] = delta(before, after, mAllocObjects) / float64(n)
	r.vals["peak_rss_mb"] = median(peaks)
	fmt.Fprintf(r.out, "passes %d (median %.4f s), runs %d; run_ms_p90 and peak RSS: median over %d blocks of >= %d runs\n",
		len(ps), median(walls), n, len(p90s), minRuns)
	return aggregateDigest(ps[0]), nil
}

// perLayer measures the per-layer metrics: runtime and pool figures
// from an unprofiled half of the window, the CPU split from a profiled
// half, and the simulated work from the reference pass.
func (r *run) perLayer(window time.Duration) error {
	half := window / 2

	var heapLive []float64
	before := readRuntime()
	cpu0, err := cpuTime()
	if err != nil {
		return err
	}
	start := time.Now()
	plain := r.passes(half, func(pass) {
		heapLive = append(heapLive, readRuntime().num(mHeapLive)/(1<<20))
	})
	elapsed := time.Since(start)
	cpu1, err := cpuTime()
	if err != nil {
		return err
	}
	cpu := cpu1 - cpu0
	after := readRuntime()

	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("starting the CPU profile: %w", err)
	}
	profiled := r.passes(half, nil)
	pprof.StopCPUProfile()
	shares, samples, err := layerShares(buf.Bytes())
	if err != nil {
		return err
	}

	var runs int
	var wall, busy time.Duration
	var nsPerEvent, plainWall, profWall []float64
	for _, p := range plain {
		runs += len(p.runs)
		wall += p.wall
		busy += p.busy()
		nsPerEvent = append(nsPerEvent, float64(p.wall.Nanoseconds())/float64(p.events()))
		plainWall = append(plainWall, p.wall.Seconds())
	}
	for _, p := range profiled {
		profWall = append(profWall, p.wall.Seconds())
	}

	named := 0.0
	for _, l := range layerNames {
		r.vals["cpu."+l] = shares[l]
		if l != "rt_other" {
			named += shares[l]
		}
	}
	r.vals["cpu.named"] = named
	r.vals["cpu.samples"] = float64(samples)
	r.vals["cpu.profile_overhead"] = median(profWall) / median(plainWall)
	r.vals["ns_per_event"] = median(nsPerEvent)
	r.vals["pool.busy_share"] = busy.Seconds() / (float64(r.w.workers) * wall.Seconds())
	r.vals["rt.cpu_util"] = cpu.Seconds() / (elapsed.Seconds() * float64(runtime.GOMAXPROCS(0)))
	used := delta(before, after, mCPUTotal) - delta(before, after, mCPUIdle)
	r.vals["rt.gc_cpu_share"] = delta(before, after, mCPUGC) / used
	r.vals["rt.gc_cycles_per_run"] = delta(before, after, mGCCycles) / float64(runs)
	r.vals["rt.heap_live_mb"] = median(heapLive)
	r.vals["rt.sched_wait_us_p50"] = histQuantile(before, after, mSchedLat, 0.5) * 1e6
	r.vals["rt.sched_wait_us_p90"] = histQuantile(before, after, mSchedLat, 0.9) * 1e6

	var wk work
	for _, o := range r.ref.runs {
		wk.add(o.work)
	}
	r.vals["work.events"] = float64(wk.events)
	r.vals["work.nic_tx"] = float64(wk.nicTx)
	r.vals["work.nic_rx"] = float64(wk.nicRx)
	r.vals["work.push"] = float64(wk.push)
	r.vals["work.direct"] = float64(wk.direct)
	r.vals["work.park"] = float64(wk.park)
	r.vals["work.discard"] = float64(wk.discard)
	r.vals["work.refuse"] = float64(wk.refuse)
	r.vals["work.pull_req"] = float64(wk.pullReq)
	r.vals["work.receives"] = float64(wk.receives)
	r.vals["work.virtual_ms"] = wk.virtualMS
	r.vals["work.retransmit"] = float64(wk.retransmit)
	r.vals["work.rto"] = float64(wk.rto)
	r.vals["ratio.one_copy"] = ratio(wk.direct, wk.direct+wk.park)
	r.vals["ratio.useful_frames"] = ratio(wk.nicTx-wk.retransmit, wk.nicTx)
	r.vals["ratio.discarded_bytes"] = ratio(wk.discardedBytes, wk.bytes)

	fmt.Fprintf(r.out, "unprofiled: %d passes (median %.4f s), %d runs; profiled: %d passes (median %.4f s), %d CPU samples\n",
		len(plain), median(plainWall), runs, len(profiled), median(profWall), samples)
	r.layerTable(shares, samples)
	return nil
}

// layerTable prints the profiled CPU split, largest layer first.
func (r *run) layerTable(shares map[string]float64, samples int64) {
	ls := append([]string(nil), layerNames...)
	sort.SliceStable(ls, func(i, j int) bool { return shares[ls[i]] > shares[ls[j]] })
	fmt.Fprintf(r.out, "layer      share  (of %d samples)\n", samples)
	for _, l := range ls {
		fmt.Fprintf(r.out, "  %-9s %6.2f%%\n", l, 100*shares[l])
	}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// resetPeakRSS restarts the kernel's peak-RSS counter from the current
// resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB
// since the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
