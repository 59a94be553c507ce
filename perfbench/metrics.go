package main

import (
	"syscall"
	"time"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names and units. The note says how an end-to-end metric is measured,
// and which end-to-end metric a per-layer one should move, on which
// workload.
type metricDef struct {
	name, unit, note string
}

// endToEndMetrics are measured with profiling off (--trace 0).
var endToEndMetrics = []metricDef{
	{"events_per_s", "1/s", "simulated protocol events (sum of Result.Events) per host second of a pass, median over passes"},
	{"run_ms_p50", "ms", "host ms per scenario run: median run of each pass, median over passes"},
	{"run_ms_p90", "ms", "host ms per scenario run: nearest-rank p90 of each block (>= 11 samples beyond it), median over blocks"},
	{"alloc_mb_per_run", "MB", "heap MiB allocated per run (runtime/metrics)"},
	{"allocs_per_run", "count", "heap objects allocated per run (runtime/metrics)"},
	{"peak_rss_mb", "MB", "peak resident set (VmHWM, MiB) during each block, median over blocks"},
	{"setup_s", "s", "host s per pass in cluster.New plus Shutdown, median over repetitions"},
}

// perLayerMetrics are measured by the profiled run (--trace 1).
var perLayerMetrics = []metricDef{
	{"cpu.trace", "share", "events_per_s, alloc_mb_per_run on all three"},
	{"cpu.vm", "share", "setup_s, run_ms_p50 on sweep-ci; no change on stream-long"},
	{"cpu.rt_stack", "share", "run_ms_p90 on stream-long and collective"},
	{"cpu.rt_sched", "share", "run_ms_p90 on stream-long and collective"},
	{"cpu.smp", "share", "run_ms_p90 on stream-long and collective"},
	{"cpu.sim", "share", "events_per_s on all three"},
	{"cpu.coll", "share", "run_ms_p50 on collective, a little on sweep-ci; zero on stream-long"},
	{"cpu.comm", "share", "run_ms_p50 on collective; small on stream-long"},
	{"cpu.gbn", "share", "run_ms_p50 on sweep-ci (lossy and fault points); zero-ish on stream-long"},
	{"cpu.fault", "share", "run_ms_p50 on sweep-ci (fault points); zero on stream-long"},
	{"cpu.scenario", "share", "run_ms_p50 on sweep-ci (sealing, pool)"},
	{"cpu.cluster", "share", "setup_s on sweep-ci"},
	{"cpu.mem", "share", "events_per_s on all three"},
	{"cpu.nic", "share", "events_per_s on stream-long"},
	{"cpu.ether", "share", "events_per_s on stream-long"},
	{"cpu.pushpull", "share", "events_per_s on stream-long and collective"},
	{"cpu.stats", "share", "run_ms_p50 on sweep-ci (result sealing)"},
	{"cpu.rt_gc", "share", "alloc_mb_per_run, peak_rss_mb on all three"},
	{"cpu.rt_other", "share", "unattributed remainder, including the benchmark's own frames"},
	{"cpu.named", "share", "share of samples in the 18 named layers (all but rt_other)"},
	{"cpu.samples", "count", "base of the cpu.* shares"},
	{"cpu.profile_overhead", "ratio", "profiled pass time / unprofiled pass time"},
	{"span.cluster_new_ms", "ms", "setup_s and run_ms_p50 on sweep-ci; no change on stream-long"},
	{"ns_per_event", "ns", "events_per_s on all three"},
	{"pool.busy_share", "share", "events_per_s on sweep-ci only"},
	{"rt.cpu_util", "share", "events_per_s on sweep-ci only"},
	{"rt.gc_cpu_share", "share", "alloc_mb_per_run, peak_rss_mb on all three"},
	{"rt.gc_cycles_per_run", "count", "alloc_mb_per_run, peak_rss_mb on all three"},
	{"rt.heap_live_mb", "MB", "alloc_mb_per_run, peak_rss_mb on all three"},
	{"rt.sched_wait_us_p50", "us", "run_ms_p90 on sweep-ci"},
	{"rt.sched_wait_us_p90", "us", "run_ms_p90 on sweep-ci"},
	{"work.events", "count", "simulated, per pass: identical under a host-only change"},
	{"work.nic_tx", "count", "simulated, per pass: identical under a host-only change"},
	{"work.nic_rx", "count", "simulated, per pass: identical under a host-only change"},
	{"work.push", "count", "simulated, per pass: identical under a host-only change"},
	{"work.direct", "count", "simulated, per pass: identical under a host-only change"},
	{"work.park", "count", "simulated, per pass: identical under a host-only change"},
	{"work.discard", "count", "simulated, per pass: identical under a host-only change"},
	{"work.refuse", "count", "simulated, per pass: identical under a host-only change"},
	{"work.pull_req", "count", "simulated, per pass: identical under a host-only change"},
	{"work.receives", "count", "simulated, per pass: identical under a host-only change"},
	{"work.virtual_ms", "ms", "simulated, per pass: identical under a host-only change"},
	{"work.retransmit", "count", "run_ms_p50 on sweep-ci; zero on stream-long"},
	{"work.rto", "count", "run_ms_p50 on sweep-ci; zero on stream-long"},
	{"ratio.one_copy", "ratio", "direct / (direct + park): identical under a host-only change"},
	{"ratio.useful_frames", "ratio", "(nic_tx - retransmit) / nic_tx: identical under a host-only change"},
	{"ratio.discarded_bytes", "ratio", "discarded pushed bytes / payload bytes: identical under a host-only change"},
}

// cpuTime is the user plus system CPU the process has used.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
