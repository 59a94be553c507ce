package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"slices"
	"testing"
	"time"

	"pushpull/internal/scenario"
)

var update = flag.Bool("update", false, "recapture expected.json from one pass of every workload at seed offset 0")

// TestExpectedDigests runs every workload once at seed offset 0 and
// checks each run against its expected digest: the repository's pinned
// digest for an unmodified builtin, expected.json for the rest. With
// -update it rewrites expected.json instead; that is legitimate only
// when a workload's runs change or the simulated behaviour changes on
// purpose, as for `make digests`.
func TestExpectedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	own := make(map[string]map[string]string)
	for _, name := range workloadNames {
		w, err := newWorkload(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		p := runPass(w, 2)
		if *update {
			own[name] = make(map[string]string)
			for i, o := range p.runs {
				if o.err != nil {
					t.Fatalf("%s: %s: %v", name, o.name, o.err)
				}
				if !isBuiltin(w.specs[i]) {
					own[name][o.name] = o.digest
				}
			}
			continue
		}
		want, err := expectedDigests(w, "..", ".")
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range p.runs {
			if o.err != nil || o.digest != want[i] {
				t.Errorf("%s: %s: err=%v digest %s, want %s", name, o.name, o.err, o.digest, want[i])
			}
		}
	}
	if *update {
		data, err := json.MarshalIndent(own, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(expectedFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWorkloadsAreWhatTheyClaim pins the properties the workload
// reasons rest on: 40 CI sweep points on two workers, the collective
// builtins unmodified, and no run on the parallel engine.
func TestWorkloadsAreWhatTheyClaim(t *testing.T) {
	sizes := map[string]int{"sweep-ci": 40, "stream-long": 5, "collective": 4}
	for _, name := range workloadNames {
		w, err := newWorkload(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.specs) != sizes[name] {
			t.Errorf("%s has %d runs, want %d", name, len(w.specs), sizes[name])
		}
		for _, s := range w.specs {
			if s.ParallelWorkers != 0 {
				t.Errorf("%s: %s runs on the parallel engine", name, s.Name)
			}
			if name == "collective" && !isBuiltin(s) {
				t.Errorf("collective: %s is not the unmodified builtin", s.Name)
			}
		}
	}
	w, _ := newWorkload("sweep-ci", 7)
	if w.workers != 2 || w.specs[0].Seed != 1+7 {
		t.Errorf("sweep-ci: %d workers, first seed %d; want 2 workers, seed 8", w.workers, w.specs[0].Seed)
	}
}

// TestLayerAttribution checks the attribution rule on fixed stacks,
// innermost frame first.
func TestLayerAttribution(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"pushpull/internal/sim.(*Engine).Run", "main.main"}, "sim"},
		// Formatting a trace event counts as tracing, whoever formats.
		{[]string{"fmt.Sprintf", "pushpull/internal/pushpull.ChannelID.String", "fmt.(*pp).handleMethods",
			"fmt.Sprintf", "pushpull/internal/trace.(*Recorder).Recordf", "pushpull/internal/nic.(*NIC).transmit"}, "trace"},
		// The innermost named package wins over its callers.
		{[]string{"runtime.mallocgc", "pushpull/internal/vm.NewFrameAllocator", "pushpull/internal/smp.NewNode",
			"pushpull/internal/cluster.New"}, "vm"},
		{[]string{"pushpull/coll.AllReduce.func1", "pushpull/comm.(*Channel).Recv"}, "coll"},
		// Generic instantiations name the package before the brackets.
		{[]string{"pushpull/internal/sim.(*heap[go.shape.*pushpull/internal/nic.frame]).push"}, "sim"},
		// Packages outside the named layers, the benchmark's own
		// included, are skipped over.
		{[]string{"pushpull/internal/adapt.(*Controller).Observe", "pushpull/internal/scenario.Run"}, "scenario"},
		{[]string{"encoding/json.Marshal", "pushpull/perfbench.main"}, "rt_other"},
		// Stack growth is charged to the runtime, not to the grower.
		{[]string{"runtime.memmove", "runtime.copystack", "runtime.newstack", "pushpull/internal/smp.(*Thread).Exec"}, "rt_stack"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "rt_sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "rt_gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, "rt_gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.sysmon"}, "rt_other"},
		{nil, "rt_other"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestFailuresCount checks that a wrong expected digest and an
// exhausted virtual-time budget each count as a failed run.
func TestFailuresCount(t *testing.T) {
	ok, err := scenario.ByName("paper-intranode-pingpong")
	if err != nil {
		t.Fatal(err)
	}
	ok.Traffic.Messages = 10
	starved := ok
	starved.Name = "starved"
	starved.MaxVirtualMS = 0.001
	w := &workload{name: "t", workers: 1, specs: []scenario.Spec{ok, ok, starved}}
	p := runPass(w, 1)
	if !scenario.IsBudgetError(p.runs[2].err) {
		t.Fatalf("starved run: err = %v, want a budget error", p.runs[2].err)
	}
	good := p.runs[0].digest
	if got := failures(p, []string{good, good, good}); got != 1 {
		t.Errorf("budget-exhausted run: %d failures, want 1", got)
	}
	if got := failures(p, []string{good, "0000", good}); got != 2 {
		t.Errorf("wrong expected digest plus budget: %d failures, want 2", got)
	}
	r := &run{w: w, want: []string{good, "0000", good}}
	r.check(p)
	if r.tried != 3 || r.failed != 2 {
		t.Errorf("check counted %d of %d failed, want 2 of 3", r.failed, r.tried)
	}
}

// TestMetricNamesMatchBenchmarkJSON runs both kinds of measurement on a
// tiny workload and checks that the output names exactly the metrics,
// with the units, that BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, wl := range bench.Workloads {
		names = append(names, wl.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}

	s, err := scenario.ByName("paper-intranode-pingpong")
	if err != nil {
		t.Fatal(err)
	}
	s.Traffic.Messages = 20
	w := &workload{name: "tiny", workers: 2, specs: []scenario.Spec{s, s}}
	for _, c := range []struct {
		traced bool
		want   []decl
	}{{false, bench.EndToEnd}, {true, bench.PerLayer}} {
		// A non-zero seed offset checks passes against each other, so
		// the tiny workload needs no expected digests.
		res, err := measure(io.Discard, w, 1, "..", ".", 10*time.Millisecond, c.traced)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || (!c.traced && res.Attempted < minRuns) {
			t.Errorf("traced=%v: correct=%v failed=%d attempted=%d", c.traced, res.Correct, res.Failed, res.Attempted)
		}
		var got, want []string
		for n, m := range res.Metrics {
			got = append(got, n+" "+m.Unit)
		}
		for _, d := range c.want {
			want = append(want, d.Name+" "+d.Unit)
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("traced=%v: output metrics\n%v\nBENCHMARK.json declares\n%v", c.traced, got, want)
		}
	}
}
