package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"pushpull/internal/cluster"
	"pushpull/internal/scenario"
)

// workload is one named set of scenario runs. A pass runs every spec
// once on a closed-loop pool of workers: the next run starts when a
// worker frees. No spec sets ParallelWorkers, so every run measures the
// sequential engine.
type workload struct {
	name    string
	workers int
	specs   []scenario.Spec
}

// ciSweeps are the grids `make sweep-check` replays on every change.
var ciSweeps = []string{"smoke-grid", "coll-smoke", "fault-smoke", "proto-grid"}

// streamMessages scales each stream-long builtin until one run takes on
// the order of 100 ms on a 2-core box, so cluster construction is a
// negligible share of it. The internode ping-pong is already that long
// and stays the unmodified builtin.
var streamMessages = []struct {
	name     string
	messages int
}{
	{"paper-intranode-pingpong", 8000},
	{"paper-internode-pingpong", 1000},
	{"paper-bandwidth", 800},
	{"permutation", 250},
	{"hotspot", 200},
}

var collectiveScenarios = []string{"coll-allreduce-rsag", "coll-bcast-seg", "coll-alltoall", "coll-halo"}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"sweep-ci", "stream-long", "collective"}

// newWorkload builds the named workload with every run's seed offset by
// seed, so a claim can be checked on seeds no one tuned against.
func newWorkload(name string, seed uint64) (*workload, error) {
	w := &workload{name: name, workers: 1}
	switch name {
	case "sweep-ci":
		w.workers = 2
		for _, sn := range ciSweeps {
			sw, err := scenario.SweepByName(sn)
			if err != nil {
				return nil, err
			}
			points, err := sw.Expand()
			if err != nil {
				return nil, err
			}
			for _, p := range points {
				w.specs = append(w.specs, p.Spec)
			}
		}
	case "stream-long":
		for _, sm := range streamMessages {
			s, err := scenario.ByName(sm.name)
			if err != nil {
				return nil, err
			}
			s.Traffic.Messages = sm.messages
			w.specs = append(w.specs, s)
		}
	case "collective":
		for _, n := range collectiveScenarios {
			s, err := scenario.ByName(n)
			if err != nil {
				return nil, err
			}
			w.specs = append(w.specs, s)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	for i := range w.specs {
		w.specs[i].Seed += seed
	}
	return w, nil
}

// expectedFile holds the digests of the runs that are not unmodified
// builtins (sweep points and scaled builtins), per workload and run
// name, at seed offset 0. `go test -run TestExpectedDigests -update`
// recaptures it.
const expectedFile = "expected.json"

// pinnedFile is the repository's own capture of every builtin's digest;
// the benchmark reads it and never writes it.
const pinnedFile = "internal/scenario/testdata/digests.json"

// expectedDigests returns the digest each of w's runs must produce at
// seed offset 0: the pinned digest for an unmodified builtin, the
// benchmark's own capture for anything else. root is the repository
// root and dir the benchmark's directory.
func expectedDigests(w *workload, root, dir string) ([]string, error) {
	pinned, err := readDigests(filepath.Join(root, pinnedFile))
	if err != nil {
		return nil, err
	}
	var own map[string]map[string]string
	data, err := os.ReadFile(filepath.Join(dir, expectedFile))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &own); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", expectedFile, err)
	}
	want := make([]string, len(w.specs))
	for i, s := range w.specs {
		table, key := own[w.name], s.Name
		if isBuiltin(s) {
			table = pinned
		}
		d, ok := table[key]
		if !ok {
			return nil, fmt.Errorf("no expected digest for %s run %q", w.name, key)
		}
		want[i] = d
	}
	return want, nil
}

func readDigests(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := make(map[string]string)
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return m, nil
}

// isBuiltin reports whether s is a builtin scenario exactly as shipped.
func isBuiltin(s scenario.Spec) bool {
	b, err := scenario.ByName(s.Name)
	return err == nil && bytes.Equal(b.JSON(), s.JSON())
}

// constructionConfig is the cluster a run of s builds: its topology,
// pushed-buffer size, fault plan and seed, which are what cluster.New's
// cost depends on. The benchmark times New and Shutdown on it from the
// outside to measure set-up.
func constructionConfig(s scenario.Spec) cluster.Config {
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
	case "switch":
		cfg.UseSwitch = true
	case "hub":
		cfg.UseHub = true
	case "intranode":
		cfg.Nodes = 1
		if t.ProcsPerNode <= 1 {
			cfg.ProcsPerNode = 2
		}
	}
	if t.Rails > 0 {
		cfg.Rails = t.Rails
	}
	cfg.Net.LossRate = t.LossRate
	if s.Protocol.PushedBufBytes > 0 {
		cfg.Opts.PushedBufBytes = s.Protocol.PushedBufBytes
	}
	cfg.FaultPlan = s.Faults
	return cfg
}
