// Package lab is the study orchestration subsystem: it composes the
// repo's three run kinds — declarative scenarios, parameter sweeps and
// bench experiments — into named, replayable studies, runs them on the
// scenario worker pool, and persists each capture as a schema-versioned
// artifact in a plain-directory store. Artifacts are diffable:
// Compare gates CI on per-job digests (hard failures) and per-metric
// tolerances (flagged regressions), so the perf trajectory is enforced
// by the build instead of remembered by hand.
//
// Everything a study runs is simulation-derived, so the artifact body —
// everything except the capture stamp (time, commit, worker count) —
// is byte-identical for any worker count: the same guarantee the sweep
// subsystem pins with `make sweep-check`, extended to whole studies.
package lab

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"pushpull/internal/bench"
	"pushpull/internal/scenario"
	"pushpull/internal/strictjson"
)

// Study is one named, replayable composition of jobs. Like a scenario
// Spec it is a plain struct with a stable JSON encoding: studies are
// files, and the ConfigHash over that encoding ties every artifact to
// the exact configuration that produced it.
type Study struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Jobs        []Job  `json:"jobs"`
}

// Job is one named unit of a study. Kind selects the run machinery;
// Target names what runs (a builtin scenario/sweep/experiment, or — for
// scenario and sweep jobs — a path to a JSON spec file). Fields that do
// not apply to the job's kind are rejected at validation, field by
// field, so a typo'd study fails expansion instead of silently running
// something else.
type Job struct {
	Name string `json:"name"`
	// Kind is "scenario", "sweep" or "bench".
	Kind string `json:"kind"`
	// Target is the builtin scenario name / sweep name / bench
	// experiment id, or a spec-file path for scenario and sweep jobs.
	Target string `json:"target"`

	// Scenario jobs: the spec runs once per seed. Seeds lists them
	// explicitly; otherwise Repetitions (default 1) runs consecutive
	// seeds starting at Seed (0 keeps the spec's own seed as the base).
	Repetitions int      `json:"repetitions,omitempty"`
	Seed        uint64   `json:"seed,omitempty"`
	Seeds       []uint64 `json:"seeds,omitempty"`
	// Scenario overrides, mirroring `pushpull-scen run` flags.
	Messages  int    `json:"messages,omitempty"`
	Size      int    `json:"size,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`

	// Bench jobs: timed iterations per point (default 100).
	Iters int `json:"iters,omitempty"`

	// Workers overrides the study-level worker pool for this job
	// (0 = inherit). It never changes the artifact body.
	Workers int `json:"workers,omitempty"`
}

// Job kinds.
const (
	KindScenario = "scenario"
	KindSweep    = "sweep"
	KindBench    = "bench"
)

// ConfigHash is the SHA-256 over the study's canonical JSON encoding.
// Two artifacts are comparable only if their config hashes agree: a
// diff between different configurations is not a regression, it is a
// different experiment.
func (st Study) ConfigHash() string {
	enc, err := json.Marshal(st)
	if err != nil {
		panic(err) // plain-data struct: cannot fail
	}
	sum := sha256.Sum256(enc)
	return hex.EncodeToString(sum[:])
}

// JSON renders the study canonically (indented, stable field order).
func (st Study) JSON() []byte {
	out, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		panic(err)
	}
	return out
}

// ParseStudy decodes and validates a study file. Unknown keys and
// trailing data are errors, as for scenario specs.
func ParseStudy(data []byte) (Study, error) {
	var st Study
	if err := strictjson.Decode(data, &st); err != nil {
		return Study{}, fmt.Errorf("lab: parsing study: %w", err)
	}
	if err := st.Validate(); err != nil {
		return Study{}, err
	}
	return st, nil
}

// Validate checks the study field by field — every error names the
// offending job (by index and name) and field, so a malformed config
// fails expansion with a pointed diagnosis instead of a downstream
// panic. Targets are resolved too: a typo'd builtin name fails here,
// not at job N of a half-run study.
func (st Study) Validate() error {
	if st.Name == "" {
		return fmt.Errorf("lab: study has no name")
	}
	if strings.ContainsAny(st.Name, "/ ") {
		return fmt.Errorf("lab: study %q: name must not contain '/' or spaces (it becomes a store filename)", st.Name)
	}
	if len(st.Jobs) == 0 {
		return fmt.Errorf("lab: study %q: jobs is empty", st.Name)
	}
	seen := make(map[string]bool, len(st.Jobs))
	for i, j := range st.Jobs {
		where := fmt.Sprintf("lab: study %q: jobs[%d]", st.Name, i)
		if j.Name == "" {
			return fmt.Errorf("%s: name is empty", where)
		}
		where = fmt.Sprintf("%s (%q)", where, j.Name)
		if seen[j.Name] {
			return fmt.Errorf("%s: duplicate job name", where)
		}
		seen[j.Name] = true
		if j.Target == "" {
			return fmt.Errorf("%s: target is empty", where)
		}
		if j.Repetitions < 0 {
			return fmt.Errorf("%s: repetitions %d is negative", where, j.Repetitions)
		}
		if j.Iters < 0 {
			return fmt.Errorf("%s: iters %d is negative", where, j.Iters)
		}
		if j.Workers < 0 {
			return fmt.Errorf("%s: workers %d is negative", where, j.Workers)
		}
		if len(j.Seeds) > 0 && (j.Repetitions > 1 || j.Seed != 0) {
			return fmt.Errorf("%s: seeds and repetitions/seed are mutually exclusive (seeds already lists every run)", where)
		}
		switch j.Kind {
		case KindScenario:
			if j.Iters != 0 {
				return fmt.Errorf("%s: iters applies to bench jobs only", where)
			}
			if _, err := resolveSpec(j.Target); err != nil {
				return fmt.Errorf("%s: target: %w", where, err)
			}
		case KindSweep:
			for _, f := range []struct {
				name string
				set  bool
			}{
				{"repetitions", j.Repetitions != 0},
				{"seed", j.Seed != 0},
				{"seeds", len(j.Seeds) > 0},
				{"messages", j.Messages != 0},
				{"size", j.Size != 0},
				{"algorithm", j.Algorithm != ""},
				{"iters", j.Iters != 0},
			} {
				if f.set {
					return fmt.Errorf("%s: %s does not apply to sweep jobs (the sweep's grid owns its parameters)", where, f.name)
				}
			}
			if _, err := resolveSweep(j.Target); err != nil {
				return fmt.Errorf("%s: target: %w", where, err)
			}
		case KindBench:
			for _, f := range []struct {
				name string
				set  bool
			}{
				{"repetitions", j.Repetitions != 0},
				{"seed", j.Seed != 0},
				{"seeds", len(j.Seeds) > 0},
				{"messages", j.Messages != 0},
				{"size", j.Size != 0},
				{"algorithm", j.Algorithm != ""},
			} {
				if f.set {
					return fmt.Errorf("%s: %s applies to scenario jobs only", where, f.name)
				}
			}
			if _, err := bench.ByID(j.Target); err != nil {
				return fmt.Errorf("%s: target: %w", where, err)
			}
		default:
			return fmt.Errorf("%s: unknown kind %q (have %q, %q, %q)", where, j.Kind, KindScenario, KindSweep, KindBench)
		}
	}
	return nil
}

// resolveSpec maps a scenario target to a Spec: builtin name first,
// then spec-file path.
func resolveSpec(target string) (scenario.Spec, error) {
	if spec, err := scenario.ByName(target); err == nil {
		return spec, nil
	}
	data, err := os.ReadFile(target)
	if err != nil {
		return scenario.Spec{}, fmt.Errorf("%q is neither a builtin scenario nor a readable spec file: %w", target, err)
	}
	return scenario.ParseSpec(data)
}

// resolveSweep maps a sweep target to a Sweep: builtin name first, then
// sweep-file path.
func resolveSweep(target string) (scenario.Sweep, error) {
	if sw, err := scenario.SweepByName(target); err == nil {
		return sw, nil
	}
	data, err := os.ReadFile(target)
	if err != nil {
		return scenario.Sweep{}, fmt.Errorf("%q is neither a builtin sweep nor a readable sweep file: %w", target, err)
	}
	return scenario.ParseSweep(data)
}
