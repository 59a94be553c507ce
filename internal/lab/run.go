package lab

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"pushpull/internal/bench"
	"pushpull/internal/scenario"
)

// RunStudy validates and executes the study, returning the sealed
// artifact (capture stamp unset — the CLI stamps it). Jobs run in study
// order; inside a job, scenario repetitions and sweep points fan out on
// the scenario.ParallelFor worker pool (workers <= 0 = GOMAXPROCS).
// Worker count never changes the artifact body: every unit owns its
// single-threaded simulation engines, and results are assembled in
// expansion order.
func RunStudy(st Study, workers int) (*Artifact, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	a := &Artifact{
		Schema:      SchemaVersion,
		Study:       st.Name,
		Description: st.Description,
		ConfigHash:  st.ConfigHash(),
	}
	for i, j := range st.Jobs {
		w := workers
		if j.Workers > 0 {
			w = j.Workers
		}
		var (
			jr  JobResult
			err error
		)
		switch j.Kind {
		case KindScenario:
			jr, err = runScenarioJob(j, w)
		case KindSweep:
			jr, err = runSweepJob(j, w)
		case KindBench:
			jr, err = runBenchJob(j)
		}
		if err != nil {
			return nil, fmt.Errorf("lab: study %q: jobs[%d] (%q): %w", st.Name, i, j.Name, err)
		}
		a.Jobs = append(a.Jobs, jr)
	}
	a.seal()
	return a, nil
}

// jobSeeds expands a scenario job's seed list: explicit Seeds, or
// Repetitions consecutive seeds from the base (the job's Seed override,
// else the spec's own).
func jobSeeds(j Job, spec scenario.Spec) []uint64 {
	if len(j.Seeds) > 0 {
		return j.Seeds
	}
	reps := j.Repetitions
	if reps == 0 {
		reps = 1
	}
	base := spec.Seed
	if j.Seed != 0 {
		base = j.Seed
	}
	seeds := make([]uint64, reps)
	for i := range seeds {
		seeds[i] = base + uint64(i)
	}
	return seeds
}

func runScenarioJob(j Job, workers int) (JobResult, error) {
	spec, err := resolveSpec(j.Target)
	if err != nil {
		return JobResult{}, err
	}
	if j.Messages > 0 {
		spec.Traffic.Messages = j.Messages
	}
	if j.Size > 0 {
		spec.Traffic.Size = j.Size
	}
	if j.Algorithm != "" {
		spec.Traffic.Algorithm = j.Algorithm
	}
	seeds := jobSeeds(j, spec)

	results := make([]*scenario.Result, len(seeds))
	errs := make([]error, len(seeds))
	scenario.ParallelFor(len(seeds), workers, func(i int) {
		// A model panic escaping a worker goroutine would kill the whole
		// process (the same reason sweep points recover); report it as
		// the repetition's error instead.
		defer func() {
			if r := recover(); r != nil {
				results[i], errs[i] = nil, fmt.Errorf("panic: %v", r)
			}
		}()
		s := spec
		s.Seed = seeds[i]
		// KeepSamples: the job's latency quantiles pool every
		// repetition's raw samples. The samples never enter the
		// artifact — only the quantiles do.
		results[i], errs[i] = scenario.Run(s, scenario.KeepSamples())
	})

	jr := JobResult{Job: j.Name, Kind: j.Kind, Target: j.Target, Units: len(seeds)}
	h := sha256.New()
	var (
		samples    []float64
		virtualUS  float64
		receives   float64
		bytesTotal float64
		throughput []float64
	)
	for i, seed := range seeds {
		if errs[i] != nil {
			jr.Failed++
			jr.Runs = append(jr.Runs, RunRecord{Seed: seed, Error: errs[i].Error()})
			fmt.Fprintf(h, "%d %d error %s\n", i, seed, errs[i])
			continue
		}
		res := results[i]
		jr.Runs = append(jr.Runs, RunRecord{Seed: seed, Digest: res.Digest, VirtualUS: res.VirtualUS})
		fmt.Fprintf(h, "%d %d %s\n", i, seed, res.Digest)
		samples = append(samples, res.Samples...)
		virtualUS += res.VirtualUS
		receives += float64(res.Receives)
		bytesTotal += float64(res.Bytes)
		throughput = append(throughput, res.ThroughputMBps)
	}
	jr.Digest = hex.EncodeToString(h.Sum(nil))
	jr.Metrics = []Metric{
		{Name: "virtualUS", Unit: "µs", Value: virtualUS},
		{Name: "receives", Unit: "ops", Value: receives},
		{Name: "bytes", Unit: "B", Value: bytesTotal},
	}
	if n := len(throughput); n > 0 {
		var sum float64
		for _, t := range throughput {
			sum += t
		}
		jr.Metrics = append(jr.Metrics, Metric{Name: "throughputMBps", Unit: "MB/s", Value: sum / float64(n)})
	}
	jr.addQuantiles("latency", "µs", samples)
	return jr, nil
}

func runSweepJob(j Job, workers int) (JobResult, error) {
	sw, err := resolveSweep(j.Target)
	if err != nil {
		return JobResult{}, err
	}
	res, err := scenario.RunSweep(sw, workers)
	if err != nil {
		return JobResult{}, err
	}
	jr := JobResult{
		Job: j.Name, Kind: j.Kind, Target: j.Target,
		Units: res.Points, Failed: res.Failed,
		// The sweep's aggregate digest already covers every point in
		// grid order.
		Digest: res.Digest,
	}
	var (
		virtualUS float64
		means     []float64
	)
	for i := range res.Results {
		pr := &res.Results[i]
		if pr.Result == nil {
			continue
		}
		virtualUS += pr.Result.VirtualUS
		means = append(means, pr.Result.Latency.TrimmedMean)
	}
	jr.Metrics = []Metric{
		{Name: "points", Unit: "ops", Value: float64(res.Points)},
		{Name: "failed", Unit: "ops", Value: float64(res.Failed)},
		{Name: "virtualUS", Unit: "µs", Value: virtualUS},
	}
	// The per-point trimmed means are the sweep's sample set: their
	// quantiles say how the grid's latency landscape moved.
	jr.addQuantiles("trimmedMeanUS", "µs", means)
	return jr, nil
}

func runBenchJob(j Job) (JobResult, error) {
	exp, err := bench.ByID(j.Target)
	if err != nil {
		return JobResult{}, err
	}
	iters := j.Iters
	if iters == 0 {
		iters = 100
	}
	tables := exp.Run(bench.Params{Iters: iters})

	jr := JobResult{Job: j.Name, Kind: j.Kind, Target: j.Target, Units: len(tables)}
	h := sha256.New()
	for i, tab := range tables {
		// The CSV rendering is the table's canonical form: every row,
		// every series, fixed precision.
		fmt.Fprintf(h, "%d %s\n%s", i, tab.Title, tab.CSV())
		var ys []float64
		for _, s := range tab.Series {
			for _, p := range s.Points {
				ys = append(ys, p.Y)
			}
		}
		jr.addQuantiles(fmt.Sprintf("t%d", i), tab.YLabel, ys)
	}
	jr.Digest = hex.EncodeToString(h.Sum(nil))
	return jr, nil
}
