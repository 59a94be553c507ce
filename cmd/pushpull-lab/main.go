// Command pushpull-lab orchestrates studies — named compositions of
// scenarios, sweeps and bench experiments — and maintains the versioned
// result store that turns the repo's perf trajectory into checked,
// diffable artifacts.
//
// Usage:
//
//	pushpull-lab studies
//	pushpull-lab study <name>
//	pushpull-lab run [-workers N] [-store DIR] [-out FILE] <study|study.json>
//	pushpull-lab list [-store DIR]
//	pushpull-lab show [-body] <artifact.json>
//	pushpull-lab compare [-tol metric=frac ...] <baseline.json> <candidate.json>
//	pushpull-lab gobench [-file BENCH_sim.json] [-comment C]
//
// "run" executes every job of the study on a worker pool and persists a
// schema-versioned artifact. Everything in the artifact below the
// capture stamp (time, commit, workers) is simulation-derived, so the
// body is byte-identical for any -workers value — `make lab-check`
// pins that, and "show -body" prints exactly the bytes it diffs.
//
// "compare" diffs a candidate artifact against a baseline: job digest
// changes are hard failures (exit 4), metric deltas beyond tolerance
// are regressions (exit 3), and a config-hash mismatch refuses the
// comparison outright (exit 1) — different configurations are
// different experiments. -tol takes metric=frac pairs ("default=0.1"
// rebinds the default 5%; counters like receives/bytes/points are
// exact unless overridden).
//
// "gobench" reruns the tracked internal/sim microbenchmarks via
// testing.Benchmark and appends one entry to the BENCH_sim.json
// append-only series — the capture path that replaces hand-editing the
// perf history. Wall-clock numbers never enter study artifacts.
//
// Exit codes: 0 success, 1 operational error (including refused
// comparisons), 2 usage, 3 metric regression, 4 job digest change.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pushpull/internal/lab"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "studies":
		for _, name := range lab.StudyNames() {
			st, _ := lab.StudyByName(name)
			fmt.Printf("%-12s %2d jobs  %s\n", st.Name, len(st.Jobs), st.Description)
		}
	case "study":
		if len(os.Args) != 3 {
			fmt.Fprintln(os.Stderr, "usage: pushpull-lab study <name>")
			os.Exit(2)
		}
		st, err := lab.StudyByName(os.Args[2])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", st.JSON())
	case "run":
		runCmd(os.Args[2:])
	case "list":
		listCmd(os.Args[2:])
	case "show":
		showCmd(os.Args[2:])
	case "compare":
		compareCmd(os.Args[2:])
	case "gobench":
		gobenchCmd(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "pushpull-lab: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func runCmd(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS); never changes the artifact body")
	store := fs.String("store", lab.DefaultStoreDir, "artifact store directory")
	out := fs.String("out", "", "write the artifact to this file instead of the store")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pushpull-lab run [flags] <study|study.json>")
		os.Exit(2)
	}
	st, err := resolveStudy(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	//pushpull:lint-allow walltime wall-clock study duration for operator progress output; never enters an artifact digest
	start := time.Now()
	a, err := lab.RunStudy(st, w)
	if err != nil {
		fatal(err)
	}
	//pushpull:lint-allow walltime capture stamp recording when the artifact was produced; excluded from the artifact digest
	a.CapturedAt = time.Now().UTC().Format(time.RFC3339)
	a.Commit = gitCommit()
	a.Workers = w

	var failed int
	for _, jr := range a.Jobs {
		failed += jr.Failed
		fmt.Fprintf(os.Stderr, "  %-20s %-8s %3d unit(s)%s  digest %s\n",
			jr.Job, jr.Kind, jr.Units,
			map[bool]string{true: fmt.Sprintf(" (%d FAILED)", jr.Failed), false: ""}[jr.Failed > 0],
			jr.Digest[:12])
	}
	fmt.Fprintf(os.Stderr, "%s: %d job(s) in %.2fs on %d worker(s), artifact digest %s\n",
		a.Study, len(a.Jobs), time.Since(start).Seconds(), w, a.Digest[:12]) //pushpull:lint-allow walltime wall-clock duration for operator progress output only

	path := *out
	if path != "" {
		if err := os.WriteFile(path, a.JSON(), 0o644); err != nil {
			fatal(err)
		}
	} else {
		path, err = lab.Store{Dir: *store}.Put(a)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Println(path)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "pushpull-lab: %d unit(s) failed inside the study (see the artifact's runs/errors)\n", failed)
		os.Exit(1)
	}
}

func listCmd(args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	store := fs.String("store", lab.DefaultStoreDir, "artifact store directory")
	fs.Parse(args)
	entries, err := lab.Store{Dir: *store}.List()
	if err != nil {
		fatal(err)
	}
	if len(entries) == 0 {
		fmt.Fprintf(os.Stderr, "pushpull-lab: store %q holds no artifacts (run a study first)\n", *store)
		return
	}
	for _, e := range entries {
		a := e.Artifact
		fmt.Printf("%-20s %-12s %2d job(s)  digest %s  commit %-12s %s\n",
			a.CapturedAt, a.Study, len(a.Jobs), a.Digest[:12], a.Commit, e.Path)
	}
}

func showCmd(args []string) {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	body := fs.Bool("body", false, "print only the deterministic body (capture stamp stripped) — the bytes make lab-check diffs")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pushpull-lab show [-body] <artifact.json>")
		os.Exit(2)
	}
	a, err := lab.LoadArtifact(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	if *body {
		os.Stdout.Write(a.Body())
		return
	}
	os.Stdout.Write(a.JSON())
}

func compareCmd(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	tol := lab.DefaultTolerances()
	fs.Func("tol", "metric=frac tolerance override (repeatable; \"default=F\" rebinds the default)", func(v string) error {
		name, frac, ok := strings.Cut(v, "=")
		if !ok {
			return fmt.Errorf("want metric=frac, got %q", v)
		}
		f, err := strconv.ParseFloat(frac, 64)
		if err != nil || f < 0 {
			return fmt.Errorf("bad tolerance %q", frac)
		}
		if name == "default" {
			tol.Default = f
		} else {
			tol.PerMetric[name] = f
		}
		return nil
	})
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: pushpull-lab compare [-tol metric=frac] <baseline.json> <candidate.json>")
		os.Exit(2)
	}
	a, err := lab.LoadArtifact(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	b, err := lab.LoadArtifact(fs.Arg(1))
	if err != nil {
		fatal(err)
	}
	c, err := lab.Compare(a, b, tol)
	if err != nil {
		fatal(err)
	}
	fmt.Print(c.Render())
	os.Exit(c.ExitCode())
}

func gobenchCmd(args []string) {
	fs := flag.NewFlagSet("gobench", flag.ExitOnError)
	file := fs.String("file", "BENCH_sim.json", "series file to append the capture to")
	comment := fs.String("comment", "", "one-line context for this capture (what changed)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: pushpull-lab gobench [-file F] [-comment C]")
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "pushpull-lab: running the tracked internal/sim microbenchmarks (wall clock — not part of any artifact)...")
	entry := lab.BenchSeriesEntry{
		//pushpull:lint-allow walltime capture stamp recording when the bench series entry was taken; not digested
		CapturedAt: time.Now().UTC().Format(time.RFC3339),
		Commit:     gitCommit(),
		Comment:    *comment,
		Benchmarks: lab.CaptureGoBench(),
	}
	for _, m := range entry.Benchmarks {
		fmt.Fprintf(os.Stderr, "  %-32s %12.2f ns/op %6d B/op %4d allocs/op\n",
			m.Name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}
	if err := lab.AppendBenchSeries(*file, entry); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pushpull-lab: appended capture to %s\n", *file)
}

// resolveStudy maps a study argument to a Study: builtin name first,
// then a path to a JSON study file.
func resolveStudy(arg string) (lab.Study, error) {
	if st, err := lab.StudyByName(arg); err == nil {
		return st, nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return lab.Study{}, fmt.Errorf("%q is neither a builtin study (see \"pushpull-lab studies\") nor a readable study file: %w", arg, err)
	}
	return lab.ParseStudy(data)
}

// gitCommit best-effort resolves the working tree's commit for the
// capture stamp; artifacts stay valid without it.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pushpull-lab:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprint(os.Stderr, `pushpull-lab: study orchestration and the versioned result store.

usage:
  pushpull-lab studies                list builtin studies
  pushpull-lab study <name>           print a builtin study's JSON (edit + feed back to run)
  pushpull-lab run [flags] <study|study.json>
                                      run every job of a study, persist a versioned artifact
  pushpull-lab list [-store DIR]      list stored artifacts, newest first
  pushpull-lab show [-body] <artifact.json>
                                      print an artifact (-body: deterministic bytes only)
  pushpull-lab compare [flags] <baseline.json> <candidate.json>
                                      diff two artifacts; gate on digests and metric tolerances
  pushpull-lab gobench [flags]        rerun the sim microbenchmarks, append to BENCH_sim.json

run flags:
  -workers N    pool size (0 = GOMAXPROCS); the artifact body is byte-identical for any N
  -store DIR    artifact store directory (default labstore)
  -out FILE     write the artifact to FILE instead of the store

compare flags:
  -tol m=frac   per-metric relative tolerance (repeatable); "default=F" rebinds the 5% default;
                counters (receives, bytes, points, failed) are exact unless overridden

exit codes: 0 success, 1 operational error (incl. refused comparison:
config-hash/schema/study mismatch), 2 usage, 3 metric delta beyond
tolerance, 4 job digest change
`)
}
