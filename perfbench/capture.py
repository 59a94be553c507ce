"""Capture a baseline: run every workload once end to end and once
profiled, and write the results, stamped with the commit, nproc and
GOMAXPROCS, as JSON.

Run from the repository root of a git checkout:

    python3 perfbench/capture.py perfbench/results/baseline.json
"""

import json
import os
import platform
import re
import subprocess
import sys


def run(workload, seconds, traced):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", "0",
         "--seconds", str(seconds), "--trace", str(traced)],
        capture_output=True, text=True, check=True).stdout
    lines = out.strip().split("\n")
    return lines, json.loads(lines[-1])


def cpu_model():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: capture.py OUT.json")
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, check=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True, check=True).stdout != ""
    capture = {"commit": commit, "dirty": dirty, "cpu": cpu_model(),
               "nproc": os.cpu_count(), "run_seconds": seconds, "seed": 0,
               "workloads": {}}
    for wl in bench["workloads"]:
        name = wl["name"]
        e2e_lines, e2e = run(name, seconds, 0)
        _, layer = run(name, seconds, 1)
        header = e2e_lines[0]
        capture["gomaxprocs"] = int(re.search(r"GOMAXPROCS (\d+)", header).group(1))
        digests = {label: d for d, label in
                   re.findall(r"^digest (\S+) \((.+)\)$", "\n".join(e2e_lines), re.M)}
        cpu = {k[len("cpu."):]: v["value"] for k, v in layer["metrics"].items()
               if k.startswith("cpu.") and v["unit"] == "share" and k != "cpu.named"}
        capture["workloads"][name] = {
            "correct": e2e["correct"] and layer["correct"],
            "attempted": e2e["attempted"] + layer["attempted"],
            "failed": e2e["failed"] + layer["failed"],
            "aggregate_digest": digests,
            "end_to_end": {k: v["value"] for k, v in e2e["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in layer["metrics"].items()},
            "layer_table": dict(sorted(cpu.items(), key=lambda kv: -kv[1])),
        }
        print(name, "done", file=sys.stderr)
    with open(sys.argv[1], "w") as f:
        json.dump(capture, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
