"""Record the benchmark baseline: every workload, untraced and traced, per seed.

    python3 bench/record.py --seeds 1,2 [--out bench/baseline.json]

Runs bench/run.py once per (workload, seed, trace), each for the
run_seconds of BENCHMARK.json, and writes the medians over seeds, the
per-seed values and the machine they were measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def _machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    report = {}
    for line in lines[:-1]:
        name, _, rest = line.partition(" = ")
        if rest and name not in last["metrics"] and not line.startswith("FAILED"):
            report[name] = float(rest.split()[0])
    return {"seed": seed, "correct": last["correct"], "attempted": last["attempted"], "failed": last["failed"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()}, "report": report}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    doc = {"machine": _machine(), "seeds": seeds, "run_seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            runs = [run_once(workload, s, seconds, trace) for s in seeds]
            names = list(runs[0]["metrics"])
            entry[key] = {n: statistics.median(r["metrics"][n] for r in runs) for n in names}
            entry[key + "_runs"] = runs
            print(workload, key, "correct" if all(r["correct"] for r in runs) else "INCORRECT", flush=True)
        doc["workloads"][workload] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
