"""ringsieve benchmark: one seeded workload, measured from outside the library.

    python3 bench/run.py --workload lg-grid --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout.  Each pass is a fresh worker process
(bench/worker.py) that starts cold, sets up, runs every request of the
workload once, one at a time, and exits.  Passes repeat until --seconds are
used (at least two).  Every pass is also a set-up sample; extra set-up-only
workers make up at least seven.  The first pass's results go through the
oracles (bench/oracles.py), which share no code with ringsieve.  Results
are a function of the seed alone, so a later pass whose results differ from
the first pass's counts as failed.

All times are seconds at a reference host speed: each pass samples the
host's speed while it runs, and every duration is scaled by the speed
sampled around it (bench/yardstick.py).  The raw times are printed too, as
report lines.

--trace 0 reports the end-to-end metrics.  A request's latency is its median
over the passes; wall_s is their sum and the percentiles are taken over
them.  setup_s and peak_rss_mb are medians over the samples.
--trace 1 alternates untraced and traced passes and reports per-layer self
times and counts from the traced passes' spans, plus the tracing overhead:
the median over (untraced, traced) pass pairs of traced minus untraced wall
time, and the tracer's own bookkeeping time.

Every metric is printed as `name = value unit`; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 when the passes ran (correct or not), and 2 when the library
cannot be run (for example in a directory without src/ringsieve).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
# byte code of this process and of the workers is cached under .bench_out only
sys.pycache_prefix = os.path.join(OUT, "pycache")
sys.dont_write_bytecode = False

from workloads import SIZES, WORKLOADS, generate  # noqa: E402
from yardstick import Timeline  # noqa: E402

DEADLINE_S = 170  # every run ends well inside 180 s
MIN_PASSES = 2
MAX_PASSES = 40
MIN_SETUP_SAMPLES = 7

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
}

# per-layer metrics: `<span>.busy_s` is the self time of the spans of that
# name, `<span>.calls` their number; the rest come from the spans' counts
PER_LAYER = [
    ("localglobal.surjectivity.strip.busy_s", "s"),
    ("localglobal.surjectivity.scalar.busy_s", "s"),
    ("localglobal.surjectivity.classes", "count"),
    ("localglobal.surjectivity.reverified_ratio", "ratio"),
    ("localglobal.surjectivity.fallback_classes", "count"),
    ("localglobal.solve.calls", "count"),
    ("localglobal.solve.busy_s", "s"),
    ("localglobal.solve.not_found", "count"),
    ("sieve.membership.calls", "count"),
    ("sieve.membership.busy_s", "s"),
    ("sieve.membership.primes_checked", "count"),
    ("sieve.membership.member_ratio", "ratio"),
    ("sieve.density_interval.busy_s", "s"),
    ("sieve.empirical_density.rational.busy_s", "s"),
    ("sieve.empirical_density.quadratic.busy_s", "s"),
    ("sieve.tail_count.busy_s", "s"),
    ("entropy.zeta_K.busy_s", "s"),
    ("entropy.entropy_product.busy_s", "s"),
    ("linmaps.scan_primes.calls", "count"),
    ("linmaps.scan_primes.busy_s", "s"),
    ("linmaps.scan_primes.passed_ratio", "ratio"),
    ("linmaps.decompose_monomial.busy_s", "s"),
    ("shiftspace.is_admissible.busy_s", "s"),
    ("shiftspace.orbit_approximation.busy_s", "s"),
    ("shiftspace.count_admissible.busy_s", "s"),
    ("shiftspace.conjugacy_search.busy_s", "s"),
    ("rings.split_prime.busy_s", "s"),
    ("rings.ideal_power.busy_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.busy_s", "s"),
    ("bench.request.self_s", "s"),
    ("tracing.spans", "count"),
    ("tracing.overhead_s", "s"),
    ("tracing.bookkeeping_s", "s"),
]
PER_LAYER_UNITS = dict(PER_LAYER)


class BenchError(Exception):
    """The library could not be run; no result is printed."""


# ---------------------------------------------------------------------------
# workers


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # a pass starts like an installed CLI, with byte code cached, whether or
    # not the calling environment forbids writing byte code
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    return env


def run_worker(args, deadline: float, setup_only=False, trace_out=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish before the {DEADLINE_S} s deadline")
    t_end = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    rec = json.loads(lines[-1])
    rec["timeline"] = Timeline(rec["samples"])
    rec["setup_raw_s"] = rec["ready"] - t_spawn - rec["setup_paused_s"]
    rec["setup_s"] = rec["setup_raw_s"] * rec["timeline"].factor(rec["samples"][0][0], rec["ready_clock"])
    rec["total_s"] = t_end - t_spawn
    if not setup_only:
        rec["latencies"] = [rec["timeline"].scaled(t0, t1) for t0, t1 in rec["times"]]
        rec["wall_s"] = sum(rec["latencies"])
    return rec


# ---------------------------------------------------------------------------
# metrics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def _public(res: dict) -> dict:
    return {k: v for k, v in res.items() if not k.startswith("_")}


def end_to_end(passes, setups, requests) -> tuple[dict, dict]:
    """(end-to-end metrics, report-only workload metrics).

    Every pass runs the same requests in the same order from a cold start.
    Each request's latency, in seconds at the reference speed, is its median
    over the passes; wall_s is the sum of these, and the percentiles are
    taken over them.
    """
    latency = [statistics.median(xs) for xs in zip(*(p["latencies"] for p in passes))]
    wall = sum(latency)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
        "requests_per_s": len(requests) / wall,
        "request_p50_ms": 1000 * percentile(latency, 0.50),
        "request_p99_ms": 1000 * percentile(latency, 0.99),
    }
    extra = {
        "requests": (len(latency), "count"),
        "beyond_p99": (sum(x > metrics["request_p99_ms"] / 1000 for x in latency), "count"),
        # the same times as read, before scaling by the host's speed
        "wall_raw_s": (statistics.median(p["times"][-1][1] - p["times"][0][0] for p in passes), "s"),
        "setup_raw_s": (statistics.median(s["setup_raw_s"] for s in setups), "s"),
    }
    cells = [i for i, r in enumerate(requests) if r["op"] == "surjectivity"]
    if cells:
        big = [i for i in cells if requests[i]["big"]]
        classes = sum(passes[0]["results"][i].get("v_classes", 0) for i in cells)
        extra["classes_per_s"] = (classes / sum(latency[i] for i in cells), "1/s")
        extra["big_cell_s"] = (statistics.median(p["timeline"].scaled(*p["results"][big[0]]["_call"]) for p in passes), "s")
    return metrics, extra


def layer_metrics(spans: list[dict], timeline: Timeline) -> dict:
    """Self time, calls and counts per span name, folded into PER_LAYER names."""
    for s in spans:
        s["scaled"] = timeline.scaled(s["start"], s["end"])
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["scaled"]
    busy, calls, sums = {}, {}, {}
    for s, c in zip(spans, child):
        name = "bench.request" if s["name"].startswith("request.") else s["name"]
        busy[name] = busy.get(name, 0.0) + (s["scaled"] - c)
        calls[name] = calls.get(name, 0) + 1
        for key, v in (s["counts"] or {}).items():
            k = (name, key, v) if key == "error" else (name, key)
            sums[k] = sums.get(k, 0) + (1 if key == "error" else int(v))

    def ratio(num, den):
        return num / den if den else 0.0

    surj = ("localglobal.surjectivity.strip", "localglobal.surjectivity.scalar")
    classes = sum(sums.get((n, "classes"), 0) for n in surj)
    out = {
        "localglobal.surjectivity.classes": classes,
        "localglobal.surjectivity.reverified_ratio": ratio(sum(sums.get((n, "reverified"), 0) for n in surj), classes),
        "localglobal.surjectivity.fallback_classes": sum(sums.get((n, "fallback"), 0) for n in surj),
        "localglobal.solve.not_found": sums.get(("localglobal.solve", "error", "NotFoundWithinBound"), 0),
        "sieve.membership.primes_checked": sums.get(("sieve.membership", "checked"), 0),
        "sieve.membership.member_ratio": ratio(sums.get(("sieve.membership", "member"), 0), calls.get("sieve.membership", 0)),
        "linmaps.scan_primes.passed_ratio": ratio(sums.get(("linmaps.scan_primes", "passed"), 0), calls.get("linmaps.scan_primes", 0)),
        "bench.request.self_s": busy.get("bench.request", 0.0),
        "tracing.spans": len(spans),
    }
    for name, unit in PER_LAYER:
        if name in out or name.startswith("tracing."):
            continue
        base, _, kind = name.rpartition(".")
        out[name] = busy.get(base, 0.0) if kind == "busy_s" else calls.get(base, 0)
    return out


# ---------------------------------------------------------------------------
# oracle pass


def verify(requests, passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, first reasons) over every request of every pass."""
    from oracles import check  # imports sympy and mpmath; never ringsieve

    first = [_public(r) for r in passes[0]["results"]]
    verdict = [check(q, r) for q, r in zip(requests, first)]
    attempted = failed = 0
    reasons = []
    for n, p in enumerate(passes):
        if len(p["results"]) != len(requests):
            raise BenchError("worker returned a result list of the wrong length")
        for i, res in enumerate(p["results"]):
            why = verdict[i] if _public(res) == first[i] else f"pass {n} differs from pass 0"
            attempted += 1
            if why is not None:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"request {i} ({requests[i]['op']}): {why}")
    return attempted, failed, reasons


# ---------------------------------------------------------------------------


def measure(args) -> dict:
    t0 = time.monotonic()
    deadline = t0 + DEADLINE_S
    requests = generate(args.workload, args.seed, args.size)
    trace_dir = os.path.join(OUT, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    passes = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}-pass{len(passes)}.json") if traced else None
        rec = run_worker(args, deadline, trace_out=path)
        rec["trace_file"] = path
        passes.append(rec)
        elapsed = time.monotonic() - t0
        est = statistics.median(p["total_s"] for p in passes)
        if len(passes) >= MAX_PASSES or (len(passes) >= MIN_PASSES and elapsed + est > args.seconds):
            break

    attempted, failed, reasons = verify(requests, passes)
    report = {"passes": (len(passes), "count")}
    if args.trace:
        per_pass, own = [], []
        for p in passes:
            if p["trace_file"]:
                with open(p["trace_file"], encoding="utf-8") as fh:
                    trace = json.load(fh)
                per_pass.append(layer_metrics(trace["spans"], p["timeline"]))
                own.append(trace["own_s"])
        # counts are equal in every traced pass; median_low keeps them whole
        metrics = {name: (statistics.median_low if unit == "count" else statistics.median)(m[name] for m in per_pass)
                   for name, unit in PER_LAYER if not name.startswith("tracing.") or name == "tracing.spans"}
        pairs = zip(passes[0::2], passes[1::2])  # (untraced, traced)
        metrics["tracing.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
        metrics["tracing.bookkeeping_s"] = statistics.median(own)
        units = PER_LAYER_UNITS
    else:
        setups = list(passes)
        while args.size == "full" and len(setups) < MIN_SETUP_SAMPLES:
            setups.append(run_worker(args, deadline, setup_only=True))
        metrics, extra = end_to_end(passes, setups, requests)
        report.update(extra)
        report["setup_samples"] = (len(setups), "count")
        units = END_TO_END
    report["fail_ratio"] = (failed / attempted, "ratio")
    return {
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        "report": report,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full", help="tiny: a seconds-long smoke size")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ringsieve", "__init__.py")):
        print(f"error: no ringsieve sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        out = measure(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for reason in out["reasons"]:
        print(f"FAILED {reason}")
    for name, (value, unit) in out["report"].items():
        print(f"{name} = {value} {unit}")
    for name, m in out["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
