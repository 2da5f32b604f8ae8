"""Seconds-long smoke test of the benchmark harness.

Exercises the generators, the oracles (on right and on deliberately wrong
answers) and the metric printing of run.py at the tiny size.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
from workloads import WORKLOADS, generate, unimodular_maps  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_seeded(workload):
    a = generate(workload, 7, "tiny")
    assert a == generate(workload, 7, "tiny")
    assert a != generate(workload, 8, "tiny")
    assert json.loads(json.dumps(a)) == a  # plain data only


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in _benchmark_json()["workloads"]] == list(WORKLOADS)


def test_oracles_reject_wrong_answers():
    # k-free: 12 = 2^2 * 3 is not squarefree over Q; 2 + 2w has norm -4 in Q(sqrt 2)
    assert oracles.kfree_violation([None], [12], 2) is not None
    assert oracles.kfree_violation([None], [10], 2) is None
    assert oracles.kfree_violation([2], [2, 2], 2) is not None  # 2 + 2w = (sqrt 2)^2 (1 + w)
    assert oracles.kfree_violation([2], [1, 1], 2) is None  # a unit
    req = {"op": "membership", "sieve": ["kfree", [None], 2], "x": [12]}
    assert oracles.check(req, {"member": True, "prime": None, "class": None}) is not None
    assert oracles.check(req, {"member": False, "prime": [2, 0, "rational", None], "class": [0]}) is None
    assert oracles.check(req, {"member": False, "prime": [3, 0, "rational", None], "class": [0]}) is not None
    req = {"op": "surjectivity", "algebra": [None], "k": 2, "p": 3}
    good = {"n_classes": 9, "v_classes": 8, "surjective": True, "reverified": 8,
            "kept": [[[1], [1]], [[4], [13]]], "spot": [[[13], True, 2]]}
    assert oracles.check(req, good) is None
    assert oracles.check(req, dict(good, kept=[[[1], [4]]])) is not None  # 4 is not 1 mod 9
    assert oracles.check(req, dict(good, kept=[[[1], [28]]])) is not None  # 28 = 2^2 * 7
    assert oracles.check(req, dict(good, v_classes=9)) is not None
    assert oracles.check({"op": "zeta", "algebra": [None], "s": 2}, {"lo": "16/10", "hi": "17/10"}) is None
    assert oracles.check({"op": "zeta", "algebra": [None], "s": 2}, {"lo": "1", "hi": "16/10"}) is not None
    shear = [[1, 1], [0, 1]]
    assert shear not in unimodular_maps(2)[0] and [[1, 0], [0, 1]] in unimodular_maps(2)[0]
    req = {"op": "linmap", "d": 2, "matrix": shear}
    assert oracles.check(req, {"passed": True, "eps": None}) is not None
    assert oracles.check({"op": "count_admissible", "k": 2, "box": 8}, {"count": 175}) is None
    assert oracles.check({"op": "count_admissible", "k": 2, "box": 8}, {"count": 174}) is not None
    assert oracles.check({"op": "solve"}, {"error": "NotFoundWithinBound: ..."}) is not None


def test_yardstick_scales_by_the_speed_sampled_around_a_duration():
    from yardstick import REFERENCE_BURST_S as ref, Clock, Timeline

    tl = Timeline([[0.0, ref], [1.0, ref], [2.0, 2 * ref], [3.0, 2 * ref]])
    assert tl.scaled(0.2, 0.8) == pytest.approx(0.6)  # no sample within 0.1 s: the nearest, at reference speed
    assert tl.scaled(2.5, 3.0) == pytest.approx(0.25)  # the host ran at half the reference speed
    assert tl.scaled(0.95, 2.05) == pytest.approx(1.1 / 1.5)  # the samples at 1 and 2: mean burst 1.5 ref

    clock = Clock()
    t0, c0 = time.perf_counter(), clock.now()
    clock.sample()
    assert len(clock.samples) == 1 and clock.paused_s > 0
    assert clock.now() - c0 < time.perf_counter() - t0 - 0.9 * clock.paused_s  # the clock stopped for the burst


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    spec = _benchmark_json()["end_to_end" if trace == 0 else "per_layer"]
    assert list(last["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") for line in lines[:-1])
    assert any(line.startswith("fail_ratio = 0.0 ratio") for line in lines)


def test_counts_repeat_across_runs_of_one_seed():
    counts = ("localglobal.surjectivity.classes", "sieve.membership.primes_checked")
    seen = []
    for _ in range(2):
        proc = _run("--workload", "lg-grid", "--seed", "5", "--seconds", "1", "--trace", "1", "--size", "tiny")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        seen.append([metrics[name]["value"] for name in counts])
    assert seen[0] == seen[1] and all(v > 0 for v in seen[0])


def test_refuses_without_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "lg-grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
