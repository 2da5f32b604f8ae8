import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

import ringsieve
from ringsieve import localglobal, shiftspace
from ringsieve.cli import main
from ringsieve.primes import primes_upto


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture
def sq_file(tmp_path):
    f = tmp_path / "sq.sv"
    f.write_text("algebra Q\ntail kfree 2\n")
    return str(f)


@pytest.fixture
def cube_file(tmp_path):
    f = tmp_path / "cube.sv"
    f.write_text("algebra Q\ntail kfree 3\n")
    return str(f)


@pytest.fixture
def flip_code_file(tmp_path):
    from ringsieve.presets import neighbor_flip_code
    from ringsieve.shiftspace import format_code

    f = tmp_path / "flip.code"
    f.write_text(format_code(neighbor_flip_code()))
    return str(f)


def test_density_and_solve(sq_file):
    code, out = run(["sieve", "density", "--spec", sq_file, "--cutoff", "2000"])
    assert code == 0 and "interval" in out
    code, out = run(["lg", "solve", "--spec", sq_file, "--cong", "2^2=3"])
    assert code == 0 and "witness: 3" in out


def test_solve_refuses_composite_and_undecided_primes(sq_file):
    # 318665857834031151167461 is the least strong pseudoprime to the bases up to 37
    for p, error in (("15", "ValueError: 15 is not prime"),
                     ("318665857834031151167461", "is not prime"),
                     ("3317044064679887385961981", "PreconditionFailed")):
        code, out = run(["lg", "solve", "--spec", sq_file, "--cong", f"{p}^2=3"])
        assert code == 4 and error in out


def test_enumerate(sq_file):
    code, out = run(["sieve", "enumerate", "--spec", sq_file, "--bound", "10"])
    assert code == 0
    assert "count: 14" in out


def test_tail_command(sq_file):
    code, out = run(["sieve", "tail", "--spec", sq_file, "--bound", "200", "--norm-cutoff", "10"])
    assert code == 0 and "count: 8" in out


def test_exit_code_negative_outcomes(sq_file, cube_file):
    code, out = run(["shift", "conjugacy", "--spec", sq_file, "--other", cube_file])
    assert code == 1 and "provably_not" in out
    code, out = run(["shift", "conjugacy", "--spec", sq_file, "--other", sq_file])
    assert code == 0 and "witness" in out


def test_conjugacy_decides_past_the_primes_a_sample_would_check(tmp_path, sq_file):
    # tails {0, 1} and {0, 1 + N}, N the product of the primes <= 60: no translate at p = 61
    files = []
    for c in (1, 1 + math.prod(primes_upto(60))):
        f = tmp_path / f"tail{c}.sv"
        f.write_text(f"algebra Q\ntail classes 0,{c}\nexception 2 1 : -\nexception 3 1 : -\n")
        files.append(str(f))
    code, out = run(["shift", "conjugacy", "--spec", files[0], "--other", files[1]])
    assert code == 1 and "status: provably_not" in out
    code, out = run(["shift", "conjugacy", "--spec", files[0], "--other", files[0]])
    assert code == 0 and "checked_primes: 2\n" in out and "tail_translate: 0\n" in out
    code, out = run(["shift", "conjugacy", "--spec", sq_file, "--other", sq_file])
    assert f"config: digits=12 other={sq_file} spec={sq_file}\n" in out
    with pytest.raises(SystemExit) as e:
        run(["shift", "conjugacy", "--spec", sq_file, "--other", sq_file, "--height", "8"])
    assert e.value.code == 2


def test_exit_code_missing_file():
    code, out = run(["sieve", "density", "--spec", "/nonexistent/x.sv"])
    assert code == 3


def test_exit_code_usage(sq_file):
    with pytest.raises(SystemExit) as e:
        run(["sieve", "density", "--cutof", "10", "--spec", sq_file])
    assert e.value.code == 2
    code, _ = run(["sieve", "density"])
    assert code == 2


def test_negative_bounds_are_usage_errors(sq_file, tmp_path, capsys):
    sq2 = tmp_path / "sq2.sv"
    sq2.write_text("algebra Q(sqrt 2)\ntail kfree 2\n")
    for spec in (sq_file, str(sq2)):
        for argv in (
            ["sieve", "enumerate", "--spec", spec, "--bound", "-1"],
            ["sieve", "density", "--spec", spec, "--bound", "-3"],
            ["sieve", "tail", "--spec", spec, "--bound", "-5"],
            ["sieve", "tail", "--spec", spec, "--norm-cutoff", "-2"],
        ):
            with pytest.raises(SystemExit) as e:
                run(argv)
            assert e.value.code == 2
            assert "must be >= 0" in capsys.readouterr().err


def test_negative_cutoffs_are_usage_errors(sq_file, capsys):
    for cutoff in ("-1", "-10", "-100"):
        for argv in (
            ["sieve", "density", "--spec", sq_file, "--cutoff", cutoff],
            ["entropy", "product", "--spec", sq_file, "--cutoff", cutoff],
            ["entropy", "zeta", "--cutoff", cutoff],
            ["linmap", "scan", "--cutoff", cutoff],
        ):
            with pytest.raises(SystemExit) as e:
                run(argv)
            assert e.value.code == 2
            assert "must be >= 0" in capsys.readouterr().err


def _rejected(argv, capsys, message):
    with pytest.raises(SystemExit) as e:
        run(argv)
    assert e.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_verify_trials_must_be_positive(trials, flip_code_file, tmp_path, capsys):
    spec = tmp_path / "two.sv"
    spec.write_text("algebra Q\ntail classes 0,1\nexception 2 1 : -\nexception 3 1 : -\n")
    argv = ["shift", "verify", "--code", flip_code_file, "--source-sieve", str(spec), "--trials", trials]
    _rejected(argv, capsys, f"must be >= 1, got {trials}")


def test_unit_height_must_be_positive(capsys):
    _rejected(["linmap", "units", "--source", "Q(sqrt 2)", "--matrix", "1,0,0,1", "--height", "-3"], capsys, "must be >= 1")


@pytest.mark.parametrize("box", ["0", "-1"])
def test_empirical_box_must_be_positive(box, sq_file, capsys):
    _rejected(["entropy", "empirical", "--spec", sq_file, "--box", box], capsys, f"must be >= 1, got {box}")


def test_symmetry_window_must_be_nonnegative(capsys):
    _rejected(["shift", "symmetries", "--window", "-1"], capsys, "must be >= 0, got -1")


def test_solve_bound_must_be_nonnegative(sq_file, capsys):
    _rejected(["lg", "solve", "--spec", sq_file, "--cong", "2^2=3", "--bound", "-5"], capsys, "must be >= 0, got -5")


def test_surjectivity_limit_must_be_nonnegative(capsys):
    _rejected(["lg", "surjectivity", "--limit", "-1"], capsys, "must be >= 0, got -1")


def test_orbit_bound_must_be_nonnegative(tmp_path, capsys):
    pat = tmp_path / "x.pat"
    pat.write_text("0\n")
    argv = ["shift", "orbit", "--pattern", str(pat), "--window-pattern", str(pat), "--bound", "-5"]
    _rejected(argv, capsys, "must be >= 0, got -5")


def test_zero_digits_print_integers():
    code, out = run(["--digits", "0", "entropy", "zeta", "--cutoff", "10"])
    assert code == 0 and "interval: 1, 2\n" in out


@pytest.mark.parametrize("argv", [["--digits", "-2", "entropy", "zeta", "--cutoff", "10"],
                                  ["entropy", "zeta", "--cutoff", "10", "--digits", "-3"]])
def test_negative_digits_are_usage_errors(argv, capsys):
    _rejected(argv, capsys, "must be >= 0, got -")


def test_library_refuses_the_same_arguments(sq_file):
    from ringsieve import entropy, linmaps, presets
    from ringsieve.errors import PreconditionFailed
    from ringsieve.sieve import kfree_sieve

    sq = kfree_sieve(ringsieve.QQ, 2)
    two = presets.two_class_sieve()
    calls = [
        lambda: shiftspace.verify_intertwiner(presets.neighbor_flip_code(), two, two, trials=0),
        lambda: linmaps.check_unit_preservation(linmaps.ZLinearMap.identity(ringsieve.QQ), -3),
        lambda: entropy.empirical_entropy(sq, 0),
        lambda: shiftspace.count_admissible(sq, -1),
        lambda: shiftspace.symmetry_scan(sq, -1),
        lambda: localglobal.solve(sq, [], bound=-5),
        lambda: shiftspace.orbit_approximation(ringsieve.QQ, 2, shiftspace.Pattern.from_ints(ringsieve.QQ, [0]),
                                               shiftspace.Pattern.from_ints(ringsieve.QQ, [0, 1]), bound=-7),
    ]
    for call in calls:
        with pytest.raises(PreconditionFailed):
            call()
    assert shiftspace.count_admissible(sq, 0) == 1


def test_cutoffs_zero_and_one_keep_their_answers(sq_file):
    expected = {
        ("sieve", "density", "0"): ["0.000000000000", "1.000000000000"],
        ("sieve", "density", "1"): ["0.354948196815", "1.000000000000"],
        ("entropy", "product", "0"): ["0.000000000000", "0.693147180560"],
        ("entropy", "product", "1"): ["0.246031341867", "0.693147180560"],
        ("entropy", "zeta", "0"): ["1.000000000000", "2.083333333334"],
        ("entropy", "zeta", "1"): ["1.000000000000", "2.083333333334"],
    }
    for (group, sub, cutoff), interval in expected.items():
        spec = [] if sub == "zeta" else ["--spec", sq_file]
        code, out = run(["--json", group, sub, *spec, "--cutoff", cutoff])
        assert code == 0
        assert json.loads(out)["interval"] == interval


def _usage_error(argv, capsys):
    code, out = run(argv)
    assert code == 2 and out == ""
    return capsys.readouterr().err


def test_malformed_sieve_file_names_file_and_line(tmp_path, capsys):
    f = tmp_path / "bad.sv"
    f.write_text("algebra Q(sqrt 2)\ntail kfree 2\n# 7 splits into two primes\nexception 7 2 2 : -\n")
    err = _usage_error(["sieve", "density", "--spec", str(f)], capsys)
    assert err == f"error: {f}:4: prime index 2 out of range for p=7\n"
    f.write_text("algebra Q\ntail kfree two\n")
    assert _usage_error(["sieve", "enumerate", "--spec", str(f)], capsys).startswith(f"error: {f}:2: ")
    f.write_text("algebra Q\n\n")
    err = _usage_error(["sieve", "enumerate", "--spec", str(f)], capsys)
    assert err == f"error: {f}:2: sieve file needs `algebra` and `tail` lines\n"


def test_malformed_pattern_file_names_file_and_line(sq_file, tmp_path, capsys):
    f = tmp_path / "bad.pat"
    f.write_text("1, 2,\n# a comment\n3, 4x\n")
    err = _usage_error(["shift", "admissible", "--spec", sq_file, "--pattern", str(f)], capsys)
    assert err == f"error: {f}:3: bad rational literal: '4x'\n"


def test_malformed_code_file_names_file_and_line(tmp_path, capsys):
    code, pat = tmp_path / "bad.code", tmp_path / "ok.pat"
    pat.write_text("1,2,3\n")
    code.write_text("source Q\nwindow 0,1\n\npattern 0, 1y\n")
    err = _usage_error(["shift", "apply", "--code", str(code), "--pattern", str(pat)], capsys)
    assert err == f"error: {code}:4: bad rational literal: '1y'\n"
    code.write_text("source Q\nmatrix 1,2\nwindow 0\npattern 0\n")
    err = _usage_error(["shift", "apply", "--code", str(code), "--pattern", str(pat)], capsys)
    assert err == f"error: {code}:2: matrix length does not match degrees\n"


def test_exit_code_domain_error(tmp_path):
    f = tmp_path / "onefree.sv"
    f.write_text("algebra Q\ntail kfree 1\n")
    code, out = run(["sieve", "density", "--spec", str(f)])
    assert code == 4 and "TailNotBoundable" in out
    # 19^8 classes of Q(sqrt 2) exceed the strip sieve's grid budget: refused at once
    code, out = run(["lg", "surjectivity", "--field", "Q(sqrt 2)", "--k", "4", "--p", "19"])
    assert code == 4 and "BudgetExceeded" in out
    # so do (2*10^9 + 1)^2 points of a density or tail box, before any prime is listed
    f.write_text("algebra Q(sqrt 2)\ntail kfree 2\n")
    for cmd in ("density", "tail"):
        t0 = time.perf_counter()
        code, out = run(["sieve", cmd, "--spec", str(f), "--bound", "1000000000"])
        assert code == 4 and "BudgetExceeded" in out and time.perf_counter() - t0 < 0.5


def test_scan_reports_violation_with_exit_1():
    code, out = run(
        ["linmap", "scan", "--source", "Q", "--target", "Q(sqrt 3)", "--matrix", "1,0", "--cutoff", "10"]
    )
    assert code == 1 and "violating_prime: 2" in out


def test_far_linmap_scan_answers_and_past_the_prime_limit_refuses():
    # 1 + sqrt 2 times the identity: a unit monomial, so no prime is open at any cutoff
    argv = ["linmap", "scan", "--source", "Q(sqrt 2)", "--matrix", "1,2,1,1", "--cutoff"]
    t0 = time.perf_counter()
    code, out = run(argv + ["9999999"])
    assert code == 0 and "violating_prime: none" in out and time.perf_counter() - t0 < 1
    code, out = run(argv + ["10000001"])
    assert code == 4 and "BudgetExceeded" in out


def test_scan_into_a_degree_three_target():
    # the target lattice of Q x Q(sqrt 2) has rank 3; the map fails at p = 2
    code, out = run(
        ["linmap", "scan", "--source", "Q(sqrt 2)", "--target", "Q x Q(sqrt 2)", "--matrix", "1,0,1,0,0,1", "--cutoff", "10"]
    )
    assert code == 1 and "violating_prime: 2\nviolating_class: 1*w\nimage: 0|1*w\n" in out


def test_shear_unit_check_exit_1():
    code, out = run(
        ["linmap", "units", "--source", "Q(sqrt 2)", "--matrix", "1,1,0,1", "--height", "5"]
    )
    assert code == 1 and "counterexample: -1+1*w" in out


def test_apply_block_code(flip_code_file, tmp_path):
    pat = tmp_path / "demo.pat"
    pat.write_text("-3,-2,-1,2,3,4,9,17,19\n")
    code, out = run(
        ["shift", "apply", "--code", flip_code_file, "--pattern", str(pat), "--known=-4:20"]
    )
    assert code == 0
    assert "image: -3,-1,2,4,9,17,18,19" in out


def test_byte_identical_output(sq_file):
    args = ["--json", "entropy", "product", "--spec", sq_file, "--cutoff", "3000"]
    _, out1 = run(args)
    _, out2 = run(args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["command"] == "entropy product"
    assert len(doc["interval"]) == 2


def test_preservers_command():
    code, out = run(["linmap", "preservers", "--q", "3", "--n", "2", "--m", "2"])
    assert code == 0 and "preservers: 8" in out and "all_monomial: True" in out


def test_orbit_command(tmp_path):
    pat = tmp_path / "p.pat"
    pat.write_text("1,2\n")
    win = tmp_path / "w.pat"
    win.write_text("0,1,2\n")
    code, out = run(
        ["shift", "orbit", "--field", "Q", "--k", "2", "--pattern", str(pat), "--window-pattern", str(win)]
    )
    assert code == 0 and "delta: 4" in out


def test_surjectivity_command():
    code, out = run(["lg", "surjectivity", "--field", "Q", "--k", "2", "--p", "2"])
    assert code == 0 and "target_classes: 3" in out


def test_surjectivity_verification_failure_exit_4(monkeypatch):
    # a rejected witness raises VerificationFailed (not AssertionError), which maps to exit 4
    monkeypatch.setattr(localglobal, "membership", lambda sieve, y: SimpleNamespace(member=False))
    code, out = run(["lg", "surjectivity", "--field", "Q(sqrt 13)", "--k", "2", "--p", "3"])
    assert code == 4 and "VerificationFailed" in out


def test_orbit_verification_failure_exit_4(monkeypatch, tmp_path):
    # a rejected orbit witness raises VerificationFailed (not AssertionError), which maps to exit 4
    monkeypatch.setattr(shiftspace, "membership", lambda sieve, y: SimpleNamespace(member=False))
    pat = tmp_path / "p.pat"
    pat.write_text("1,2\n")
    win = tmp_path / "w.pat"
    win.write_text("0,1,2\n")
    code, out = run(["shift", "orbit", "--pattern", str(pat), "--window-pattern", str(win)])
    assert code == 4 and "VerificationFailed" in out


# every command that needs input files, with the flags it cannot run without
REQUIRED_FLAGS = [
    ("sieve", "enumerate", ["spec"]),
    ("sieve", "density", ["spec"]),
    ("sieve", "tail", ["spec"]),
    ("lg", "solve", ["spec"]),
    ("shift", "admissible", ["spec", "pattern"]),
    ("shift", "apply", ["code", "pattern"]),
    ("shift", "verify", ["code", "source-sieve"]),
    ("shift", "conjugacy", ["spec", "other"]),
    ("shift", "orbit", ["pattern", "window-pattern"]),
    ("entropy", "product", ["spec"]),
    ("entropy", "empirical", ["spec"]),
]


@pytest.mark.parametrize("group,sub,flags", REQUIRED_FLAGS)
def test_required_flags_are_usage_errors(group, sub, flags, capsys):
    for missing in flags:
        given = [arg for flag in flags if flag != missing for arg in (f"--{flag}", "/nonexistent/x")]
        code, _ = run([group, sub, *given])
        assert code == 2 and capsys.readouterr().err == f"error: --{missing} is required\n"
    code, out = run([group, sub, "--selftest"])
    assert code == 0 and "selftest_result: pass" in out


@pytest.mark.parametrize(
    "sub,config",
    [("decompose", "digits=12 matrix=1 source=Q"), ("units", "digits=12 height=10 matrix=1 source=Q")],
    ids=["decompose", "units"],
)
@pytest.mark.parametrize("flag", ["--source-sieve", "--target-sieve", "--k", "--l"])
def test_linmap_sieve_flags_only_where_read(sub, config, flag):
    # decompose and units read no sieve, so they take no sieve flags
    with pytest.raises(SystemExit) as e:
        run(["linmap", sub, flag, "2"])
    assert e.value.code == 2
    code, out = run(["linmap", sub])
    assert code == 0 and f"config: {config}\n" in out


SELFTESTS = [
    ("sieve", "enumerate"),
    ("lg", "solve"),
    ("linmap", "check"),
    ("shift", "admissible"),
    ("entropy", "product"),
]


@pytest.mark.parametrize("group,sub", SELFTESTS)
def test_selftests(group, sub):
    code, out = run([group, sub, "--selftest"])
    assert code == 0
    assert "selftest_result: pass" in out


@pytest.mark.parametrize("group,sub", SELFTESTS)
def test_selftests_optimized(group, sub):
    # python -O strips assert statements; the verification checks must not rely on them
    src = str(Path(ringsieve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "ringsieve.cli", group, sub, "--selftest"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest_result: pass" in proc.stdout


def test_reused_parser_matches_fresh_process():
    # main builds its parser once per process; a usage error and earlier calls must leave no state behind
    root = Path(__file__).resolve().parents[1]
    src = str(Path(ringsieve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    zeta = ["--json", "entropy", "zeta", "--field", "Q(sqrt 5)", "--cutoff", "1000"]
    density = ["--json", "sieve", "density", "--spec", str(root / "bench" / "specs" / "sq.sv"), "--cutoff", "500"]
    with pytest.raises(SystemExit) as usage:
        run(["entropy", "zeta", "--cutoff", "x"])
    assert usage.value.code == 2
    for argv in (zeta, zeta, density):
        code, out = run(argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "ringsieve.cli", *argv], capture_output=True, text=True, env=env, timeout=300
        )
        assert (code, out) == (fresh.returncode, fresh.stdout)
