"""Malformed and oversized input: each named defect pinned, a mutation sweep over the three file formats,
and a sweep of the numeric flags' edge values."""

import io
import re
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ringsieve.cli import main
from ringsieve.lattices import coset_points, lat_contains
from ringsieve.presets import adjacent_pair_code, neighbor_flip_code
from ringsieve.rings import AlgebraicInt
from ringsieve.shiftspace import format_code
from ringsieve.sieve import membership, parse_sieve_file


def run(argv):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call; argparse's usage errors exit 2."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def write(tmp_path, name, content):
    f = tmp_path / name
    if isinstance(content, str):
        content = content.encode()
    f.write_bytes(content)
    return str(f)


def usage_error(argv, path, line):
    code, out, err, seconds = run(argv)
    assert (code, out) == (2, ""), (code, out, err)
    assert err.startswith(f"error: {path}:{line}: ") and seconds < 1, (err, seconds)
    return err


def test_duplicate_exception_is_named_at_its_line(tmp_path):
    f = write(tmp_path, "dup.sv", "algebra Q\ntail kfree 2\nexception 3 2 : 0\nexception 3 2 : 1\n")
    err = usage_error(["sieve", "density", "--spec", f], f, 4)
    assert err == f"error: {f}:4: duplicate exception at (3)[rational]\n"


def test_bytes_that_are_not_utf8_are_named_at_their_line(tmp_path):
    f = write(tmp_path, "latin1.sv", b"algebra Q\r\n# caf\xe9\ntail kfree 2\n")
    err = usage_error(["sieve", "density", "--spec", f], f, 2)
    assert err == f"error: {f}:2: byte 0xe9 is not UTF-8\n"
    f = write(tmp_path, "bad.pat", b"1, 2,\n\n3, \xff4\n")
    usage_error(["shift", "admissible", "--spec", write(tmp_path, "sq.sv", "algebra Q\ntail kfree 2\n"),
                 "--pattern", f], f, 3)


def test_negative_prime_index_is_out_of_range(tmp_path):
    f = write(tmp_path, "neg.sv", "algebra Q(sqrt 2)\ntail kfree 2\nexception 7 -1 2 : 0\n")
    err = usage_error(["sieve", "density", "--spec", f], f, 3)
    assert err == f"error: {f}:3: prime index -1 out of range for p=7\n"


def test_huge_tail_exponent_answers(tmp_path):
    f = write(tmp_path, "k1m.sv", "algebra Q(sqrt 2)\ntail kfree 1000000\n")
    for argv, interval in (
        (["sieve", "density", "--spec", f, "--bound", "20"], "0.999999999999, 1.000000000000"),
        (["entropy", "product", "--spec", f], "0.693147180559, 0.693147180560"),
        (["entropy", "zeta", "--field", "Q(sqrt 2)", "--s", "1000000", "--cutoff", "10000"],
         "1.000000000000, 1.000000000001"),
        (["sieve", "density", "--spec", f, "--cutoff", "0"], "0.000000000000, 1.000000000000"),
        (["entropy", "zeta", "--field", "Q(sqrt 2)", "--s", "1000000", "--cutoff", "0"],
         "1.000000000000, 1.000002000006"),
    ):
        code, out, err, seconds = run(argv)
        assert code == 0 and err == "" and seconds < 1, (argv, err, seconds)
        assert f"interval: {interval}\n" in out


def test_huge_discriminant_is_refused_at_once(tmp_path):
    f = write(tmp_path, "d21.sv", "algebra Q(sqrt 100000000000000000039)\ntail kfree 2\n")
    for argv in (["sieve", "density", "--spec", f],
                 ["entropy", "zeta", "--field", "Q(sqrt 100000000000000000039)"]):
        code, out, err, seconds = run(argv)
        assert code == 4 and "BudgetExceeded" in out and err == "" and seconds < 1, (argv, out, err, seconds)
    # past 10^21 the squarefree test itself would scan primes past 10^7
    f = write(tmp_path, "d22.sv", "algebra Q(sqrt 1000000000000000000000007)\ntail kfree 2\n")
    err = usage_error(["sieve", "density", "--spec", f], f, 1)
    assert "over the limit 10000000" in err


def test_huge_split_exponent_is_refused(tmp_path):
    f = write(tmp_path, "split.sv", "algebra Q(sqrt 2)\ntail kfree 2\nexception 7 0 1000000 : 0\n")
    err = usage_error(["sieve", "density", "--spec", f], f, 3)
    assert "passes the modulus limit of 32768 bits" in err


def test_huge_exponents_off_the_split_lift_answer(tmp_path):
    # only a split prime's root lift is refused at 2^15 bits; other p^k are one power each
    for name, text, interval in (
        ("inert.sv", "algebra Q(sqrt 2)\ntail kfree 2\nexception 3 1000000 : 0\n", "0.705454806096, 0.705595925282"),
        ("qq.sv", "algebra Q x Q\ntail kfree 1000000\nexception 2 1 : -\n", "0.999999999999, 1.000000000000"),
        # the other component's 2 splits: its factor is read off the norm, not built as an ideal
        ("q7.sv", "algebra Q x Q(sqrt -7)\ntail kfree 1000000\nexception 2 1 : -\n",
         "0.999999999999, 1.000000000000"),
    ):
        f = write(tmp_path, name, text)
        code, out, err, seconds = run(["sieve", "density", "--spec", f, "--bound", "5"])
        assert code == 0 and err == "" and f"interval: {interval}\n" in out and seconds < 2, (name, out, err, seconds)
    sv = parse_sieve_file("algebra Q x Q\ntail kfree 1000000\nexception 2 1 : -\n")
    assert not membership(sv, AlgebraicInt(sv.algebra, ((0,), (0,)))).member
    huge = write(tmp_path, "huge.sv", "algebra Q\ntail kfree 2\nexception 2 1000000000000000000000000000000 : 0\n")
    assert "passes the modulus limit of 4194304 bits" in usage_error(["sieve", "density", "--spec", huge], huge, 3)
    # a tail exponent past int64 forms no power in the box readers either
    f = write(tmp_path, "k20.sv", "algebra Q\ntail kfree 99999999999999999999\nexception 2 3 : 0,4\n")
    code, out, err, seconds = run(["sieve", "enumerate", "--spec", f, "--bound", "3"])
    assert code == 0 and err == "" and "count: 6\n" in out and seconds < 1, (out, err, seconds)


def test_a_label_point_is_rejected_at_the_first_prime_whose_power_is_built():
    # the other component's first tail prime splits, and its 2^1000000 lift is refused:
    # the inert (3) rejects 1|0 instead
    sv = parse_sieve_file("algebra Q x Q(sqrt -7)\ntail kfree 1000000\nexception 2 1 : -\n")
    t0 = time.perf_counter()
    v = membership(sv, AlgebraicInt(sv.algebra, ((1,), (0, 0))))
    assert (v.member, str(v.prime), v.class_rep, [str(q) for q in v.checked]) == (
        False, "(3)#1[inert]", (0, 0), ["(2)#0[rational]"]) and time.perf_counter() - t0 < 1
    # where the first tail prime's power is built, it still rejects
    sv = parse_sieve_file("algebra Q(sqrt -7)\ntail kfree 2\n")
    v = membership(sv, sv.algebra.zero)
    assert (v.member, str(v.prime), v.class_rep) == (False, "(2, w-0)[split]", (0, 0))


def test_exception_modulus_past_int64_is_marked_exactly(tmp_path):
    # 7^30 is about 2^84: the box sieve's row arithmetic leaves int64
    f = write(tmp_path, "e30.sv", "algebra Q(sqrt 2)\ntail kfree 2\nexception 7 0 30 : 0\n")
    code, out, err, _ = run(["sieve", "density", "--spec", f, "--bound", "5"])
    assert code == 0 and err == "" and "empirical: 0.7768595041322314\n" in out
    code, out, err, _ = run(["sieve", "enumerate", "--spec", f, "--bound", "2"])
    assert code == 0 and err == "" and "count: 16\n" in out
    code, out, err, _ = run(["entropy", "product", "--spec", f])
    assert code == 0 and "interval: 0.493008569610, 0.493107191049\n" in out
    f = write(tmp_path, "e30q.sv", "algebra Q\ntail kfree 2\nexception 7 30 : 0\n")
    code, out, err, _ = run(["sieve", "density", "--spec", f, "--bound", "5"])
    assert code == 0 and "empirical: 0.7272727272727273\n" in out


def test_coset_points_exact_past_int64_products():
    # alpha^2 passes 2^63: a class near alpha used to wrap the int64 row arithmetic
    for alpha, beta, c in ((10**10 + 19, 1234567891, (10**10 + 14, 3)), (7**30, 7**29 + 5, (7**30 - 1, 0))):
        h = ((alpha, 0), (beta, 1))
        mask = np.zeros(64 * 64, bool)
        for idx in coset_points(h, c, -32, -32, 64, 64):
            mask[idx] = True
        truth = [lat_contains((a - 32 - c[0], b - 32 - c[1]), h) for a in range(64) for b in range(64)]
        assert mask.tolist() == truth


# a tail label 300 away from a 25-point box over Q(sqrt 2), every class of 2, 3, 5 and 7 left free
FAR_QUADRATIC = ("algebra Q(sqrt 2)\ntail classes 1,300\nexception 2 0 1 : -\nexception 3 0 1 : -\n"
                 "exception 5 0 1 : -\nexception 7 0 1 : -\nexception 7 1 1 : -\n")

def test_tail_labels_far_past_the_box_enumerate_at_once(tmp_path):
    # a label 10^6 away from a 5-point box: its primes below 10^6 are not walked one coset at a time
    f = write(tmp_path, "far.sv", "algebra Q\ntail classes 1000000,1\nexception 2 1 : -\nexception 3 1 : -\n")
    code, out, err, seconds = run(["sieve", "enumerate", "--spec", f, "--bound", "2"])
    assert code == 0 and err == "" and "count: 0\n" in out and seconds < 1, (out, err, seconds)
    f = write(tmp_path, "far10.sv", "algebra Q\ntail classes 10,1\nexception 2 1 : -\nexception 3 1 : -\n")
    code, out, err, seconds = run(["sieve", "enumerate", "--spec", f, "--bound", "2"])
    assert code == 0 and "count: 2\nmembers: -2, 2\n" in out and seconds < 1, (out, err, seconds)
    # over Q(sqrt 2) too: a split, inert or ramified q^k far past the box's height meets it at most once
    # per column, so no prime ideal of norm up to about 2.7 * 10^5 is walked as its own coset
    f = write(tmp_path, "far2.sv", FAR_QUADRATIC)
    code, out, err, seconds = run(["sieve", "enumerate", "--spec", f, "--bound", "2"])
    assert code == 0 and err == "" and "count: 1\nmembers: 0\n" in out and seconds < 1, (out, err, seconds)


def test_refusals_answer_before_they_work(tmp_path):
    sq = write(tmp_path, "sq.sv", "algebra Q\ntail kfree 2\n")
    for argv, code, error in (
        # 17 points of the window are admissible alone, so the 18th pattern, a pair, ends the listing
        (["shift", "symmetries", "--window", "8"], 4,
         "BudgetExceeded: more than 17 admissible window patterns: their families exceed the scan budget"),
        (["entropy", "empirical", "--spec", sq, "--box", "100000000000"], 4,
         "BudgetExceeded: 2^100000000000 subsets exceed budget 16777216"),
        (["--digits", "4400", "entropy", "zeta"], 2, "argument --digits: must be <= 4300, got 4400"),
    ):
        got, out, err, seconds = run(argv)
        assert got == code and error in out + err and "Traceback" not in out + err and seconds < 1, (
            argv, got, out, err, seconds)
    # the largest --digits still prints: 4300 places after the point
    code, out, err, _ = run(["--digits", "4300", "entropy", "zeta", "--cutoff", "10"])
    assert code == 0 and re.search(r"\ninterval: 1\.\d{4300}, 1\.\d{4300}\n", out), (code, err)


def test_euler_cutoffs_and_scans_refuse_past_the_prime_limit(tmp_path):
    sq = write(tmp_path, "sq.sv", "algebra Q\ntail kfree 2\n")
    for argv in (["sieve", "density", "--spec", sq], ["entropy", "product", "--spec", sq], ["entropy", "zeta"],
                 ["linmap", "scan"]):
        code, out, err, seconds = run(argv + ["--cutoff", "10000001"])
        assert code == 4 and err == "" and seconds < 1, (argv, code, err, seconds)
        assert "error: BudgetExceeded: listing the primes up to 10000001 is over the limit 10000000\n" in out, out


def test_unreadable_spec_exits_3(tmp_path):
    code, out, err, _ = run(["sieve", "density", "--spec", str(tmp_path)])
    assert code == 3 and out == "" and err.startswith(f"error: cannot read {tmp_path}: ")


# ---------------------------------------------------------------------------
# mutation sweep: every mutated file ends with a documented exit code, no traceback

SIEVES = [
    "algebra Q(sqrt 2)\ntail kfree 2\n# 7 splits\nexception 7 0 2 : 0,5\nexception 3 1 : -\n",
    "algebra Q\ntail kfree 3\nexception 2 3 : 0,4\n",
    "algebra Q x Q(sqrt -1)\ntail kfree 2\nexception 5 1 1 : 0\n",
    "algebra Q\ntail classes 0,1\nexception 2 1 : -\nexception 3 1 : -\n",
    FAR_QUADRATIC,
]
PATTERNS = [("Q", "1, 2,\n# a comment\n3, 5\n"), ("Q(sqrt 2)", "0, 1+w,\n2-3*w\n")]
CODES = [
    format_code(neighbor_flip_code()),
    format_code(adjacent_pair_code()),
    "source Q(sqrt 2)\nmatrix 1,0,0,1\nwindow 0,1,w\npattern 0\npattern 1,w\n",
]
BAD_BYTES = [b"\xff", b"\xc3", b"\xe9", b"\x80", b"\xf0\x9f"]
FIELD = re.compile(rb"([ ,:]+)")


@st.composite
def mutated(draw, texts):
    """One of texts as bytes, with one to three line or field mutations."""
    lines = draw(st.sampled_from(texts)).encode().split(b"\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "dup", "swap", "byte", "negate", "enlarge", "drop field",
                                     "dup field", "swap fields"]))
        if kind == "drop":
            del lines[i]
        elif kind == "dup":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "byte":
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(st.sampled_from(BAD_BYTES)) + lines[i][at:]
        else:
            parts = FIELD.split(lines[i])  # fields at even places, separators between
            f = 2 * draw(st.integers(0, len(parts) // 2))
            if kind == "negate":
                parts[f] = parts[f][1:] if parts[f].startswith(b"-") else b"-" + parts[f]
            elif kind == "enlarge":
                parts[f] = draw(st.sampled_from([parts[f] + b"0" * draw(st.integers(1, 30)), b"1000000",
                                                 b"99999999999999999999"]))
            elif kind == "drop field":
                parts[f : f + 2] = []
            elif kind == "dup field":
                parts.insert(f, parts[f] + b" ")
            else:
                g = 2 * draw(st.integers(0, len(parts) // 2))
                parts[f], parts[g] = parts[g], parts[f]
            lines[i] = b"".join(parts)
        if not lines:
            lines = [b""]
    return b"\n".join(lines)


def _documented_end(argv, path, data):
    code, out, err, seconds = run(argv)
    assert seconds < 2, (argv, seconds)
    assert code in (0, 1, 2, 3, 4) and "Traceback" not in out + err, (code, out, err)
    if code == 2:
        assert out == "" and re.match(rf"error: {re.escape(path)}:\d+: ", err), err
    if code == 4:
        assert "\nerror: " in out, out
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:  # the texts break lines at b"\n" only
        line = data.count(b"\n", 0, e.start) + 1
        assert err.startswith(f"error: {path}:{line}: byte "), err


SWEEP = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@SWEEP
@given(data=mutated(SIEVES), enumerate_=st.booleans())
def test_mutated_sieve_files(tmp_path, data, enumerate_):
    f = write(tmp_path, "m.sv", data)
    if enumerate_:
        _documented_end(["sieve", "enumerate", "--spec", f, "--bound", "2"], f, data)
    else:
        _documented_end(["sieve", "density", "--spec", f, "--cutoff", "300", "--bound", "3"], f, data)


@SWEEP
@given(which=st.integers(0, len(PATTERNS) - 1), data=st.data())
def test_mutated_pattern_files(tmp_path, which, data):
    field, text = PATTERNS[which]
    spec = write(tmp_path, "sq.sv", f"algebra {field}\ntail kfree 2\n")
    text = data.draw(mutated([text]))
    f = write(tmp_path, "m.pat", text)
    _documented_end(["shift", "admissible", "--spec", spec, "--pattern", f], f, text)


@SWEEP
@given(data=mutated(CODES))
def test_mutated_code_files(tmp_path, data):
    f = write(tmp_path, "m.code", data)
    pat = write(tmp_path, "p.pat", "-3,-2,-1,2,3,4,9\n")
    _documented_end(["shift", "apply", "--code", f, "--pattern", pat, "--known=-4:20"], f, data)


# ---------------------------------------------------------------------------
# numeric-flag sweep: every edge value of every numeric flag ends with a documented exit code, no traceback

EDGES = [0, 1, -1, 2, 10**7 - 1, 10**7 + 1, 2**63, 10**30]
# Work that is linear in the count asked for, by design, takes in-budget values that keep a case under
# 2 s: --trials, --bound of `lg solve` and `shift orbit` (a scan to the bound when no witness exists),
# and --cutoff, where `linmap scan` and the Euler products walk every prime up to the cutoff.  The
# cutoffs past the prime limit stay in, since those must be refused.
LINEAR = [0, 1, -1, 2, 3, 100]
CUTOFFS = LINEAR + [10**7 + 1, 2**63, 10**30]
FLAGS = {
    "--k": [(["lg", "surjectivity"], EDGES), (["linmap", "check"], EDGES), (["linmap", "scan"], EDGES),
            (["linmap", "cover"], EDGES), (["shift", "symmetries"], EDGES),
            (["shift", "orbit", "--pattern", "--window-pattern"], EDGES)],
    "--l": [(["linmap", "check"], EDGES), (["linmap", "scan"], EDGES)],
    "--s": [(["entropy", "zeta"], EDGES)],
    "--p": [(["lg", "surjectivity"], EDGES), (["linmap", "check"], EDGES), (["linmap", "cover"], EDGES)],
    "--q": [(["linmap", "preservers"], EDGES)],
    "--n": [(["linmap", "preservers"], EDGES)],
    "--m": [(["linmap", "preservers"], EDGES)],
    "--cutoff": [(["sieve", "density", "--spec"], CUTOFFS), (["entropy", "product", "--spec"], CUTOFFS),
                 (["entropy", "zeta"], CUTOFFS), (["linmap", "scan"], CUTOFFS)],
    "--bound": [(["sieve", "enumerate", "--spec"], EDGES), (["sieve", "density", "--spec"], EDGES),
                (["sieve", "tail", "--spec"], EDGES), (["lg", "solve", "--spec"], LINEAR),
                (["shift", "orbit", "--pattern", "--window-pattern"], LINEAR)],
    "--norm-cutoff": [(["sieve", "tail", "--spec"], EDGES)],
    "--window": [(["shift", "symmetries"], EDGES)],
    "--box": [(["entropy", "empirical", "--spec"], EDGES)],
    "--limit": [(["lg", "surjectivity"], EDGES)],
    "--height": [(["linmap", "units"], EDGES)],
    "--trials": [(["shift", "verify", "--code", "--source-sieve"], LINEAR)],
    "--digits": [(["entropy", "zeta", "--cutoff", "100"], EDGES)],
}


@pytest.mark.parametrize("flag", list(FLAGS))
def test_numeric_flag_edges(tmp_path, flag):
    sq = write(tmp_path, "sq.sv", "algebra Q\ntail kfree 2\n")
    files = {  # a file flag in a command is followed by its file's path
        "--spec": sq,
        "--source-sieve": sq,
        "--pattern": write(tmp_path, "p.pat", "0, 1\n"),
        "--window-pattern": write(tmp_path, "w.pat", "0, 1, 2\n"),
        "--code": write(tmp_path, "flip.code", format_code(neighbor_flip_code())),
    }

    @settings(max_examples=60, deadline=None)  # at least every case of the flag: the sweep exhausts them
    @given(case=st.sampled_from(FLAGS[flag]).flatmap(lambda c: st.tuples(st.just(c[0]), st.sampled_from(c[1]))))
    def sweep(case):
        command, value = case
        argv = [a for word in command for a in ([word, files[word]] if word in files else [word])]
        code, out, err, seconds = run(argv + [f"{flag}={value}"])
        assert code in (0, 1, 2, 4) and "Traceback" not in out + err and seconds < 2, (argv, value, code, out, err,
                                                                                      seconds)

    sweep()
