"""Command-line interface: every library operation as a subcommand.

Exit codes: 0 success / verified, 1 mathematical negative (counterexample,
not found, not conjugate), 2 usage error or malformed input file (printed
as `error: <file>:<line>: <message>`), 3 missing file, 4 domain error.
Output is deterministic; --json emits a single structured document.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import cache

from . import entropy as entropy_mod
from . import linmaps, localglobal, presets, shiftspace
from . import sieve as sieve_mod
from .errors import FormatError, NotFoundWithinBound, RingsieveError
from .intervals import RationalInterval
from .primes import primes_upto
from .rings import (
    QQ,
    format_algebra,
    format_element,
    make_algebra,
    parse_algebra,
    parse_element,
    split_prime,
    units_up_to,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NOFILE = 3
EXIT_DOMAIN = 4


class _Report:
    """Ordered key-value report rendered as text or JSON."""

    def __init__(self, json_mode: bool, digits: int = 12):
        self.json_mode = json_mode
        self.digits = digits
        self.rows: list[tuple[str, object]] = []

    def add(self, key: str, value):
        self.rows.append((key, value))

    def _convert(self, value):
        if isinstance(value, RationalInterval):
            lo, hi = value.decimal(self.digits)
            return [lo, hi]
        if isinstance(value, Fraction):
            return f"{value.numerator}/{value.denominator}"
        if isinstance(value, (list, tuple)):
            return [self._convert(v) for v in value]
        return value

    def emit(self):
        if self.json_mode:
            doc = {k: self._convert(v) for k, v in self.rows}
            print(json.dumps(doc, separators=(", ", ": ")))
        else:
            for k, v in self.rows:
                vv = self._convert(v)
                if isinstance(vv, list):
                    vv = ", ".join(str(x) for x in vv)
                print(f"{k}: {vv}")


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        print(f"error: file not found: {path}", file=sys.stderr)
        raise SystemExit(EXIT_NOFILE)


def _parse_file(path: str, parse, *args):
    """parse(text of the file, *args), with the path attached to a FormatError."""
    try:
        return parse(_read_file(path), *args)
    except FormatError as e:
        e.path = path
        raise


def _load_sieve(path: str) -> sieve_mod.SieveSpec:
    return _parse_file(path, sieve_mod.parse_sieve_file)


def _parse_cong(text: str, algebra):
    # p[idx]^k=literal
    import re

    m = re.match(r"^(\d+)(?:\[(\d+)\])?\^(\d+)=(.+)$", text.strip())
    if m is None:
        raise ValueError(f"bad congruence {text!r}; expected p[idx]^k=element")
    p, idx, k = int(m.group(1)), int(m.group(2) or 0), int(m.group(3))
    primes = split_prime(algebra, p)
    if idx >= len(primes):
        raise ValueError(f"prime index {idx} out of range for p={p}")
    return localglobal.CongruenceConstraint(
        primes[idx], k, parse_element(m.group(4), algebra)
    )


def _linear_map(args) -> linmaps.ZLinearMap:
    """The --matrix map (row-major) from --source to --target, which defaults to the source."""
    source = parse_algebra(args.source)
    target = parse_algebra(args.target) if args.target else source
    vals = [int(v) for v in args.matrix.replace(" ", "").split(",") if v != ""]
    n, m = source.degree, target.degree
    if len(vals) != n * m:
        raise ValueError(f"matrix needs {n * m} entries (row-major), got {len(vals)}")
    rows = tuple(tuple(vals[i * n : (i + 1) * n]) for i in range(m))
    return linmaps.ZLinearMap(source, target, rows)


_CONFIG_SKIP = {"handler", "required", "group", "sub", "selftest", "json"}


def _echo_config(rep: _Report, args):
    cfg = []
    for k in sorted(vars(args)):
        if k in _CONFIG_SKIP:
            continue
        v = getattr(args, k)
        if v is None:
            continue
        cfg.append(f"{k.replace('_', '-')}={v}")
    rep.add("config", " ".join(cfg) if cfg else "(defaults)")


# ---------------------------------------------------------------------------
# command handlers; each returns the exit code


def _cmd_sieve_enumerate(args, rep):
    sv = _load_sieve(args.spec)
    members = sieve_mod.enumerate_V(sv, args.bound)
    rep.add("sieve", str(sv))
    rep.add("count", len(members))
    rep.add("members", [format_element(x) for x in members])
    return EXIT_OK


def _cmd_sieve_density(args, rep):
    sv = _load_sieve(args.spec)
    iv = sieve_mod.density_interval(sv, args.cutoff)
    rep.add("sieve", str(sv))
    rep.add("interval", iv)
    rep.add("width", float(iv.width))
    if args.bound:
        emp = sieve_mod.empirical_density(sv, args.bound)
        rep.add("empirical", float(emp))
        rep.add("empirical_inside", iv.contains(emp))
    return EXIT_OK


def _cmd_sieve_tail(args, rep):
    sv = _load_sieve(args.spec)
    if not sv.tail.is_kfree:
        raise RingsieveError("tail counting requires a k-free sieve file")
    k = sv.tail.exponent
    n = sieve_mod.tail_count(sv.algebra, k, args.bound, args.norm_cutoff)
    rep.add("algebra", format_algebra(sv.algebra))
    rep.add("k", k)
    rep.add("coordinate_bound", args.bound)
    rep.add("norm_cutoff", args.norm_cutoff)
    rep.add("count", n)
    return EXIT_OK


def _cmd_lg_solve(args, rep):
    sv = _load_sieve(args.spec)
    cons = [_parse_cong(c, sv.algebra) for c in args.cong or []]
    rep.add("sieve", str(sv))
    rep.add("constraints", [f"{c.prime}^{c.k}={format_element(c.target)}" for c in cons])
    try:
        y = localglobal.solve(sv, cons, bound=args.bound)
    except NotFoundWithinBound as e:
        rep.add("result", "not-found-within-bound")
        rep.add("bound", e.bound)
        return EXIT_NEGATIVE
    rep.add("witness", format_element(y))
    rep.add("height", y.height)
    return EXIT_OK


def _cmd_lg_surjectivity(args, rep):
    algebra = parse_algebra(args.field)
    r = localglobal.check_local_surjectivity(algebra, args.k, args.p)
    rep.add("field", format_algebra(algebra))
    rep.add("k", args.k)
    rep.add("p", args.p)
    rep.add("classes_mod_p^k", r.n_classes)
    rep.add("target_classes", r.v_classes)
    rep.add("surjective", r.surjective)
    rep.add("max_witness_height", r.max_witness_height)
    rep.add("reverified", r.reverified)
    sample = [(list(c), format_element(w)) for c, w in r.items(limit=args.limit)]
    rep.add("witness_sample", [f"{c}->{w}" for c, w in sample])
    return EXIT_OK


def _cmd_linmap_check(args, rep):
    a = _linear_map(args)
    r_sv = _load_sieve(args.source_sieve) if args.source_sieve else sieve_mod.kfree_sieve(a.source, args.k)
    s_sv = _load_sieve(args.target_sieve) if args.target_sieve else sieve_mod.kfree_sieve(a.target, args.l)
    res = linmaps.check_local_condition(a, r_sv, s_sv, args.p)
    rep.add("p", args.p)
    rep.add("holds", res.ok)
    if not res.ok:
        rep.add("violating_class", format_element(res.counterexample))
        rep.add("image", format_element(res.image))
    return EXIT_OK if res.ok else EXIT_NEGATIVE


def _cmd_linmap_scan(args, rep):
    a = _linear_map(args)
    r_sv = _load_sieve(args.source_sieve) if args.source_sieve else sieve_mod.kfree_sieve(a.source, args.k)
    s_sv = _load_sieve(args.target_sieve) if args.target_sieve else sieve_mod.kfree_sieve(a.target, args.l)
    res = linmaps.scan_primes(a, r_sv, s_sv, args.cutoff)
    rep.add("cutoff", args.cutoff)
    if res is None:
        rep.add("violating_prime", "none")
        return EXIT_OK
    rep.add("violating_prime", res.p)
    rep.add("violating_class", format_element(res.counterexample))
    rep.add("image", format_element(res.image))
    return EXIT_NEGATIVE


def _cmd_linmap_decompose(args, rep):
    a = _linear_map(args)
    d = linmaps.decompose_monomial(a)
    if d is None:
        rep.add("monomial", False)
        return EXIT_NEGATIVE
    rep.add("monomial", True)
    rep.add("tau", d.tau.describe())
    rep.add("epsilon", format_element(d.epsilon))
    rep.add("epsilon_is_unit", d.epsilon.is_unit())
    return EXIT_OK


def _cmd_linmap_preservers(args, rep):
    res = linmaps.preserver_scan(args.q, args.n, args.m)
    rep.add("q", args.q)
    rep.add("n", args.n)
    rep.add("m", args.m)
    if args.n == args.m:
        rep.add("invertible", res.invertible_count)
    rep.add("preservers", len(res.preservers))
    rep.add("all_monomial", res.all_monomial())
    rep.add(
        "matrices",
        [("M" if mono else "N") + str([list(r) for r in mat]) for mat, mono in res.preservers],
    )
    return EXIT_OK


def _cmd_linmap_cover(args, rep):
    x = [int(v) for v in args.x.split(",")]
    a = [int(v) for v in args.a.split(",")]
    sets = [
        [int(v) for v in part.split(",") if v != ""] if part else []
        for part in args.classes.split(";")
    ]
    t = linmaps.cover_witness(args.p, args.k, x, a, sets)
    rep.add("witness_t", t)
    return EXIT_OK


def _cmd_linmap_units(args, rep):
    a = _linear_map(args)
    res = linmaps.check_unit_preservation(a, args.height)
    rep.add("height", args.height)
    rep.add("units_tested", len(units_up_to(a.source, args.height)))
    rep.add("preserves_units", res.ok)
    if not res.ok:
        rep.add("counterexample", format_element(res.counterexample))
        rep.add("image", format_element(res.image))
        rep.add("image_norms", list(res.image.component_norms()))
    return EXIT_OK if res.ok else EXIT_NEGATIVE


def _cmd_shift_admissible(args, rep):
    sv = _load_sieve(args.spec)
    pat = _parse_file(args.pattern, shiftspace.parse_pattern_file, sv.algebra)
    res = shiftspace.is_admissible(sv, pat)
    rep.add("pattern_size", len(pat))
    rep.add("admissible", res.admissible)
    if res.admissible:
        rep.add("witnesses", [f"{p}:{list(d)}" for p, d in res.witnesses])
        rep.add("auto_beyond_norm", res.norm_threshold)
    else:
        rep.add("violating_prime", str(res.violation))
    return EXIT_OK if res.admissible else EXIT_NEGATIVE


def _cmd_shift_apply(args, rep):
    code = _parse_file(args.code, shiftspace.parse_code_file)
    pat = _parse_file(args.pattern, shiftspace.parse_pattern_file, code.source)
    if args.known:
        lo, hi = (int(v) for v in args.known.split(":"))
        known = shiftspace.Pattern.from_ints(code.source, range(lo, hi + 1))
        out = shiftspace.apply_block_code(code, pat, known=known)
    else:
        out = shiftspace.apply_block_code(code, pat, complete=True)
    rep.add("image", shiftspace.format_pattern(out))
    return EXIT_OK


def _cmd_shift_verify(args, rep):
    code = _parse_file(args.code, shiftspace.parse_code_file)
    r_sv = _load_sieve(args.source_sieve)
    s_sv = _load_sieve(args.target_sieve) if args.target_sieve else r_sv
    res = shiftspace.verify_intertwiner(code, r_sv, s_sv, trials=args.trials, seed=args.seed)
    rep.add("trials", res.trials)
    rep.add("equivariance_failures", len(res.equivariance_failures))
    rep.add("admissibility_failures", len(res.admissibility_failures))
    rep.add("ok", res.ok)
    return EXIT_OK if res.ok else EXIT_NEGATIVE


def _cmd_shift_conjugacy(args, rep):
    r_sv = _load_sieve(args.spec)
    s_sv = _load_sieve(args.other)
    res = shiftspace.conjugacy_search(r_sv, s_sv)
    rep.add("status", res.status)
    rep.add("reason", res.reason)
    if res.status == "witness":
        rep.add("tau", res.tau.describe())
        rep.add("epsilon", format_element(res.epsilon))
        rep.add("tail_translate", format_element(res.tail_translate))
        rep.add("checked_primes", len(res.deltas))
        return EXIT_OK
    return EXIT_NEGATIVE


def _cmd_shift_symmetries(args, rep):
    if args.spec:
        sv = _load_sieve(args.spec)
    else:
        sv = sieve_mod.kfree_sieve(parse_algebra(args.field or "Q"), args.k)
    cands = shiftspace.symmetry_scan(sv, args.window)
    rep.add("window_radius", args.window)
    rep.add("survivors", len(cands))
    rep.add("codes", [c.describe() for c in cands])
    return EXIT_OK


def _cmd_shift_orbit(args, rep):
    algebra = parse_algebra(args.field)
    pat = _parse_file(args.pattern, shiftspace.parse_pattern_file, algebra)
    win = _parse_file(args.window_pattern, shiftspace.parse_pattern_file, algebra)
    try:
        delta = shiftspace.orbit_approximation(algebra, args.k, pat, win, bound=args.bound)
    except NotFoundWithinBound as e:
        rep.add("result", "not-found-within-bound")
        rep.add("bound", e.bound)
        return EXIT_NEGATIVE
    rep.add("delta", format_element(delta))
    return EXIT_OK


def _cmd_entropy_product(args, rep):
    sv = _load_sieve(args.spec)
    iv = entropy_mod.entropy_product(sv, args.cutoff)
    rep.add("interval", iv)
    rep.add("width", float(iv.width))
    return EXIT_OK


def _cmd_entropy_empirical(args, rep):
    sv = _load_sieve(args.spec)
    val = entropy_mod.empirical_entropy(sv, args.box)
    rep.add("box", args.box)
    rep.add("count", shiftspace.count_admissible(sv, args.box))
    rep.add("empirical_entropy", val)
    return EXIT_OK


def _cmd_entropy_zeta(args, rep):
    algebra = parse_algebra(args.field)
    iv = entropy_mod.zeta_K(algebra, args.s, args.cutoff)
    rep.add("field", format_algebra(algebra))
    rep.add("s", args.s)
    rep.add("interval", iv)
    rep.add("width", float(iv.width))
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftests: the cheap worked examples of each module


def _on_grid(iv: RationalInterval) -> tuple[Fraction, Fraction]:
    """The endpoints in units of the rounding grid 2^-192."""
    return iv.lo * 2**192, iv.hi * 2**192


def _selftest_sieve(rep):
    sq = sieve_mod.kfree_sieve(QQ, 2)
    sq2 = sieve_mod.kfree_sieve(make_algebra([2]), 2)
    checks = [
        ("degree add", make_algebra([None, 2]).degree == 3),
        ("omega basis", make_algebra([13]).components[0].omega_poly == (1, 3)),
        ("Q prime", split_prime(QQ, 7)[0].norm == 7),
        ("principal power", sieve_mod.local_set(sq, split_prime(QQ, 3)[0]).modulus.norm == 9),
        ("empty enumerate", len(sieve_mod.enumerate_V(sieve_mod.build_sieve(QQ, sieve_mod.TailRule.empty()), 2)) == 5),
        ("zero class", sieve_mod.membership(sq, QQ.from_int(0)).member is False),
        ("empty density", sieve_mod.density_interval(sieve_mod.build_sieve(QQ, sieve_mod.TailRule.empty()), 10).contains(1)),
        ("tail empty range", sieve_mod.tail_count(QQ, 2, 50, 10) == 0),
        ("quadratic count", sieve_mod.count_members(sq2, 8) == sum(sieve_mod.membership(sq2, x).member for x in sq2.algebra.box(8))),
        ("quadratic tail", sieve_mod.tail_count(sq2.algebra, 2, 8, 2) == 28),
        ("exact density", _on_grid(sieve_mod.density_interval(sq2, 10)) == (
            3611809258130995155904847607397712258668758388957873082179,
            4461857682240706026772073003862731091273644297605977607392,
        )),
    ]
    return checks


def _selftest_lg(rep):
    r = localglobal.check_local_surjectivity(QQ, 2, 2)
    wit = {c[0]: w.coords[0][0] for c, w in r.items()}
    checks = [
        ("classes mod 4", r.v_classes == 3),
        ("witnesses", wit == {1: 1, 2: 2, 3: 3}),
    ]
    try:
        localglobal.check_local_surjectivity(QQ, 1, 5)
        checks.append(("k=1 rejected", False))
    except RingsieveError:
        checks.append(("k=1 rejected", True))
    return checks


def _selftest_linmap(rep):
    K2 = make_algebra([2])
    shear = linmaps.ZLinearMap(K2, K2, ((1, 1), (0, 1)))
    ident = linmaps.ZLinearMap.identity(QQ)
    sq = sieve_mod.kfree_sieve(QQ, 2)
    L = make_algebra([None, 2])
    sqL = sieve_mod.kfree_sieve(L, 2)
    checks = [
        ("det unit", linmaps.induced_mod(shear, 7, 1).bijective),
        ("det zero", not linmaps.induced_mod(linmaps.ZLinearMap(K2, K2, ((2, 0), (0, 1))), 2, 1).bijective),
        ("identity local", linmaps.check_local_condition(ident, sq, sq, 5).ok),
        ("degree-3 identity scan", linmaps.scan_primes(linmaps.ZLinearMap.identity(L), sqL, sqL, 20) is None),
        ("identity decompose", linmaps.decompose_monomial(linmaps.ZLinearMap.identity(K2)).epsilon == K2.one),
        ("units of F3", [m[0][0] for m in linmaps.preserver_scan(3, 1, 1).matrices()] == [1, 2]),
        ("cover trivial", linmaps.cover_witness(5, 1, (1, 1), (0, 0), [(0,), (0,)]) == 1),
        ("identity units", linmaps.check_unit_preservation(ident, 5).ok),
    ]
    return checks


def _selftest_shift(rep):
    sq = sieve_mod.kfree_sieve(QQ, 2)
    pair = presets.adjacent_pair_code()
    # {0, 1} against {0, 1 + N}, N the product of the primes <= 60: translates at every p <= 60, none at 61
    two = presets.two_class_sieve()
    far = sieve_mod.build_sieve(QQ, sieve_mod.TailRule.classes_mod_p([0, 1 + math.prod(primes_upto(60))]), two.exceptions)
    witnesses = shiftspace.is_admissible(two, shiftspace.int_pattern([0, 1, 2, 5]))
    r7 = sieve_mod.local_set(two, split_prime(QQ, 7)[0])  # {0, 1} mod 7
    checks = [
        ("block forced", not shiftspace.is_admissible(sq, shiftspace.int_pattern([0, 1, 2, 3])).admissible),
        ("empty image", len(shiftspace.apply_block_code(pair, shiftspace.int_pattern([]), complete=True)) == 0),
        ("count N=1", shiftspace.count_admissible(sq, 1) == 2),
        ("self conjugate", shiftspace.conjugacy_search(sq, sq).status == "witness"),
        ("tail past 60", shiftspace.conjugacy_search(two, far).status == "provably_not"),
        ("two-class witnesses", [(p.p, d) for p, d in witnesses.witnesses] == [(5, (3,)), (7, (3,)), (2, (0,)), (3, (0,))]),
        ("translate delta", shiftspace.subset_of_translate(r7, sieve_mod.LocalSet(r7.modulus, ((0,), (2,), (3,)))) == (5,)),
        ("derived identity", shiftspace.derived_local_set(sq, split_prime(QQ, 5)[0], [shiftspace.int_pattern([0])]).classes == ((0,),)),
        ("W=0 identity", [c.translation_by for c in shiftspace.symmetry_scan(sq, 0)] == [0]),
    ]
    return checks


def _selftest_entropy(rep):
    emp = sieve_mod.build_sieve(QQ, sieve_mod.TailRule.empty())
    log2 = entropy_mod.entropy_product(emp, 10)
    checks = [
        ("empty entropy", Fraction(6931471805, 10**10) < log2.lo <= log2.hi < Fraction(6931471806, 10**10)),
        ("empty empirical", abs(entropy_mod.empirical_entropy(emp, 4) - math.log(2)) < 1e-12),
        ("zeta pure tail", entropy_mod.zeta_K(QQ, 2, 1).contains(Fraction(16449, 10**4))),
        ("exact zeta", _on_grid(entropy_mod.zeta_K(make_algebra([2]), 2, 10)) == (
            8830852304685597957404138909250941639684622317670789178981,
            10902286795908145626424862850927088444055089281075048369118,
        )),
        # Nm^7 passes int64 here, so the factors are Python-int powers
        ("exact zeta s=7", _on_grid(entropy_mod.zeta_K(make_algebra([2]), 7, 1000)) == (
            6326544456367554998604576405655606649406173973325385865313,
            6326544456367555000713424557778124982801578146574550998617,
        )),
    ]
    return checks


_SELFTESTS = {
    "sieve": _selftest_sieve,
    "lg": _selftest_lg,
    "linmap": _selftest_linmap,
    "shift": _selftest_shift,
    "entropy": _selftest_entropy,
}


def _run_selftest(group: str, rep: _Report) -> int:
    checks = _SELFTESTS[group](rep)
    ok = True
    for name, passed in checks:
        rep.add(f"selftest[{name}]", "pass" if passed else "FAIL")
        ok = ok and passed
    rep.add("selftest_result", "pass" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# parser


def _at_least(text: str, low: int) -> int:
    if int(text) < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
    return int(text)


def _nonnegative(text: str) -> int:
    return _at_least(text, 0)


def _positive(text: str) -> int:
    return _at_least(text, 1)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ringsieve", description=__doc__, allow_abbrev=False)
    top.add_argument("--json", action="store_true", help="structured output")
    top.add_argument("--digits", type=_nonnegative, default=12, help="decimal digits for intervals")
    groups = top.add_subparsers(dest="group", required=True)

    def sub(group, name, handler, required=()):
        """A subcommand; `required` names the flags it cannot run without (--selftest can)."""
        p = group.add_parser(name, allow_abbrev=False)
        p.set_defaults(handler=handler, required=required)
        p.add_argument("--selftest", action="store_true", help="run the module's built-in examples")
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--digits", type=_nonnegative, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        return p

    g = groups.add_parser("sieve").add_subparsers(dest="sub", required=True)
    p = sub(g, "enumerate", _cmd_sieve_enumerate, required=("spec",))
    p.add_argument("--spec")
    p.add_argument("--bound", type=_nonnegative, default=10)
    p = sub(g, "density", _cmd_sieve_density, required=("spec",))
    p.add_argument("--spec")
    p.add_argument("--cutoff", type=_nonnegative, default=10_000)
    p.add_argument("--bound", type=_nonnegative, default=0, help="also report empirical density up to this bound")
    p = sub(g, "tail", _cmd_sieve_tail, required=("spec",))
    p.add_argument("--spec")
    p.add_argument("--bound", type=_nonnegative, default=200)
    p.add_argument("--norm-cutoff", type=_nonnegative, default=10)

    g = groups.add_parser("lg").add_subparsers(dest="sub", required=True)
    p = sub(g, "solve", _cmd_lg_solve, required=("spec",))
    p.add_argument("--spec")
    p.add_argument("--cong", action="append", help="p[idx]^k=element, repeatable")
    p.add_argument("--bound", type=_nonnegative, default=10_000)
    p = sub(g, "surjectivity", _cmd_lg_surjectivity)
    p.add_argument("--field", default="Q")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--limit", type=_nonnegative, default=10, help="witness rows to print")

    g = groups.add_parser("linmap").add_subparsers(dest="sub", required=True)
    for name, handler in (
        ("check", _cmd_linmap_check),
        ("scan", _cmd_linmap_scan),
        ("decompose", _cmd_linmap_decompose),
        ("units", _cmd_linmap_units),
    ):
        p = sub(g, name, handler)
        p.add_argument("--source", default="Q")
        p.add_argument("--target")
        p.add_argument("--matrix", default="1")
        if name in ("check", "scan"):
            p.add_argument("--source-sieve")
            p.add_argument("--target-sieve")
            p.add_argument("--k", type=int, default=2)
            p.add_argument("--l", type=int, default=2)
        if name == "check":
            p.add_argument("--p", type=int, default=2)
        if name == "scan":
            p.add_argument("--cutoff", type=_nonnegative, default=50)
        if name == "units":
            p.add_argument("--height", type=_positive, default=10)
    p = sub(g, "preservers", _cmd_linmap_preservers)
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p = sub(g, "cover", _cmd_linmap_cover)
    p.add_argument("--p", type=int, default=5)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--x", default="1,1")
    p.add_argument("--a", default="0,0")
    p.add_argument("--classes", default="0;0", help="per-coordinate class lists joined by ;")

    g = groups.add_parser("shift").add_subparsers(dest="sub", required=True)
    p = sub(g, "admissible", _cmd_shift_admissible, required=("spec", "pattern"))
    p.add_argument("--spec")
    p.add_argument("--pattern")
    p = sub(g, "apply", _cmd_shift_apply, required=("code", "pattern"))
    p.add_argument("--code")
    p.add_argument("--pattern")
    p.add_argument("--known", help="lo:hi box where the pattern is authoritative")
    p = sub(g, "verify", _cmd_shift_verify, required=("code", "source_sieve"))
    p.add_argument("--code")
    p.add_argument("--source-sieve")
    p.add_argument("--target-sieve")
    p.add_argument("--trials", type=_positive, default=100)
    p.add_argument("--seed", type=int, default=0)
    p = sub(g, "conjugacy", _cmd_shift_conjugacy, required=("spec", "other"))
    p.add_argument("--spec")
    p.add_argument("--other")
    p = sub(g, "symmetries", _cmd_shift_symmetries)
    p.add_argument("--spec")
    p.add_argument("--field")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--window", type=_nonnegative, default=1)
    p = sub(g, "orbit", _cmd_shift_orbit, required=("pattern", "window_pattern"))
    p.add_argument("--field", default="Q")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--pattern")
    p.add_argument("--window-pattern")
    p.add_argument("--bound", type=_nonnegative, default=200_000)

    g = groups.add_parser("entropy").add_subparsers(dest="sub", required=True)
    p = sub(g, "product", _cmd_entropy_product, required=("spec",))
    p.add_argument("--spec")
    p.add_argument("--cutoff", type=_nonnegative, default=10_000)
    p = sub(g, "empirical", _cmd_entropy_empirical, required=("spec",))
    p.add_argument("--spec")
    p.add_argument("--box", type=_positive, default=8)
    p = sub(g, "zeta", _cmd_entropy_zeta)
    p.add_argument("--field", default="Q")
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--cutoff", type=_nonnegative, default=10_000)

    return top


# built on the first call and reused: parse_args keeps no state between calls
_parser = cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    rep = _Report(getattr(args, "json", False), getattr(args, "digits", 12))
    rep.add("command", f"{args.group} {args.sub}")
    _echo_config(rep, args)
    try:
        if args.selftest:
            code = _run_selftest(args.group, rep)
        else:
            for key in args.required:
                if getattr(args, key) in (None, ""):
                    print(f"error: --{key.replace('_', '-')} is required", file=sys.stderr)
                    return EXIT_USAGE
            code = args.handler(args, rep)
    except SystemExit as e:
        return int(e.code or 0)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (RingsieveError, ValueError) as e:
        rep.add("error", f"{type(e).__name__}: {e}")
        rep.emit()
        return EXIT_DOMAIN
    rep.emit()
    return code


if __name__ == "__main__":
    sys.exit(main())
