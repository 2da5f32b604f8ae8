"""Command-line interface: every library operation as a subcommand.

Exit codes: 0 success / verified, 1 mathematical negative (counterexample,
not found, not conjugate), 2 usage error or malformed input file (printed
as `error: <file>:<line>: <message>`), 3 a file that cannot be read
(missing, a directory, ...), 4 domain error.
Output is deterministic; --json emits a single structured document.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from functools import cache

from . import entropy as entropy_mod
from . import linmaps, localglobal, presets, shiftspace
from . import sieve as sieve_mod
from .errors import BudgetExceeded, FormatError, NotFoundWithinBound, RingsieveError
from .intervals import RationalInterval
from .primes import primes_upto
from .rings import (
    QQ,
    format_algebra,
    format_element,
    make_algebra,
    parse_algebra,
    parse_element,
    prime_at,
    prime_ideals,
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


def _parse_file(path: str, parse, *args):
    """parse(the file's text, *args), with the path attached to a FormatError.

    A byte that is not UTF-8 is a FormatError at its line; a path that cannot
    be read, missing or not, exits EXIT_NOFILE.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        print(f"error: cannot read {path}: {e.strerror}", file=sys.stderr)
        raise SystemExit(EXIT_NOFILE)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = len((data[: e.start].decode("utf-8") + "x").splitlines())
        raise FormatError(f"byte 0x{data[e.start]:02x} is not UTF-8", line, path) from None
    try:
        return parse(text, *args)
    except FormatError as e:
        e.path = path
        raise


def _load_sieve(path: str) -> sieve_mod.SieveSpec:
    return _parse_file(path, sieve_mod.parse_sieve_file)


def _parse_cong(text: str, algebra) -> localglobal.CongruenceConstraint:
    """A --cong value p[idx]^k=element; idx counts the primes above p (`rings.prime_at`)."""
    m = re.match(r"^(\d+)(?:\[(\d+)\])?\^(\d+)=(.+)$", text.strip())
    if m is None:
        raise ValueError(f"bad congruence {text!r}; expected p[idx]^k=element")
    prime = prime_at(algebra, int(m.group(1)), int(m.group(2) or 0))
    return localglobal.CongruenceConstraint(prime, int(m.group(3)), parse_element(m.group(4), algebra))


def _linear_map(args) -> linmaps.ZLinearMap:
    """The --matrix map (row-major) from --source to --target, which defaults to the source."""
    source = parse_algebra(args.source)
    target = parse_algebra(args.target) if args.target else source
    vals = [int(v) for v in args.matrix.replace(" ", "").split(",") if v != ""]
    return linmaps.ZLinearMap.from_row_major(source, target, vals)


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
    count = shiftspace.count_admissible(sv, args.box)  # `empirical_entropy` from this one count; --box is >= 1
    rep.add("box", args.box)
    rep.add("count", count)
    rep.add("empirical_entropy", math.log(count) / args.box)
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
    shifted = sieve_mod.build_sieve(QQ, sieve_mod.TailRule.shifted_kfree(2, (0, 2, 30)))
    huge_k = sieve_mod.parse_sieve_file("algebra Q x Q(sqrt -7)\ntail kfree 1000000\nexception 2 1 : -\n")
    gauss = sieve_mod.kfree_sieve(make_algebra([-1]), 2)
    nine = sieve_mod.membership(gauss, gauss.algebra.from_int(9))
    above_5 = sieve_mod.membership(gauss, gauss.algebra.element([(10, 5)]))
    big_prime = sieve_mod.membership(sq, QQ.from_int(9_999_999_967))
    caught_at_7 = sieve_mod.membership(sq, QQ.from_int(7**2 * 999_983**2))
    one_exception = sieve_mod.parse_sieve_file("algebra Q(sqrt 2)\ntail kfree 2\nexception 17 0 1 : -\n")
    sliced = sieve_mod.membership(one_exception, one_exception.algebra.element([(49, 1)]))
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
        ("huge membership refused", _raises(BudgetExceeded, sieve_mod.membership, sq, QQ.from_int(10**400))),
        ("density box refused", _raises(BudgetExceeded, sieve_mod.empirical_density, sq2, 10**9)),
        ("duplicate exception at its line", _format_error_line(
            sieve_mod.parse_sieve_file, "algebra Q\ntail kfree 2\nexception 3 2 : 0\nexception 3 2 : 1\n") == 4),
        # every Nm^(10^6) past the endpoints' reach is read as one power of 2
        ("huge tail exponent", _on_grid(sieve_mod.density_interval(sieve_mod.kfree_sieve(sq2.algebra, 10**6), 100))
         == (2**192 - 26, 2**192)),
        # 55 = 30 (mod 5^2), after 2 and 3 are checked
        ("shifted membership", sieve_mod.membership(shifted, QQ.from_int(55)).checked
         == tuple(split_prime(QQ, p)[0] for p in (2, 3, 5))),
        # labels 30 apart: the primes with p^2 <= 30 (2, 3, 5) take their counts from the local sets
        ("spliced density", _on_grid(sieve_mod.density_interval(shifted, 1000)) == (
            1571261412744653004761870279881579172493849642342640199932,
            1575989380887314949610702387042707294376980584094924975024,
        )),
        # component 1's first tail prime splits, and its 2^1000000 lift is refused
        ("label past a refused lift", str(sieve_mod.membership(huge_k, huge_k.algebra.element([(1,), (0, 0)])).prime)
         == "(3)#1[inert]"),
        # N(9) = 3^4: the inert (3) passes the norm filter and rejects, after (1 + w)
        ("prefilter at an inert prime", (str(nine.prime), len(nine.checked)) == ("(3)[inert]", 2)),
        # 10 + 5w = (2 + w)^2 (2 - w): both primes above 5 pass the filter, and the second rejects
        ("prefilter at a split prime", (str(above_5.prime), len(above_5.checked)) == ("(5, w-3)[split]", 4)),
        # a prime: no p^2 divides it, and every p <= 99,999 is checked (pi(99,999) = 9,592)
        ("member past 10^9", (big_prime.member, len(big_prime.checked)) == (True, 9592)),
        # n = 6,999,881, but only the rows up to the catch are listed
        ("caught far below the bound", (str(caught_at_7.prime), len(caught_at_7.checked)) == ("(7)[rational]", 4)),
        # N(49 + w) = 2399, n = 48: past isqrt(n) = 6 only split rows, and the exception (17, w-6) once, first
        ("checked slice", sliced.member and " ".join(map(str, sliced.checked)) == "(17, w-6)[split] (2, w-0)[ramified] "
         "(3)[inert] (5)[inert] (7, w-3)[split] (7, w-4)[split] (17, w-11)[split] (23, w-5)[split] (23, w-18)[split] "
         "(31, w-8)[split] (31, w-23)[split] (41, w-17)[split] (41, w-24)[split] (47, w-7)[split] (47, w-40)[split]"),
        # Q x Q(sqrt 13) x Q(sqrt -3): per p, the components' rows in component order
        ("product prime order", " ".join(map(str, prime_ideals(make_algebra([None, 13, -3]), 7))) == "(2)#0[rational] "
         "(2)#1[inert] (2)#2[inert] (3)#0[rational] (3, w-0)#1[split] (3, w-1)#1[split] (3, w-2)#2[ramified] "
         "(5)#0[rational] (5)#1[inert] (5)#2[inert] (7)#0[rational] (7)#1[inert] (7, w-3)#2[split] (7, w-5)#2[split]"),
    ]
    return checks


def _raises(error: type[Exception], fn, *args) -> bool:
    try:
        fn(*args)
    except error:
        return True
    return False


def _format_error_line(fn, *args) -> int | None:
    """The line of the FormatError that fn(*args) raises, None if it raises none."""
    try:
        fn(*args)
    except FormatError as e:
        return e.line
    return None


def _selftest_lg(rep):
    r = localglobal.check_local_surjectivity(QQ, 2, 2)
    wit = {c[0]: w.coords[0][0] for c, w in r.items()}
    r13 = localglobal.check_local_surjectivity(make_algebra([13]), 2, 3)
    # Q x Q(sqrt -1): the zero class is forbidden at 3 on both components
    rp = localglobal.check_local_surjectivity(make_algebra([None, -1]), 2, 3)
    wp = dict((c, w.flat()) for c, w in rp.items())
    # 7 ramifies in Q(sqrt 105); the class (42, 15) finds its witness in strip 10,
    # the eleventh, congruent mod 49 O, not only mod the square of the prime above 7
    r105 = localglobal.check_local_surjectivity(make_algebra([105]), 2, 7)
    w105 = dict((c, w.flat()) for c, w in r105.items())[(42, 15)]
    checks = [
        ("classes mod 4", r.v_classes == 3),
        ("witnesses", wit == {1: 1, 2: 2, 3: 3}),
        ("Q(sqrt 13) re-checked", r13.v_classes == 64 and r13.reverified == 64),
        ("product report", (rp.n_classes, rp.v_classes, rp.max_witness_height, rp.reverified,
                            rp.fallback_classes) == (729, 640, 47, 640, 0)),
        ("product witnesses", len(wp) == 640 and wp[(1, 2, 2)] == (1, 47, 2) and wp[(8, 8, 8)] == (17, 17, 8)
         and sum(map(sum, wp.values())) == 12168),
        ("ramified report", (r105.n_classes, r105.v_classes, r105.max_witness_height, r105.reverified,
                             r105.fallback_classes) == (2401, 2352, 532, 2352, 0)),
        ("ramified witness mod 49", w105 == (532, 15) and all((a - c) % 49 == 0 for a, c in zip(w105, (42, 15)))),
        ("k=1 rejected", _raises(RingsieveError, localglobal.check_local_surjectivity, QQ, 1, 5)),
        # the first strip's cosets would list primes toward 6.45e7: the prime table refuses them
        ("prime scan refused", _raises(BudgetExceeded, localglobal.check_local_surjectivity, make_algebra([40000003]),
                                       2, 101)),
    ]
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
        # 1 + 1/(Nm^(10^6) - 1) rounds up by one grid step at each of the 1229 primes, then the tail's
        ("zeta s=10^6", _on_grid(entropy_mod.zeta_K(QQ, 10**6, 10**4)) == (2**192, 2**192 + 1230)),
        # the density's factors 1 - c/p^2 take the kernel's a < 0 steps, c = 1 and c = 2
        ("exact density", _on_grid(sieve_mod.density_interval(sieve_mod.kfree_sieve(QQ, 2), 1000)) == (
            3812688387621342052654146874657842067422388605143927074954,
            3816504892513855908562709584242084151573962567711638713835,
        )),
        ("exact two-label density", _on_grid(sieve_mod.density_interval(
            sieve_mod.build_sieve(QQ, sieve_mod.TailRule.shifted_kfree(2, (0, 2))), 1000)) == (
            2021670046124966472984938210336396025665378984971270610144,
            2025721489103172818622182575487370767199778542055381373057,
        )),
        ("cutoff past the prime limit", _raises(BudgetExceeded, entropy_mod.zeta_K, QQ, 2, 10**7 + 1)),
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


# an interval's decimals print as one int, and Python's default limit on str() of an int is 4300 digits
_MAX_DIGITS = 4300


def _digits(text: str) -> int:
    if _nonnegative(text) > _MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"must be <= {_MAX_DIGITS}, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ringsieve", description=__doc__, allow_abbrev=False)
    top.add_argument("--json", action="store_true", help="structured output")
    top.add_argument("--digits", type=_digits, default=12, help="decimal digits for intervals")
    groups = top.add_subparsers(dest="group", required=True)

    def sub(group, name, handler, required=()):
        """A subcommand; `required` names the flags it cannot run without (--selftest can)."""
        p = group.add_parser(name, allow_abbrev=False)
        p.set_defaults(handler=handler, required=required)
        p.add_argument("--selftest", action="store_true", help="run the module's built-in examples")
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--digits", type=_digits, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
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
