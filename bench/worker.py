"""One cold benchmark pass: set up, run one workload's requests, report.

run.py starts this as a fresh process for every pass, the way a CLI user
starts ringsieve.  Set-up (imports, algebra and sieve construction, input
generation) ends at the first timed call; the worker reports that moment as
a time.monotonic() reading, which run.py subtracts from its own reading
taken just before the spawn.  The timed region runs every request once, in
order, one at a time.  From the start of main() on, the yardstick
(yardstick.py) samples the host's speed every few milliseconds, and all
times are read from its clock, which stops while it samples.  The last line
on stdout is one JSON object with the results (plain data for the oracles),
each request's start and end on that clock, the yardstick's samples, the
end of set-up on both clocks, the yardstick's time during set-up and the
peak RSS.

    python3 bench/worker.py --workload lg-grid --seed 1 [--size tiny]
                            [--trace-out FILE] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracing import NullTracer, Tracer  # noqa: E402
from workloads import SPOT_CHECKS, generate  # noqa: E402
from yardstick import Clock  # noqa: E402


def _frac(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def _prime(prime) -> list | None:
    if prime is None:
        return None
    return [prime.p, prime.component, prime.kind, prime.root]


def _verdict_counts(v) -> dict:
    return {"checked": len(v.checked), "member": v.member}


def _surj_counts(r) -> dict:
    return {"classes": r.v_classes, "reverified": r.reverified, "fallback": r.fallback_classes}


class Runner:
    """Builds library objects at set-up and answers requests in the timed region."""

    def __init__(self, tracer, clock):
        from ringsieve import cli, make_algebra
        from ringsieve import entropy, linmaps, localglobal, presets, rings, shiftspace, sieve

        self.tr = tracer
        self.clock = clock
        self.cli, self.entropy, self.linmaps = cli, entropy, linmaps
        self.localglobal, self.rings, self.shiftspace, self.sieve = localglobal, rings, shiftspace, sieve
        self.make_algebra = make_algebra
        self.presets = {
            "two_class": presets.two_class_sieve,
            "pair_r": lambda: presets.pair_sieves()[0],
            "pair_s": lambda: presets.pair_sieves()[1],
            "exc_r": lambda: presets.exceptional_factor_sieves()[0],
            "exc_s": lambda: presets.exceptional_factor_sieves()[1],
            "shifted2": lambda: sieve.build_sieve(rings.QQ, sieve.TailRule.shifted_kfree(2, (0, 2))),
            "shifted3": lambda: sieve.build_sieve(rings.QQ, sieve.TailRule.shifted_kfree(3, (-1, 0, 1))),
        }
        self._algebras: dict = {}
        self._sieves: dict = {}

    # -- set-up ------------------------------------------------------------

    def algebra(self, params):
        key = tuple(params)
        if key not in self._algebras:
            self._algebras[key] = self.make_algebra(list(key))
        return self._algebras[key]

    def kfree(self, params, k: int):
        key = ("kfree", tuple(params), k)
        if key not in self._sieves:
            self._sieves[key] = self.sieve.kfree_sieve(self.algebra(params), k)
        return self._sieves[key]

    def named_sieve(self, spec):
        if spec[0] == "kfree":
            return self.kfree(spec[1], spec[2])
        key = ("preset", spec[1])
        if key not in self._sieves:
            self._sieves[key] = self.presets[spec[1]]()
        return self._sieves[key]

    def prepare(self, req: dict) -> None:
        """Build the algebras and sieves a request needs before timing starts."""
        op = req["op"]
        if op == "surjectivity":
            self.kfree(req["algebra"], req["k"])
        elif op == "membership":
            self.named_sieve(req["sieve"])
        elif op == "solve":
            self.kfree(req["algebra"], req["k"])
        elif op in ("admissible", "orbit"):
            self.kfree([None], req["k"])
        elif op == "linmap":
            self.kfree([req["d"]], 2)
        elif op in ("density", "entropy", "empirical", "count_admissible"):
            self.kfree(req.get("algebra", [None]), req["k"])
        elif op in ("zeta", "tail_count"):
            self.algebra(req["algebra"])
        elif op == "conjugacy_grid":
            for d, k in {tuple(x) for pair in req["pairs"] for x in pair}:
                self.kfree([d], k)

    # -- timed region ------------------------------------------------------

    def run(self, req: dict) -> dict:
        return getattr(self, "op_" + req["op"])(req)

    def op_surjectivity(self, req):
        A, k, p = self.algebra(req["algebra"]), req["k"], req["p"]
        quadratic = len(A.components) == 1 and not A.components[0].is_rational
        span = "localglobal.surjectivity." + ("strip" if quadratic else "scalar")
        t0 = self.clock()
        rep = self.tr.call(span, self.localglobal.check_local_surjectivity, A, k, p, counts=_surj_counts)
        call = [t0, self.clock()]
        items = list(rep.items())
        sv = self.kfree(req["algebra"], k)
        spot = []
        for i in random.Random(req["spot_seed"]).sample(range(len(items)), min(SPOT_CHECKS, len(items))):
            w = items[i][1]
            v = self.tr.call("sieve.membership", self.sieve.membership, sv, w, counts=_verdict_counts)
            spot.append([list(w.flat()), v.member, len(v.checked)])
        return {
            "n_classes": rep.n_classes,
            "v_classes": rep.v_classes,
            "surjective": rep.surjective,
            "reverified": rep.reverified,
            "fallback": rep.fallback_classes,
            "kept": [[list(c), list(w.flat())] for c, w in items],
            "spot": spot,
            "_call": call,
        }

    def op_membership(self, req):
        sv = self.named_sieve(req["sieve"])
        x = sv.algebra.from_flat(req["x"])
        v = self.tr.call("sieve.membership", self.sieve.membership, sv, x, counts=_verdict_counts)
        return {
            "member": v.member,
            "prime": _prime(v.prime),
            "class": None if v.class_rep is None else list(v.class_rep),
            "checked": len(v.checked),
        }

    def op_solve(self, req):
        A, k = self.algebra(req["algebra"]), req["k"]
        cons = []
        for p, idx, flat in req["cons"]:
            q = self.tr.call("rings.split_prime", self.rings.split_prime, A, p)[idx]
            mod = self.tr.call("rings.ideal_power", self.rings.ideal_power, q, k)
            target = self.rings.reduce_mod(A.from_flat(flat), mod)
            cons.append(self.localglobal.CongruenceConstraint(q, k, target))
        y = self.tr.call("localglobal.solve", self.localglobal.solve, self.kfree(req["algebra"], k), cons)
        return {"y": list(y.flat())}

    def op_admissible(self, req):
        pat = self.shiftspace.int_pattern(req["pattern"])
        r = self.tr.call(
            "shiftspace.is_admissible", self.shiftspace.is_admissible, self.kfree([None], req["k"]), pat,
            counts=lambda r: {"admissible": r.admissible},
        )
        return {"admissible": r.admissible, "violation": _prime(r.violation)}

    def op_orbit(self, req):
        ip = self.shiftspace.int_pattern
        delta = self.tr.call(
            "shiftspace.orbit_approximation", self.shiftspace.orbit_approximation,
            self.algebra([None]), req["k"], ip(req["pattern"]), ip(req["window"]),
        )
        return {"delta": delta.coords[0][0]}

    def op_linmap(self, req):
        K = self.algebra([req["d"]])
        sv = self.kfree([req["d"]], 2)
        a = self.linmaps.ZLinearMap(K, K, tuple(tuple(r) for r in req["matrix"]))
        res = self.tr.call(
            "linmaps.scan_primes", self.linmaps.scan_primes, a, sv, sv, 100,
            counts=lambda r: {"passed": r is None},
        )
        dm = self.tr.call("linmaps.decompose_monomial", self.linmaps.decompose_monomial, a)
        out = {"passed": res is None, "eps": None if dm is None else list(dm.epsilon.flat())}
        if res is not None:
            out.update(p=res.p, x=list(res.counterexample.flat()), y=list(res.image.flat()))
        return out

    def op_density(self, req):
        iv = self.tr.call("sieve.density_interval", self.sieve.density_interval,
                          self.kfree(req["algebra"], req["k"]), req["cutoff"])
        return {"lo": _frac(iv.lo), "hi": _frac(iv.hi)}

    def op_zeta(self, req):
        iv = self.tr.call("entropy.zeta_K", self.entropy.zeta_K, self.algebra(req["algebra"]), req["s"], req["cutoff"])
        return {"lo": _frac(iv.lo), "hi": _frac(iv.hi)}

    def op_entropy(self, req):
        iv = self.tr.call("entropy.entropy_product", self.entropy.entropy_product,
                          self.kfree(req["algebra"], req["k"]), req["cutoff"])
        return {"lo": _frac(iv.lo), "hi": _frac(iv.hi)}

    def op_empirical(self, req):
        sv = self.kfree(req["algebra"], req["k"])
        rational = req["algebra"] == [None]
        name = "sieve.empirical_density." + ("rational" if rational else "quadratic")
        emp = self.tr.call(name, self.sieve.empirical_density, sv, req["bound"])
        out = {"value": _frac(emp)}
        if rational:
            iv = self.tr.call("sieve.density_interval", self.sieve.density_interval, sv, req["cutoff"])
            out.update(lo=_frac(iv.lo), hi=_frac(iv.hi))
        return out

    def op_tail_count(self, req):
        n = self.tr.call("sieve.tail_count", self.sieve.tail_count, self.algebra(req["algebra"]),
                         req["k"], req["bound"], req["norm_cutoff"])
        return {"count": n}

    def op_count_admissible(self, req):
        n = self.tr.call("shiftspace.count_admissible", self.shiftspace.count_admissible,
                         self.kfree([None], req["k"]), req["box"])
        return {"count": n}

    def op_conjugacy_grid(self, req):
        status = []
        for (d1, k1), (d2, k2) in req["pairs"]:
            r = self.tr.call("shiftspace.conjugacy_search", self.shiftspace.conjugacy_search,
                             self.kfree([d1], k1), self.kfree([d2], k2), unit_height=6)
            status.append(r.status)
        return {"status": status}

    def op_cli(self, req):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.tr.call("cli.main", self.cli.main, list(req["argv"]))
        return {"code": code, "doc": json.loads(out.getvalue())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    clock = Clock()
    clock.start()
    tracer = Tracer(clock.now) if args.trace_out else NullTracer()
    runner = Runner(tracer, clock.now)
    requests = generate(args.workload, args.seed, args.size)
    for req in requests:
        runner.prepare(req)
    setup = {"ready": time.monotonic(), "ready_clock": clock.now(), "setup_paused_s": clock.paused_s}
    if args.setup_only:
        clock.stop()
        print(json.dumps(dict(setup, samples=clock.samples)))
        return 0

    results, times = [], []
    for req in requests:
        t0 = clock.now()
        with tracer.request(req["op"]):
            try:
                out = runner.run(req)
            except Exception as e:  # a refused or failed request is a result too
                out = {"error": f"{type(e).__name__}: {e}"}
        times.append([t0, clock.now()])
        results.append(out)
    clock.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if args.trace_out:
        tracer.write(args.trace_out)
    print(json.dumps(dict(setup, samples=clock.samples, peak_rss_kb=peak_kb, times=times, results=results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
