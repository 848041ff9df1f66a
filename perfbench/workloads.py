"""Seeded inputs, op execution and the correctness gate of each workload.

An op is a tuple ``(fn, args, kwargs)``: ``fn`` names a public function as
``"<module>.<name>"``, ``kwargs`` is a tuple of pairs.  Inputs depend on the
seed alone, and ``repr`` of an op list is byte-identical for equal seeds.
The gate compares every result with a route independent of the one timed;
it runs after the timed phase, so the caches it fills time nothing.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from collections import Counter
from fractions import Fraction

from degzeta import cli, exactcore, gammadeg, numerics, verify, zetadeg
from degzeta.numerics import NonConvergentError, QuadConfig

MODULES = {"exactcore": exactcore, "numerics": numerics, "gammadeg": gammadeg,
           "zetadeg": zetadeg, "verify": verify, "cli": cli}

# A request at this tolerance may fail fast with NonConvergentError; the
# default 1e-10 is what every other request uses.
TIGHT = QuadConfig(rel_tol=1e-14)
TIGHT_EVERY = 20  # every 20th gamma_deg and zeta_deg_mellin request is tight

# Tolerances pinned by the verify suites (cross_repr_s, cross_repr_int,
# zeta_mellin_pi2_6, gamma_closed, discrepancy) and reused here.
TOL_SERIES_MELLIN = 1e-5
TOL_INT_MELLIN = 1e-6
TOL_EULER = 1e-8
TOL_REL = 1e-8
TOL_DISCREPANCY = 1e-4

# Short decimals, typed the way CLI users type them.
LAMBDAS = [k / 100 for k in range(5, 31)]
CONT_XS = [k / 10 for k in range(10, 31)]
BLOCK = 30  # continuation: one first-seen (x, lambda) pair per 30 ops

# Errors an op may raise; the gate passes only a NonConvergentError from a
# tight request, and counts every other one as a failed op.
OP_ERRORS = (ArithmeticError, ValueError, TypeError)


def function(fn: str):
    module, name = fn.split(".")
    return getattr(MODULES[module], name)


# ---------------------------------------------------------------------------
# input generation
#
# Sizes (orders, depths) follow one schedule that every seed shares, and the
# values (lambda, x, s) are drawn stratified: each pass of a cycle visits
# every stratum once.  So the cost mix of a run does not depend on the seed,
# which holds medians and tails steady; the seed picks the values inside
# each stratum.
# ---------------------------------------------------------------------------

def _cycle(rng: random.Random, values):
    """Endless permutations of ``values``: every value once per pass."""
    while True:
        block = list(values)
        rng.shuffle(block)
        yield from block


def _unit(rng: random.Random):
    """Endless samples of [0, 1), stratified in sixteenths."""
    for k in _cycle(rng, range(16)):
        yield (k + rng.random()) / 16


def _primes(below: int) -> list:
    sieve = bytearray([1]) * below
    sieve[:2] = b"\x00\x00"
    for k in range(2, int(below ** 0.5) + 1):
        if sieve[k]:
            sieve[k * k::k] = bytearray(len(sieve[k * k::k]))
    return [k for k, is_prime in enumerate(sieve) if is_prime]


def _fresh_lambda(rng: random.Random, seen: set, bits: int, primes: list) -> Fraction:
    """A new p/q in (1/4, 1) with q a prime of ``bits`` bits, so p/q is reduced
    and its size, which sets the cost of the exact ops, is fixed by ``bits``."""
    width = [q for q in primes if q.bit_length() == bits]
    while True:
        q = rng.choice(width)
        lam = Fraction(rng.randrange(q // 4 + 1, q), q)
        if lam not in seen:
            seen.add(lam)
            return lam


def gen_exact(rng: random.Random, rounds: int = 150) -> list:
    """Rational-only ops, each on a lambda = p/q no earlier op used."""
    sizes = random.Random("exact-sizes")
    # three sizes each: a run of any length holds whole cycles but for at
    # most two rounds, so each size class keeps its share of the ops and a
    # fixed percentile stays inside one class
    orders = _cycle(sizes, (24, 32, 40))
    depths = _cycle(sizes, (120, 160, 200))
    # the cheap ops hold the median: sizes over a narrow cost range keep
    # the cost density there high, so the median does not jump with the
    # number of ops a run completes
    negs = _cycle(sizes, range(8, 11))
    alt_m = _cycle(sizes, range(9, 12))
    alt_n = _cycle(sizes, range(13))
    bits = _cycle(sizes, range(6, 11))
    primes = _primes(1 << 10)
    seen: set = set()

    def lam() -> Fraction:
        return _fresh_lambda(rng, seen, next(bits), primes)

    ops = []
    for _ in range(rounds):
        x = Fraction(rng.randrange(1, 25, 2), 8)
        ops.append(("exactcore.euler_poly_deg", (next(orders), lam()), ()))
        ops.append(("exactcore.euler_poly_deg_values", (next(depths), x, -lam()), ()))
        # two cheap ops per deep one keep the median off the cost boundary
        # between them
        for _ in range(2):
            ops.append(("zetadeg.zeta_deg_neg", (next(negs), x, lam()), ()))
            ops.append(("exactcore.check_alternating_sum_identity",
                        (next(alt_m), next(alt_n), lam()), ()))
    return ops


def gen_numeric(rng: random.Random, rounds: int = 3000) -> list:
    """Positive-s float evaluations; the series and Mellin routes share points."""
    lams = _cycle(rng, LAMBDAS)
    u = _unit(rng)
    ops = []
    for i in range(rounds):
        tight = (("cfg", TIGHT),) if i % TIGHT_EVERY == 0 else ()
        lam = next(lams)
        s = round(0.2 + (min(4.0, 0.9 / lam) - 0.2) * next(u), 3)
        ops.append(("gammadeg.gamma_deg", (s, lam), tight))
        lam = next(lams)
        x = round(0.5 + 2.5 * next(u), 2)
        s = round(0.2 + (min(4.0, 0.9 * min(1.0, x) / lam) - 0.2) * next(u), 3)
        ops.append(("zetadeg.zeta_deg", (s, x, lam), ()))
        ops.append(("zetadeg.zeta_deg_mellin", (s, x, lam),
                    (("cfg", TIGHT),) if i % TIGHT_EVERY == TIGHT_EVERY // 2 else ()))
        n = 1 + i % 3  # every lambda here is below 1/3
        lam = next(lams)
        x_min = n * lam + 0.05
        x = round(x_min + (3.0 - x_min) * next(u), 2)
        ops.append(("zetadeg.zeta_deg_int", (n, x, lam), ()))
        s = round(0.2 + 3.8 * next(u), 3)
        x = round(0.5 + 2.5 * next(u), 2)
        ops.append(("zetadeg.euler_zeta", (s, x), ()))
        ops.append(("zetadeg.euler_zeta_mellin", (s, x), ()))
    return ops


def _neg_s(u) -> float:
    """A negative s in (-4, 0), 0.02 or more from the poles."""
    while True:
        s = round(-4.0 + 4.0 * next(u), 3)
        if abs(s - round(s)) >= 0.02:
            return s


def gen_continuation(rng: random.Random) -> list:
    """Negative-s continuation; each block of 30 ops opens one new (x, lambda).

    Block i opens (xs[i % 21], lams[i % 26]); as 21 and 26 are coprime the
    blocks visit every pair once, and every 26 blocks every lambda once.
    Repeats are half zeta, a quarter gamma and a quarter discrepancy, so the
    median lies inside the zeta ops, not on the edge between two kinds.
    """
    xs = list(CONT_XS)
    lams = list(LAMBDAS)
    rng.shuffle(xs)
    rng.shuffle(lams)
    u = _unit(rng)
    orders = _cycle(rng, (2, 3, 4))
    kinds = ("zeta", "gamma", "zeta", "discrepancy")
    seen: list = []
    ops = []
    for b in range(len(xs) * len(lams)):
        seen.append((xs[b % len(xs)], lams[b % len(lams)]))
        for j in range(BLOCK):
            x, lam = seen[-1] if j == 0 else rng.choice(seen)
            kind = ("zeta", "discrepancy")[b % 2] if j == 0 else kinds[j % 4]
            if kind == "zeta":
                ops.append(("zetadeg.zeta_deg_continued", (_neg_s(u), x, lam), ()))
            elif kind == "gamma":
                ops.append(("zetadeg.gamma_deg_continued", (_neg_s(u), lam), ()))
            else:
                ops.append(("zetadeg.discrepancy_experiment",
                            (next(orders), repr(x), repr(lam)), ()))
    return ops


def gen_cli_session(rng: random.Random, rounds: int = 40) -> list:
    """One user session of CLI commands, with seeded arguments: ``verify
    --suite all``, then rounds of seven commands, two of them zeta at
    negative s, so that a tail percentile finds ten such commands beyond it.

    lambda = 0.25 is left out: as the one dyadic value its continuation
    costs a third of the others'.  lambda and x are drawn stratified, as
    the continuation's cost depends on them.
    """
    lams = _cycle(rng, [v for v in LAMBDAS if v != 0.25])
    xs = _cycle(rng, CONT_XS)
    u = _unit(rng)
    session = [["verify", "--suite", "all"]]
    for _ in range(rounds):
        lam = next(lams)
        x = next(xs)
        s_pos = round(0.5 + 2.0 * next(u), 3)
        while s_pos.is_integer():
            s_pos = round(0.5 + 2.0 * next(u), 3)
        q = rng.randrange(5, 30)
        p = rng.randrange(1, q)
        session += [
            ["zeta", "--s", repr(_neg_s(u)), "--x", repr(x), "--lambda", repr(lam)],
            ["zeta", "--s", repr(s_pos), "--x", repr(x), "--lambda", repr(lam)],
            ["gamma", "--s", repr(s_pos), "--lambda", repr(lam)],
            ["euler", "--n", str(rng.randrange(5, 16)), "--lambda", f"{p}/{q}",
             "--format", "json"],
            ["zeta-neg", "--n", str(rng.randrange(2, 9)),
             "--x", f"{rng.randrange(1, 17)}/4", "--lambda", f"{p}/{q}"],
            ["table", "--function", "gamma",
             "--grid", f"s={s_pos!r},{s_pos + 0.5!r};lambda={lam!r},{lam / 2!r}",
             "--format", "csv"],
            ["zeta", "--s", repr(_neg_s(u)), "--x", repr(next(xs)),
             "--lambda", repr(next(lams))],
        ]
    return session


GENERATORS = {"exact": gen_exact, "numeric": gen_numeric,
              "continuation": gen_continuation, "cli": gen_cli_session}


def generate(workload: str, seed: int) -> list:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# input properties
# ---------------------------------------------------------------------------

def _lambda_of(op) -> Fraction | None:
    fn, args, _ = op
    return None if fn.startswith("zetadeg.euler_zeta") else Fraction(args[-1])


def _pair_of(op) -> tuple | None:
    """The (x, lambda) an op is evaluated at, as floats; None without an x."""
    fn, args, _ = op
    if len(args) != 3 or fn == "exactcore.check_alternating_sum_identity":
        return None
    return float(args[1]), float(args[2])


_ORDER_FIRST = ("exactcore.euler_poly_deg", "exactcore.euler_poly_deg_values",
                "zetadeg.zeta_deg_neg", "exactcore.check_alternating_sum_identity",
                "zetadeg.zeta_deg_int", "zetadeg.discrepancy_experiment")


def _repeat_share(keys: list) -> float:
    seen: set = set()
    repeats = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return repeats / len(keys) if keys else 0.0


def input_properties(ops: list) -> dict:
    """Properties of the ops a run executed, computed from the inputs alone."""
    pairs = [p for p in map(_pair_of, ops) if p is not None]
    lams = [lam for lam in map(_lambda_of, ops) if lam is not None]
    bits = Counter(lam.denominator.bit_length() for lam in lams)
    orders = [op[1][0] for op in ops if op[0] in _ORDER_FIRST]
    tight = sum(1 for op in ops if op[2])
    quad = sum(1 for op in ops
               if op[0] in ("gammadeg.gamma_deg", "zetadeg.zeta_deg_mellin"))
    return {
        "ops": len(ops),
        "ops_by_fn": dict(sorted(Counter(op[0] for op in ops).items())),
        "pair_repeat_share": _repeat_share(pairs),
        "lambda_repeat_share": _repeat_share([float(lam) for lam in lams]),
        "distinct_pairs": len(set(pairs)),
        "lambda_den_bits": {str(k): v for k, v in sorted(bits.items())},
        "order_range": [min(orders), max(orders)] if orders else None,
        "tight_share_of_quad_requests": tight / quad if quad else 0.0,
        "tight_share_of_ops": tight / len(ops) if ops else 0.0,
    }


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def execute(fn, op):
    """Run one op; an error it raises is returned for the gate to judge."""
    _, args, kwargs = op
    try:
        return fn(*args, **dict(kwargs))
    except OP_ERRORS as exc:
        return exc


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _close(a: float, b: float, tol: float, relative: bool = False) -> bool:
    scale = max(abs(a), abs(b)) if relative else 1.0
    return math.isfinite(a) and abs(a - b) <= tol * scale


class Gate:
    """Checks each op's result against an independent route.

    Results of the timed ops are looked up first, so the partner op of a
    shared point (series vs. Mellin) is compared without recomputation.
    """

    def __init__(self, done: dict):
        self.done = done  # (fn, args, kwargs) -> result

    def _value(self, fn: str, args: tuple):
        key = (fn, args, ())
        if key not in self.done or isinstance(self.done[key], Exception):
            self.done[key] = function(fn)(*args)
        value = self.done[key]
        return value.value if isinstance(value, numerics.QuadResult) else value

    def check(self, op, result) -> bool:
        fn, args, kwargs = op
        if isinstance(result, Exception):
            return bool(kwargs) and isinstance(result, NonConvergentError)
        if isinstance(result, numerics.QuadResult):
            result = result.value
        return getattr(self, "_" + fn.replace(".", "_"))(args, result)

    # exactcore ---------------------------------------------------------------

    def _exactcore_euler_poly_deg(self, args, poly) -> bool:
        n, lam = args
        low = min(n, 12)
        oracle = exactcore.series_oracle(low, lam)
        if any(exactcore.euler_poly_deg(k, lam) != oracle[k] for k in range(low + 1)):
            return False
        x0 = Fraction(1, 3)
        return poly(x0) == exactcore.euler_poly_deg_values(n, x0, lam)[n]

    def _exactcore_euler_poly_deg_values(self, args, values) -> bool:
        n_max, x, lam = args
        low = min(n_max, 12)
        oracle = exactcore.series_oracle(low, lam)
        return len(values) == n_max + 1 and [p(x) for p in oracle] == values[:low + 1]

    def _zetadeg_zeta_deg_neg(self, args, value) -> bool:
        n, x, lam = args
        expected = exactcore.series_oracle(n, -lam)[n](x)
        for j in range(1, n):
            expected /= 1 + j * lam
        return value == expected

    def _exactcore_check_alternating_sum_identity(self, args, r) -> bool:
        m, n, lam = args
        poly = exactcore.series_oracle(m, lam)[m]
        rhs = 2 * sum((-1) ** k * exactcore.ffd(k, lam, m) for k in range(n + 1))
        signed = poly(0) + (-1) ** n * poly(n + 1)
        return (r.signed_holds and r.rhs == rhs and r.lhs_signed == signed
                and r.plain_holds == (poly(0) + poly(n + 1) == rhs))

    # numeric -----------------------------------------------------------------

    def _gammadeg_gamma_deg(self, args, value) -> bool:
        s, lam = args
        return _close(value, zetadeg.gamma_deg_continued(s, lam), TOL_REL, True)

    def _zetadeg_zeta_deg(self, args, value) -> bool:
        return _close(value, self._value("zetadeg.zeta_deg_mellin", args),
                      TOL_SERIES_MELLIN)

    def _zetadeg_zeta_deg_mellin(self, args, value) -> bool:
        return _close(value, self._value("zetadeg.zeta_deg", args), TOL_SERIES_MELLIN)

    def _zetadeg_zeta_deg_int(self, args, value) -> bool:
        n, x, lam = args
        return _close(value, zetadeg.zeta_deg_mellin(float(n), x, lam).value,
                      TOL_INT_MELLIN)

    def _zetadeg_euler_zeta(self, args, value) -> bool:
        return _close(value, self._value("zetadeg.euler_zeta_mellin", args), TOL_EULER)

    def _zetadeg_euler_zeta_mellin(self, args, value) -> bool:
        return _close(value, self._value("zetadeg.euler_zeta", args), TOL_EULER)

    # continuation ------------------------------------------------------------

    def _zetadeg_zeta_deg_continued(self, args, value) -> bool:
        # zeta(s,x|l) + zeta(s,x+1|l) = 2 x^-s Gamma(s|l/x) / Gamma(s|l)
        s, x, lam = args
        cont = zetadeg.gamma_deg_continued
        rhs = 2.0 * x ** -s * cont(s, lam / x) / cont(s, lam)
        return _close(value + zetadeg.zeta_deg_continued(s, x + 1.0, lam), rhs,
                      TOL_REL, True)

    def _zetadeg_gamma_deg_continued(self, args, value) -> bool:
        # Gamma(s|m) = Gamma(s+1|l) (1-l)^(s+1) / s  with  l = m/(1+m)
        s, mu = args
        lam = mu / (1.0 + mu)
        ref = zetadeg.gamma_deg_continued(s + 1.0, lam) * (1.0 - lam) ** (s + 1.0) / s
        return _close(value, ref, TOL_REL, True)

    def _zetadeg_discrepancy_experiment(self, args, rep) -> bool:
        n, x, lam = args
        scaled = zetadeg.zeta_deg_neg(n, Fraction(x), Fraction(lam))
        return (rep.winner == "scaled" and rep.value_scaled == scaled
                and _close(rep.value_continued, float(scaled), TOL_DISCREPANCY))


def failed_ops(ops: list, results: list) -> list:
    """Indices of the ops whose result fails the gate.

    When the two routes at a shared point disagree, both ops count as failed.
    """
    gate = Gate({op: r for op, r in zip(ops, results)})
    failed = []
    for i, (op, result) in enumerate(zip(ops, results)):
        try:
            ok = gate.check(op, result)
        except (*OP_ERRORS, AttributeError, IndexError):
            ok = False
        if not ok:
            failed.append(i)
    return failed


# ---------------------------------------------------------------------------
# CLI references
# ---------------------------------------------------------------------------

def cli_reference(argv: list) -> object:
    """What the output of ``degzeta <argv>`` must parse to, computed in-process."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    cmd = argv[0]
    if cmd == "verify":
        return "failed=0"
    if cmd == "zeta":
        s, x, lam = float(opts["--s"]), float(opts["--x"]), float(opts["--lambda"])
        if s < 0:
            return zetadeg.zeta_deg_continued(s, x, lam)
        return zetadeg.zeta_deg(s, x, lam)
    if cmd == "gamma":
        return gammadeg.gamma_deg(float(opts["--s"]), float(opts["--lambda"])).value
    if cmd == "euler":
        poly = exactcore.euler_poly_deg(int(opts["--n"]), Fraction(opts["--lambda"]))
        return [str(c) for c in poly.coeffs]
    if cmd == "zeta-neg":
        args = (int(opts["--n"]), Fraction(opts["--x"]), Fraction(opts["--lambda"]))
        return (str(zetadeg.zeta_deg_neg(*args)), str(zetadeg.zeta_deg_neg_plain(*args)))
    if cmd == "table":
        axes = dict(part.split("=") for part in opts["--grid"].split(";"))
        return [gammadeg.gamma_deg(float(s), float(lam)).value
                for s in axes["s"].split(",") for lam in axes["lambda"].split(",")]
    raise ValueError(f"no reference for command {cmd!r}")


def cli_output_ok(argv: list, returncode: int, stdout: str, reference) -> bool:
    if returncode != 0:
        return False
    lines = stdout.strip().splitlines()
    try:
        if argv[0] == "verify":
            return lines[-1].startswith("suite=all ") and lines[-1].endswith(reference)
        if argv[0] in ("zeta", "gamma"):
            return _close(float(lines[0].split()[0]), reference, 1e-12, True)
        if argv[0] == "euler":
            return json.loads(lines[0])["poly"] == reference
        if argv[0] == "zeta-neg":
            return (lines[0].split()[2], lines[1].split()[2]) == reference
        if argv[0] == "table":
            rows = list(csv.reader(io.StringIO(stdout)))[1:]
            return (len(rows) == len(reference)
                    and all(_close(float(r[2]), v, 1e-12, True)
                            for r, v in zip(rows, reference)))
    except (IndexError, KeyError, ValueError):
        return False
    return False


