"""Named verification suites over the whole library.

Each check evaluates one identity at fixed desk-scale inputs, records the
expected/actual values, the residual, and a pass flag against a pinned
tolerance, and carries an `anchor` string stating the identity being
checked so a failure is traceable to a formula.  Suites:

    exactcore   recurrence/series equivalence and the alternating-sum
                identity adjudication (exact arithmetic; zero tolerance)
    gamma       integer closed form, the real-s closed form against
                quadrature and the continuation, functional equation +
                chain, the l -> 0 first-order law, and the residues
    zeta        classical interpolation, cross-representation agreement,
                the l -> 0 limit at negative integers, and the exact Abel
                sum at s = -n against both candidates
    discrepancy the continuation experiment deciding between the two
                negative-integer closed forms
    all         everything above, in that order

Exit semantics live in the CLI: 0 iff every check passes.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable

from . import exactcore, gammadeg, zetadeg

__all__ = ["CheckResult", "VerifyReport", "SUITES", "run_suite", "format_float"]


def format_float(v: float) -> str:
    """Fixed 17-significant-digit float rendering (lowercase exponent)."""
    return f"{v:.16e}"


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    anchor: str
    inputs: dict
    expected: str
    actual: str
    residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    checks: tuple[CheckResult, ...]
    passed: int
    failed: int
    wall_time_s: float

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        report = asdict(self)
        return {**report, "checks": list(report["checks"])}  # JSON's list, as from_dict reads

    @classmethod
    def from_dict(cls, d: dict) -> "VerifyReport":
        return cls(
            suite=d["suite"],
            checks=tuple(CheckResult(**c) for c in d["checks"]),
            passed=d["passed"],
            failed=d["failed"],
            wall_time_s=d["wall_time_s"],
        )


def _exact_check(check_id: str, anchor: str, inputs: dict,
                 expected: str, actual: str) -> CheckResult:
    ok = expected == actual
    return CheckResult(
        check_id=check_id,
        anchor=anchor,
        inputs=inputs,
        expected=expected,
        actual=actual,
        residual=0.0 if ok else 1.0,
        tolerance=0.0,
        passed=ok,
    )


def _tol_check(check_id: str, anchor: str, inputs: dict, expected: float,
               actual: float, tol: float, *, relative: bool = False) -> CheckResult:
    residual = abs(actual - expected)
    if relative:
        residual /= abs(expected)
    return CheckResult(
        check_id=check_id,
        anchor=anchor,
        inputs=inputs,
        expected=format_float(expected),
        actual=format_float(actual),
        residual=residual,
        tolerance=tol,
        passed=residual <= tol,
    )


def _residual_check(check_id: str, anchor: str, inputs: dict,
                    residual: float, tol: float) -> CheckResult:
    return CheckResult(
        check_id=check_id,
        anchor=anchor,
        inputs=inputs,
        expected=f"residual <= {tol:g}",
        actual=format_float(residual),
        residual=residual,
        tolerance=tol,
        passed=residual <= tol,
    )


# ---------------------------------------------------------------------------
# suite: exactcore
# ---------------------------------------------------------------------------

_ANCHOR_RECURRENCE = (
    "E_n(x|l) recurrence == n! [t^n] 2(1+lt)^(x/l) / ((1+lt)^(1/l)+1)"
)
_ANCHOR_ALT_SIGNED = (
    "E_m(0|l) + (-1)^n E_m(n+1|l) == 2 sum_{k=0..n} (-1)^k (k|l)_m"
)
_ANCHOR_ALT_PLAIN = (
    "E_m(0|l) + E_m(n+1|l) == 2 sum_{k=0..n} (-1)^k (k|l)_m"
)


def suite_exactcore() -> list[CheckResult]:
    checks = []
    n_max = 20
    for lam in (Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
        oracle = exactcore.series_oracle(n_max, lam)
        mismatches = [
            n for n in range(n_max + 1)
            if exactcore.euler_poly_deg(n, lam) != oracle[n]
        ]
        checks.append(_exact_check(
            f"recurrence_oracle/lam={lam}",
            _ANCHOR_RECURRENCE,
            {"n_max": n_max, "lambda": str(lam)},
            "recurrence == oracle for n=0..20",
            "recurrence == oracle for n=0..20" if not mismatches
            else f"mismatch at n={mismatches}",
        ))

    bound = 12
    for lam in (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2)):
        signed_bad = []
        plain_even_bad = []
        plain_odd_fail = False
        for m in range(bound + 1):
            for n in range(bound + 1):
                r = exactcore.check_alternating_sum_identity(m, n, lam)
                if not r.signed_holds:
                    signed_bad.append((m, n))
                if n % 2 == 0 and not r.plain_holds:
                    plain_even_bad.append((m, n))
                if n % 2 == 1 and not r.plain_holds:
                    plain_odd_fail = True
        checks.append(_exact_check(
            f"alt_sum_signed/lam={lam}",
            _ANCHOR_ALT_SIGNED,
            {"m_max": bound, "n_max": bound, "lambda": str(lam)},
            "holds for all m,n <= 12",
            "holds for all m,n <= 12" if not signed_bad
            else f"fails at {signed_bad[:4]}",
        ))
        checks.append(_exact_check(
            f"alt_sum_plain_even/lam={lam}",
            _ANCHOR_ALT_PLAIN,
            {"m_max": bound, "n_max": bound, "lambda": str(lam), "n_parity": "even"},
            "holds for all even n",
            "holds for all even n" if not plain_even_bad
            else f"fails at {plain_even_bad[:4]}",
        ))
        checks.append(_exact_check(
            f"alt_sum_plain_odd_fails/lam={lam}",
            _ANCHOR_ALT_PLAIN,
            {"m_max": bound, "n_max": bound, "lambda": str(lam), "n_parity": "odd"},
            "fails for at least one (m, odd n)",
            "fails for at least one (m, odd n)" if plain_odd_fail
            else "holds everywhere (unexpected)",
        ))
    return checks


# ---------------------------------------------------------------------------
# suite: gamma
# ---------------------------------------------------------------------------

_ANCHOR_GAMMA_CLOSED = "Gamma(n|l) == (n-1)! / ((1-l)(1-2l)...(1-nl))"
_ANCHOR_GAMMA_BETA = "Gamma(s|l) == l^-s Gamma(s) Gamma(1/l-s) / Gamma(1/l)"
_ANCHOR_FUNCEQ = "Gamma(s+1|l) == s (1-l)^-(s+1) Gamma(s|l/(1-l))"
_ANCHOR_CHAIN = (
    "Gamma(s+1|l)/Gamma(s-(n+1)|l/(1-(n+2)l)) == "
    "s(s-1)...(s-(n+1)) / [(1-l)...(1-(n+1)l)] * (1-(n+2)l)^-(s-n)"
)
_ANCHOR_CHAIN_CLOSED = (
    "chain at s=n+2 reproduces Gamma(n+3|l) == (n+2)!/((1-l)...(1-(n+3)l))"
)
_ANCHOR_LIMIT_LAW = "(Gamma(s|l) - Gamma(s))/l -> Gamma(s+2)/2 as l -> 0"
_ANCHOR_RESIDUE = (
    "Res_{s=-n} Gamma(s|l) == [t^n](1+lt)^(-1/l) == (-1)^n (1+l)...(1+(n-1)l)/n!"
)


def suite_gamma() -> list[CheckResult]:
    checks = []
    for n in range(1, 7):
        for lam in (Fraction(1, 20), Fraction(1, 10)):
            if not lam < Fraction(1, n):
                continue
            closed = gammadeg.gamma_deg_closed(n, lam)
            quad = gammadeg.gamma_deg(float(n), float(lam))
            checks.append(_tol_check(
                f"gamma_closed/n={n},lam={lam}",
                _ANCHOR_GAMMA_CLOSED,
                {"n": n, "lambda": str(lam)},
                float(closed), quad.value, 1e-8, relative=True,
            ))

    def beta_form(s: float, lam: float) -> float:
        # math.gamma(s) carries the sign at negative s
        return lam**-s * math.gamma(s) * gammadeg._gamma_ratio(1.0, lam, s)

    points = [("quad", s, lam, gammadeg.gamma_deg(s, lam).value)
              for s in (0.3, 1.5, 2.7) for lam in (0.1, 0.2)]
    points += [("continued", s, 0.1, zetadeg.gamma_deg_continued(s, 0.1))
               for s in (-0.5, -1.5, -2.7)]
    for route, s, lam, value in points:
        checks.append(_tol_check(
            f"gamma_beta_{route}/s={s},lam={lam}",
            _ANCHOR_GAMMA_BETA,
            {"s": s, "lambda": lam},
            value, beta_form(s, lam), 1e-8, relative=True,
        ))

    for s in (0.3, 0.7, 1.5):
        for lam in (0.1, 0.2):
            res = gammadeg.funceq_residual(s, lam)
            checks.append(_residual_check(
                f"funceq/s={s},lam={lam}",
                _ANCHOR_FUNCEQ,
                {"s": s, "lambda": lam},
                res, 1e-8,
            ))

    res = gammadeg.funceq_chain_residual(3.5, 0.05, 1)
    checks.append(_residual_check(
        "funceq_chain/n=1,s=3.5,lam=0.05",
        _ANCHOR_CHAIN,
        {"n": 1, "s": 3.5, "lambda": 0.05},
        res, 1e-7,
    ))

    chain_val = gammadeg.gamma_deg_via_chain(1, 0.05)
    closed4 = float(gammadeg.gamma_deg_closed(4, Fraction(1, 20)))
    checks.append(_tol_check(
        "chain_closed_path/n=1,lam=0.05",
        _ANCHOR_CHAIN_CLOSED,
        {"n": 1, "lambda": "1/20"},
        closed4, chain_val, 1e-8, relative=True,
    ))

    lam = 1e-3
    for s in (0.5, 1.5):
        g = gammadeg.gamma_classical(s)
        g2 = gammadeg.gamma_classical(s + 2.0)
        ratio = (gammadeg.gamma_deg(s, lam).value - g) / lam / (g2 / 2.0)
        checks.append(_tol_check(
            f"gamma_limit_law/s={s}",
            _ANCHOR_LIMIT_LAW,
            {"s": s, "lambda": lam},
            1.0, ratio, 0.05,
        ))

    for lam in (Fraction(1, 10), Fraction(1, 2)):
        bad = []
        for n in range(9):
            series = gammadeg.gamma_deg_residue(n, lam).value
            closed = gammadeg.residue_closed_form(n, lam)
            if series != closed:
                bad.append(n)
        checks.append(_exact_check(
            f"residue_series_vs_product/lam={lam}",
            _ANCHOR_RESIDUE,
            {"n_max": 8, "lambda": str(lam)},
            "series coefficient == product form for n=0..8",
            "series coefficient == product form for n=0..8" if not bad
            else f"mismatch at n={bad}",
        ))
    return checks


# ---------------------------------------------------------------------------
# suite: zeta
# ---------------------------------------------------------------------------

_ANCHOR_INTERP = "zeta_E(-n,x) == E_n(x), realized as an exact Abel sum"
_ANCHOR_LN2 = "zeta_E(1,1) == 2 ln 2"
_ANCHOR_PI26 = "zeta_E(2,1) == pi^2/6 via (1/Gamma(s)) int 2 e^(-xt)/(1+e^(-t)) t^(s-1) dt"
_ANCHOR_CROSS = (
    "series form 2 sum (-1)^m (m+x)^-s Gamma(s|l/(m+x))/Gamma(s|l) == "
    "Mellin form int F(-t,x|-l) t^(s-1) dt / Gamma(s|l)"
)
_ANCHOR_NEG_LIMIT = "lim_{l->0} zeta_E(-n,x|l) == E_n(x)"
_ANCHOR_NEG_ABEL = (
    "2 Abel(sum (-1)^m prod_{j<n}(m+x+jl)) / prod_{j<n}(1+jl) == "
    "E_n(x|-l) / ((1+l)(1+2l)...(1+(n-1)l)) (scaled), != E_n(x|-l) (plain)"
)


def suite_zeta() -> list[CheckResult]:
    checks = []
    for x in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        bad = []
        for n in range(11):
            expected = exactcore.euler_poly_deg(n, 0)(x)
            actual = zetadeg.euler_zeta(-n, x)
            if expected != actual:
                bad.append(n)
        checks.append(_exact_check(
            f"zeta_interpolation/x={x}",
            _ANCHOR_INTERP,
            {"n_max": 10, "x": str(x)},
            "exact equality for n=0..10",
            "exact equality for n=0..10" if not bad else f"mismatch at n={bad}",
        ))

    checks.append(_tol_check(
        "zeta_ln2",
        _ANCHOR_LN2,
        {"s": 1, "x": 1},
        2.0 * math.log(2.0), float(zetadeg.euler_zeta(1, 1)), 1e-10,
    ))
    checks.append(_tol_check(
        "zeta_mellin_pi2_6",
        _ANCHOR_PI26,
        {"s": 2, "x": 1},
        math.pi**2 / 6.0, zetadeg.euler_zeta_mellin(2.0, 1.0).value, 1e-8,
    ))

    for (n, x, lam) in ((2, 1.0, 0.1), (3, 2.0, 0.05)):
        vi = zetadeg.zeta_deg_int(n, x, lam)
        vm = zetadeg.zeta_deg_mellin(float(n), x, lam).value
        checks.append(_tol_check(
            f"cross_repr_int/n={n},x={x:g},lam={lam:g}",
            _ANCHOR_CROSS,
            {"n": n, "x": x, "lambda": lam},
            vm, vi, 1e-6,
        ))
    vs = zetadeg.zeta_deg(2.5, 1.0, 0.1)
    vm = zetadeg.zeta_deg_mellin(2.5, 1.0, 0.1).value
    checks.append(_tol_check(
        "cross_repr_s/s=2.5,x=1,lam=0.1",
        _ANCHOR_CROSS,
        {"s": 2.5, "x": 1.0, "lambda": 0.1},
        vm, vs, 1e-5,
    ))
    # the second point has x < lambda
    for s, x, lam in ((15.0, 3.0, 0.05), (0.3, 0.05, 0.1)):
        vs = zetadeg.zeta_deg(s, x, lam)
        vm = zetadeg.zeta_deg_mellin(s, x, lam).value
        checks.append(_tol_check(
            f"cross_repr_rel/s={s:g},x={x:g},lam={lam:g}",
            _ANCHOR_CROSS,
            {"s": s, "x": x, "lambda": lam},
            vm, vs, 1e-8, relative=True,
        ))

    lam = Fraction(1, 1000)
    for n in range(7):
        expected = exactcore.euler_poly_deg(n, 0)(1)
        actual = zetadeg.zeta_deg_neg(n, 1, lam)
        checks.append(_tol_check(
            f"neg_limit/n={n}",
            _ANCHOR_NEG_LIMIT,
            {"n": n, "x": 1, "lambda": str(lam)},
            float(expected), float(actual), 10.0 * float(lam),
        ))

    for x, lam in ((Fraction(1), Fraction(1, 4)), (Fraction(1), Fraction(1, 10)),
                   (Fraction(3, 2), Fraction(2, 7)), (Fraction(5, 4), Fraction(3, 7))):
        for n in range(11):
            abel = zetadeg._zeta_abel(n, x, lam)
            scaled, plain = zetadeg.zeta_deg_neg_candidates(n, x, lam)
            # the candidates coincide for n <= 1, and both vanish at (5, 1, 1/4)
            ok = abel == scaled and (n < 2 or plain == 0 or abel != plain)
            checks.append(CheckResult(
                check_id=f"neg_abel/n={n},x={x},lam={lam}",
                anchor=_ANCHOR_NEG_ABEL,
                inputs={"n": n, "x": str(x), "lambda": str(lam)},
                expected=f"{scaled} (plain candidate: {plain})",
                actual=str(abel),
                residual=0.0 if ok else 1.0,
                tolerance=0.0,
                passed=ok,
            ))
    return checks


# ---------------------------------------------------------------------------
# suite: discrepancy
# ---------------------------------------------------------------------------

_ANCHOR_DISC = (
    "lim_{s->-n} zeta_E(s,x|l) == E_n(x|-l) / ((1+l)(1+2l)...(1+(n-1)l)) "
    "(scaled candidate), not E_n(x|-l) (plain candidate)"
)


def suite_discrepancy() -> list[CheckResult]:
    checks = []
    for (n, x, lam) in ((2, Fraction(1), Fraction(1, 4)),
                        (2, Fraction(2), Fraction(1, 10)),
                        (3, Fraction(1), Fraction(1, 10)),
                        (2, Fraction(1, 2), Fraction(1, 4))):
        rep = zetadeg.discrepancy_experiment(n, x, lam)
        dist = abs(rep.value_continued - float(rep.value_scaled))
        ok = rep.winner == "scaled" and dist <= 1e-4
        checks.append(CheckResult(
            check_id=f"discrepancy/n={n},x={x},lam={lam}",
            anchor=_ANCHOR_DISC,
            inputs={"n": n, "x": str(x), "lambda": str(lam)},
            expected=(f"winner=scaled, continued within 1e-4 of "
                      f"{rep.value_scaled} (plain candidate: {rep.value_plain})"),
            actual=(f"winner={rep.winner}, continued="
                    f"{format_float(rep.value_continued)}, "
                    f"gap={format_float(rep.gap)}"),
            residual=dist,
            tolerance=1e-4,
            passed=ok,
        ))
    return checks


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "exactcore": suite_exactcore,
    "gamma": suite_gamma,
    "zeta": suite_zeta,
    "discrepancy": suite_discrepancy,
}


def run_suite(name: str) -> VerifyReport:
    """Run one named suite (or "all") and assemble the report."""
    if name == "all":
        builders = list(SUITES.values())
    elif name in SUITES:
        builders = [SUITES[name]]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join([*SUITES, 'all'])}")
    t0 = time.perf_counter()
    checks: list[CheckResult] = []
    for b in builders:
        checks.extend(b())
    wall = time.perf_counter() - t0
    passed = sum(1 for c in checks if c.passed)
    return VerifyReport(
        suite=name,
        checks=tuple(checks),
        passed=passed,
        failed=len(checks) - passed,
        wall_time_s=wall,
    )
