"""Degenerate gamma function Gamma(s|l) = int_0^inf (1+lt)^(-1/l) t^(s-1) dt.

The kernel (1+lt)^(-1/l) decays only like t^(-1/l), so the integral
converges exactly for 0 < s < 1/l (with l in (0,1)); as l -> 0 the kernel
tends to e^(-t) and Gamma(s|l) -> Gamma(s).  This module provides the
quadrature evaluator, the exact closed form at positive integers

    Gamma(n|l) = (n-1)! / ((1-l)(1-2l)...(1-nl)),       0 < l < 1/n,

the gamma ratio behind the real-s closed form Gamma(s|l) = l^(-s) Gamma(s)
Gamma(1/l - s) / Gamma(1/l) (u = lt), residual checks for the functional
equation

    Gamma(s+1|l) = s (1-l)^(-(s+1)) Gamma(s | l/(1-l))

and its n-fold chained version, and the residues of Gamma(s|l) at
non-positive integers (the Taylor coefficients of the kernel at t = 0).

Direct quadrature is the normative evaluator; the functional equation is
exposed only as a residual check because chaining it moves l and can leave
the (0,1) domain.

The parameter domain of the whole degenerate Mellin family, Gamma(s|l) and
zeta_E(s,x|l) alike, continued or not, is checked in one place,
`_check_domain`: finite x > 0, 0 < l < 1, finite s with
s < min(1, x)/l - delta, and s > 0 or, continued, s at least `POLE_GUARD`
from every non-positive integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactcore import RationalLike, TruncatedSeries, as_rational, ffd, kernel_series
from .numerics import (
    DomainError,
    QuadConfig,
    QuadResult,
    _quad_tail_pair,
    _quad_tail_power,
    quad_finite,
)

__all__ = [
    "DOMAIN_MARGIN",
    "gamma_deg",
    "gamma_deg_closed",
    "gamma_classical",
    "funceq_residual",
    "funceq_chain_residual",
    "gamma_deg_via_chain",
    "ResidueValue",
    "gamma_deg_residue",
    "residue_closed_form",
]

# Margin delta keeping s away from the divergence threshold s = min(1, x)/lambda.
DOMAIN_MARGIN = 1e-6
# Continued evaluations refuse to come closer to a pole than this; values
# at the poles themselves are reached through richardson_limit only.
POLE_GUARD = 1e-3


def deg_kernel(lam: float):
    """The map t -> (1+lam*t)^(-1/lam), computed as exp(-log1p(lam*t)/lam)."""
    inv = 1.0 / lam
    return lambda t: math.exp(-math.log1p(lam * t) * inv)


def deg_log_kernel(lam: float):
    """The map t -> log of `deg_kernel(lam)`, -log1p(lam*t)/lam."""
    return lambda t: -math.log1p(lam * t) / lam


_HEAD_ROUNDOFF = 4.0 * 2.220446049250313e-16  # rounding of 1/s + I and of k(t) - 1
_TAIL_R_MAX = 64.0  # cap on the tail map's power r, which grows like 3/eps as eps -> 0
_LOG_PEAK_ROOM = 500.0  # log of the largest integrand the log-form tail keeps unscaled


def _mellin_quad(kern, log_kern, s: float, cfg: QuadConfig | None,
                 rate: float | None = None) -> QuadResult:
    """int_0^inf kern(t) t^(s-1) dt, s > 0, for a kernel with kern(0) = 1.

    The head [0, 1] is 1/s + I, I = int_0^1 (kern(t) - 1) t^(s-1) dt.  I
    is integrated in u = t^(1/p), p = (floor(s)+4)/(s+1), where t^(s-1) dt
    = p u^(ps-1) du and (kern(u^p) - 1) p u^(ps-1) ~ u^(floor(s)+3), a
    positive integer power: no bisection chases t = 0, for any s > 0.
    p <= 4, so the first panel's samples keep t above ~3e-10.  The head's
    estimate adds 4 eps |head| for the rounding of kern(t) - 1 and of
    1/s + I, most of the estimate at small s.  Every kernel here lies in
    [0, 2] on [0, 1], so the head cannot overflow.  The tail [1, inf) is
    `_mellin_tail`, given the kernel's decay rate, and its errors pass
    through.
    """
    p = (math.floor(s) + 4.0) / (s + 1.0)
    q = p * s - 1.0
    h = quad_finite(lambda u: p * (kern(u**p) - 1.0) * u**q, 0.0, 1.0, cfg)
    tail = _mellin_tail(kern, log_kern, s, cfg, rate)
    return _head_plus_tail(h, tail, s, h.subdivisions + tail.subdivisions)


def _mellin_quad_pair(kerns, log_kerns, s: float, cfg: QuadConfig | None,
                      rate: float) -> tuple[QuadResult, QuadResult]:
    """`_mellin_quad` of two kernels on shared panels: kerns(t) is their pair.

    The heads are one pair quadrature and the tails another
    (`_mellin_tail_pair`), whose power r comes from the kernel of the
    smaller decay rate, `rate`.  Both results count the pair's bisections.
    """
    p = (math.floor(s) + 4.0) / (s + 1.0)
    q = p * s - 1.0

    def head(u: float) -> tuple[float, float]:
        k1, k2 = kerns(u**p)
        c = p * u**q
        return (k1 - 1.0) * c, (k2 - 1.0) * c

    h1, h2 = quad_finite(head, 0.0, 1.0, cfg)
    t1, t2 = _mellin_tail_pair(kerns, log_kerns, s, cfg, rate)
    n = h1.subdivisions + t1.subdivisions
    return _head_plus_tail(h1, t1, s, n), _head_plus_tail(h2, t2, s, n)


def _head_plus_tail(h: QuadResult, tail: QuadResult, s: float,
                    subdivisions: int) -> QuadResult:
    head = 1.0 / s + h.value
    return QuadResult(head + tail.value,
                      h.abs_error_estimate + _HEAD_ROUNDOFF * abs(head) + tail.abs_error_estimate,
                      subdivisions)


def _log_peak(log_f) -> float:
    """Largest log_f(t) over t = 2^(k/4) >= 1, scanned until it falls 40 below it."""
    peak = -math.inf
    for k in range(4096):
        y = log_f(2.0 ** (k / 4.0))
        peak = max(peak, y)
        if y < peak - 40.0:
            break
    return peak


def _tail_power(s: float, rate: float | None) -> float:
    """The tail map's power r for a kernel of decay rate `rate`, 1 without one."""
    if rate is None:
        return 1.0
    eps = rate - s
    return min(_TAIL_R_MAX, (math.floor(eps) + 3.0) / eps)


def _mellin_tail(kern, log_kern, s: float, cfg: QuadConfig | None,
                 rate: float | None = None) -> QuadResult:
    """int_1^inf kern(t) t^(s-1) dt, where kern(t) decays like t^(-rate).

    In u = 1/(1+t) a kernel of algebraic decay rate a leaves u^(eps-1) g(u)
    at u = 0, eps = a - s and g smooth, which bisection chases for any
    non-integer eps.  So for a given rate the tail is taken in
    u = w^r, r = min(64, (floor(eps)+3)/eps) (`numerics._quad_tail_power`),
    where the integrand is r w^(floor(eps)+2) g(w^r): a positive integer
    power of w for every eps above 3/64, the tail twin of the head's map.
    Any r > 0 gives the same integral, so eps need not be exact.  Without
    a rate (the classical kernel decays exponentially; the continued gamma,
    `zetadeg.gamma_deg_continued`) r = 1, the plain u-map.

    The power alone can overflow at large t and s while the product stays
    in range, so the tail is redone in logs (`_log_tail`) if a sample or a
    sum overflows.

    Raises:
        DomainError: the quadrature, in logs too, leaves the float range:
            the value does, or lies within a factor ~1e4 of its edge.
        NonConvergentError: the quadrature did not converge.
    """
    r = _tail_power(s, rate)
    sm1 = s - 1.0
    try:
        return _quad_tail_power(lambda t: kern(t) * t**sm1, 1.0, r, cfg)
    except (OverflowError, DomainError):
        return _log_tail(log_kern, s, r, cfg)


def _mellin_tail_pair(kerns, log_kerns, s: float, cfg: QuadConfig | None,
                      rate: float | None = None) -> tuple[QuadResult, QuadResult]:
    """`_mellin_tail` of two kernels on shared panels, t^(s-1) taken once per node.

    r is `_tail_power` of `rate`.  If the pair overflows, each kernel's
    tail is redone in logs on its own (`_log_tail`, from `log_kerns`), and
    both results count the bisections of the two.
    """
    r = _tail_power(s, rate)
    try:
        return _quad_tail_pair(kerns, s - 1.0, 1.0, r, cfg)
    except (OverflowError, DomainError):
        t1, t2 = (_log_tail(log_kern, s, r, cfg) for log_kern in log_kerns)
    n = t1.subdivisions + t2.subdivisions
    return (QuadResult(t1.value, t1.abs_error_estimate, n),
            QuadResult(t2.value, t2.abs_error_estimate, n))


def _log_tail(log_kern, s: float, r: float, cfg: QuadConfig | None) -> QuadResult:
    """The tail of `_mellin_tail` as exp(log_kern(t) + (s-1) log t), in u = w^r.

    If the log of that integrand's peak, L (`_log_peak`), is above 500, the
    integrand is divided by exp(L - 500) and the result multiplied back:
    the peak then sits at ~1e217, clear of overflow, including the map's
    r/(u w), and far above the absolute floor 1e-14, so the tolerance stays
    relative as it is unscaled.  Below that nothing is scaled.

    Raises:
        DomainError: the value leaves the float range, or lies within a
            factor ~1e4 of its edge.
    """
    sm1 = s - 1.0

    def log_f(t: float) -> float:
        return log_kern(t) + sm1 * math.log(t)

    shift = max(0.0, _log_peak(log_f) - _LOG_PEAK_ROOM)
    try:
        q = _quad_tail_power(lambda t: math.exp(log_f(t) - shift), 1.0, r, cfg)
        value, err = q.value * math.exp(shift), q.abs_error_estimate * math.exp(shift)
    except (OverflowError, DomainError):
        value = err = math.inf
    if not (math.isfinite(value) and math.isfinite(err)):
        raise DomainError(
            f"the quadrature of the Mellin integral at s={s!r} overflows "
            f"the float range")
    return QuadResult(value, err, q.subdivisions)


def _require_positive_x(x: float) -> None:
    if not 0.0 < x < math.inf:
        raise DomainError(f"x must be finite and > 0, got {x!r}")


def _check_domain(s: float, lam: float, x: float = 1.0, *,
                  continued: bool = False) -> None:
    """The domain of the degenerate Mellin integrals, x = 1 for Gamma(s|lam).

    The kernel decays like t^(-x/lam) and that of Gamma(s|lam) like
    t^(-1/lam), so both integrals converge for 0 < s < min(1, x)/lam; s
    keeps the margin delta from that threshold.  Continued (`continued`),
    s may lie left of 0 but at least `POLE_GUARD` from every pole s = -n.
    """
    _require_positive_x(x)
    if not 0.0 < lam < 1.0:
        raise DomainError(f"lambda must be in (0,1), got {lam!r}")
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s!r}")
    if continued:
        nearest = round(s)
        if nearest <= 0 and abs(s - nearest) < POLE_GUARD:
            raise DomainError(
                f"s={s!r} is within {POLE_GUARD} of a pole; use richardson_limit")
    lower = -math.inf if continued else 0.0
    bound = min(1.0, x) / lam - DOMAIN_MARGIN
    if not lower < s < bound:
        need = "s" if continued else "0 < s"
        raise DomainError(f"need {need} < min(1/lambda, x/lambda) - delta "
                          f"= {bound!r}, got s={s!r}")


def gamma_deg(s: float, lam: float, cfg: QuadConfig | None = None) -> QuadResult:
    """Gamma(s|lam) by adaptive quadrature.

    Requires 0 < s < 1/lam - delta and lam in (0,1) (`_check_domain`);
    outside that the integral diverges (or is about to) and a DomainError
    is raised rather than returning a huge number.
    """
    _check_domain(s, lam)
    return _mellin_quad(deg_kernel(lam), deg_log_kernel(lam), s, cfg, 1.0 / lam)


def gamma_deg_closed(n: int, lam: RationalLike) -> Fraction:
    """Exact Gamma(n|lam) = (n-1)! / prod_{j=1..n} (1-j*lam) for integer n >= 1.

    Valid on lam in (0, 1/n), matching the convergence domain of the
    integral; enforced strictly.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    lamf = as_rational(lam)
    if not (0 < lamf < Fraction(1, n)):
        raise DomainError(f"lambda must lie in (0, 1/{n}), got {lamf}")
    den = Fraction(1)
    for j in range(1, n + 1):
        den *= 1 - j * lamf
    return Fraction(math.factorial(n - 1)) / den


def gamma_classical(s: float) -> float:
    """Classical Gamma(s) for s > 0 (`math.gamma`, independent of `gamma_deg`).

    Raises:
        DomainError: s <= 0, or Gamma(s) overflows the float range (s > ~171.6).
    """
    if not s > 0:
        raise DomainError("classical gamma evaluated only for s > 0 here")
    try:
        return math.gamma(s)
    except OverflowError:
        raise DomainError(f"Gamma({s!r}) overflows the float range") from None


def _gamma_ratio(b: float, lam: float, s: float) -> float:
    """Gamma(a - s) / Gamma(a), a = b/lam: the ratio in Gamma(s|lam/b).

    1/prod_j ((b - j*lam)/lam) at a positive integer s, whose factors are
    positive for s < b/lam; else `math.gamma`, which keeps the sign at
    negative arguments, or an `lgamma` difference for a - s > 0.
    """
    if s > 0 and float(s).is_integer():
        return 1.0 / math.prod((b - j * lam) / lam for j in range(1, int(s) + 1))
    a = b / lam
    if max(a, a - s) < 170.0:  # math.gamma overflows above 171.6
        return math.gamma(a - s) / math.gamma(a)
    return math.exp(math.lgamma(a - s) - math.lgamma(a))


def _gamma_ratio_frexp(b: float, lam: float, s: float) -> tuple[float, int]:
    """(f, e) with `_gamma_ratio(b, lam, s)` = f * 2**e, for ratios outside the float range.

    At a positive integer s the product is renormalised factor by factor;
    else e comes from the `lgamma` difference, which needs a - s > 0.
    """
    if s > 0 and float(s).is_integer():
        f, e = 1.0, 0
        for j in range(1, int(s) + 1):
            f, k = math.frexp(f * ((b - j * lam) / lam))
            e += k
        return 1.0 / f, -e
    a = b / lam
    log2 = (math.lgamma(a - s) - math.lgamma(a)) / math.log(2.0)
    e = math.floor(log2)
    return 2.0 ** (log2 - e), e


def funceq_residual(s: float, lam: float) -> float:
    """Relative residual of Gamma(s+1|lam) = s (1-lam)^(-(s+1)) Gamma(s|lam/(1-lam)).

    Both sides are evaluated by independent quadratures.  Preconditions
    keep both integrals inside their convergence domains:
    0 < s, s+1 < 1/lam - delta, and s < (1-lam)/lam - delta.
    """
    _check_domain(s + 1.0, lam)
    lam2 = lam / (1.0 - lam)
    _check_domain(s, lam2)
    lhs = gamma_deg(s + 1.0, lam).value
    rhs = s * (1.0 - lam) ** (-(s + 1.0)) * gamma_deg(s, lam2).value
    return abs(lhs - rhs) / abs(lhs)


def funceq_chain_residual(s: float, lam: float, n: int) -> float:
    """Relative residual of the n-fold chained functional equation.

    Checks
        Gamma(s+1|lam) / Gamma(s-(n+1) | lam/(1-(n+2)lam))
          = [s(s-1)...(s-(n+1))] / [(1-lam)...(1-(n+1)lam)]
            * (1-(n+2)lam)^(-(s-n))
    with both gammas from quadrature and the right side in closed form.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    scale = 1.0 - (n + 2) * lam
    if not scale > 0:
        raise DomainError("need lambda < 1/(n+2)")
    lam2 = lam / scale
    _check_domain(s + 1.0, lam)
    _check_domain(s - (n + 1), lam2)
    lhs = gamma_deg(s + 1.0, lam).value / gamma_deg(s - (n + 1), lam2).value
    num = 1.0
    for j in range(n + 2):
        num *= s - j
    den = 1.0
    for j in range(1, n + 2):
        den *= 1.0 - j * lam
    rhs = num / den * scale ** (-(s - n))
    return abs(lhs - rhs) / abs(rhs)


def gamma_deg_via_chain(n: int, lam: float) -> float:
    """Gamma(n+3|lam) reconstructed through the chained functional equation.

    Steps the argument down to 1 and evaluates only the remaining
    Gamma(1 | lam/(1-(n+2)lam)) by quadrature:

        Gamma(n+3|lam) = (n+2)! / [(1-lam)...(1-(n+1)lam)]
                         * (1-(n+2)lam)^(-2) * Gamma(1 | lam/(1-(n+2)lam)).

    Consistency path for `gamma_deg_closed(n+3, lam)`.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    if not lam < 1.0 / (n + 3):
        raise DomainError("need lambda in (0, 1/(n+3))")
    scale = 1.0 - (n + 2) * lam
    den = 1.0
    for j in range(1, n + 2):
        den *= 1.0 - j * lam
    g1 = gamma_deg(1.0, lam / scale).value
    return math.factorial(n + 2) / den * scale**-2.0 * g1


@dataclass(frozen=True)
class ResidueValue:
    """Residue of Gamma(s|lam) at s = -n (exact rational)."""

    n: int
    lam: Fraction
    value: Fraction


def gamma_deg_residue(n: int, lam: RationalLike) -> ResidueValue:
    """Residue of Gamma(s|lam) at s = -n.

    Splitting the integral at t = 1 exposes simple poles at the
    non-positive integers with residues equal to the Taylor coefficients
    c_n(lam) of the kernel (1+lam*t)^(-1/lam) at t = 0.  The coefficient
    is extracted by exact series division, 1 / (1+lam*t)^(1/lam), which is
    an independent route from the closed product form
    (`residue_closed_form`); the two are compared in the test suite.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    lamf = as_rational(lam)
    one = TruncatedSeries([Fraction(1)], order=n)
    recip = one / kernel_series(1, lamf, n)
    return ResidueValue(n=n, lam=lamf, value=recip.coeff(n))


def residue_closed_form(n: int, lam: RationalLike) -> Fraction:
    """Closed form of the residue: (-1)^n (1+lam)(1+2lam)...(1+(n-1)lam) / n!.

    The product is empty for n <= 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    lamf = as_rational(lam)
    prod = Fraction(1)
    for j in range(1, n):
        prod *= 1 + j * lamf
    return Fraction((-1) ** n) * prod / math.factorial(n)
