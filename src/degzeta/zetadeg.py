"""Classical and degenerate Euler zeta functions.

The classical alternating Hurwitz-type series

    zeta_E(s,x) = 2 sum_{m>=0} (-1)^m / (m+x)^s,        x > 0,

interpolates the Euler polynomials at negative integers,
zeta_E(-n,x) = E_n(x), which this module realizes constructively: the
exact Euler transformation of the divergent series terminates and yields
E_n(x) as its Abel sum.

The degenerate variant replaces e^(-t) weights by (1+lt)^(-...) kernels:

    zeta_E(s,x|l) = [ int_0^inf F(-t,x|-l) t^(s-1) dt ] / Gamma(s|l),
    F(-t,x|-l)    = 2 (1+lt)^(-x/l) / ((1+lt)^(-1/l) + 1),

with the equivalent series form 2 sum (-1)^m (m+x)^(-s)
Gamma(s|l/(m+x)) / Gamma(s|l), a sum of classical gamma ratios.  Several
independent routes are provided (series, Mellin quadrature, split-integral
analytic continuation), and the suite checks them against each other.
Every degenerate route with a real s, the series at integer s
(`zeta_deg_int`) included, takes its domain from `gammadeg._check_domain`:
finite x > 0, 0 < l < 1, finite s < min(1, x)/l - delta, and s > 0 or,
continued, s clear of the poles.  So where one route refuses a point,
every other refuses it too.

At negative integers two closed-form candidates circulate:

    plain:   zeta_E(-n,x|l) = E_n(x|-l)
    scaled:  zeta_E(-n,x|l) = E_n(x|-l) / ((1+l)(1+2l)...(1+(n-1)l))

They coincide for n <= 1 and differ from n = 2 on.  The split-integral
representation makes the numerator's residue at s = -n equal to
(-1)^n E_n(x|-l)/n! and the denominator's equal to
(-1)^n (1+l)...(1+(n-1)l)/n!, so the limit of the ratio is the scaled
value; `discrepancy_experiment` confirms this numerically by Richardson
extrapolation toward the pole and reports which candidate matches.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .exactcore import (
    RationalLike,
    as_rational,
    euler_poly_deg,
    euler_scaled,
    ffd_scaled,
)
from .gammadeg import (
    POLE_GUARD,
    _check_domain,
    _gamma_ratio,
    _gamma_ratio_frexp,
    _mellin_quad,
    _mellin_quad_pair,
    _mellin_tail,
    _mellin_tail_pair,
    _require_positive_x,
    deg_kernel,
    deg_log_kernel,
    gamma_classical,
)
from .numerics import (
    DomainError,
    NonConvergentError,
    QuadConfig,
    QuadResult,
    _cvz_sum,
    euler_transform_sum,
    richardson_limit,
)

__all__ = [
    "POLE_GUARD",
    "euler_zeta",
    "euler_zeta_mellin",
    "zeta_deg_int",
    "zeta_deg",
    "zeta_deg_mellin",
    "zeta_deg_neg",
    "zeta_deg_neg_plain",
    "zeta_deg_neg_candidates",
    "gamma_deg_continued",
    "zeta_deg_continued",
    "DiscrepancyReport",
    "discrepancy_experiment",
]

def _zeta_abel(n: int, x: RationalLike, lam: RationalLike) -> Fraction:
    """2 Abel(sum_m (-1)^m prod_{j<n} (m+x+jl)) / prod_{j<n} (1+jl), l >= 0.

    The gamma-ratio series of `zeta_deg` at s = -n, whose terms are
    polynomials of degree n in m.  With x = a/b, l = p/q and D = bq each
    factor is (Dm + aq + jpb)/D, so the exact Euler transform runs over
    integers.  At l = 0 this is E_n(x); for l > 0 the scaled candidate,
    without the product form.  Callers check the domain.
    """
    xf, lamf = Fraction(x), Fraction(lam)
    a, b = xf.numerator, xf.denominator
    p, q = lamf.numerator, lamf.denominator
    d = b * q
    abel = euler_transform_sum(
        lambda m: math.prod(d * m + a * q + j * p * b for j in range(n)),
        degree=n)
    return 2 * abel / math.prod(b * (q + j * p) for j in range(n))


def euler_zeta(s: Union[int, float], x) -> Union[float, Fraction]:
    """Classical Euler zeta 2 sum (-1)^m (m+x)^(-s).

    For s = -n (integer n >= 0) the value is E_n(x), taken exactly as the
    Abel sum of the divergent series 2 sum (-1)^m (m+x)^n: its terms are
    a polynomial of degree n in m, so the Euler transformation ends after
    n + 1 of them (`_zeta_abel` at l = 0).  Returns a Fraction on this
    path.

    For other s a float comes back.  At s > 0 the terms (1 + m/x)^(-s) are
    the moments of x^s e^(-xu) u^(s-1) du / Gamma(s) in t = e^(-u), summed
    by `numerics._cvz_sum`; at s < 0 they grow, and the float loop of
    `euler_transform_sum` sums them.  A non-finite s, or an
    x^(-s) scale that takes the value past the float range, raises
    DomainError; a term (1 + m/x)^(-s) past the float range, at negative
    s, raises NonConvergentError, as the series cannot be summed there.
    """
    _require_positive_x(float(x))
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s!r}")
    if float(s).is_integer() and s <= 0:
        return _zeta_abel(int(round(-float(s))), x, 0)
    # scaled by x^s, so a value below the float range underflows only at the end
    xr = float(x)

    def term(m: int) -> float:
        try:
            return (1.0 + m / xr) ** (-s)
        except OverflowError:
            raise NonConvergentError(
                f"term {m} of the series at s={s!r} overflows the float range"
            ) from None

    acc = (_cvz_sum if s > 0 else euler_transform_sum)(term)
    try:
        value = 2.0 * acc * xr ** (-s)
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise DomainError(f"zeta at s={s!r} exceeds the float range")
    return value


def euler_zeta_mellin(s: float, x: float, cfg: QuadConfig | None = None) -> QuadResult:
    """Classical Euler zeta via its Mellin-type integral representation.

    zeta_E(s,x) = (1/Gamma(s)) int_0^inf [2/(1+e^(-t))] e^(-xt) t^(s-1) dt
    for s > 0.  Cross-check path for `euler_zeta` at positive s.
    """
    if not 0.0 < s < math.inf:
        raise DomainError(f"Mellin path needs finite s > 0, got {s!r}")
    _require_positive_x(x)
    g = gamma_classical(s)

    def kern(t: float) -> float:
        return 2.0 / (1.0 + math.exp(-t)) * math.exp(-x * t)

    def log_kern(t: float) -> float:
        return math.log(2.0) - math.log1p(math.exp(-t)) - x * t

    q = _mellin_quad(kern, log_kern, s, cfg)
    return QuadResult(q.value / g, q.abs_error_estimate / g, q.subdivisions)


def _zeta_series(s: float, x: float, lam: float) -> float:
    """2 Gamma(1/l)/Gamma(1/l-s) sum_m (-1)^m Gamma((m+x)/l - s)/Gamma((m+x)/l).

    Every ratio in closed form (`_gamma_ratio`).  In the domain each is
    B((m+x)/l - s, s)/Gamma(s), a moment of a positive measure on [0, 1]
    (u = t^(1/l) in the beta integral), so `numerics._cvz_sum` sums them.
    Where the first term or the prefactor lies outside the normal float
    range, both are scaled by powers of 2 and the ratios a_m/a_0 are summed
    instead, from the start.  Callers check the domain.
    """
    t0, g = _gamma_ratio(x, lam, s), _gamma_ratio(1.0, lam, s)
    if all(sys.float_info.min <= abs(v) <= sys.float_info.max for v in (t0, g)):
        return 2.0 * _cvz_sum(
            lambda m: _gamma_ratio(m + x, lam, s) if m else t0) / g
    f0, e0 = _gamma_ratio_frexp(x, lam, s)
    f1, e1 = _gamma_ratio_frexp(1.0, lam, s)

    def ratio(m: int) -> float:
        f, e = _gamma_ratio_frexp(m + x, lam, s)
        return math.ldexp(f / f0, e - e0)

    acc = _cvz_sum(ratio)
    try:
        return math.ldexp(2.0 * acc * f0 / f1, e0 - e1)
    except OverflowError:
        raise DomainError(f"zeta at s={s!r} exceeds the float range") from None


def zeta_deg_int(n: int, x: float, lam: float) -> float:
    """`zeta_deg` at a positive integer s = n, checked to be one.

    There the series' gamma ratios are finite products:
    2 prod_j (1/l - j) sum_m (-1)^m / prod_j ((m+x)/l - j), j = 1..n,
    a moment series summed like any other (`_zeta_series`).
    """
    if not (isinstance(n, int) and n >= 1):
        raise DomainError("n must be a positive integer")
    return zeta_deg(n, x, lam)


def zeta_deg(s: float, x: float, lam: float) -> float:
    """Degenerate Euler zeta by its gamma-ratio series, without quadrature.

    Putting Gamma(s|mu) = mu^(-s) Gamma(s) Gamma(1/mu - s) / Gamma(1/mu)
    (u = mu t in the integral) into 2 sum (-1)^m (m+x)^(-s)
    Gamma(s|l/(m+x)) / Gamma(s|l) cancels (m+x)^(-s) and Gamma(s), which
    leaves the series of `_zeta_series`.  Its ratios are finite for any
    x > 0 while s < x/lam, so the domain is that of the Mellin integral
    (`gammadeg._check_domain`): 0 < s < min(1, x)/lam - delta.
    """
    _check_domain(s, lam, x)
    return _zeta_series(s, x, lam)


def deg_zeta_gamma_kernels(x: float, lam: float):
    """(kerns, log_kerns) of the zeta ratio, for the Mellin pair quadratures.

    kerns maps t to the numerator's and denominator's kernels,
    (F(-t,x|-l), (1+lt)^(-1/l)) = (2 (1+lt)^(-x/l) / ((1+lt)^(-1/l) + 1),
    (1+lt)^(-1/l)), from one log1p and two exp; they decay like t^(-x/l)
    and t^(-1/l).  log_kerns are the two maps t -> log of each.
    """
    inv = 1.0 / lam

    def kerns(t: float) -> tuple[float, float]:
        ell = math.log1p(lam * t) * inv
        g = math.exp(-ell)
        return 2.0 * math.exp(-x * ell) / (g + 1.0), g

    def log_zeta_kern(t: float) -> float:
        ell = math.log1p(lam * t) / lam
        return math.log(2.0) - x * ell - math.log1p(math.exp(-ell))

    return kerns, (log_zeta_kern, deg_log_kernel(lam))


def zeta_deg_mellin(s: float, x: float, lam: float,
                    cfg: QuadConfig | None = None) -> QuadResult:
    """Degenerate Euler zeta by direct quadrature of its defining integral.

    Evaluates [int_0^inf F(-t,x|-l) t^(s-1) dt] / Gamma(s|l).  The kernel
    decays like t^(-x/l), so s < x/l - delta is enforced on top of the
    gamma domain (`gammadeg._check_domain`).  Numerator and denominator
    share their panels (`gammadeg._mellin_quad_pair`), the tails' map set
    by the slower decay, t^(-min(1, x)/l).
    """
    _check_domain(s, lam, x)
    num, den = _mellin_quad_pair(*deg_zeta_gamma_kernels(x, lam), s, cfg, min(1.0, x) / lam)
    value = num.value / den.value
    err = (num.abs_error_estimate + abs(value) * den.abs_error_estimate) / abs(den.value)
    return QuadResult(value, err, num.subdivisions)


def zeta_deg_neg(n: int, x: RationalLike, lam: RationalLike) -> Fraction:
    """Exact value of the degenerate Euler zeta at s = -n (scaled candidate).

    E_n(x|-l) divided by (1+l)(1+2l)...(1+(n-1)l); the product is empty
    for n <= 1.  This is the candidate consistent with the analytic
    continuation (residue ratio of the split integrals).
    """
    return zeta_deg_neg_candidates(n, x, lam)[0]


def zeta_deg_neg_candidates(n: int, x: RationalLike,
                            lam: RationalLike) -> tuple[Fraction, Fraction]:
    """Both candidates at s = -n, (scaled, plain), from one E_n(x|-l)."""
    plain = zeta_deg_neg_plain(n, x, lam)
    lamf = Fraction(lam)  # already checked rational by zeta_deg_neg_plain
    return plain / math.prod(1 + j * lamf for j in range(1, n)), plain


def zeta_deg_neg_plain(n: int, x: RationalLike, lam: RationalLike) -> Fraction:
    """The unscaled candidate at s = -n: E_n(x|-l) itself.

    Coincides with `zeta_deg_neg` for n <= 1 and differs beyond; see
    `discrepancy_experiment` for the numerical adjudication.
    """
    lamf = as_rational(lam)
    xf = as_rational(x)
    if n < 0:
        raise DomainError("n must be >= 0")
    if not (0 < lamf < 1):
        raise DomainError("lambda must be in (0,1)")
    if not xf > 0:
        raise DomainError("x must be > 0")
    return euler_poly_deg(n, -lamf)(xf)


# ---------------------------------------------------------------------------
# split-integral analytic continuation
#
# int_0^inf k(t) t^(s-1) dt = sum_m a_m/(s+m) + int_1^inf k(t) t^(s-1) dt
# where a_m are the Taylor coefficients of the kernel k at t = 0: the
# [0,1] piece is integrated termwise (the coefficient series converges
# geometrically well past t = 1), exposing the poles explicitly.
#
# The a_m are needed only as correctly rounded floats, so they come from
# a fixed-point pass over integers scaled by 2^320 that carries an error
# radius, and each float is certified by Ziv's rounding test.  Exact
# rationals at float (x, lam) would grow to ~9k bits by depth 81: on a
# 2-vCPU VM they cost 9-28 ms per pair, the pass 2-4 ms, and at
# lam = 0.85 (depth 401) 5.7 s against 0.2 s.  They remain the fallback
# for a coefficient that is an exact float midpoint or zero.
# ---------------------------------------------------------------------------

_COEFF_NEGLIGIBLE = 1e-24
_COEFF_DEPTH_MIN = 80
_COEFF_DEPTH_STEP = 40
_COEFF_DEPTH_MAX = 600
# bits of the first fixed-point pass; each shortfall doubles them
_FIXED_BITS = 320


def _falling_fixed(y: Fraction, lam: Fraction, bits: int):
    """Yield (f, r) with |f - 2^bits (y|lam)_m / m!| <= r, m = 0, 1, ...

    With y = a/b and lam = p/q the m-th factor (y - (m-1) lam)/m is
    N/(bqm) for an integer N, so it costs one floor division; the radius
    is scaled by |N|/(bqm), rounded up, plus 1 for the floor.
    """
    base = y.numerator * lam.denominator
    step = lam.numerator * y.denominator
    den = y.denominator * lam.denominator
    f, r, m = 1 << bits, 0, 0
    while True:
        yield f, r
        num = base - m * step
        m += 1
        f = f * num // (den * m)
        r = -(-r * abs(num) // (den * m)) + 1


def _fixed_coeffs(x: Fraction | None, lam: Fraction, bits: int):
    """Yield (c, r) with |c - 2^bits a_k| <= r for the kernel's coefficients a_k.

    The gamma kernel's a_k are B_k = (-1|lam)_k / k!.  The zeta kernel's
    are c_k of 2A/(B+1), A_k = (-x|lam)_k / k!, from
    2 c_k = 2 A_k - sum_{j<k} c_j B_{k-j}: the convolution is summed exactly
    at scale 2^(2 bits) and floored once, and each of its terms adds the
    radius |c_j| r(B_{k-j}) + (|B_{k-j}| + r(B_{k-j})) r_j of a ball product.
    """
    b_series = _falling_fixed(Fraction(-1), lam, bits)
    if x is None:
        yield from b_series  # endless, so the zeta branch below never runs
    cs, cs_abs, rs = [], [], []
    bs, bs_mag, bs_r = [], [], []  # B_m, |B_m| + r(B_m), r(B_m)
    for (a, ra), (b, rb) in zip(_falling_fixed(-x, lam, bits), b_series):
        bs.append(b)
        bs_mag.append(abs(b) + rb)
        bs_r.append(rb)
        # j = 0..k-1 against B_k..B_1
        conv = sum(map(int.__mul__, cs, bs[:0:-1]))
        err = (sum(cj * rbm for cj, rbm in zip(cs_abs, bs_r[:0:-1]))
               + sum(rj * bm for rj, bm in zip(rs, bs_mag[:0:-1])))
        c = ((a << (bits + 1)) - conv) >> (bits + 1)
        r = ra + (err >> (bits + 1)) + 2
        cs.append(c)
        cs_abs.append(abs(c))
        rs.append(r)
        yield c, r


def _exact_coeffs(x: Fraction | None, lam: Fraction):
    """Yield float(a_k) from the exact integers, k = 0, 1, ...

    With lam = p/q and x = a/b, a_k is (-1)^k euler_scaled(x, -lam)_k over
    (2bq)^k k!, or ffd_scaled(-1, lam)_k over q^k k! for the gamma kernel;
    int / int true division is correctly rounded.
    """
    if x is None:
        nums = ffd_scaled(Fraction(-1), lam)
        scale = lam.denominator
    else:
        nums = (-f if m % 2 else f for m, f in enumerate(euler_scaled(x, -lam)))
        scale = 2 * x.denominator * lam.denominator
    den = 1
    for m, num in enumerate(nums):
        if m > 0:
            den *= scale * m
        yield num / den


def _certified_coeffs(x: Fraction | None, lam: Fraction):
    """Yield float(a_k), k = 0, 1, ..., each certified or exact.

    A fixed-point pass gives 2^bits a_k as c within r.  (c - r)/2^bits
    and (c + r)/2^bits are int / int true divisions, so correctly rounded;
    when they are the same float, that float is float(a_k) (Ziv's
    rounding test).  Otherwise the interval holds a rounding boundary.
    If it also holds 0, or r is under 2^-20 ulp, a_k is most likely an
    exact zero or float midpoint, which no precision certifies, so its
    float comes from `_exact_coeffs`, resumed up to k.  Else the pass is
    rerun at twice the bits, from the first coefficient not yet yielded.
    """
    exact = _exact_coeffs(x, lam)
    taken = 0  # coefficients drawn from `exact`
    done = 0  # coefficients yielded
    bits = _FIXED_BITS
    while True:
        unit = 1 << bits
        for k, (c, r) in enumerate(_fixed_coeffs(x, lam, bits)):
            if k < done:
                continue
            value = (c - r) / unit
            if value != (c + r) / unit:
                if c - r > 0 or c + r < 0:
                    num, den = math.ulp(value).as_integer_ratio()
                    if (r * den) << 20 >= num << bits:
                        break
                while taken <= k:
                    value = next(exact)
                    taken += 1
            done += 1
            yield value
        bits *= 2


@lru_cache(maxsize=None)
def _kernel_coeffs(x: float | Fraction | None, lam: float | Fraction) -> tuple[float, ...]:
    """Float Taylor coefficients at t = 0 of a continued kernel, to negligible depth.

    With x None the kernel is (1+lam*t)^(-1/lam), whose coefficients are
    (-1|lam)_m / m!; otherwise it is F(-t,x|-lam), whose coefficients are
    (-1)^m E_m(x|-lam) / m!.  Each float equals float() of the exact
    rational: `_certified_coeffs` proves it from a fixed-point value and
    its error bound, or takes the exact rational where no bound can.  The
    depth grows from 80 in steps of 40 until the last six coefficients
    are negligible.

    x and lam are taken exactly, a float at its binary value.  The cache
    is keyed on them as passed, so the continued routes look their float
    arguments up without building and hashing a Fraction.

    Raises:
        NonConvergentError: the coefficients are still above the
            negligible level at the depth cap.
    """
    coeffs = []
    exact_x = None if x is None else Fraction(x)
    for m, a in enumerate(_certified_coeffs(exact_x, Fraction(lam))):
        coeffs.append(a)
        if m >= _COEFF_DEPTH_MIN and (m - _COEFF_DEPTH_MIN) % _COEFF_DEPTH_STEP == 0:
            tail = max(abs(c) for c in coeffs[-6:])
            if tail < _COEFF_NEGLIGIBLE:
                return tuple(coeffs)
            if m >= _COEFF_DEPTH_MAX:
                raise NonConvergentError(
                    f"Taylor coefficients of the continued kernel are still "
                    f"{tail:.1e} at depth {m} (lambda={float(lam)!r})"
                )


def _pole_part(s: float, coeffs: tuple[float, ...]) -> float:
    """sum_m a_m/(s+m): the [0, 1] piece of a continued Mellin integral."""
    if s <= -(len(coeffs) - 5):
        raise DomainError(f"s={s!r} below the continued strip")
    pole_part = 0.0
    for m, a in enumerate(coeffs):
        pole_part += a / (s + m)
    return pole_part


def gamma_deg_continued(s: float, lam: float) -> float:
    """Gamma(s|lam) continued left of 0 by the split-integral representation.

    Agrees with `gamma_deg` on 0 < s < 1/lam and is finite elsewhere away
    from the simple poles at non-positive integers (residues:
    `gamma_deg_residue`).
    """
    _check_domain(s, lam, continued=True)
    pole_part = _pole_part(s, _kernel_coeffs(None, lam))
    return pole_part + _mellin_tail(deg_kernel(lam), deg_log_kernel(lam), s, None).value


def zeta_deg_continued(s: float, x: float, lam: float,
                       cfg: QuadConfig | None = None) -> float:
    """Degenerate Euler zeta continued to negative s (away from poles).

    Both the numerator integral and Gamma(s|lam) are continued by the
    split-integral representation and divided; on the overlap s > 0 this
    reproduces `zeta_deg`.  The strip is -(depth - 5) < s < x/lam - delta
    with the Taylor depth chosen automatically (the value is
    depth-independent because the [0,1] piece is integrated termwise to
    negligible truncation).  The two [1, inf) tails share their panels
    (`gammadeg._mellin_tail_pair`).
    """
    _check_domain(s, lam, x, continued=True)
    num = _pole_part(s, _kernel_coeffs(x, lam))
    den = _pole_part(s, _kernel_coeffs(None, lam))
    num_tail, den_tail = _mellin_tail_pair(*deg_zeta_gamma_kernels(x, lam), s, cfg)
    return (num + num_tail.value) / (den + den_tail.value)


@dataclass(frozen=True)
class DiscrepancyReport:
    """Outcome of adjudicating the two closed-form candidates at s = -n.

    winner is "scaled", "plain", or "inconclusive"; the gap is the margin
    between the two candidates' distances to the continued value, and the
    winner is only declared when it exceeds 3x the continuation error
    estimate.
    """

    n: int
    x: Fraction
    lam: Fraction
    value_scaled: Fraction
    value_plain: Fraction
    value_continued: float
    winner: str
    gap: float
    error_estimate: float


def discrepancy_experiment(n: int, x: RationalLike,
                           lam: RationalLike) -> DiscrepancyReport:
    """Decide numerically which negative-integer closed form continues the zeta.

    Extrapolates zeta_deg_continued(-n+eps, x, lam) to eps -> 0 by
    Richardson (eps0 = 1e-2, ratio 2, 3 levels; all samples stay outside
    the pole guard) and compares the limit against the scaled and plain
    candidates.  Requires n >= 2 (the candidates coincide below).
    """
    if n < 2:
        raise DomainError("candidates coincide for n <= 1; nothing to decide")
    xf = as_rational(x)
    lamf = as_rational(lam)
    scaled, plain = zeta_deg_neg_candidates(n, xf, lamf)
    xr = float(xf)
    lr = float(lamf)

    # the coarse pass revisits three of the fine pass's points
    samples: dict[float, float] = {}

    def sample(eps: float) -> float:
        if eps not in samples:
            samples[eps] = zeta_deg_continued(-float(n) + eps, xr, lr)
        return samples[eps]

    value = richardson_limit(sample, 1e-2, 2.0, 3)
    coarse = richardson_limit(sample, 1e-2, 2.0, 2)
    err_est = abs(value - coarse) + 1e-12
    d_scaled = abs(value - float(scaled))
    d_plain = abs(value - float(plain))
    gap = abs(d_plain - d_scaled)
    if gap <= 3.0 * err_est:
        winner = "inconclusive"
    elif d_scaled < d_plain:
        winner = "scaled"
    else:
        winner = "plain"
    return DiscrepancyReport(
        n=n,
        x=xf,
        lam=lamf,
        value_scaled=scaled,
        value_plain=plain,
        value_continued=value,
        winner=winner,
        gap=gap,
        error_estimate=err_est,
    )
