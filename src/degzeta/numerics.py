"""Floating-point engines: adaptive quadrature, alternating-series
summation, and Richardson extrapolation.

The quadrature engine is adaptive bisection with a nested Gauss-Kronrod
7-15 rule, on a finite interval (`quad_finite`) or on [a, inf) compactified
by u = 1/(1+t) (`quad_tail`).  Truncating the tail instead would be
fragile here because the integrands of interest decay only polynomially.
The Mellin integrals int_0^inf k(t) t^(s-1) dt of `gammadeg` and `zetadeg`
split at t = 1 and take both parts with `quad_finite`
(`gammadeg._mellin_quad`).  Every kernel there has k(0) = 1, so the head
is 1/s plus the integral of (k(t) - 1) t^(s-1), which t = u^p turns into
an integer power of u: no bisection chases the endpoint singularity of
t^(s-1) toward t = 0.  A kernel that decays like t^(-a) leaves the tail
u^(a-s-1) times a smooth factor at u = 1/(1+t) = 0, and u = w^r
(`_quad_tail_power`, of which `quad_tail` is r = 1) turns that into an
integer power of w too, with r chosen by `gammadeg._mellin_tail`.

`quad_finite` has one adaptive loop, and it runs on pairs.  A pair
integrand, f(t) = (f1(t), f2(t)), is integrated on shared panels: one call
per node serves both components, and the loop bisects until each meets its
own tolerance.  A scalar integrand is the pair whose second component is
0: its panel (`_gk_panel`, kept apart from `_gk_pair_panel` for speed)
reports value 0 and error 0 there, which meet the tolerance at once.  The
zeta ratios of `zetadeg` take their numerator and denominator kernels as
pairs, heads and tails alike, so the shared logarithms, exponentials and
powers of t are computed once per node (`gammadeg._mellin_quad_pair`,
`_mellin_tail_pair`).

The Euler transformation rewrites sum_m (-1)^m a_m as

    sum_k (-1)^k (D^k a)_0 / 2^(k+1),      D = forward difference,

which accelerates convergent alternating series and, crucially, terminates
after d + 1 terms when a_m is a polynomial in m of degree d, yielding the
Abel sum of the (divergent) series exactly.  Differences are exact only
for a declared degree: the caller passes d, and d + 1 int or rational
terms give the Abel sum, returned as a Fraction.  Without one, a second
loop sums float terms to one fixed relative tolerance, 1e-13, for the
classical series at negative non-integer s, whose terms grow.  Every float
series at s > 0 is a moment sequence of a positive measure on [0, 1], and
`_cvz_sum` sums it from 21 terms with the fixed weights of Algorithm 1 of
H. Cohen, F. Rodriguez Villegas and D. Zagier (CVZ), Experimental Math.
9(1) (2000) 3-12.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

__all__ = [
    "DomainError",
    "NonConvergentError",
    "QuadConfig",
    "QuadResult",
    "quad_finite",
    "quad_tail",
    "euler_transform_sum",
    "richardson_limit",
]


class DomainError(ValueError):
    """A parameter or sample point lies outside the function's domain."""


class NonConvergentError(ArithmeticError):
    """The iteration budget was exhausted before the tolerance was met."""


_ABS_FLOOR = 1e-14
_ROUNDOFF = 50.0 * 2.220446049250313e-16  # QUADPACK's 50 eps error floor
_MAX_BISECTIONS = 2000


@dataclass(frozen=True)
class QuadConfig:
    """Relative tolerance of the adaptive quadrature engine.

    The default leaves two orders of headroom over the 1e-8 checks the
    verification suite runs at.  The absolute tolerance (1e-14), the
    budget of 2000 subdivisions and the split at t = 1 are fixed.  Below
    the roundoff floor, rel_tol < ~1.1e-14, only integrals under ~0.9 in
    magnitude converge; larger ones raise NonConvergentError at once.
    """

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError(
                f"rel_tol must be positive and finite, got {self.rel_tol!r}")


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    subdivisions: int


# Gauss-Kronrod 7-15 pairs: (node, Gauss weight, Kronrod weight).
# Gauss weights are zero on the Kronrod-only nodes.
_GK15 = (
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (0.000000000000000, 0.417959183673469, 0.209482141084728),
    (+0.991455371120813, 0.000000000000000, 0.022935322010529),
    (-0.991455371120813, 0.000000000000000, 0.022935322010529),
    (+0.864864423359769, 0.000000000000000, 0.104790010322250),
    (-0.864864423359769, 0.000000000000000, 0.104790010322250),
    (+0.586087235467691, 0.000000000000000, 0.169004726639267),
    (-0.586087235467691, 0.000000000000000, 0.169004726639267),
    (+0.207784955007898, 0.000000000000000, 0.204432940075298),
    (-0.207784955007898, 0.000000000000000, 0.204432940075298),
)


_GK15_AFTER_FIRST = _GK15[1:]
_GK15_WEIGHTS = tuple((wg, wk) for _, wg, wk in _GK15)


def _gk_panel(f: Callable[[float], float], a: float, b: float,
              y0: float | None = None) -> tuple[float, float, float, float]:
    """One Gauss-Kronrod panel on [a, b]: (K15 value, error estimate, 0.0, 0.0).

    The zero value and error are the second component of the pair that
    `quad_finite`'s loop runs for a scalar integrand.  y0, if given, is f's
    value at the first node, already evaluated.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    gauss = kronrod = 0.0
    ys = []
    nodes = _GK15
    if y0 is not None:
        _, wg, wk = _GK15[0]
        gauss += wg * y0
        kronrod += wk * y0
        ys.append(y0)
        nodes = _GK15_AFTER_FIRST
    for x, wg, wk in nodes:
        y = f(c + h * x)
        gauss += wg * y
        kronrod += wk * y
        ys.append(y)
    if not math.isfinite(kronrod):
        raise _not_finite(a, b)
    mean = kronrod / 2.0
    resabs = resasc = 0.0  # explicit sums: sum() of floats rounds differently from 3.12
    for (_, _, wk), y in zip(_GK15, ys):
        resabs += wk * abs(y)
        resasc += wk * abs(y - mean)
    return (*_gk_estimate(h, gauss, kronrod, resabs, resasc), 0.0, 0.0)


def _gk_pair_panel(f, a: float, b: float, y0: tuple[float, float] | None = None
                   ) -> tuple[float, float, float, float]:
    """`_gk_panel` of a pair integrand: (value 1, error 1, value 2, error 2).

    The components share the nodes.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    ys = [f(c + h * _GK15[0][0]) if y0 is None else y0]
    ys += [f(c + h * x) for x, _, _ in _GK15_AFTER_FIRST]
    g1 = k1 = g2 = k2 = 0.0
    for (wg, wk), (y1, y2) in zip(_GK15_WEIGHTS, ys):
        g1 += wg * y1
        k1 += wk * y1
        g2 += wg * y2
        k2 += wk * y2
    if not (math.isfinite(k1) and math.isfinite(k2)):
        raise _not_finite(a, b)
    mean1 = k1 / 2.0
    mean2 = k2 / 2.0
    abs1 = asc1 = abs2 = asc2 = 0.0
    for (_, wk), (y1, y2) in zip(_GK15_WEIGHTS, ys):
        # abs() of a finite float, without the cost of a call
        d1 = y1 - mean1
        d2 = y2 - mean2
        abs1 += wk * (y1 if y1 >= 0.0 else -y1)
        asc1 += wk * (d1 if d1 >= 0.0 else -d1)
        abs2 += wk * (y2 if y2 >= 0.0 else -y2)
        asc2 += wk * (d2 if d2 >= 0.0 else -d2)
    return (*_gk_estimate(h, g1, k1, abs1, asc1), *_gk_estimate(h, g2, k2, abs2, asc2))


def _not_finite(a: float, b: float) -> DomainError:
    """The panels' one finiteness rule: a K15 sum that is not finite.

    Every Kronrod weight is positive, so the sum is finite only if each
    sample is, and then only if the weighted samples stay in the float range.
    """
    return DomainError(f"integrand not finite on [{a!r}, {b!r}], "
                       f"or its K15 sum overflows the float range")


def _gk_estimate(h: float, gauss: float, kronrod: float, resabs: float,
                 resasc: float) -> tuple[float, float]:
    """(K15 value, error estimate) of a panel of half-width h from its sums.

    gauss and kronrod are the G7 and K15 sums of f, resabs that of |f| and
    resasc that of |f - mean|, mean = kronrod / 2.  The estimate follows
    the usual nested-rule heuristic: |K15 - G7| damped by the integral of
    |f - mean| so that nearly-singular panels are not reported as more
    accurate than they are.  It is never below the roundoff floor
    _ROUNDOFF * resabs * h.
    """
    resabs *= h
    resasc *= h
    diff = abs(kronrod - gauss) * h
    err = diff
    if resasc != 0.0 and diff != 0.0:
        err = resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)
    return kronrod * h, max(err, _ROUNDOFF * resabs)


def quad_finite(f: Callable[[float], float | tuple[float, float]], a: float, b: float,
                cfg: QuadConfig | None = None) -> QuadResult | tuple[QuadResult, QuadResult]:
    """Adaptive Gauss-Kronrod integration of f on the finite interval [a, b].

    f returns a float, or a pair (f1(t), f2(t)) as a tuple.  A pair is
    integrated on shared panels, one call per node, and one QuadResult per
    component comes back; a float gives one QuadResult.

    Bisects the panel of largest error over tolerance until each component
    meets its own max(_ABS_FLOOR, cfg.rel_tol * |I_k|), within
    _MAX_BISECTIONS bisections; a pair's panel is ranked by the larger of
    its two components' ratios, and both results count the shared
    bisections.  A scalar integrand runs through the same loop as the pair
    whose second component is 0 (`_gk_panel`): its error 0 meets the
    floor, so it never holds the loop open.

    Each panel's estimate is at least its roundoff floor, _ROUNDOFF times
    its K15 value of |f|, and those values sum to at least |integral|
    however the interval is cut.  So a rel_tol below _ROUNDOFF (~1.1e-14)
    can be met only where _ABS_FLOOR governs, for |integral| below
    _ABS_FLOOR / _ROUNDOFF (~0.9).  Once a component not yet met has its
    value less its error estimate above that, the loop stops instead of
    bisecting on.

    Raises:
        NonConvergentError: rel_tol is below the roundoff floor for an
            integral this large, or the budget ran out with the error
            above the tolerance.
        DomainError: a panel's K15 sum is not finite (a sample is NaN or
            infinite, or the weighted samples leave the float range), or
            the panels' sum leaves the float range.
    """
    cfg = cfg or QuadConfig()
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise DomainError("need finite bounds with b > a")
    y0 = f(0.5 * (a + b) + 0.5 * (b - a) * _GK15[0][0])  # the first panel's first sample
    pair = isinstance(y0, tuple)
    panel = _gk_pair_panel if pair else _gk_panel
    rel_tol = cfg.rel_tol
    below_floor = rel_tol < _ROUNDOFF
    val1, err1, val2, err2 = panel(f, a, b, y0)
    counter = 0
    heap = [(0.0, counter, a, b, val1, err1, val2, err2)]
    subdivisions = 0
    try:
        while True:
            tol1 = max(_ABS_FLOOR, rel_tol * abs(val1))
            tol2 = max(_ABS_FLOOR, rel_tol * abs(val2))
            if not (err1 > tol1 or err2 > tol2):  # a NaN error stops too, for _check_sum
                break
            if below_floor:
                for val, err, tol in ((val1, err1, tol1), (val2, err2, tol2)):
                    if err > tol and _ROUNDOFF * (low := abs(val) - err) > _ABS_FLOOR:
                        raise NonConvergentError(
                            f"quadrature roundoff floor {_ROUNDOFF * low:.3e} above tolerance "
                            f"{max(_ABS_FLOOR, rel_tol * low):.3e} at |integral| >= {low:.3e} "
                            f"after {subdivisions} subdivisions")
            if subdivisions >= _MAX_BISECTIONS:
                raise NonConvergentError(
                    f"quadrature error {err1 if err1 > tol1 else err2:.3e} above tolerance "
                    f"after {subdivisions} subdivisions")
            _, _, lo, hi, v1, e1, v2, e2 = heapq.heappop(heap)
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                # interval is at machine resolution; nothing left to refine
                raise NonConvergentError("interval underflow before reaching tolerance")
            left = panel(f, lo, mid)
            right = panel(f, mid, hi)
            val1 += left[0] + right[0] - v1
            err1 += left[1] + right[1] - e1
            val2 += left[2] + right[2] - v2
            err2 += left[3] + right[3] - e2
            for panel_lo, panel_hi, panel_sums in ((lo, mid, left), (mid, hi, right)):
                counter += 1
                key = -max(panel_sums[1] / tol1, panel_sums[3] / tol2)
                heapq.heappush(heap, (key, counter, panel_lo, panel_hi, *panel_sums))
            subdivisions += 1
    finally:
        # a kept error's traceback keeps this frame, so drop the panels
        heap.clear()
    _check_sum(val1, err1)
    _check_sum(val2, err2)
    first = QuadResult(val1, err1, subdivisions)
    return (first, QuadResult(val2, err2, subdivisions)) if pair else first


def _check_sum(value: float, err: float) -> None:
    if not (math.isfinite(value) and math.isfinite(err)):
        raise DomainError(
            f"quadrature sum overflows the float range ({value!r} +- {err!r})")


def quad_tail(f: Callable[[float], float], a: float,
              cfg: QuadConfig | None = None) -> QuadResult:
    """Integral of f over [a, inf), a >= 0, via the map u = 1/(1+t).

    The substitution sends [a, inf) to (0, 1/(1+a)] and the integral to
    int_0^(1/(1+a)) f((1-u)/u) / u^2 du; the endpoint u = 0 is never
    sampled since Kronrod nodes are interior.  This is `_quad_tail_power`
    at r = 1.

    Raises:
        NonConvergentError: bisection reached a u whose square underflows
            to 0 (u < ~1e-162), where an integrand that decays too slowly
            for the tolerance still needs refining.
        DomainError: f(t) / u^2 is not finite at a sample; the message
            names t, not u.
    """
    if a < 0:
        raise DomainError("lower bound must be >= 0")
    return _quad_tail_power(f, a, 1.0, cfg)


_U_MIN = 1e-300  # smallest u = 1/(1+t) the tail map samples


def _quad_tail_power(f: Callable[[float], float], a: float, r: float,
                     cfg: QuadConfig | None) -> QuadResult:
    """Integral of f over [a, inf) in w, where u = 1/(1+t) = w^r, r >= 1.

    dt = -du/u^2 and du = r u dw/w, so the integral is
    int_0^((1+a)^(-1/r)) r f(t) / (u w) dw.  A decay like t^(-1-eps)
    leaves u^(eps-1) at u = 0, and r w^(r eps - 1) at w = 0, which r can
    make an integer power (`gammadeg._mellin_tail`).  At r = 1, w = u and
    every sample is bit for bit f(t) / u^2.

    Raises:
        NonConvergentError: bisection reached a w where u*w underflows to
            0, or u to below 1e-300, where t = (1-u)/u nears the float
            range's edge; only an integrand that decays too slowly for the
            tolerance needs refining there.
        DomainError: a sample is not finite; the message names t, not w.
    """
    def mapped(w: float) -> float:
        u = w**r
        uw = u * w
        if u < _U_MIN or uw == 0.0:
            raise NonConvergentError(
                f"tail not resolved: bisection reached w={w!r}, where u or u*w underflows")
        t = (1.0 - u) / u
        y = r * f(t) / uw
        if not math.isfinite(y):
            raise DomainError(f"integrand evaluated non-finite at t={t!r}")
        return y

    return quad_finite(mapped, 0.0, (1.0 / (1.0 + a)) ** (1.0 / r), cfg)


def _quad_tail_pair(kerns, power: float, a: float, r: float,
                    cfg: QuadConfig | None) -> tuple[QuadResult, QuadResult]:
    """int_a^inf (k1(t), k2(t)) t^power dt on shared panels, kerns(t) = (k1(t), k2(t)).

    The pair integrand of `quad_finite` in the w of `_quad_tail_power`:
    t^power and the map's weight r/(u w) are computed once per node for
    both components.
    """
    def mapped(w: float) -> tuple[float, float]:
        u = w**r
        uw = u * w
        if u < _U_MIN or uw == 0.0:
            raise NonConvergentError(
                f"tail not resolved: bisection reached w={w!r}, where u or u*w underflows")
        t = (1.0 - u) / u
        weight = r * t**power / uw
        k1, k2 = kerns(t)
        return k1 * weight, k2 * weight

    return quad_finite(mapped, 0.0, (1.0 / (1.0 + a)) ** (1.0 / r), cfg)


_SUM_REL_TOL = 1e-13
_SUM_MAX_TERMS = 400


def euler_transform_sum(a: Callable[[int], Union[float, Fraction]], *,
                        degree: int | None = None) -> Union[float, Fraction]:
    """Sum the alternating series sum_{m>=0} (-1)^m a_m by Euler's transformation.

    `a` maps m to a_m.  The transform value is
    sum_k (-1)^k (D^k a)_0 / 2^(k+1) with D the forward difference.

    With degree=d the caller declares that a_m is a polynomial in m of
    degree d.  Every difference of order > d then vanishes, so exactly
    d + 1 terms are taken in rational arithmetic and the Fraction returned
    is the Abel sum of the series.  Without a degree the terms are floats,
    the transform terms are added with compensated summation, and the
    float returned stops once two successive increments are below 1e-13
    relative to it, within 400 terms.  That loop serves `euler_zeta` at
    negative non-integer s; moment series go to `_cvz_sum`.

    Raises:
        TypeError: a declared degree with a float term.
        NonConvergentError: 400 float terms without meeting the tolerance.
    """
    diag: list = []  # diag[i] = (D^i a)_{n-i} for the current n
    if degree is not None:
        if degree < 0:
            raise ValueError("need at least one term")
        acc = 0  # 2^(degree+1) times the partial sum, exactly
        for n in range(degree + 1):
            t = a(n)
            if isinstance(t, float):
                raise TypeError("a declared degree requires Fraction/int terms")
            for i, d in enumerate(diag):
                diag[i], t = t, t - d
            diag.append(t)
            acc += (-1) ** n * t * 2 ** (degree - n)
        return Fraction(acc, 2 ** (degree + 1))

    total = carry = 0.0  # carry: Kahan compensation
    small_streak = 0
    for n in range(_SUM_MAX_TERMS):
        t = float(a(n))
        if not math.isfinite(t):
            raise DomainError(f"term {n} is not finite")
        for i, d in enumerate(diag):
            diag[i], t = t, t - d
        diag.append(t)
        increment = ((-1.0) ** n) * t / 2.0 ** (n + 1)
        y = increment - carry
        s = total + y
        carry = (s - total) - y
        total = s
        if abs(increment) < _SUM_REL_TOL * abs(total):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    raise NonConvergentError(f"no convergence in {_SUM_MAX_TERMS} terms")


def _cvz_weights(n: int) -> tuple[float, ...]:
    """The weights c_k/d_n, k < n, of CVZ Algorithm 1, each rounded once."""
    d_prev, d = 1, 3  # d_n = T_n(3) = ((3+sqrt 8)^n + (3-sqrt 8)^n)/2
    for _ in range(n - 1):
        d_prev, d = d, 6 * d - d_prev
    b, c, weights = Fraction(-1), -d, []
    for k in range(n):
        c = b - c
        weights.append(float(c / d))
        b = b * 2 * (k + n) * (k - n) / ((2 * k + 1) * (k + 1))
    return tuple(weights)


_CVZ_WEIGHTS = _cvz_weights(21)  # the least n with 2 (3+sqrt 8)^(-n) < 2^-52


def _cvz_sum(a: Callable[[int], float]) -> float:
    """sum_{m>=0} (-1)^m a_m for moments a_m = int_0^1 t^m dmu(t), mu >= 0.

    CVZ Algorithm 1 at n = 21: the dot product of `_CVZ_WEIGHTS` with
    a_0..a_20, within 2S (3+sqrt 8)^(-21) < 2^-52 S of the sum S.  The
    weights sum to 1/2 and their magnitudes to 14.85, and a_m <= a_0 <= 2S.
    So terms within eps_term relative, the rounded weights and products and
    the one rounding of `math.fsum` leave it within 31 (eps_term + 2^-52) S.

    Raises:
        DomainError: a term is not finite.
    """
    products = []
    for k, w in enumerate(_CVZ_WEIGHTS):
        if not math.isfinite(t := a(k)):
            raise DomainError(f"term {k} is not finite")
        products.append(w * t)
    return math.fsum(products)


def richardson_limit(f: Callable[[float], float], eps0: float,
                     ratio: float, levels: int) -> float:
    """Extrapolate lim_{eps->0+} f(eps) assuming f(eps) = L + c1*eps + c2*eps^2 + ...

    Samples f at eps0/ratio^i, i = 0..levels, and eliminates the powers
    eps^1..eps^levels, so any polynomial model of degree <= levels is
    reproduced exactly up to rounding.

    Raises:
        DomainError: a sample is non-finite.
    """
    if eps0 <= 0:
        raise ValueError("eps0 must be > 0")
    if ratio <= 1:
        raise ValueError("ratio must be > 1")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    vals = []
    for i in range(levels + 1):
        y = f(eps0 / ratio**i)
        if not math.isfinite(y):
            raise DomainError(f"sample at eps={eps0 / ratio**i!r} is not finite")
        vals.append(y)
    for j in range(1, levels + 1):
        factor = ratio**j
        for i in range(levels, j - 1, -1):
            vals[i] = (factor * vals[i] - vals[i - 1]) / (factor - 1.0)
    return vals[levels]
