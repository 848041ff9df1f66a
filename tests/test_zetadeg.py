import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degzeta import zetadeg
from degzeta.exactcore import euler_poly_classic, euler_poly_deg
from degzeta.gammadeg import DOMAIN_MARGIN, gamma_deg, gamma_deg_residue
from degzeta.numerics import DomainError, NonConvergentError, richardson_limit
from degzeta.zetadeg import (
    discrepancy_experiment,
    euler_zeta,
    euler_zeta_mellin,
    gamma_deg_continued,
    zeta_deg,
    zeta_deg_continued,
    zeta_deg_int,
    zeta_deg_mellin,
    zeta_deg_neg,
    zeta_deg_neg_plain,
)


# ---------------------------------------------------------------------------
# classical Euler zeta
# ---------------------------------------------------------------------------

def test_interpolation_exact_equality():
    for x in (F(1, 2), F(1), F(3, 2)):
        for n in range(11):
            assert euler_zeta(-n, x) == euler_poly_classic(n)(x), (n, x)


def test_euler_zeta_neg_builds_no_polynomial(monkeypatch):
    expected = {(n, x): euler_poly_classic(n)(x)
                for x in (F(1, 2), F(3, 2)) for n in range(11)}

    def refuse(*args, **kwargs):
        raise AssertionError("euler_zeta at s = -n built E_n(x) by the product form")

    monkeypatch.setattr(zetadeg, "euler_poly_deg", refuse)
    for (n, x), value in expected.items():
        assert euler_zeta(-n, x) == value, (n, x)


def test_zeta_at_zero_is_one():
    assert euler_zeta(0, F(2, 3)) == 1
    assert euler_zeta(0, 5.5) == 1


def test_alternating_harmonic_value():
    assert abs(euler_zeta(1, 1) - 2.0 * math.log(2.0)) <= 4 * math.ulp(2.0 * math.log(2.0))


def test_positive_x_required():
    with pytest.raises(DomainError):
        euler_zeta(2, 0)
    with pytest.raises(DomainError):
        euler_zeta(-1, F(-1, 2))


@pytest.mark.parametrize("s, x", [(math.inf, 0.5), (math.inf, 2.0),
                                  (-math.inf, 1.0), (math.nan, 1.0)])
def test_non_finite_s_is_domain_error(s, x):
    with pytest.raises(DomainError, match="must be finite"):
        euler_zeta(s, x)


def test_term_overflow_at_negative_s_is_nonconvergent():
    # (1 + m/x)^120.5 overflows from m = 1 on, though the value is finite
    with pytest.raises(NonConvergentError, match=r"at s=-120\.5 overflows"):
        euler_zeta(-120.5, 0.001)


@pytest.mark.parametrize("s", [1100.0, 1023.5])
def test_value_above_the_float_range_is_domain_error(s):
    # about 2^(s+1): the scale 0.5^(-s) overflows at 1100, the product at 1023.5
    with pytest.raises(DomainError, match="exceeds the float range"):
        euler_zeta(s, 0.5)
    assert euler_zeta(1022.0, 0.5) == pytest.approx(2.0**1023, rel=1e-13)


def test_negative_non_integer_s_beyond_the_float_loop():
    # the float Euler loop reaches s > -2.18 on x in [0.5, 3]; the frozen
    # references pin it there, and below it the loop gives up
    with pytest.raises(NonConvergentError):
        euler_zeta(-3.7, 1.5)


def test_mellin_known_values():
    assert abs(euler_zeta_mellin(2.0, 1.0).value - math.pi**2 / 6.0) <= 1e-8
    assert abs(euler_zeta_mellin(1.0, 1.0).value - 2.0 * math.log(2.0)) <= 1e-8


def test_mellin_agrees_with_series():
    for s in (0.5, 1.0, 2.0, 3.0):
        for x in (0.5, 1.0, 2.0):
            series = euler_zeta(s, x)
            mellin = euler_zeta_mellin(s, x).value
            assert abs(series - mellin) <= 1e-8, (s, x)


@pytest.mark.parametrize("s, x", [(100.0, 1.5), (150.0, 1.0)])
def test_mellin_log_form_tail(s, x):
    # the kernel times t^(s-1) overflows in the tail, which is taken in logs
    series = euler_zeta(s, x)
    assert abs(euler_zeta_mellin(s, x).value - series) <= 1e-12 * abs(series)


def test_mellin_domain():
    with pytest.raises(DomainError):
        euler_zeta_mellin(0.0, 1.0)


# ---------------------------------------------------------------------------
# degenerate zeta, positive axis
# ---------------------------------------------------------------------------

def test_int_form_matches_mellin():
    for (n, x, lam) in ((2, 1.0, 0.1), (3, 2.0, 0.05)):
        vi = zeta_deg_int(n, x, lam)
        vm = zeta_deg_mellin(float(n), x, lam).value
        assert abs(vi - vm) <= 1e-6


def test_int_form_lambda_to_zero():
    lam = 1e-4
    assert abs(zeta_deg_int(2, 1.0, lam) - euler_zeta(2, 1.0)) <= 10 * lam


def test_int_form_domain():
    with pytest.raises(DomainError):
        zeta_deg_int(2, 1.0, 0.6)  # lambda >= 1/2
    with pytest.raises(DomainError):
        zeta_deg_int(0, 1.0, 0.1)
    with pytest.raises(DomainError):
        zeta_deg_int(2, -1.0, 0.1)
    with pytest.raises(DomainError, match=r"need 0 < s < min\(1/lambda, x/lambda\) - delta"):
        zeta_deg_int(2, 0.2, 0.1)  # x = 2 lambda


def test_series_routes_run_no_quadrature(monkeypatch):
    from degzeta import gammadeg, numerics, zetadeg

    def refuse(*args, **kwargs):
        raise AssertionError("quadrature reached from the series route")

    for module, name in ((zetadeg, "gamma_classical"), (gammadeg, "quad_finite"),
                         (gammadeg, "_quad_tail_power"), (gammadeg, "_quad_tail_pair"),
                         (numerics, "quad_finite")):
        monkeypatch.setattr(module, name, refuse)
    assert math.isfinite(zeta_deg(2.5, 1.0, 0.1))
    assert math.isfinite(zeta_deg_int(3, 2.0, 0.05))


def test_series_form_collapses_to_int_form_at_integer_s():
    assert abs(zeta_deg(2.0, 1.0, 0.1) - zeta_deg_int(2, 1.0, 0.1)) <= 1e-6


def test_series_form_lambda_to_zero_recovers_classical():
    lam = 1e-3
    assert abs(zeta_deg(1.5, 1.0, lam) - euler_zeta(1.5, 1.0)) <= 1e-2


def test_series_vs_mellin_noninteger_s():
    assert abs(zeta_deg(2.5, 1.0, 0.1) - zeta_deg_mellin(2.5, 1.0, 0.1).value) <= 1e-5


def test_representation_agreement_sweep():
    for s in (0.5, 1.0, 2.0, 2.5):
        for x in (0.5, 1.0, 2.0):
            for lam in (0.05, 0.1):
                zd = zeta_deg(s, x, lam)
                zm = zeta_deg_mellin(s, x, lam).value
                zc = zeta_deg_continued(s, x, lam)
                assert abs(zd - zm) <= 1e-5, (s, x, lam)
                assert abs(zc - zd) <= 1e-6, (s, x, lam)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 0.3), st.floats(0.5, 3.0), st.floats(0.0, 1.0))
def test_series_matches_mellin_relative_sweep(lam, x, frac):
    s = 0.2 + frac * (0.9 * min(1.0, x) / lam - 0.2)
    assert abs(zeta_deg(s, x, lam) / zeta_deg_mellin(s, x, lam).value - 1) <= 1e-8


@settings(max_examples=50, deadline=None)
@given(st.floats(0.2, 4.0), st.floats(0.5, 3.0))
def test_classical_series_matches_mellin_relative_sweep(s, x):
    assert abs(euler_zeta(s, x) / euler_zeta_mellin(s, x).value - 1) <= 1e-8


def test_mellin_small_s():
    # t^(s-1) is nearly 1/t at the endpoint t = 0 of the heads
    for s in (0.01, 1e-5):
        assert abs(euler_zeta_mellin(s, 1.0).value / euler_zeta(s, 1.0) - 1) <= 1e-9
        assert abs(zeta_deg_mellin(s, 1.0, 0.1).value / zeta_deg(s, 1.0, 0.1) - 1) <= 1e-9


def test_mellin_integrand_power_beyond_float_range():
    # t^(s-1) overflows at t ~ 1e4 for s = 90; the integrands do not
    from degzeta.gammadeg import gamma_deg, gamma_deg_closed

    closed = gamma_deg_closed(95, F(1, 100))
    assert _rel_err(gamma_deg(95.0, 0.01).value, closed) <= 1e-8
    assert abs(zeta_deg_mellin(90.0, 3.0, 0.01).value / zeta_deg(90.0, 3.0, 0.01) - 1) <= 1e-8


def test_mellin_tail_divergence_guard():
    bound = r"need 0 < s < min\(1/lambda, x/lambda\) - delta"
    with pytest.raises(DomainError, match=bound):
        zeta_deg_mellin(6.0, 0.5, 0.1)  # s >= x/lambda
    with pytest.raises(DomainError, match=bound):
        zeta_deg(12.0, 1.0, 0.1)  # s >= 1/lambda
    with pytest.raises(DomainError, match=bound):
        zeta_deg(6.0, 0.5, 0.1)  # 1/lambda > s >= x/lambda
    with pytest.raises(DomainError, match=bound):
        zeta_deg(1.0, 0.1, 0.1)  # s >= x/lambda with lambda = x


def test_series_domain_bound_one_ulp_either_side():
    from degzeta.gammadeg import _check_domain

    for x, lam in ((0.5, 0.1), (2.0, 0.3), (0.77, 0.19)):
        bound = min(1.0, x) / lam - DOMAIN_MARGIN
        _check_domain(math.nextafter(bound, 0.0), lam, x)
        for s in (bound, math.nextafter(bound, math.inf)):
            with pytest.raises(DomainError):
                _check_domain(s, lam, x)
        with pytest.raises(DomainError):
            _check_domain(0.0, lam, x)
        _check_domain(math.nextafter(0.0, 1.0), lam, x)


# a point inside the domain of each real-s route; the cases below spoil one
# argument of it at a time
_ROUTE_POINTS = [
    (gamma_deg, (1.5, 0.1)),
    (gamma_deg_continued, (-0.5, 0.1)),
    (zeta_deg, (1.5, 1.0, 0.1)),
    (zeta_deg_int, (2, 1.0, 0.1)),
    (zeta_deg_mellin, (1.5, 1.0, 0.1)),
    (zeta_deg_continued, (-0.5, 1.0, 0.1)),
    (euler_zeta, (1.5, 1.0)),
    (euler_zeta_mellin, (1.5, 1.0)),
]
_OUT_OF_DOMAIN = [
    (route, args[:i] + (bad,) + args[i + 1:])
    for route, args in _ROUTE_POINTS
    for i, arg in enumerate(args) if isinstance(arg, float)
    for bad in (math.inf, -math.inf, math.nan)
] + [
    (gamma_deg_continued, (12.0, 0.1)),  # s past 1/lambda - delta
    (gamma_deg_continued, (-0.5, 1.5)),  # lambda outside (0,1)
    (zeta_deg_continued, (6.0, 0.5, 0.1)),  # s past x/lambda - delta
    (zeta_deg_continued, (-0.5, 1.0, 0.0)),
]


@pytest.mark.parametrize("route, args", _OUT_OF_DOMAIN,
                         ids=[f"{r.__name__}{a}" for r, a in _OUT_OF_DOMAIN])
def test_out_of_domain_argument_is_domain_error(route, args):
    with pytest.raises(DomainError):
        route(*args)


@pytest.mark.parametrize("route, args", _ROUTE_POINTS,
                         ids=[r.__name__ for r, _ in _ROUTE_POINTS])
def test_route_points_are_in_the_domain(route, args):
    value = route(*args)
    assert math.isfinite(getattr(value, "value", value))


# The series, at integer s too, and the Mellin quadrature share one domain.
# x = ratio * lambda puts x at or below lambda for ratio <= 1.
_X_RATIO = st.floats(0.05, 30.0)


def _refuses(route, *args) -> bool:
    """Whether route(*args) raises DomainError; NonConvergentError is no refusal."""
    try:
        route(*args)
    except DomainError:
        return True
    except NonConvergentError:
        pass
    return False


@settings(max_examples=200, deadline=None)
@given(st.floats(0.01, 0.99), _X_RATIO,
       st.one_of(st.floats(-1e-5, 1e-5), st.floats(-50.0, 5.0)))
def test_series_refuses_where_mellin_refuses(lam, ratio, offset):
    x = ratio * lam
    s = min(1.0, x) / lam + offset
    assert _refuses(zeta_deg, s, x, lam) == _refuses(zeta_deg_mellin, s, x, lam)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.floats(0.01, 3.0), st.floats(-1e-5, 1e-5))
def test_int_form_refuses_where_mellin_refuses(n, x, offset):
    # s = n lies within 1e-5 of min(1, x)/lambda, on either side
    lam = min(1.0, x) / (n + offset)
    assert _refuses(zeta_deg_int, n, x, lam) == _refuses(zeta_deg_mellin, float(n), x, lam)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.floats(0.01, 0.99), _X_RATIO)
def test_int_form_is_the_series_at_integer_s(n, lam, ratio):
    x = ratio * lam
    if _refuses(zeta_deg, float(n), x, lam):
        assert _refuses(zeta_deg_int, n, x, lam)
    else:
        assert repr(zeta_deg_int(n, x, lam)) == repr(zeta_deg(float(n), x, lam))


@settings(max_examples=100, deadline=None)
@given(st.floats(0.1, 0.99), _X_RATIO, st.floats(1e-6, 0.9))
def test_series_matches_mellin_over_the_shared_domain(lam, ratio, frac):
    x = ratio * lam
    s = frac * min(1.0, x) / lam
    try:
        mellin = zeta_deg_mellin(s, x, lam).value
    except NonConvergentError:
        return  # the Mellin tail near its threshold, x/lambda - s under ~0.05
    assert abs(zeta_deg(s, x, lam) / mellin - 1) <= 1e-10


def test_series_outside_the_float_range():
    # first term and prefactor underflow; the value itself is 1.05e40
    assert zeta_deg_int(120, 0.5, 0.001) == zeta_deg(120.0, 0.5, 0.001)
    assert _rel_err(zeta_deg(120.5, 0.5, 0.001),
                    F("1.59767657488733262490184e40")) <= 1e-11
    with pytest.raises(DomainError, match="exceeds the float range"):
        zeta_deg(999.99, 0.5, 0.0005)


def test_series_with_a_subnormal_prefactor():
    # Gamma(1/l - s)/Gamma(1/l) is 5e-324 here, one significant bit: the
    # plain sum divided by it came back 1.45e91, 50% off
    assert _rel_err(zeta_deg(87.448251, 0.1, 0.0002),
                    F("9.70158443357024578252030229878e90")) <= 1e-10


@pytest.mark.parametrize("s", [120.0, 120.5])
def test_series_outside_the_float_range_sums_once(monkeypatch, s):
    # the first term and the prefactor pick the scaled sum before any plain one
    calls = []
    ratio = zetadeg._gamma_ratio

    def counted(*args):
        calls.append(args)
        return ratio(*args)

    monkeypatch.setattr(zetadeg, "_gamma_ratio", counted)
    zeta_deg(s, 0.5, 0.001)
    assert len(calls) <= 2


# ---------------------------------------------------------------------------
# frozen 30-digit references (tests/data/make_zeta_references.py)
# ---------------------------------------------------------------------------

_REFERENCES = json.loads(
    (Path(__file__).parent / "data" / "zeta_references.json").read_text())


def _rel_err(value: float, ref: F) -> float:
    return float(abs(F(value) / ref - 1))


@pytest.mark.parametrize("row", _REFERENCES,
                         ids=lambda r: f"s={r['s']},x={r['x']},lam={r['lambda']}")
def test_frozen_reference(row):
    s, x, lam = row["s"], row["x"], row["lambda"]
    ref = F(row["value"])
    if lam == 0:
        # at s < 0 the float loop sums a divergent series, 2.8e-11 off at worst;
        # at s > 0 the CVZ weights are 1.2e-16 off at worst
        assert _rel_err(euler_zeta(s, x), ref) <= (1e-10 if s < 0 else 1e-15)
        return
    if not s < min(1.0, x) / lam - DOMAIN_MARGIN:
        # past the pole at s = x/lambda the series still sums, but the
        # Mellin integral diverges, and every public route refuses the point
        calls = [(zeta_deg, s), (zeta_deg_mellin, s)]
        if s.is_integer():
            calls.append((zeta_deg_int, int(s)))
        for route, s_arg in calls:
            with pytest.raises(DomainError):
                route(s_arg, x, lam)
        assert _rel_err(zetadeg._zeta_series(s, x, lam), ref) <= 1e-8
        return
    # 1.2e-13 off at worst, at lambda = 0.01: the lgamma difference, not the sum
    assert _rel_err(zeta_deg(s, x, lam), ref) <= 1e-12
    if s.is_integer():
        assert _rel_err(zeta_deg_int(int(s), x, lam), ref) <= 1e-12


_SWEEP = json.loads((Path(__file__).parent / "data" / "zeta_sweep.json").read_text())


@pytest.mark.parametrize("row", [
    pytest.param(row, id=f"sweep{i}") for i, row in enumerate(_SWEEP)])
def test_mellin_within_estimate_sweep(row):
    # x uniform on [0.5, 3], s log-uniform up to 0.9 min(1, x)/lambda; the
    # reference, not the float series, which is ~2e-11 off at some small s
    # and lambda
    q = zeta_deg_mellin(row["s"], row["x"], row["lambda"])
    err = float(abs(F(q.value) - F(row["value"])))
    assert err <= q.abs_error_estimate + 1e-12 * abs(q.value)


@pytest.mark.parametrize("s, x, lam", [(12.0, 2.0, 0.0), (30.0, 5.0, 0.0),
                                       (15.0, 3.0, 0.05)])
def test_small_values_match_mellin(s, x, lam):
    # the series stop rule is relative, so values far below 1 keep their digits
    if lam == 0:
        series, mellin = euler_zeta(s, x), euler_zeta_mellin(s, x).value
    else:
        series, mellin = zeta_deg(s, x, lam), zeta_deg_mellin(s, x, lam).value
    assert abs(series / mellin - 1) <= 1e-8


def test_classical_series_underflows_only_at_the_end():
    # 2 sum (-1)^m (m+2)^-1100 = 2^-1099 (1 - ...) rounds to 0.0
    assert euler_zeta(1100.0, 2.0) == 0.0


# ---------------------------------------------------------------------------
# exact negative-integer values
# ---------------------------------------------------------------------------

def test_neg_base_cases():
    assert zeta_deg_neg(0, F(3, 4), F(1, 3)) == 1
    # n = 1: empty product, both candidates are x - 1/2
    assert zeta_deg_neg(1, F(7, 3), F(1, 5)) == F(11, 6)
    assert zeta_deg_neg_plain(1, F(7, 3), F(1, 5)) == F(11, 6)


def test_neg_frozen_values():
    assert zeta_deg_neg(2, 1, F(1, 4)) == F(1, 10)
    assert zeta_deg_neg_plain(2, 1, F(1, 4)) == F(1, 8)
    assert zeta_deg_neg(3, 1, F(1, 10)) == F(-2, 11)
    assert zeta_deg_neg_plain(3, 1, F(1, 10)) == F(-6, 25)
    assert zeta_deg_neg(2, 2, F(1, 10)) == F(43, 22)


def test_neg_lambda_to_zero_limit():
    lam = F(1, 1000)
    for n in range(7):
        gap = abs(zeta_deg_neg(n, 1, lam) - euler_poly_classic(n)(1))
        assert gap <= 10 * lam, n


@pytest.mark.parametrize("x, lam", [(1, F(1, 4)), (1, F(1, 10)), (F(3, 2), F(2, 7)),
                                    (F(5, 4), F(3, 7)), (F(7, 3), F(1, 1000))])
def test_abel_sum_is_the_scaled_candidate(x, lam):
    from degzeta.zetadeg import _zeta_abel

    for n in range(11):
        scaled = zeta_deg_neg(n, x, lam)
        plain = zeta_deg_neg_plain(n, x, lam)
        assert _zeta_abel(n, x, lam) == scaled, n
        if n >= 2 and plain != 0:
            assert scaled != plain, n


def test_neg_domain():
    with pytest.raises(DomainError):
        zeta_deg_neg(2, F(-1), F(1, 4))
    with pytest.raises(DomainError):
        zeta_deg_neg(2, 1, F(3, 2))
    with pytest.raises(DomainError, match="n must be >= 0"):
        zeta_deg_neg_plain(-1, 1, F(1, 4))


# ---------------------------------------------------------------------------
# analytic continuation
# ---------------------------------------------------------------------------

def test_continued_overlap_with_direct_evaluation():
    assert abs(zeta_deg_continued(2.0, 1.0, 0.1) - zeta_deg_int(2, 1.0, 0.1)) <= 1e-6


def test_continued_finite_between_poles():
    v = zeta_deg_continued(-0.5, 1.0, 0.1)
    assert math.isfinite(v)


def _split_integral(s, coeffs, kern, log_kern, cfg) -> float:
    """One continued Mellin integral on its own: the pole part plus the tail."""
    from degzeta.gammadeg import _mellin_tail
    from degzeta.zetadeg import _pole_part

    return _pole_part(s, coeffs) + _mellin_tail(kern, log_kern, s, cfg).value


def test_continued_depth_independence():
    # the Taylor depth of the [0,1] piece must not affect the value once
    # the coefficients have decayed; slice the cached coefficient vectors
    from degzeta.zetadeg import _kernel_coeffs
    from degzeta.gammadeg import deg_kernel, deg_log_kernel
    from degzeta.numerics import QuadConfig
    from degzeta.zetadeg import deg_zeta_gamma_kernels

    cfg = QuadConfig()
    s = -0.5
    num_coeffs = _kernel_coeffs(F(1), F(1, 10))
    den_coeffs = _kernel_coeffs(None, F(1, 10))
    kerns, log_kerns = deg_zeta_gamma_kernels(1.0, 0.1)
    kern_n = (lambda t: kerns(t)[0]), log_kerns[0]
    kern_d = deg_kernel(0.1), deg_log_kernel(0.1)
    values = []
    for depth in (60, len(num_coeffs)):
        n = _split_integral(s, num_coeffs[:depth], *kern_n, cfg)
        d = _split_integral(s, den_coeffs[:depth], *kern_d, cfg)
        values.append(n / d)
    assert abs(values[0] - values[1]) <= 1e-8


def test_continued_fails_fast_at_depth_cap():
    # at lambda = 0.97 the kernel coefficients decay like 0.97^m and are
    # still above the negligible level at the depth cap
    with pytest.raises(NonConvergentError):
        gamma_deg_continued(-0.5, 0.97)
    with pytest.raises(NonConvergentError):
        zeta_deg_continued(-0.5, 1.0, 0.97)


def test_continued_pole_guard():
    with pytest.raises(DomainError):
        zeta_deg_continued(-2.0004, 1.0, 0.1)
    with pytest.raises(DomainError):
        gamma_deg_continued(-1.0, 0.1)


def test_pole_ratio_matches_residue():
    for n in (1, 2):
        residue = float(gamma_deg_residue(n, F(1, 10)).value)
        limit = richardson_limit(
            lambda e: e * gamma_deg_continued(-n + e, 0.1), 1e-2, 2.0, 3
        )
        assert abs(limit - residue) <= 1e-6, n


def test_gamma_continued_agrees_on_overlap():
    from degzeta.gammadeg import gamma_deg

    assert abs(gamma_deg_continued(1.5, 0.1) - gamma_deg(1.5, 0.1).value) <= 1e-8


def test_continued_tail_power_beyond_float_range():
    # t^(s-1) in the [1, inf) tail overflows at s = 80; the integrands do not
    from degzeta.gammadeg import gamma_deg

    assert _rel_err(gamma_deg_continued(80.0, 0.01), gamma_deg(80.0, 0.01).value) <= 1e-8
    assert _rel_err(zeta_deg_continued(80.0, 1.0, 0.01), zeta_deg(80.0, 1.0, 0.01)) <= 1e-8


# ---------------------------------------------------------------------------
# shared panels of the zeta ratios
# ---------------------------------------------------------------------------

def test_ratio_routes_integrate_numerator_and_denominator_together(monkeypatch):
    from degzeta import gammadeg, numerics

    calls = [0]

    def counting(quad):
        def counted(*args, **kwargs):
            calls[0] += 1
            return quad(*args, **kwargs)
        return counted

    # the heads reach quad_finite through gammadeg's binding, the tails
    # through numerics' own; the benchmark's spans wrap both
    for module in (gammadeg, numerics):
        monkeypatch.setattr(module, "quad_finite", counting(module.quad_finite))
    for route, args, expected in ((zeta_deg_continued, (-1.7, 1.3, 0.15), 1),
                                  (zeta_deg_mellin, (2.3, 1.3, 0.15), 2),
                                  (gamma_deg, (2.3, 0.15), 2)):
        calls[0] = 0
        route(*args)
        assert calls[0] == expected, route.__name__


@settings(max_examples=30, deadline=None)
@given(st.floats(-3.99, -0.01), st.floats(1.0, 3.0), st.floats(0.05, 0.3))
def test_continued_pair_matches_separate_split_integrals(s, x, lam):
    # at the default tolerance the separate integrals are themselves up to
    # 5e-12 off (continuation workload, seeds 1-3, against mpmath), so the
    # two routes are compared at 1e-13, where they agree within 4e-14
    from hypothesis import assume

    from degzeta.gammadeg import POLE_GUARD, deg_kernel, deg_log_kernel
    from degzeta.numerics import QuadConfig
    from degzeta.zetadeg import _kernel_coeffs, deg_zeta_gamma_kernels

    def zeta_kern(t):
        return 2 * (1 + lam * t) ** (-x / lam) / ((1 + lam * t) ** (-1 / lam) + 1)

    assume(abs(s - round(s)) >= POLE_GUARD)
    tight = QuadConfig(rel_tol=1e-13)
    log_kern = deg_zeta_gamma_kernels(x, lam)[1][0]
    num = _split_integral(s, _kernel_coeffs(x, lam), zeta_kern, log_kern, tight)
    den = _split_integral(s, _kernel_coeffs(None, lam), deg_kernel(lam),
                          deg_log_kernel(lam), tight)
    assert abs(zeta_deg_continued(s, x, lam, tight) / (num / den) - 1) <= 1e-12
    assert abs(zeta_deg_continued(s, x, lam) / (num / den) - 1) <= 1e-11


def test_ratio_pairs_that_overflow_fall_back_to_log_tails(monkeypatch):
    # t^(s-1) overflows in both tails at these s (the two *_beyond_float_range
    # tests), so each kernel's tail is redone in logs on its own
    from degzeta import gammadeg

    log_tails = []
    log_tail = gammadeg._log_tail

    def counted(log_kern, *args):
        log_tails.append(log_kern)
        return log_tail(log_kern, *args)

    monkeypatch.setattr(gammadeg, "_log_tail", counted)
    assert abs(zeta_deg_mellin(90.0, 3.0, 0.01).value / zeta_deg(90.0, 3.0, 0.01) - 1) <= 1e-8
    assert len(log_tails) == 2
    assert _rel_err(zeta_deg_continued(80.0, 1.0, 0.01), zeta_deg(80.0, 1.0, 0.01)) <= 1e-8
    assert len(log_tails) == 4


# ---------------------------------------------------------------------------
# discrepancy experiment
# ---------------------------------------------------------------------------

def test_discrepancy_headline_cell():
    rep = discrepancy_experiment(2, 1, F(1, 4))
    assert rep.value_scaled == F(1, 10)
    assert rep.value_plain == F(1, 8)
    assert rep.winner == "scaled"
    assert abs(rep.value_continued - 0.1) <= 1e-4
    assert rep.gap > 3 * rep.error_estimate


def test_discrepancy_grid_all_scaled():
    for n in (2, 3):
        for x in (1, 2):
            for lam in (F(1, 10), F(1, 4)):
                rep = discrepancy_experiment(n, x, lam)
                assert rep.winner == "scaled", (n, x, lam)
                assert abs(rep.value_continued - float(rep.value_scaled)) <= 1e-4


def test_discrepancy_below_x_one():
    # the Taylor depth sets the strip's left end, so x < 1 is no obstacle
    rep = discrepancy_experiment(2, F(1, 2), F(1, 4))
    assert rep.winner == "scaled"
    assert abs(rep.value_continued - float(rep.value_scaled)) <= 1e-10
    assert rep.gap > 3 * rep.error_estimate


def test_discrepancy_evaluates_each_point_once(monkeypatch):
    points = []
    continued = zetadeg.zeta_deg_continued

    def counted(s, x, lam, cfg=None):
        points.append(s)
        return continued(s, x, lam, cfg)

    monkeypatch.setattr(zetadeg, "zeta_deg_continued", counted)
    rep = zetadeg.discrepancy_experiment(2, 1, F(1, 4))
    assert len(points) == 4 == len(set(points))
    assert rep.winner == "scaled"


def test_discrepancy_builds_euler_polynomial_once(monkeypatch):
    builds = []
    build = zetadeg.euler_poly_deg

    def counted(n, lam):
        builds.append((n, lam))
        return build(n, lam)

    monkeypatch.setattr(zetadeg, "euler_poly_deg", counted)
    rep = zetadeg.discrepancy_experiment(3, 1, F(1, 4))
    assert builds == [(3, F(-1, 4))]
    assert rep.value_plain == build(3, F(-1, 4))(1)
    assert rep.winner == "scaled"


def test_discrepancy_rejects_degenerate_order():
    with pytest.raises(DomainError):
        discrepancy_experiment(1, 1, F(1, 4))


def test_discrepancy_inconclusive_as_lambda_vanishes():
    rep = discrepancy_experiment(2, 1, F(1, 10**7))
    assert rep.winner == "inconclusive"


def test_discrepancy_report_candidates_match_direct_functions():
    rep = discrepancy_experiment(3, 2, F(1, 5))
    assert rep.value_scaled == zeta_deg_neg(3, 2, F(1, 5))
    assert rep.value_plain == zeta_deg_neg_plain(3, 2, F(1, 5))
    assert rep.value_plain == euler_poly_deg(3, F(-1, 5))(2)
