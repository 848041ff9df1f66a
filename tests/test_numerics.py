import gc
import math
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degzeta.numerics import (
    DomainError,
    NonConvergentError,
    QuadConfig,
    QuadResult,
    euler_transform_sum,
    quad_finite,
    quad_tail,
    richardson_limit,
)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _semi_infinite(f):
    """int_0^inf f split at t = 1: quad_finite on the head, quad_tail on the rest."""
    head, tail = quad_finite(f, 0.0, 1.0), quad_tail(f, 1.0)
    return QuadResult(head.value + tail.value,
                      head.abs_error_estimate + tail.abs_error_estimate,
                      head.subdivisions + tail.subdivisions)


def test_quad_exponential_is_one():
    q = _semi_infinite(lambda t: math.exp(-t))
    assert abs(q.value - 1.0) <= q.abs_error_estimate + 1e-12
    assert q.abs_error_estimate >= 0


def test_quad_polynomial_decay_closed_form():
    # int_0^inf (1+0.2 t)^-5 dt = 1/(0.2*4) = 1.25
    q = _semi_infinite(lambda t: (1.0 + 0.2 * t) ** -5)
    assert abs(q.value - 1.25) < 1e-10


def test_quad_sqrt_pi_with_endpoint_singularity():
    q = _semi_infinite(lambda t: math.exp(-t) * t ** (0.5 - 1.0))
    assert abs(q.value - math.sqrt(math.pi)) < 1e-9
    assert abs(q.value - math.sqrt(math.pi)) <= 2 * q.abs_error_estimate


def test_quad_split_point_invariance():
    # the two split choices must agree within their combined estimates
    def integrand(t):
        return math.exp(-math.log1p(0.1 * t) / 0.1) * t**3  # Gamma(4|0.1) shape

    def split_at(c):
        head, tail = quad_finite(integrand, 0.0, c), quad_tail(integrand, c)
        return head.value + tail.value, head.abs_error_estimate + tail.abs_error_estimate

    (a, a_err), (b, b_err) = split_at(0.5), split_at(2.0)
    assert abs(a - b) <= 10 * (a_err + b_err)


def test_quad_domain_error_on_nan():
    with pytest.raises(DomainError):
        quad_finite(lambda t: float("nan"), 0.0, 1.0)


def test_quad_sum_beyond_float_range_is_domain_error():
    # every sample is finite; the integral, 1e308 * 10, is not
    with pytest.raises(DomainError, match="overflows the float range"):
        quad_finite(lambda t: 1e308, 0.0, 10.0)


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 0.0), (0.0, math.inf),
                                  (math.nan, 1.0)])
def test_quad_finite_rejects_bad_bounds(a, b):
    with pytest.raises(DomainError, match="need finite bounds with b > a"):
        quad_finite(lambda t: 1.0, a, b)


def test_quad_tail_rejects_negative_lower_bound():
    with pytest.raises(DomainError, match="lower bound must be >= 0"):
        quad_tail(lambda t: math.exp(-t), -1.0)


def test_quad_nonconvergent_budget():
    # sin(1/t) oscillates without bound at 0: the 2000-subdivision budget
    # runs out at the default tolerance, far above the roundoff floor
    with pytest.raises(NonConvergentError, match="after 2000 subdivisions"):
        quad_finite(lambda t: math.sin(1.0 / t), 0.0, 1.0)


def test_quad_fails_fast_below_roundoff_floor():
    # int_0^1 t^-0.9 dt = 10: the panels' roundoff floors sum to about
    # 1.1e-14 * 10, which a relative 1e-14 can never get under
    evals = [0]

    def f(t):
        evals[0] += 1
        return t ** (-0.9)

    with pytest.raises(NonConvergentError, match="roundoff floor .* above tolerance"):
        quad_finite(f, 0.0, 1.0, QuadConfig(rel_tol=1e-14))
    assert evals[0] <= 100


def test_quad_tight_tolerance_converges_under_the_floor():
    # Gamma(1.205|0.13) = 1.105, but each integral quadrature sees (the
    # head less 1/s, and the tail) is under 0.9, where the absolute 1e-14
    # governs, so rel_tol 1e-14 is met; mpmath puts the value 7.1e-16 off
    from degzeta.gammadeg import gamma_deg

    q = gamma_deg(1.205, 0.13, QuadConfig(rel_tol=1e-14))
    assert q == QuadResult(1.105312213921606, 1.698191207491883e-14, 6)


def test_quad_tail_underflow_is_nonconvergent():
    # the integrand decays like t^-1.04; bisection toward u = 0 reaches a
    # u whose square (u*w, w = u at r = 1) underflows before the tolerance
    # is met
    with pytest.raises(NonConvergentError, match="u or u\\*w underflows"):
        quad_tail(lambda t: t ** -1.04, 1.0)


def test_kept_nonconvergent_error_does_not_pin_panels():
    kept = []
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        try:
            # the tail fails after 1057 panels (test_quad_tail_underflow_is_nonconvergent)
            quad_tail(lambda t: t ** -1.04, 1.0)
        except NonConvergentError as exc:
            kept.append(exc)
        gc.collect()
        pinned = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == 1
    assert pinned < 50_000


def test_quad_tail_non_finite_names_t():
    # the first non-finite sample is at u = 0.0254, that is t = (1-u)/u = 38.3
    with pytest.raises(DomainError, match=r"non-finite at t=38\.29"):
        quad_tail(lambda t: math.inf if t > 5 else 1.0, 0.0)


def test_quad_tail_matches_closed_form():
    # int_1^inf t^-3 dt = 1/2
    q = quad_tail(lambda t: t**-3.0, 1.0)
    assert abs(q.value - 0.5) < 1e-11


def test_quad_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=-1.0)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            QuadConfig(rel_tol=bad)


# ---------------------------------------------------------------------------
# Euler transformation
# ---------------------------------------------------------------------------

def test_all_ones_gives_half_exactly():
    r = euler_transform_sum(lambda m: F(1), degree=0)
    assert r == F(1, 2)
    assert isinstance(r, F)


def test_alternating_harmonic_ln2():
    calls = []

    def term(m):
        calls.append(m)
        return 1.0 / (m + 1)

    r = euler_transform_sum(term)
    assert abs(r - math.log(2.0)) < 1e-12
    assert len(calls) <= 50
    assert isinstance(r, float)


def test_linear_terms_abel_sum():
    # 2 * sum (-1)^m (m + 1/2) = E_1(1/2) = 0
    r = euler_transform_sum(lambda m: F(m) + F(1, 2), degree=1)
    assert isinstance(r, F)
    assert 2 * r == 0


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=4),
    st.fractions(min_value=F(1, 8), max_value=3, max_denominator=8),
)
def test_polynomial_abel_sum_matches_euler_polynomial(n, x):
    from degzeta.exactcore import euler_poly_classic

    r = euler_transform_sum(lambda m: (F(m) + x) ** n, degree=n)
    assert isinstance(r, F)
    assert 2 * r == euler_poly_classic(n)(x)


def test_exact_path_rejects_floats():
    with pytest.raises(TypeError):
        euler_transform_sum(lambda m: 1.0, degree=0)


def test_fraction_terms_without_degree_do_not_claim_exactness():
    # 0, 0, 1/2, 1/3, ... sums to 1 - ln 2: two leading zeros prove nothing
    assert isinstance(euler_transform_sum(
        lambda m: F(0) if m < 2 else F(1, m)), float)


def test_float_stop_rule_is_relative():
    # 0, 0, 1/2, 1/3, ... sums to 1 - ln 2; leading zeros do not stop it
    r = euler_transform_sum(lambda m: 0.0 if m < 2 else 1.0 / m)
    assert abs(r - (1.0 - math.log(2.0))) <= 1e-12
    # a sum far below 1 is as accurate as ln 2 itself
    r = euler_transform_sum(lambda m: 1e-20 / (m + 1))
    assert abs(r / (1e-20 * math.log(2.0)) - 1.0) <= 1e-11


def test_sequence_input_and_nonconvergence():
    # the transform increments of 3^m stay +-1/2, so the sum never settles
    with pytest.raises(NonConvergentError):
        euler_transform_sum(lambda m: 3.0**m)


def test_non_finite_float_term_is_domain_error():
    with pytest.raises(DomainError, match="term 1 is not finite"):
        euler_transform_sum(lambda m: math.inf if m else 1.0)


def test_negative_degree_is_rejected():
    with pytest.raises(ValueError, match="need at least one term"):
        euler_transform_sum(lambda m: 1, degree=-1)


def test_result_type():
    r = euler_transform_sum(lambda m: 1.0 / (m + 1) ** 2)
    assert isinstance(r, float)
    assert abs(r - math.pi**2 / 12.0) < 1e-12


# ---------------------------------------------------------------------------
# Richardson extrapolation
# ---------------------------------------------------------------------------

def test_richardson_linear_model_one_level():
    assert richardson_limit(lambda e: 3.0 + e, 0.1, 2.0, 1) == pytest.approx(3.0, abs=1e-14)


def test_richardson_quadratic_model():
    v = richardson_limit(lambda e: 1.0 + 2.0 * e + 5.0 * e * e, 0.1, 2.0, 3)
    assert abs(v - 1.0) < 1e-10


def test_richardson_sinc_limit():
    v = richardson_limit(lambda e: math.sin(e) / e, 0.1, 2.0, 5)
    assert abs(v - 1.0) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=4))
def test_richardson_annihilates_polynomials(coeffs):
    levels = len(coeffs)

    def f(e):
        return 7.0 + sum(c * e ** (k + 1) for k, c in enumerate(coeffs))

    v = richardson_limit(f, 0.25, 2.0, levels)
    assert abs(v - 7.0) < 1e-9


def test_richardson_validation_and_domain():
    with pytest.raises(ValueError):
        richardson_limit(lambda e: e, -1.0, 2.0, 2)
    with pytest.raises(ValueError):
        richardson_limit(lambda e: e, 0.1, 1.0, 2)
    with pytest.raises(ValueError, match="levels must be >= 1"):
        richardson_limit(lambda e: e, 0.1, 2.0, 0)
    with pytest.raises(DomainError):
        richardson_limit(lambda e: float("inf"), 0.1, 2.0, 2)
