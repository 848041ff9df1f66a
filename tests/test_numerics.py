import gc
import math
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degzeta.numerics import (
    _CVZ_WEIGHTS,
    DomainError,
    NonConvergentError,
    QuadConfig,
    QuadResult,
    _cvz_sum,
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


# pair integrands: f(t) = (f1(t), f2(t)) integrated on shared panels.  Each
# case pairs components that need different refinement, or that differ in
# magnitude by orders, with their integrals in closed form.
_PAIRS = {
    "sqrt_and_scaled_exp": (lambda t: (math.sqrt(t), 1e3 * math.exp(-t)), 0.0, 1.0,
                            (2.0 / 3.0, 1e3 * (1.0 - math.exp(-1.0)))),
    "runge_and_oscillation": (lambda t: (1.0 / (1.0 + 25.0 * t * t), math.cos(30.0 * t)),
                              -1.0, 1.0, (0.4 * math.atan(5.0), math.sin(30.0) / 15.0)),
    "tiny_and_log": (lambda t: (1e-6 * math.sin(t), math.log1p(t)), 0.0, 2.0,
                     (1e-6 * (1.0 - math.cos(2.0)), 3.0 * math.log(3.0) - 2.0)),
}


@pytest.mark.parametrize("rel_tol", [None, 1e-8])
@pytest.mark.parametrize("case", sorted(_PAIRS))
def test_pair_components_each_meet_their_own_tolerance(case, rel_tol):
    f, a, b, exact = _PAIRS[case]
    cfg = None if rel_tol is None else QuadConfig(rel_tol=rel_tol)
    tol = (cfg or QuadConfig()).rel_tol
    pair = quad_finite(f, a, b, cfg)
    assert len(pair) == 2 and pair[0].subdivisions == pair[1].subdivisions
    for k, (q, ref) in enumerate(zip(pair, exact)):
        assert q.abs_error_estimate <= max(1e-14, tol * abs(q.value))
        assert abs(q.value - ref) <= q.abs_error_estimate + 1e-15 * abs(ref)
        alone = quad_finite(lambda t: f(t)[k], a, b, cfg)
        assert abs(q.value - alone.value) <= q.abs_error_estimate + alone.abs_error_estimate


@pytest.mark.parametrize("f", [math.sqrt, lambda t: (math.sqrt(t), math.exp(t))],
                         ids=["scalar", "pair"])
def test_quad_evaluates_each_node_once(f):
    # the sample that tells a pair integrand from a scalar one is the first
    # panel's first node, not an extra evaluation
    calls = [0]

    def counted(t):
        calls[0] += 1
        return f(t)

    q = quad_finite(counted, 0.0, 1.0)
    bisections = q.subdivisions if isinstance(q, QuadResult) else q[0].subdivisions
    assert calls[0] == 15 * (2 * bisections + 1)


def test_pair_fails_fast_below_roundoff_floor():
    # the second component is int_0^1 t^-0.9 dt = 10, as in
    # test_quad_fails_fast_below_roundoff_floor; the first meets 1e-14 alone
    evals = [0]

    def f(t):
        evals[0] += 1
        return 1e-3 * t, t ** (-0.9)

    with pytest.raises(NonConvergentError, match="roundoff floor .* above tolerance"):
        quad_finite(f, 0.0, 1.0, QuadConfig(rel_tol=1e-14))
    assert evals[0] <= 100


def test_pair_budget_covers_both_components():
    # the smooth first component converges at once; the second never does
    with pytest.raises(NonConvergentError, match="after 2000 subdivisions"):
        quad_finite(lambda t: (t, math.sin(1.0 / t)), 0.0, 1.0)


def test_pair_non_finite_component_is_domain_error():
    with pytest.raises(DomainError):
        quad_finite(lambda t: (1.0, math.inf if t > 0.5 else 1.0), 0.0, 1.0)


# quad_finite runs a scalar integrand as the pair whose second component is
# 0, so pairing a scalar with 0.0 must give its QuadResult bit for bit, or
# raise the same error.  Each row: (f, a, b, the scalar quadrature of f).
def _gamma_deg_head(s, lam):
    """The head integrand of `gammadeg._mellin_quad` for Gamma(s|lam), in u."""
    from degzeta.gammadeg import deg_kernel

    kern = deg_kernel(lam)
    p = (math.floor(s) + 4.0) / (s + 1.0)
    q = p * s - 1.0
    return lambda u: p * (kern(u**p) - 1.0) * u**q


def _slow(t):
    return t ** -1.3


def _slow_in_u(u):
    """quad_tail's integrand for _slow on [1, inf): f(t) / u^2 in u = 1/(1+t)."""
    return _slow((1.0 - u) / u) / (u * u)


def _sqrt_exp(t):
    return t**0.5 * math.exp(-3.0 * t)


_HEAD = _gamma_deg_head(0.05, 0.9)
_ZERO_PAIRED = {
    "sqrt_exp": (_sqrt_exp, 0.0, 1.0, lambda cfg: quad_finite(_sqrt_exp, 0.0, 1.0, cfg)),
    "gamma_deg_head": (_HEAD, 0.0, 1.0, lambda cfg: quad_finite(_HEAD, 0.0, 1.0, cfg)),
    "slow_tail": (_slow_in_u, 0.0, 0.5, lambda cfg: quad_tail(_slow, 1.0, cfg)),
}


def _outcome(quad):
    try:
        return quad()
    except NonConvergentError as exc:
        return f"NonConvergentError: {exc}"


@pytest.mark.parametrize("rel_tol", [None, 1e-13, 1e-15])
@pytest.mark.parametrize("case", sorted(_ZERO_PAIRED))
def test_scalar_runs_as_pair_with_zero_second_component(case, rel_tol):
    f, a, b, scalar = _ZERO_PAIRED[case]
    cfg = rel_tol and QuadConfig(rel_tol=rel_tol)
    alone = _outcome(lambda: scalar(cfg))
    assert _outcome(lambda: quad_finite(lambda t: (f(t), 0.0), a, b, cfg)[0]) == alone
    if rel_tol == 1e-13:  # every row bisects several times
        assert alone.subdivisions >= 3
    if rel_tol == 1e-15 and case == "slow_tail":
        # below the roundoff floor the tail, 10/3 > 0.9, fails fast; the
        # other two, under 0.9, converge where the absolute 1e-14 governs
        assert "roundoff floor" in alone


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
# CVZ weights for moment sequences
# ---------------------------------------------------------------------------

_CVZ_BOUND = 31 * (2 * 2.0**-52)  # the docstring's 31 (eps_term + 2^-52), eps_term = 1 ulp


def test_cvz_weights_as_documented():
    assert len(_CVZ_WEIGHTS) == 21
    assert abs(math.fsum(_CVZ_WEIGHTS) - 0.5) <= 2.0**-52
    assert 14.84 < math.fsum(abs(w) for w in _CVZ_WEIGHTS) < 14.85


@pytest.mark.parametrize("term, value", [
    (lambda m: 1.0 / (m + 1), math.log(2.0)),
    (lambda m: 1.0 / (m + 1) ** 2, math.pi**2 / 12.0),
], ids=["ln2", "pi2/12"])
def test_cvz_known_sums_within_4_ulp(term, value):
    calls = []
    r = _cvz_sum(lambda m: calls.append(m) or term(m))
    assert abs(r - value) <= 4 * math.ulp(value)
    assert calls == list(range(21))


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_cvz_geometric_moments_within_the_bound(r):
    # r^m are the moments of the point mass at r; the sum is 1/(1+r)
    exact = 1 / (1 + F(r))
    assert abs(F(_cvz_sum(lambda m: r**m)) / exact - 1) <= _CVZ_BOUND


def test_cvz_non_finite_term_is_domain_error():
    with pytest.raises(DomainError, match="term 3 is not finite"):
        _cvz_sum(lambda m: math.nan if m == 3 else 1.0)


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
