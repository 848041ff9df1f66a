import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degzeta.exactcore import (
    PolyRational,
    TruncatedSeries,
    as_rational,
    check_alternating_sum_identity,
    euler_number_deg,
    euler_poly_classic,
    euler_poly_deg,
    euler_poly_deg_values,
    euler_scaled,
    ffd,
    ffd_scaled,
    kernel_series,
    series_oracle,
)

LAMBDAS = [F(0), F(1, 10), F(1, 2), F(9, 10)]


# ---------------------------------------------------------------------------
# falling factorial
# ---------------------------------------------------------------------------

def test_ffd_empty_product_is_one():
    assert ffd(F(7, 3), F(1, 2), 0) == 1
    assert ffd(0, 0, 0) == 1


def test_ffd_lambda_zero_is_power():
    assert ffd(3, 0, 2) == 9
    assert ffd(F(2, 5), 0, 3) == F(8, 125)


def test_ffd_direct_product():
    # 2 * (2 - 1/2) * (2 - 1) = 3
    assert ffd(2, F(1, 2), 3) == 3


def test_ffd_rejects_negative_m():
    with pytest.raises(ValueError):
        ffd(1, F(1, 2), -1)


def test_as_rational_rejects_float():
    with pytest.raises(TypeError):
        as_rational(0.5)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_poly_arithmetic_and_eval():
    x = PolyRational.x()
    p = (x - F(1, 2)) * (x + 2)
    assert p.coeffs == (F(-1), F(3, 2), F(1))
    assert p(F(1, 2)) == 0
    assert p(-2) == 0
    assert p(1) == F(3, 2) * 1 + 1 - 1


def test_poly_trailing_zeros_stripped():
    p = PolyRational([1, 2, 0, 0])
    assert p.degree == 1
    assert (p - p).is_zero()


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------

def test_series_division_geometric():
    # 1 / (1 - t) = 1 + t + t^2 + ...
    one = TruncatedSeries([1], order=5)
    den = TruncatedSeries([1, -1], order=5)
    q = one / den
    assert q.coeffs == tuple(F(1) for _ in range(6))


@pytest.mark.parametrize("coeffs, order, message", [
    ([], None, "at least the constant coefficient"),
    ([1], -1, "order must be >= 0"),
])
def test_series_constructor_guards(coeffs, order, message):
    with pytest.raises(ValueError, match=message):
        TruncatedSeries(coeffs, order=order)


def test_series_division_requires_invertible_constant():
    num = TruncatedSeries([1, 1], order=1)
    den = TruncatedSeries([0, 1], order=1)
    with pytest.raises(ZeroDivisionError):
        num / den


@st.composite
def _series_pair(draw):
    order = draw(st.integers(min_value=0, max_value=5))
    fracs = st.fractions(min_value=-4, max_value=4, max_denominator=8)
    a = [draw(fracs) for _ in range(order + 1)]
    b = [draw(fracs) for _ in range(order + 1)]
    b0 = draw(fracs.filter(lambda v: v != 0))
    b[0] = b0
    return TruncatedSeries(a), TruncatedSeries(b)


@settings(max_examples=100, deadline=None)
@given(_series_pair())
def test_series_divide_then_multiply_round_trips(pair):
    a, b = pair
    assert (a / b) * b == a


def test_kernel_series_constant_term_and_lambda_zero():
    s = kernel_series(1, F(1, 3), 6)
    assert s.coeff(0) == 1
    e = kernel_series(1, 0, 6)  # e^t
    assert e.coeff(4) == F(1, 24)


# ---------------------------------------------------------------------------
# degenerate Euler polynomials: recurrence vs series oracle
# ---------------------------------------------------------------------------

def test_euler_poly_basics():
    for lam in LAMBDAS:
        assert euler_poly_deg(0, lam) == PolyRational([1])
        assert euler_poly_deg(1, lam) == PolyRational([F(-1, 2), 1])


def test_euler_poly_deg2_closed_form():
    # oracle-derived: E_2(x|l) = x^2 - (1+l)x + l/2
    for lam in LAMBDAS:
        expected = PolyRational([lam / 2, -(1 + lam), 1])
        assert euler_poly_deg(2, lam) == expected
    assert euler_poly_deg(2, F(1, 2)) == PolyRational([F(1, 4), F(-3, 2), 1])


def test_euler_poly_classic_matches_lambda_zero():
    assert euler_poly_classic(2) == PolyRational([0, -1, 1])
    for n in range(21):
        assert euler_poly_deg(n, 0) == euler_poly_classic(n)


def test_recurrence_equals_series_oracle_up_to_20():
    for lam in LAMBDAS:
        oracle = series_oracle(20, lam)
        for n in range(21):
            assert euler_poly_deg(n, lam) == oracle[n], (n, lam)


def test_series_oracle_order0_is_one():
    assert series_oracle(0, F(1, 3))[0] == PolyRational([1])


def test_value_recurrence_matches_polynomial_evaluation():
    for lam in (F(1, 4), F(-1, 4)):
        vals = euler_poly_deg_values(12, F(3, 2), lam)
        for n in range(13):
            assert vals[n] == euler_poly_deg(n, lam)(F(3, 2))


_RATIONAL_LAMBDAS = st.fractions(min_value=-2, max_value=2, max_denominator=50)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=12),
       st.one_of(st.just(F(0)), _RATIONAL_LAMBDAS))
def test_product_form_equals_series_oracle_property(n, lam):
    assert euler_poly_deg(n, lam) == series_oracle(n, lam)[n]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=12),
    st.one_of(st.just(F(0)), _RATIONAL_LAMBDAS),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)
def test_value_recurrence_property(n, lam, x):
    assert euler_poly_deg_values(n, x, lam)[n] == euler_poly_deg(n, lam)(x)


def _fraction_values(n_max, x, lam):
    """The scalar recurrence over Fractions, reference for the integer kernel."""
    ffx = [F(1)]
    ff1 = [F(1)]
    for j in range(n_max):
        ffx.append(ffx[-1] * (x - j * lam))
        ff1.append(ff1[-1] * (1 - j * lam))
    values = [F(1)]
    for n in range(1, n_max + 1):
        acc = sum(math.comb(n, k) * ff1[n - k] * values[k] for k in range(n))
        values.append(ffx[n] - acc / 2)
    return values


def _midpoint_or_zero(v):
    """v is 0 or halfway between two adjacent floats: no error bound certifies float(v)."""
    f = float(v)
    return v == 0 or 2 * v == F(f) + F(math.nextafter(f, math.inf if v > f else -math.inf))


# (x, lam) -> k where the zeta kernel's coefficient is a float midpoint or
# zero, so that its float comes from the exact fallback
_KERNEL_TIES = {(F(1.5), F(0.06)): 2, (F(1), F(1, 4)): 5, (F(3), F(1, 4)): 80}


@pytest.mark.parametrize("x, lam", [
    (F(1), F(1, 10)),
    (F(1.3), F(0.1)),
    (F(2.7), F(0.27)),
    *_KERNEL_TIES,
])
def test_kernel_coeff_floats_match_fraction_route(x, lam):
    from degzeta.zetadeg import _kernel_coeffs

    zeta = _kernel_coeffs(x, lam)
    values = _fraction_values(len(zeta) - 1, x, -lam)
    exact = [(-1) ** m * e / math.factorial(m) for m, e in enumerate(values)]
    assert zeta == tuple(float(v) for v in exact)
    if (x, lam) in _KERNEL_TIES:
        assert _midpoint_or_zero(exact[_KERNEL_TIES[x, lam]])
    gamma = _kernel_coeffs(None, lam)
    num, expected = F(1), []
    for k in range(len(gamma)):
        if k > 0:
            num *= -1 - (k - 1) * lam
        expected.append(float(num / math.factorial(k)))
    assert gamma == tuple(expected)


def _integer_route(x, lam, n):
    """The first n kernel coefficients as Fractions from the exact integers.

    (-1)^m euler_scaled(x, -lam)_m / ((2bq)^m m!), or with x None
    ffd_scaled(-1, lam)_m / (q^m m!), for x = a/b and lam = p/q.
    """
    if x is None:
        nums, scale, sign = ffd_scaled(F(-1), lam), lam.denominator, 1
    else:
        nums, scale, sign = euler_scaled(x, -lam), 2 * x.denominator * lam.denominator, -1
    return [F(sign ** m * num, scale ** m * math.factorial(m))
            for m, num in zip(range(n), nums)]


@pytest.mark.parametrize("x", [F(3), None])
def test_kernel_coeff_floats_match_integer_route_deep(x):
    # lambda = 17/20 takes the kernels to depth 361 and 401; near k = 374
    # the zeta kernel's first fixed-point pass runs out of bits and is rerun
    from degzeta.zetadeg import _kernel_coeffs

    lam = F(17, 20)
    coeffs = _kernel_coeffs(x, lam)
    assert len(coeffs) > 200
    assert coeffs == tuple(map(float, _integer_route(x, lam, len(coeffs))))


@pytest.mark.parametrize("x, lam", [(F(1.3), F(0.1)), (F(3), F(17, 20)), (None, F(17, 20))])
def test_fixed_point_radius_bounds_the_error(x, lam):
    # the certificate rests on |c - 2^bits a_k| <= r, also where the bits
    # run short: 64 of them hold none of the deep coefficients
    from degzeta.zetadeg import _fixed_coeffs

    bits = 64
    for (c, r), a in zip(_fixed_coeffs(x, lam, bits), _integer_route(x, lam, 120)):
        assert abs(c - a * 2 ** bits) <= r


@settings(max_examples=8, deadline=None)
@given(st.floats(min_value=0.5, max_value=4.0), st.floats(min_value=0.01, max_value=0.3))
def test_kernel_coeff_floats_match_integer_route_property(x, lam):
    from degzeta.zetadeg import _kernel_coeffs

    for xf in (F(x), None):
        coeffs = _kernel_coeffs(xf, F(lam))
        assert coeffs == tuple(map(float, _integer_route(xf, F(lam), len(coeffs))))


# ---------------------------------------------------------------------------
# alternating-sum identity
# ---------------------------------------------------------------------------

def test_alt_sum_m1_n0_signed_holds():
    r = check_alternating_sum_identity(1, 0, F(2, 7))
    assert r.lhs_signed == 0 and r.rhs == 0
    assert r.signed_holds


def test_alt_sum_m0_n1_plain_fails_signed_holds():
    r = check_alternating_sum_identity(0, 1, F(1, 3))
    assert r.lhs_plain == 2 and r.rhs == 0
    assert not r.plain_holds
    assert r.lhs_signed == 0 and r.signed_holds


def test_alt_sum_m0_even_n_plain_holds():
    for n in (0, 2, 4, 8):
        r = check_alternating_sum_identity(0, n, F(1, 2))
        assert r.plain_holds and r.rhs == 2


def test_alt_sum_sweep():
    for lam in (F(1, 10), F(1, 3), F(1, 2)):
        for m in range(13):
            for n in range(13):
                r = check_alternating_sum_identity(m, n, lam)
                assert r.signed_holds, (m, n, lam)
                if n % 2 == 0:
                    assert r.plain_holds, (m, n, lam)
        # the plain form must fail somewhere at odd n
        assert any(
            not check_alternating_sum_identity(m, n, lam).plain_holds
            for m in range(13) for n in range(1, 13, 2)
        )


def test_euler_number_deg_is_value_at_zero():
    assert euler_number_deg(1, F(1, 5)) == F(-1, 2)


@pytest.mark.parametrize("call", [
    lambda: euler_poly_deg(-1, F(1, 2)),
    lambda: euler_poly_deg_values(-1, 1, F(1, 2)),
    lambda: series_oracle(-1, F(1, 2)),
    lambda: check_alternating_sum_identity(-1, 0, F(1, 2)),
    lambda: check_alternating_sum_identity(0, -1, F(1, 2)),
], ids=["euler_poly_deg", "euler_poly_deg_values", "series_oracle",
        "alt_sum-m", "alt_sum-n"])
def test_negative_order_is_rejected(call):
    with pytest.raises(ValueError, match="must be >= 0"):
        call()
