import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degzeta.gammadeg import (
    funceq_chain_residual,
    funceq_residual,
    gamma_classical,
    gamma_deg,
    gamma_deg_closed,
    gamma_deg_residue,
    gamma_deg_via_chain,
    residue_closed_form,
)
from degzeta.numerics import DomainError, NonConvergentError


# ---------------------------------------------------------------------------
# closed form (integer arguments)
# ---------------------------------------------------------------------------

def test_closed_form_small_cases():
    assert gamma_deg_closed(1, F(1, 5)) == F(5, 4)
    assert gamma_deg_closed(3, F(1, 10)) == F(250, 63)


def test_closed_form_approaches_factorial():
    # Gamma(n|l) = (n-1)! (1 + l n(n+1)/2 + O(l^2))
    lam = F(1, 10**6)
    for n in (1, 3, 5):
        gap = abs(float(gamma_deg_closed(n, lam)) - math.factorial(n - 1))
        assert gap <= math.factorial(n - 1) * float(lam) * n * (n + 1)


def test_closed_form_domain():
    with pytest.raises(DomainError):
        gamma_deg_closed(3, F(1, 2))  # needs lambda < 1/3
    with pytest.raises(DomainError):
        gamma_deg_closed(2, 0)
    with pytest.raises(DomainError):
        gamma_deg_closed(0, F(1, 10))


def test_quadrature_matches_closed_form():
    for n in range(1, 7):
        for lam in (F(1, 20), F(1, 10)):
            if not lam < F(1, n):
                continue
            closed = float(gamma_deg_closed(n, lam))
            q = gamma_deg(float(n), float(lam))
            assert abs(q.value - closed) / closed <= 1e-8


def test_quadrature_known_values():
    assert gamma_deg(1.0, 0.2).value == pytest.approx(1.25, abs=1e-10)
    assert gamma_deg(2.0, 0.1).value == pytest.approx(1.0 / (0.9 * 0.8), abs=1e-9)


def _gamma_beta(s: float, lam: float) -> float:
    """lam^(-s) Gamma(s) Gamma(1/lam - s) / Gamma(1/lam), in lgamma form."""
    return math.exp(math.lgamma(s) + math.lgamma(1.0 / lam - s)
                    - math.lgamma(1.0 / lam) - s * math.log(lam))


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 0.9), st.floats(0.0, 1.0))
def test_quadrature_matches_beta_sweep(lam, frac):
    s = 1e-6 * (0.9 / lam / 1e-6) ** frac  # log-uniform on [1e-6, 0.9/lam]
    assert abs(gamma_deg(s, lam).value / _gamma_beta(s, lam) - 1) <= 1e-9


def test_quadrature_small_s():
    # t^(s-1) is nearly 1/t at the endpoint t = 0 of the head
    for s in (1e-6, 1e-4, 3e-3, 0.01):
        assert abs(gamma_deg(s, 0.1).value / _gamma_beta(s, 0.1) - 1) <= 1e-9


# ---------------------------------------------------------------------------
# frozen 30-digit references (tests/data/make_gamma_references.py)
# ---------------------------------------------------------------------------

_REFERENCES = json.loads(
    (Path(__file__).parent / "data" / "gamma_references.json").read_text())

@pytest.mark.parametrize("row", [
    pytest.param(row, id=f"s={row['s']},lam={row['lambda']}") for row in _REFERENCES])
def test_frozen_reference_within_estimate(row):
    # exact rational comparison: the estimate must cover the error, no slack.
    # The near_threshold rows take eps = 1/lam - s down to 0.043, close to
    # where the tail map's power r stops at 64, and s = 0.00865 is the point
    # whose one-panel tail estimate fell 12x short (ROADMAP 1(d))
    q = gamma_deg(row["s"], row["lambda"])
    assert abs(F(q.value) - F(row["value"])) <= F(q.abs_error_estimate)


_SWEEP = json.loads((Path(__file__).parent / "data" / "gamma_sweep.json").read_text())


@pytest.mark.parametrize("row", [
    pytest.param(row, id=f"sweep{i}") for i, row in enumerate(_SWEEP)])
def test_quadrature_within_estimate_of_beta_sweep(row):
    # lambda uniform on [0.01, 0.9], s log-uniform on [1e-6, 0.9/lambda];
    # 4 eps of slack for the rounding of the value itself
    q = gamma_deg(row["s"], row["lambda"])
    err = float(abs(F(q.value) - F(row["value"])))
    assert err <= q.abs_error_estimate + 4 * 2.220446049250313e-16 * abs(q.value)


def test_mellin_failures_are_typed():
    with pytest.raises(DomainError, match="overflows the float range"):
        gamma_deg(500.0, 0.001)  # Gamma(500|0.001) is beyond the float range
    # 1.4e305: the tail's panel sums overflow unless the log form is scaled
    # down; the lgamma Beta form is good to ~1e-12 relative here
    q = gamma_deg(167.32, 0.001)
    beta = _gamma_beta(167.32, 0.001)
    assert abs(q.value - beta) <= q.abs_error_estimate + 1e-12 * beta
    assert q.value > 1.4e305
    # the head's 1/s is taken out in closed form, so small s is a value
    assert abs(gamma_deg(1e-3, 0.1).value / _gamma_beta(1e-3, 0.1) - 1) <= 1e-13


def test_tail_map_power_cap_fails_typed():
    # eps = 1/lambda - s = 0.005: the tail map's power stops at r = 64, which
    # leaves w^-0.68 at w = 0, and bisection reaches a w where u = w^64
    # underflows; that is a NonConvergentError, not a ZeroDivisionError
    with pytest.raises(NonConvergentError, match="u or u\\*w underflows"):
        gamma_deg(9.995, 0.1)


def test_small_lambda_approaches_classical():
    assert gamma_deg(0.5, 1e-4).value == pytest.approx(math.sqrt(math.pi), abs=1e-3)


def test_gamma_deg_domain_guards():
    with pytest.raises(DomainError):
        gamma_deg(10.0, 0.1)  # s >= 1/lambda: integral diverges
    with pytest.raises(DomainError):
        gamma_deg(1.0 / 0.1 - 1e-9, 0.1)  # inside the delta margin
    with pytest.raises(DomainError):
        gamma_deg(-0.5, 0.1)
    with pytest.raises(DomainError):
        gamma_deg(1.0, 1.5)


# ---------------------------------------------------------------------------
# classical gamma helper
# ---------------------------------------------------------------------------

def test_gamma_classical_integer_and_quadrature():
    assert gamma_classical(5.0) == 24.0
    assert gamma_classical(0.5) == pytest.approx(math.gamma(0.5), abs=1e-9)
    assert gamma_classical(2.5) == pytest.approx(math.gamma(2.5), abs=1e-9)
    with pytest.raises(DomainError):
        gamma_classical(0.0)
    with pytest.raises(DomainError, match="overflows"):
        gamma_classical(200.0)


# ---------------------------------------------------------------------------
# functional equation
# ---------------------------------------------------------------------------

def test_funceq_residuals_small():
    for s in (0.3, 0.7, 1.5):
        for lam in (0.1, 0.2):
            assert funceq_residual(s, lam) <= 1e-8


def test_funceq_integer_case_both_sides_closed():
    # s=1, lam=0.2: both sides equal Gamma(2|0.2) = 1/(0.8*0.6)
    assert funceq_residual(1.0, 0.2) <= 1e-8


def test_funceq_domain_guard():
    # s+1 = 3.4 exceeds 1/0.3 - delta
    with pytest.raises(DomainError):
        funceq_residual(2.4, 0.3)
    # s = 2.2 is inside s+1 < 1/lambda but outside s < (1-lam)/lam is fine:
    # 2.2 < 7/3, so this one must evaluate
    assert funceq_residual(2.2, 0.3) <= 1e-7


def test_chain_residual():
    assert funceq_chain_residual(3.5, 0.05, 1) <= 1e-7
    with pytest.raises(DomainError):
        funceq_chain_residual(1.5, 0.05, 1)  # s - (n+1) <= 0


# The sweeps keep every gamma argument at or below 0.9 of its threshold,
# clear of the band near it where the tail quadrature is least reliable.

@settings(max_examples=100, deadline=None)
@given(st.floats(0.01, 0.49), st.floats(0.0, 1.0))
def test_funceq_residual_sweep(lam, frac):
    # s+1 <= 0.9/lambda and s <= 0.9/lambda2, lambda2 = lambda/(1-lambda) < 1
    hi = min(0.9 / lam - 1.0, 0.9 * (1.0 - lam) / lam)
    s = 0.01 + frac * (hi - 0.01)
    assert funceq_residual(s, lam) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_funceq_chain_residual_sweep(n, u, frac):
    # s+1 <= 0.9/lambda and s-(n+1) <= 0.9/lambda2,
    # lambda2 = lambda/(1-(n+2)lambda) < 1
    lam = 0.01 + u * (0.99 / (n + 3) - 0.01)
    lo = n + 1.01
    hi = min(0.9 / lam - 1.0, n + 1 + 0.9 * (1.0 - (n + 2) * lam) / lam)
    s = lo + frac * (hi - lo)
    assert funceq_chain_residual(s, lam, n) <= 1e-9


def test_chain_reproduces_closed_form():
    chain = gamma_deg_via_chain(1, 0.05)
    closed = float(gamma_deg_closed(4, F(1, 20)))
    assert abs(chain - closed) / closed <= 1e-8


# ---------------------------------------------------------------------------
# residues at non-positive integers
# ---------------------------------------------------------------------------

def test_residue_base_cases():
    assert gamma_deg_residue(0, F(1, 3)).value == 1
    for lam in (F(1, 10), F(1, 2), F(3, 4)):
        assert gamma_deg_residue(1, lam).value == -1
    assert gamma_deg_residue(2, F(1, 2)).value == F(3, 4)


def test_residue_series_equals_product_form():
    for lam in (F(1, 10), F(1, 2)):
        for n in range(9):
            assert gamma_deg_residue(n, lam).value == residue_closed_form(n, lam)


def test_residue_lambda_zero_limit_matches_classical():
    # classical Gamma has residue (-1)^n / n! at -n
    lam = F(1, 10**9)
    for n in range(5):
        approx = float(residue_closed_form(n, lam))
        classical = (-1) ** n / math.factorial(n)
        assert abs(approx - classical) < 1e-6
