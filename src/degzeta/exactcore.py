"""Exact rational arithmetic layer.

Everything in this module is computed over arbitrary-precision rationals;
no floating point enters at any stage.  The central objects are the
degenerate Euler polynomials E_n(x|l), defined by the generating function

    2 (1+lt)^(x/l) / ((1+lt)^(1/l) + 1)  =  sum_n E_n(x|l) t^n / n!

together with the generalized falling factorial (y|l)_m = y(y-l)...(y-(m-1)l)
that drives the expansion of (1+lt)^(y/l):

    (1+lt)^(y/l) = sum_m (y|l)_m t^m / m!        (valid termwise for l = 0 too,
                                                  where it degenerates to e^(yt))

One integer kernel, `euler_scaled`, produces E_n(x|l) for a rational x.
In u = log(1+lt)/l the generating function is e^(xu) g(u), g(u) = 2/(e^u+1),
and d/dt = e^(-lu) d/du, whence E_n(x|l) = [prod_{j<n} (d/du + x - jl) g](0).
With l = p/q, x = a/b and D = bq the kernel applies these factors to the
derivatives E_k(0) of g at 0 scaled by powers of 2D, all integers, in O(n^2)
small-by-large products; it yields F_n = (2D)^n E_n(x|l), and each value
is divided out once.
`euler_poly_deg_values` reads values from it directly; `euler_poly_deg`
takes the numbers E_k(0|l) from it and combines them with the integer
falling-factorial polynomials q^m (x|l)_m through the product form

    E_n(x|l) = sum_k C(n,k) E_k(0|l) (x|l)_{n-k},

over the single denominator (2q)^n.  An independent route to E_n(x|l),
brute-force truncated-series division of the generating function
(`series_oracle`), must agree exactly; the test suite and the `verify`
command enforce this.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, islice
from math import comb
from operator import mul
from typing import Iterator, Sequence, Union

__all__ = [
    "as_rational",
    "PolyRational",
    "TruncatedSeries",
    "ffd",
    "ffd_scaled",
    "kernel_series",
    "kernel_series_in_x",
    "euler_scaled",
    "euler_poly_deg",
    "euler_poly_classic",
    "euler_number_deg",
    "euler_poly_deg_values",
    "series_oracle",
    "AltSumIdentityResult",
    "check_alternating_sum_identity",
]

RationalLike = Union[int, Fraction, str]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q"/decimal string to an exact Fraction.

    Floats are rejected: the exact layer never accepts rounded input.
    """
    if isinstance(value, float):
        raise TypeError("exact layer requires int, Fraction, or string, not float")
    return Fraction(value)


class PolyRational:
    """Univariate polynomial in x with exact rational coefficients.

    Coefficients are stored in ascending powers with trailing zeros
    stripped, so the leading coefficient is nonzero except for the zero
    polynomial (stored as a single zero coefficient).  Instances are
    immutable and hashable.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[RationalLike] = (0,)):
        cs = [as_rational(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        self._coeffs = tuple(cs)

    @classmethod
    def constant(cls, c: RationalLike) -> "PolyRational":
        return cls([c])

    @classmethod
    def x(cls) -> "PolyRational":
        return cls([0, 1])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return self._coeffs == (Fraction(0),)

    def coeff(self, k: int) -> Fraction:
        return self._coeffs[k] if 0 <= k < len(self._coeffs) else Fraction(0)

    def __call__(self, x: RationalLike) -> Fraction:
        xf = as_rational(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * xf + c
        return acc

    def __add__(self, other) -> "PolyRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return PolyRational([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __sub__(self, other) -> "PolyRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return PolyRational([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __mul__(self, other) -> "PolyRational":
        if isinstance(other, (int, Fraction)):
            return PolyRational([c * other for c in self._coeffs])
        if not isinstance(other, PolyRational):
            return NotImplemented
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return PolyRational(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "PolyRational":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return PolyRational([c / scalar for c in self._coeffs])

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    @staticmethod
    def _coerce(other):
        if isinstance(other, PolyRational):
            return other
        if isinstance(other, (int, Fraction)):
            return PolyRational([other])
        return NotImplemented

    def __repr__(self) -> str:
        return f"PolyRational({[str(c) for c in self._coeffs]})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{k}" if c != 1 else f"x^{k}")
        return " + ".join(parts).replace("+ -", "- ")


class TruncatedSeries:
    """Formal power series in t, exact coefficients, fixed truncation order.

    Represents sum_{k<=N} c_k t^k + O(t^(N+1)).  The coefficients may be
    Fractions or PolyRationals (any exact ring with +, -, * and division
    by the divisor's constant term); arithmetic is exact up to the order.
    Division requires an invertible constant term in the divisor.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence, order: int | None = None):
        cs = list(coeffs)
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            cs = cs[: order + 1] + [Fraction(0)] * (order + 1 - len(cs))
        if not cs:
            raise ValueError("series needs at least the constant coefficient")
        self._coeffs = tuple(cs)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def coeff(self, k: int):
        return self._coeffs[k]

    def _common_order(self, other: "TruncatedSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other: int | Fraction) -> "TruncatedSeries":
        """Add a constant to the constant term."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        cs = list(self._coeffs)
        cs[0] = cs[0] + other
        return TruncatedSeries(cs)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([c * other for c in self._coeffs])
        n = self._common_order(other)
        out = []
        for k in range(n + 1):
            acc = self._coeffs[0] * other._coeffs[k]
            for j in range(1, k + 1):
                acc = acc + self._coeffs[j] * other._coeffs[k - j]
            out.append(acc)
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Exact long division; (a / b) * b reproduces a up to the order."""
        n = self._common_order(other)
        b0 = other._coeffs[0]
        if b0 == 0:
            raise ZeroDivisionError("divisor constant term is not invertible")
        q = []
        for k in range(n + 1):
            acc = self._coeffs[k]
            for j in range(1, k + 1):
                acc = acc - other._coeffs[j] * q[k - j]
            q.append(acc / b0)
        return TruncatedSeries(q)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, coeffs={list(self._coeffs)!r})"


def ffd_scaled(l: Fraction, lam: Fraction) -> Iterator[int]:
    """Yield the integers D^m (l|lam)_m = prod_{j<m} (aq - jpb), m = 0, 1, ...

    Here l = a/b, lam = p/q and D = bq, so every factor is an integer and
    (l|lam)_m is the m-th yielded value over D^m.
    """
    base = l.numerator * lam.denominator
    step = lam.numerator * l.denominator
    num = 1
    for j in count():
        yield num
        num *= base - j * step


def ffd(l: RationalLike, lam: RationalLike, m: int) -> Fraction:
    """Generalized falling factorial (l|lam)_m = l(l-lam)...(l-(m-1)lam).

    (l|lam)_0 = 1 by convention; at lam = 0 this collapses to l^m.  The
    product is taken over integers and divided once.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    lf = as_rational(l)
    lamf = as_rational(lam)
    num = next(islice(ffd_scaled(lf, lamf), m, None))
    return Fraction(num, (lf.denominator * lamf.denominator) ** m)


def kernel_series(y: RationalLike, lam: RationalLike, order: int) -> TruncatedSeries:
    """Expansion of (1+lam*t)^(y/lam) to the given order.

    Coefficient of t^m is (y|lam)_m / m!; the lam = 0 limit e^(yt) falls
    out of the same formula.
    """
    yf = as_rational(y)
    lamf = as_rational(lam)
    coeffs = []
    num = Fraction(1)
    fact = 1
    for m in range(order + 1):
        if m > 0:
            num *= yf - (m - 1) * lamf
            fact *= m
        coeffs.append(num / fact)
    return TruncatedSeries(coeffs)


def kernel_series_in_x(lam: RationalLike, order: int) -> TruncatedSeries:
    """Expansion of (1+lam*t)^(x/lam) with x left symbolic.

    Coefficient of t^m is the polynomial (x|lam)_m / m!.
    """
    lamf = as_rational(lam)
    x = PolyRational.x()
    coeffs: list = []
    num = PolyRational.constant(1)
    fact = 1
    for m in range(order + 1):
        if m > 0:
            num = num * (x - PolyRational.constant((m - 1) * lamf))
            fact *= m
        coeffs.append(num / Fraction(fact))
    return TruncatedSeries(coeffs)


def _euler_zero_scaled() -> Iterator[int]:
    """Yield 2^n E_n(0): 1, then 0 at even n and (-1)^m T_n at n = 2m - 1,
    the tangent numbers T_n ending the rows of Seidel's boustrophedon."""
    yield 1
    row = [1]
    for n in count(1):
        row = list(accumulate(reversed(row), initial=0))
        yield 0 if n % 2 == 0 else row[-1] if n % 4 == 3 else -row[-1]


def euler_scaled(x: Fraction, lam: Fraction) -> Iterator[int]:
    """Yield the integers F_n = (2D)^n E_n(x|lam), n = 0, 1, ..., D = bq.

    With x = a/b and lam = p/q, V^(j)_k = (2D)^(j+k) times the k-th
    derivative at 0 of prod_{i<j} (d/du + x - i lam) g (module docstring) gives

        V^(0)_k = D^k 2^k E_k(0),  V^(j+1)_k = V^(j)_{k+1} + 2(aq - jpb) V^(j)_k,

    all integers, and F_n = V^(n)_0.  Each new n pushes V^(0)_n onto the
    kept anti-diagonal j + k = n - 1 and sweeps it once, one small-by-large
    product and one addition per entry; the generator can be resumed to
    extend the sequence to any depth.
    """
    a, b = x.numerator, x.denominator
    p, q = lam.numerator, lam.denominator
    diag: list[int] = []  # V^(j)_{n-1-j}, j = 0..n-1
    steps: list[int] = []  # 2(aq - jpb), j = 0..n-1
    d_pow = 1
    for n, e in enumerate(_euler_zero_scaled()):
        diag = list(accumulate(map(mul, steps, diag), initial=d_pow * e))
        yield diag[-1]
        d_pow *= b * q
        steps.append(2 * (a * q - n * p * b))


def euler_poly_deg(n: int, lam: RationalLike) -> PolyRational:
    """Degenerate Euler polynomial E_n(x|lam), exact in x.

    The generating function factors as [2 / ((1+lam*t)^(1/lam) + 1)] times
    (1+lam*t)^(x/lam), which gives the product form

        E_n(x|lam) = sum_k C(n,k) E_k(0|lam) (x|lam)_{n-k}.

    With lam = p/q the numbers (2q)^k E_k(0|lam) come from `euler_scaled`
    and q^m (x|lam)_m = prod_{j<m} (qx - jp) are integer polynomials, so
    the sum is taken over integers and divided once by (2q)^n.  This route
    is validated against `series_oracle` (exact equality for all n)
    before anything downstream trusts it.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    lamf = as_rational(lam)
    p, q = lamf.numerator, lamf.denominator
    numbers = list(islice(euler_scaled(Fraction(0), lamf), n + 1))
    acc = [0] * (n + 1)
    basis = [1]  # ascending coefficients of q^m (x|lam)_m
    for m in range(n + 1):
        weight = comb(n, m) * numbers[n - m] << m
        for i, c in enumerate(basis):
            acc[i] += weight * c
        shift = m * p
        basis = [q * hi - shift * lo for lo, hi in zip(basis + [0], [0] + basis)]
    den = (2 * q) ** n
    return PolyRational([Fraction(c, den) for c in acc])


def euler_poly_classic(n: int) -> PolyRational:
    """Classical Euler polynomial E_n(x), the lam = 0 member of the family."""
    return euler_poly_deg(n, 0)


def euler_number_deg(n: int, lam: RationalLike) -> Fraction:
    """Degenerate Euler number E_n(lam) = E_n(0|lam)."""
    return euler_poly_deg(n, lam)(0)


def euler_poly_deg_values(n_max: int, x: RationalLike, lam: RationalLike) -> list[Fraction]:
    """Values E_0(x|lam), ..., E_{n_max}(x|lam) at a fixed rational x.

    Each is the integer (2D)^n E_n(x|lam) from `euler_scaled` (x = a/b,
    lam = p/q, D = bq) divided out once.  The kernel applies

        E_n(x|lam) = [prod_{j<n} (d/du + x - j lam) g](0),  g(u) = 2/(e^u + 1),

    to the derivatives of g at 0 scaled by powers of 2D: O(n_max^2)
    small-by-large products, on integers that grow with n.  The zeta
    continuation does not call this: its Taylor coefficients come from
    `zetadeg._certified_coeffs`, which falls back on `euler_scaled` itself.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    xf = as_rational(x)
    lamf = as_rational(lam)
    two_d = 2 * xf.denominator * lamf.denominator
    return [Fraction(f, two_d ** n)
            for n, f in enumerate(islice(euler_scaled(xf, lamf), n_max + 1))]


def series_oracle(n_max: int, lam: RationalLike) -> list[PolyRational]:
    """Brute-force E_n(x|lam) for n = 0..n_max by generating-function division.

    Expands numerator 2(1+lam*t)^(x/lam) and denominator (1+lam*t)^(1/lam)+1
    as truncated series and divides; entry n is n! times the coefficient of
    t^n.  Independent of the recurrence route by construction.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    lamf = as_rational(lam)
    num = kernel_series_in_x(lamf, n_max) * Fraction(2)
    den = kernel_series(1, lamf, n_max) + Fraction(1)
    quot = num / den
    out = []
    fact = 1
    for n in range(n_max + 1):
        if n > 0:
            fact *= n
        c = quot.coeff(n)
        if isinstance(c, Fraction):
            c = PolyRational.constant(c)
        out.append(c * Fraction(fact))
    return out


@dataclass(frozen=True)
class AltSumIdentityResult:
    """Exact adjudication of the finite alternating-sum identity.

    rhs is 2 sum_{l=0}^{n} (-1)^l (l|lam)_m.  Two candidate left-hand
    sides circulate for it:

        plain:   E_m(lam) + E_m(n+1|lam)
        signed:  E_m(lam) + (-1)^n E_m(n+1|lam)

    The signed form is what the finite geometric sum of
    (-(1+lam*t)^(1/lam))^l actually yields; the plain form only matches
    when n is even.  Both are reported, nothing is silently fixed.
    """

    m: int
    n: int
    lam: Fraction
    lhs_plain: Fraction
    lhs_signed: Fraction
    rhs: Fraction
    plain_holds: bool
    signed_holds: bool


def check_alternating_sum_identity(m: int, n: int, lam: RationalLike) -> AltSumIdentityResult:
    """Evaluate both candidate forms of the alternating-sum identity exactly."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    lamf = as_rational(lam)
    rhs = 2 * sum(((-1) ** l) * ffd(l, lamf, m) for l in range(n + 1))
    poly = euler_poly_deg(m, lamf)
    e_num = poly(0)
    e_shift = poly(n + 1)
    lhs_plain = e_num + e_shift
    lhs_signed = e_num + ((-1) ** n) * e_shift
    return AltSumIdentityResult(
        m=m,
        n=n,
        lam=lamf,
        lhs_plain=lhs_plain,
        lhs_signed=lhs_signed,
        rhs=Fraction(rhs),
        plain_holds=lhs_plain == rhs,
        signed_holds=lhs_signed == rhs,
    )
