"""Write zeta_references.json: 30-digit values of the Euler zeta series.

Run from the repository root with mpmath installed:

    python3 tests/data/make_zeta_references.py

Each point is summed with `mpmath.nsum` at 50 working digits and stored
with 30 significant digits.  For lambda > 0 the series is the closed form
of the degenerate zeta,

    2 Gamma(1/l)/Gamma(1/l-s) sum_m (-1)^m Gamma((m+x)/l - s)/Gamma((m+x)/l),

and for lambda = 0 the classical 2 sum_m (-1)^m (m+x)^(-s).  At s < 0
that series diverges, and its value, the continuation, is taken as
2^(1-s) (zeta(s, x/2) - zeta(s, (x+1)/2)) with the Hurwitz zeta and
checked against 2 lerchphi(-1, s, x) to 1e-40 relative.  The inputs
are evaluated at the binary values of the floats the library receives.
The tests read the JSON only; they do not import mpmath.

`mp.nsum` can be wrong without warning: at (s, x, l) = (10, 50, 0.001) it
returns 4.74e-48 where the sum is 5.64e-48.  Each point below was also
checked against another route (Mellin quadrature by `mp.quad`, the
Hurwitz zeta, digamma for integer s, or at (120, 0.5, 0.001) direct
summation of the finite products), so check any point you add.

It also writes zeta_sweep.json: the degenerate series at SWEEP_SIZE
points drawn from a seeded generator, x uniform on [0.5, 3], lambda
uniform on [0.01, min(0.9, 0.95 x)] and s log-uniform on
[1e-6, 0.9 min(1, x)/lambda].  Each is checked by `mellin`, the Mellin
integral by `mp.quad` over Gamma(s|lambda) in its Beta form, and the two
must agree to 1e-20 relative.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import mpmath as mp

# (s, x, lambda); lambda = 0 is the classical zeta
POINTS = [
    (0.5, 0.5, 0.0),
    (1.0, 1.0, 0.0),
    (2.5, 1.0, 0.0),
    (12.0, 2.0, 0.0),
    (20.0, 3.0, 0.0),
    (30.0, 5.0, 0.0),
    (-0.5, 1.0, 0.0),
    (-1.4000532013030251, 0.7345366536925736, 0.0),
    (-1.9, 3.0, 0.0),
    (-0.25, 2.0, 0.0),
    (-2.1, 0.5, 0.0),
    (0.2, 2.0, 0.3),
    (0.75, 0.8, 0.25),
    (1.5, 1.0, 0.01),
    (2.5, 1.0, 0.1),
    (3.977, 1.99, 0.05),
    (4.2, 2.5, 0.2),
    (7.3, 3.0, 0.1),
    (1.0, 0.7, 0.3),
    (2.0, 1.0, 0.1),
    (2.0, 0.25, 0.3),
    (3.0, 2.0, 0.05),
    (5.0, 1.5, 0.15),
    (15.0, 3.0, 0.05),
    (17.0, 0.9, 0.05),
    (120.0, 0.5, 0.001),
]

SWEEP_SEED = 1
SWEEP_SIZE = 30


def sweep_points() -> list[tuple[float, float, float]]:
    rng = random.Random(SWEEP_SEED)
    points = []
    for _ in range(SWEEP_SIZE):
        x = rng.uniform(0.5, 3.0)
        lam = rng.uniform(0.01, min(0.9, 0.95 * x))
        s = 1e-6 * (0.9 * min(1.0, x) / lam / 1e-6) ** rng.random()
        points.append((s, x, lam))
    return points


def reference(s: float, x: float, lam: float) -> mp.mpf:
    s, x = mp.mpf(s), mp.mpf(x)
    if lam == 0 and s < 0:
        value = 2 ** (1 - s) * (mp.zeta(s, x / 2) - mp.zeta(s, (x + 1) / 2))
        check = 2 * mp.lerchphi(-1, s, x)
        if abs(check / value - 1) > mp.mpf("1e-40"):
            raise SystemExit(f"zeta({s}, {x}): Hurwitz {value} vs Lerch {check}")
        return value
    if lam == 0:
        return 2 * mp.nsum(lambda m: (-1) ** int(m) * (m + x) ** -s, [0, mp.inf])
    lam = mp.mpf(lam)

    def ratio(a):
        return mp.gamma(a - s) / mp.gamma(a)

    total = mp.nsum(lambda m: (-1) ** int(m) * ratio((m + x) / lam), [0, mp.inf])
    return 2 * total / ratio(1 / lam)


def mellin(s: float, x: float, lam: float) -> mp.mpf:
    """int_0^inf 2 (1+lt)^(-x/l) / ((1+lt)^(-1/l) + 1) t^(s-1) dt / Gamma(s|l).

    The head is taken in t = u^(1/s), where t^(s-1) dt = du / s; the tail
    is split at t = 2^k, k <= 64, so that its peak, near
    t = (s-1)/(x - l(s-1)) for s > 1, lies inside one short piece.
    """
    s, x, lam = mp.mpf(s), mp.mpf(x), mp.mpf(lam)

    def kern(t):
        e = (1 + lam * t) ** (-1 / lam)
        return 2 * e**x / (e + 1)

    head = mp.quad(lambda u: kern(u ** (1 / s)), [0, 1]) / s
    tail = mp.quad(lambda t: kern(t) * t ** (s - 1), [2**k for k in range(65)] + [mp.inf])
    gamma = lam**-s * mp.gamma(s) * mp.gamma(1 / lam - s) / mp.gamma(1 / lam)
    return (head + tail) / gamma


def swept(s: float, x: float, lam: float) -> dict:
    value = reference(s, x, lam)
    check = mellin(s, x, lam)
    if abs(check / value - 1) > mp.mpf("1e-20"):
        raise SystemExit(f"zeta({s}, {x}|{lam}): series {value} vs quadrature {check}")
    return {"s": s, "x": x, "lambda": lam,
            "value": mp.nstr(value, 30, min_fixed=1, max_fixed=0)}


def write(name: str, rows: list[dict]) -> None:
    out = Path(__file__).with_name(name)
    out.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


def main() -> None:
    mp.mp.dps = 50
    write("zeta_references.json",
          [{"s": s, "x": x, "lambda": lam,
            "value": mp.nstr(reference(s, x, lam), 30, min_fixed=1, max_fixed=0)}
           for s, x, lam in POINTS])
    write("zeta_sweep.json", [swept(s, x, lam) for s, x, lam in sweep_points()])


if __name__ == "__main__":
    main()
