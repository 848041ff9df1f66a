"""Write zeta_references.json: 30-digit values of the Euler zeta series.

Run from the repository root with mpmath installed:

    python3 tests/data/make_zeta_references.py

Each point is summed with `mpmath.nsum` at 50 working digits and stored
with 30 significant digits.  For lambda > 0 the series is the closed form
of the degenerate zeta,

    2 Gamma(1/l)/Gamma(1/l-s) sum_m (-1)^m Gamma((m+x)/l - s)/Gamma((m+x)/l),

and for lambda = 0 the classical 2 sum_m (-1)^m (m+x)^(-s).  The inputs
are evaluated at the binary values of the floats the library receives.
The tests read the JSON only; they do not import mpmath.

`mp.nsum` can be wrong without warning: at (s, x, l) = (10, 50, 0.001) it
returns 4.74e-48 where the sum is 5.64e-48.  Each point below was also
checked against another route (Mellin quadrature by `mp.quad`, the
Hurwitz zeta, digamma for integer s, or at (120, 0.5, 0.001) direct
summation of the finite products), so check any point you add.
"""

from __future__ import annotations

import json
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


def reference(s: float, x: float, lam: float) -> mp.mpf:
    s, x = mp.mpf(s), mp.mpf(x)
    if lam == 0:
        return 2 * mp.nsum(lambda m: (-1) ** int(m) * (m + x) ** -s, [0, mp.inf])
    lam = mp.mpf(lam)

    def ratio(a):
        return mp.gamma(a - s) / mp.gamma(a)

    total = mp.nsum(lambda m: (-1) ** int(m) * ratio((m + x) / lam), [0, mp.inf])
    return 2 * total / ratio(1 / lam)


def main() -> None:
    mp.mp.dps = 50
    rows = [{"s": s, "x": x, "lambda": lam,
             "value": mp.nstr(reference(s, x, lam), 30, min_fixed=1, max_fixed=0)}
            for s, x, lam in POINTS]
    out = Path(__file__).with_name("zeta_references.json")
    out.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
