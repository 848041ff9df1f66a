"""Write gamma_references.json: 30-digit values of Gamma(s|lambda).

Run from the repository root with mpmath installed:

    python3 tests/data/make_gamma_references.py

Each value is the Beta form

    Gamma(s|l) = l^(-s) Gamma(s) Gamma(1/l - s) / Gamma(1/l)

at 50 working digits, stored with 30 significant digits.  Before it is
written, it is checked against `mp.quad` of the defining integral
int_0^inf (1+lt)^(-1/l) t^(s-1) dt, split at t = 1.  The head is
integrated in t = u^(1/s) and the tail in t = w^(-1/(a-s)), a = 1/l,
which turn both endpoint powers into constants, so that tanh-sinh keeps
its digits even where the tail decays like t^(-1.06); the two must
agree to 1e-25 relative.  The inputs are evaluated at the binary values
of the floats the library receives.  The tests read the JSON only; they
do not import mpmath.

Each row is tagged: "small_s" (s <= 0.2), "regular", or "near_threshold"
(s*l ~ 0.945, lambda >= 0.86, where the tail's error estimate is known to
fall short of its error).
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

# (s, lambda, kind)
POINTS = [
    (1e-6, 0.1, "small_s"),
    (1e-5, 0.5, "small_s"),
    (1e-4, 0.9, "small_s"),
    (1e-3, 0.1, "small_s"),
    (3e-3, 0.1, "small_s"),
    (7e-3, 0.3, "small_s"),
    (0.03, 0.1, "small_s"),
    (0.05, 0.6, "small_s"),
    (0.2, 0.1, "small_s"),
    (0.2, 0.8, "small_s"),
    (0.5, 0.1, "regular"),
    (1.205, 0.13, "regular"),
    (2.5, 0.2, "regular"),
    (7.3, 0.1, "regular"),
    (12.5, 0.05, "regular"),
    (1.076, 0.879, "near_threshold"),
    (1.1, 0.86, "near_threshold"),
    (1.05, 0.9, "near_threshold"),
]


def beta_form(s: float, lam: float) -> mp.mpf:
    s, lam = mp.mpf(s), mp.mpf(lam)
    return lam**-s * mp.gamma(s) * mp.gamma(1 / lam - s) / mp.gamma(1 / lam)


def integral(s: float, lam: float) -> mp.mpf:
    s, lam = mp.mpf(s), mp.mpf(lam)

    def kern(t):
        return (1 + lam * t) ** (-1 / lam)

    # head, t = u^(1/s): t^(s-1) dt = du / s
    head = mp.quad(lambda u: kern(u ** (1 / s)), [0, 1]) / s
    # tail, t = 1/v, v = w^(1/(a-s)): kern(t) t^(s-1) dt = (v + l)^(-a) dw / (a-s)
    a = 1 / lam
    tail = mp.quad(lambda w: (w ** (1 / (a - s)) + lam) ** -a, [0, 1]) / (a - s)
    return head + tail


def main() -> None:
    mp.mp.dps = 50
    rows = []
    for s, lam, kind in POINTS:
        value = beta_form(s, lam)
        check = integral(s, lam)
        if abs(check / value - 1) > mp.mpf("1e-25"):
            raise SystemExit(f"Gamma({s}|{lam}): Beta form {value} vs quadrature {check}")
        rows.append({"s": s, "lambda": lam, "kind": kind,
                     "value": mp.nstr(value, 30, min_fixed=1, max_fixed=0)})
    out = Path(__file__).with_name("gamma_references.json")
    out.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
