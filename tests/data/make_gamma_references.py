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
its digits even where the tail decays like t^(-1.06); the tail is split
where 1/t = l 2^k, k >= -20, since at small l its integrand falls from
l^(-a) as 1/t leaves 0.  The two must agree to 1e-25 relative.  The inputs are evaluated at the binary values
of the floats the library receives.  The tests read the JSON only; they
do not import mpmath.

Each row is tagged: "small_s" (s <= 0.2), "regular", or "near_threshold"
(s*l >= 0.945, where the tail decays like t^(-1-eps), eps = 1/l - s < 1).

It also writes gamma_sweep.json: the same values at SWEEP_SIZE points
drawn from a seeded generator, lambda uniform on [0.01, 0.9] and s
log-uniform on [1e-6, 0.9/lambda], checked the same way.
"""

from __future__ import annotations

import json
import random
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
    (9.037435379717103, 0.1101307170454768, "near_threshold"),
    (0.008650747635746771, 0.194981252284834, "small_s"),
]

SWEEP_SEED = 1
SWEEP_SIZE = 60


def sweep_points() -> list[tuple[float, float]]:
    rng = random.Random(SWEEP_SEED)
    points = []
    for _ in range(SWEEP_SIZE):
        lam = rng.uniform(0.01, 0.9)
        s = 1e-6 * (0.9 / lam / 1e-6) ** rng.random()
        points.append((s, lam))
    return points


def beta_form(s: float, lam: float) -> mp.mpf:
    s, lam = mp.mpf(s), mp.mpf(lam)
    return lam**-s * mp.gamma(s) * mp.gamma(1 / lam - s) / mp.gamma(1 / lam)


def integral(s: float, lam: float) -> mp.mpf:
    s, lam = mp.mpf(s), mp.mpf(lam)

    def kern(t):
        return (1 + lam * t) ** (-1 / lam)

    # head, t = u^(1/s): t^(s-1) dt = du / s
    head = mp.quad(lambda u: kern(u ** (1 / s)), [0, 1]) / s
    # tail, t = 1/v, v = w^(1/e), e = a-s: kern(t) t^(s-1) dt = (v + l)^(-a) dw / e,
    # split where v = l 2^k, so that no piece spans the fall from l^(-a) at v = 0
    a = 1 / lam
    e = a - s
    cuts = [(lam * mp.mpf(2) ** k) ** e for k in range(-20, int(-mp.log(lam, 2)) + 1)]
    tail = mp.quad(lambda w: (w ** (1 / e) + lam) ** -a, [0] + cuts + [1]) / e
    return head + tail


def checked(s: float, lam: float) -> str:
    value = beta_form(s, lam)
    check = integral(s, lam)
    if abs(check / value - 1) > mp.mpf("1e-25"):
        raise SystemExit(f"Gamma({s}|{lam}): Beta form {value} vs quadrature {check}")
    return mp.nstr(value, 30, min_fixed=1, max_fixed=0)


def write(name: str, rows: list[dict]) -> None:
    out = Path(__file__).with_name(name)
    out.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


def main() -> None:
    mp.mp.dps = 50
    write("gamma_references.json",
          [{"s": s, "lambda": lam, "kind": kind, "value": checked(s, lam)}
           for s, lam, kind in POINTS])
    write("gamma_sweep.json",
          [{"s": s, "lambda": lam, "value": checked(s, lam)} for s, lam in sweep_points()])


if __name__ == "__main__":
    main()
