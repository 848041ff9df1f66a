"""Workloads and metrics of the degzeta benchmark, and what each should move.

This is the one source of `BENCHMARK.json` (``python3 perfbench/run.py
--write-benchmark-json`` regenerates it).  The file format has no room for
the prediction of each per-layer metric, so `PER_LAYER` keeps it here and
every traced run prints it next to the numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 20

WORKLOADS = {
    "exact": "rational-only ops on a fresh lambda=p/q each: time is Fraction "
             "arithmetic in exactcore and none is in numerics",
    "numeric": "positive-s gamma and zeta routes at float points, 5% of gamma_deg and "
               "zeta_deg_mellin requests at rel_tol=1e-14: GK15 panels and gamma_classical, "
               "exactcore idle",
    "continuation": "negative-s continuation on a small (x, lambda) pool, 97% of ops "
                    "repeat a pair: first-seen pairs set the tail, cached ones the median",
    "cli": "a fixed session of degzeta CLI processes, verify --suite all included: "
           "interpreter start, import, cli and verify",
}

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_tail_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
}

# Fixed tail percentile of each workload, the same at every commit so that
# tails compare, and placed inside one cost class of the workload's ops
# (exact: the second-deepest size; numeric: the tight-tolerance requests;
# continuation: first-seen pairs; cli: zeta at negative s), so that it does
# not jump with the number of ops a run completes.  A timed phase runs ops
# until ten samples lie beyond it.
TAIL_PERCENTILE = {"exact": 87.0, "numeric": 98.0, "continuation": 98.0, "cli": 80.0}

# name -> (unit, better, "end-to-end metric on workload it should move")
PER_LAYER = {
    "exactcore.calls": ("count", "lower", "ops_per_s on exact"),
    "exactcore.self_s": ("s", "lower", "ops_per_s on exact; latency_tail_ms, ops_per_s on continuation"),
    "exactcore.max_order": ("count", "lower", "ops_per_s on exact (input property)"),
    "exactcore.lambda_den_bits_max": ("bits", "lower", "latency_tail_ms on continuation (input property)"),
    "numerics.self_s": ("s", "lower", "ops_per_s, latency_p50_ms on numeric"),
    "numerics.quad.calls": ("count", "lower", "ops_per_s on numeric"),
    "numerics.quad.panels": ("count", "lower", "ops_per_s, latency_p50_ms on numeric"),
    "numerics.quad.integrand_evals": ("count", "lower", "ops_per_s, latency_p50_ms on numeric"),
    "numerics.quad.nonconvergent": ("count", "lower", "latency_tail_ms on numeric"),
    "numerics.euler_transform.terms": ("count", "lower", "latency_p50_ms on numeric"),
    "numerics.richardson.samples": ("count", "lower", "ops_per_s on continuation"),
    "gammadeg.self_s": ("s", "lower", "latency_p50_ms on numeric"),
    "gammadeg.gamma_deg.calls": ("count", "lower", "latency_p50_ms on numeric"),
    "gammadeg.gamma_classical.calls": ("count", "lower", "latency_p50_ms on numeric"),
    "zetadeg.self_s": ("s", "lower", "ops_per_s on continuation and numeric"),
    "zetadeg.series.calls": ("count", "lower", "ops_per_s on numeric"),
    "zetadeg.mellin.calls": ("count", "lower", "ops_per_s on numeric"),
    "zetadeg.int.calls": ("count", "lower", "ops_per_s on numeric"),
    "zetadeg.continued.calls": ("count", "lower", "ops_per_s on continuation"),
    "zetadeg.neg.calls": ("count", "lower", "ops_per_s on exact"),
    "zetadeg.discrepancy.calls": ("count", "lower", "ops_per_s on continuation"),
    "zetadeg.continued.first_ms": ("ms", "lower", "latency_tail_ms on continuation"),
    "zetadeg.continued.repeat_ms": ("ms", "lower", "latency_p50_ms on continuation"),
    "zetadeg.repeat_share": ("ratio", "higher", "latency_p50_ms on continuation (input property)"),
    "verify.exactcore.s": ("s", "lower", "latency_tail_ms on cli"),
    "verify.gamma.s": ("s", "lower", "latency_tail_ms on cli"),
    "verify.zeta.s": ("s", "lower", "latency_tail_ms on cli"),
    "verify.discrepancy.s": ("s", "lower", "latency_tail_ms on cli"),
    "cli.interpreter_s": ("s", "lower", "latency_p50_ms on cli"),
    "cli.import_s": ("s", "lower", "latency_p50_ms on cli"),
    "trace.overhead_share": ("ratio", "lower", "none: cost of the traced run itself"),
}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [{"name": k, "unit": u, "better": b, "bound": bound}
                       for k, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": k, "unit": u, "better": b}
                      for k, (u, b, _) in PER_LAYER.items()],
    }


def write_benchmark_json(root: Path) -> None:
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    (root / "BENCHMARK.json").write_text(text, encoding="utf-8")
