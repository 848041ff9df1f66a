"""Fast self-test of the benchmark runner (under a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches perfbench/metrics.py and the format's
limits, that every named metric is emitted for every workload, that a
perturbed result is counted as failed, and that a seed regenerates
byte-identical inputs in a fresh interpreter.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import metrics
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 7


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec == metrics.benchmark_json(), "BENCHMARK.json is stale: regenerate it"
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[group]]
        for m in spec[group]:
            assert UNIT.match(m["unit"]), m
            assert m["better"] in ("higher", "lower"), m
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in spec["end_to_end"])} in spec["end_to_end"]


def result_of(argv: list) -> dict:
    proc = subprocess.run([sys.executable, str(Path(run.__file__)), *argv],
                          capture_output=True, text=True, cwd=run.ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    return result["metrics"]


def check_every_metric_emitted() -> None:
    for workload in metrics.WORKLOADS:
        for trace, spec in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
            got = result_of(["--workload", workload, "--seed", str(SEED),
                             "--trace", str(trace), "--ops", "3"])
            assert set(got) == set(spec), (workload, trace, set(spec) ^ set(got))
            for name, value in got.items():
                assert value["unit"] == spec[name][0], (workload, name)
                assert isinstance(value["value"], (int, float)), (workload, name)
            print(f"ok   {workload} --trace {trace}: {len(got)} metrics")


def perturb(result):
    """The same result with its value moved off the correct one."""
    if isinstance(result, Exception):
        return math.nan
    if isinstance(result, Fraction):
        return result + 1
    if isinstance(result, float):
        return result * (1 + 1e-3) + 1e-3
    if isinstance(result, list):
        return result[:1] + [result[1] + 1] + result[2:]
    if dataclasses.is_dataclass(result):
        field = {"QuadResult": "value", "DiscrepancyReport": "winner",
                 "AltSumIdentityResult": "rhs"}[type(result).__name__]
        return dataclasses.replace(result, **{field: perturb(getattr(result, field))
                                              if field != "winner" else "plain"})
    return result + 1  # PolyRational


def check_perturbed_result_fails() -> None:
    import workloads as wl

    for workload in ("exact", "numeric", "continuation"):
        ops = wl.generate(workload, SEED)[:4]
        results = [wl.execute(wl.function(op[0]), op) for op in ops]
        assert wl.failed_ops(ops, results) == [], workload
        for i in range(len(ops)):
            bad = results[:i] + [perturb(results[i])] + results[i + 1:]
            assert i in wl.failed_ops(ops, bad), (workload, ops[i])
        print(f"ok   {workload}: each of {len(ops)} perturbed results is counted")
    argv = wl.generate("cli", SEED)[5]  # zeta-neg
    proc = run.run_child(["-m", "degzeta.cli", *argv])
    good = (argv, proc.returncode, proc.stdout)
    bad = (argv, proc.returncode, proc.stdout.replace("=", "= 1 +", 1))
    assert run.check_commands(wl, [good, bad]) == 1
    print("ok   cli: a perturbed stdout is counted")


def inputs_digest(workload: str) -> str:
    import workloads as wl

    return hashlib.sha256(repr(wl.generate(workload, SEED)).encode()).hexdigest()


def check_inputs_repeat() -> None:
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import selftest; "
            "print(selftest.inputs_digest(sys.argv[3]))")
    for workload in metrics.WORKLOADS:
        env = dict(os.environ, PYTHONHASHSEED="12345")
        child = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent),
                                str(run.SRC), workload], capture_output=True, text=True,
                               env=env, timeout=60, check=True).stdout.strip()
        assert child == inputs_digest(workload) == inputs_digest(workload), workload
        print(f"ok   {workload}: seed {SEED} regenerates identical inputs")


def main() -> int:
    if not (run.SRC / "degzeta" / "__init__.py").is_file():
        print("selftest: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    check_benchmark_json()
    print("ok   BENCHMARK.json matches perfbench/metrics.py")
    check_inputs_repeat()
    check_perturbed_result_fails()
    check_every_metric_emitted()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
