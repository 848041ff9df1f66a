"""Benchmark runner for degzeta: seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Ops run one at a time, in a closed loop, in this process (the ``cli``
workload: one child process per command).  Each run is a fresh interpreter,
so the library's caches start empty and what repeats is a property of the
workload's inputs.

``--trace 0`` measures for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` runs a fixed number of ops untraced, then the same ops again
in a traced child interpreter, and prints the per-layer metrics; the fixed
count makes the work counters repeat exactly for a seed.  The last line of
stdout is the result object; the line before it holds the details (input
properties, the tail percentile and its sample count, the error share, and
what each per-layer metric should move).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
PROBE_REPEATS = 5
CHILD_TIMEOUT_S = 150
# Ops per traced run, a fixed count so that the work counters repeat.
TRACE_OPS = {"exact": 30, "numeric": 600, "continuation": 330, "cli": 7}
TRACE_MARK = "PERFBENCH_TRACE "
CLI_TRACED = "--cli-traced"
TAIL_SAMPLES = 10
VERIFY_SUITES = ("exactcore", "gamma", "zeta", "discrepancy")


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(argv: list) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)


def min_ops(workload: str) -> int:
    """Ops a timed phase runs at least, so ten samples lie beyond the tail."""
    return math.ceil(TAIL_SAMPLES / (1.0 - metrics.TAIL_PERCENTILE[workload] / 100.0)) + 1


def percentile(sorted_values: list, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_probe_once(workload: str, seed: int) -> float:
    """Seconds from spawning an interpreter to its inputs being ready."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, __file__, "--setup-probe",
                           "--workload", workload, "--seed", str(seed)],
                          stdout=subprocess.PIPE, text=True, env=child_env(),
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return ready - start


# ---------------------------------------------------------------------------
# timed phases
# ---------------------------------------------------------------------------

def run_ops(wl, ops: list, seconds: float | None, at_least: int = 0,
            fns: dict | None = None):
    """Run ops in order until ``seconds`` have passed and ``at_least`` ran.

    With ``seconds`` None every op runs.
    """
    fns = fns or {fn: wl.function(fn) for fn in {op[0] for op in ops}}
    latencies, results = [], []
    start = now = time.perf_counter()
    deadline = math.inf if seconds is None else start + seconds
    for op in ops:
        t0 = time.perf_counter()
        results.append(wl.execute(fns[op[0]], op))
        now = time.perf_counter()
        latencies.append(now - t0)
        if now >= deadline and len(results) >= at_least:
            break
    return latencies, results, now - start


def run_commands(commands: list, seconds: float | None, at_least: int = 0,
                 traced: bool = False):
    """Run CLI commands in order, one process at a time, until ``seconds``
    have passed and ``at_least`` ran.  With ``seconds`` None every command runs."""
    latencies, outputs, raws = [], [], []
    start = time.perf_counter()
    deadline = math.inf if seconds is None else start + seconds
    for argv in commands:
        prefix = [__file__, CLI_TRACED] if traced else ["-m", "degzeta.cli"]
        t0 = time.perf_counter()
        try:
            proc = run_child([*prefix, *argv])
            outputs.append((argv, proc.returncode, proc.stdout))
        except subprocess.TimeoutExpired:
            outputs.append((argv, -1, ""))
            proc = None
        now = time.perf_counter()
        latencies.append(now - t0)
        if traced and proc is not None:
            marks = [ln for ln in proc.stderr.splitlines() if ln.startswith(TRACE_MARK)]
            if marks:
                raws.append(json.loads(marks[-1][len(TRACE_MARK):]))
        if now >= deadline and len(latencies) >= at_least:
            break
    return latencies, outputs, raws, time.perf_counter() - start


def check_commands(wl, outputs: list) -> int:
    references = {}
    failed = 0
    for argv, code, stdout in outputs:
        key = tuple(argv)
        if key not in references:
            references[key] = wl.cli_reference(argv)
        failed += not wl.cli_output_ok(argv, code, stdout, references[key])
    return failed


# ---------------------------------------------------------------------------
# end-to-end run (--trace 0)
# ---------------------------------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float, count: int = 0):
    """The end-to-end metrics; ``count`` > 0 runs that many ops instead."""
    setups = [setup_probe_once(workload, seed) for _ in range(SETUP_REPEATS)]
    import workloads as wl

    inputs = wl.generate(workload, seed)
    if count:
        inputs = inputs[:count]
        seconds = None
    if workload == "cli":
        latencies, outputs, _, wall = run_commands(inputs, seconds, min_ops(workload))
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        failed = check_commands(wl, outputs)
        props = {"session": [" ".join(argv) for argv, _, _ in outputs]}
    else:
        latencies, results, wall = run_ops(wl, inputs, seconds, min_ops(workload))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failed = len(wl.failed_ops(inputs[:len(results)], results))
        props = wl.input_properties(inputs[:len(results)])
    ordered = sorted(latencies)
    pct = metrics.TAIL_PERCENTILE[workload]
    tail, beyond = percentile(ordered, pct)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / wall,
        "latency_p50_ms": 1e3 * statistics.median(ordered),
        "latency_tail_ms": 1e3 * tail,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    details = {
        "workload": workload, "seed": seed, "timed_wall_s": wall,
        "error_share": failed / len(latencies),
        "latency_tail": {"percentile": pct, "samples": len(ordered),
                         "samples_beyond": beyond},
        "setup_samples_s": setups, "inputs": props,
    }
    return values, len(latencies), failed, details


# ---------------------------------------------------------------------------
# per-layer run (--trace 1)
# ---------------------------------------------------------------------------

def verify_probe() -> tuple[dict, int]:
    """Each verify suite cold in its own interpreter; seconds inside run_suite."""
    code = ("import sys\nfrom degzeta.verify import run_suite\n"
            "r = run_suite(sys.argv[1])\nprint(r.wall_time_s, r.failed)")
    values, failed = {}, 0
    for suite in VERIFY_SUITES:
        wall, suite_failed = run_child(["-c", code, suite]).stdout.split()
        values[f"verify.{suite}.s"] = float(wall)
        failed += int(suite_failed)
    return values, failed


def cli_probe() -> dict:
    interp = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        run_child(["-c", "pass"])
        interp.append(time.perf_counter() - t0)
    code = ("import time\nt = time.perf_counter()\nimport degzeta.cli\n"
            "print(time.perf_counter() - t)")
    imports = [float(run_child(["-c", code]).stdout) for _ in range(PROBE_REPEATS)]
    return {"cli.interpreter_s": statistics.median(interp),
            "cli.import_s": statistics.median(imports)}


def per_layer(workload: str, seed: int, count: int = 0):
    """The per-layer metrics over ``count`` ops (default: `TRACE_OPS`)."""
    import spans
    import workloads as wl

    count = count or TRACE_OPS[workload]
    inputs = wl.generate(workload, seed)
    if workload == "cli":
        commands = inputs[:count]
        _, outputs, _, untraced = run_commands(commands, None)
        _, traced_outputs, raws, traced = run_commands(commands, None, traced=True)
        outputs += traced_outputs
        failed = check_commands(wl, outputs)
        attempted = len(outputs)
    else:
        ops = inputs[:count]
        _, results, untraced = run_ops(wl, ops, None)
        failed = len(wl.failed_ops(ops, results))
        proc = run_child([__file__, "--traced-child", "--workload", workload,
                          "--seed", str(seed), "--ops", str(count)])
        child = json.loads(proc.stdout.splitlines()[-1])
        raws, traced = [child["raw"]], child["wall_s"]
        attempted = len(results)
    values = spans.layer_metrics(spans.merge(raws))
    suites, suites_failed = verify_probe()
    values.update(suites)
    values.update(cli_probe())
    values["trace.overhead_share"] = traced / untraced - 1.0
    details = {
        "workload": workload, "seed": seed, "ops": count,
        "untraced_wall_s": untraced, "traced_wall_s": traced,
        "error_share": failed / attempted, "verify_suites_failed": suites_failed,
        "moves": {name: moves for name, (_, _, moves) in metrics.PER_LAYER.items()},
    }
    return values, attempted, failed + suites_failed, details


# ---------------------------------------------------------------------------
# child modes
# ---------------------------------------------------------------------------

def traced_child(workload: str, seed: int, count: int) -> None:
    import spans

    tracer = spans.Tracer()
    tracer.install_import_spans()
    import workloads as wl

    tracer.instrument(wl.MODULES)
    ops = wl.generate(workload, seed)[:count]
    fns = {}
    for fn in {op[0] for op in ops}:
        layer, name = fn.split(".")
        fns[fn] = tracer.wrap(layer, name, wl.function(fn))
    _, _, wall = run_ops(wl, ops, None, fns=fns)
    print(json.dumps({"raw": tracer.raw(), "wall_s": wall}))


def cli_traced(argv: list) -> int:
    import spans

    tracer = spans.Tracer()
    tracer.install_import_spans()
    from degzeta import cli

    tracer.instrument({layer: sys.modules[f"{spans.PACKAGE}.{layer}"]
                       for layer in spans.LAYERS})
    code = cli.main(argv)
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps(tracer.raw()), file=sys.stderr)
    return code


# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(
        description=__doc__.split("\n")[0], allow_abbrev=False,
        epilog="--write-benchmark-json alone regenerates BENCHMARK.json "
               "from perfbench/metrics.py")
    p.add_argument("--workload", choices=tuple(metrics.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    hidden = argparse.SUPPRESS
    p.add_argument("--setup-probe", action="store_true", help=hidden)
    p.add_argument("--traced-child", action="store_true", help=hidden)
    p.add_argument("--ops", type=int, default=0,
                   help="run this many ops instead of timing (for the self-test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--write-benchmark-json"]:
        metrics.write_benchmark_json(ROOT)
        return 0
    if not (SRC / "degzeta" / "__init__.py").is_file():
        print(f"perfbench: no degzeta sources in {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if argv[:1] == [CLI_TRACED]:
        # the rest of the line belongs to the degzeta CLI, unparsed
        return cli_traced(argv[1:])
    args = parse_args(argv)
    if args.workload is None:
        print("perfbench: --workload is required", file=sys.stderr)
        return 2
    if args.setup_probe:
        import workloads as wl

        wl.generate(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.traced_child:
        traced_child(args.workload, args.seed, args.ops)
        return 0
    if args.trace:
        values, attempted, failed, details = per_layer(args.workload, args.seed, args.ops)
        units = {k: u for k, (u, _, _) in metrics.PER_LAYER.items()}
    else:
        values, attempted, failed, details = end_to_end(args.workload, args.seed,
                                                        args.seconds, args.ops)
        units = {k: u for k, (u, _, _) in metrics.END_TO_END.items()}
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
