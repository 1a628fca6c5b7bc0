"""holanom benchmark: seeded CLI workloads, checked exactly, timed in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload sqcd|highdim|files --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Load shape: one process, one thread, one caller, closed loop; each op is one
``holanom.cli.run(argv)`` call with stdout, stderr and warnings captured.
The program is imported from ``src/`` of the checkout this file sits in.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs a fixed prefix of the op stream twice, untraced and then
under the outside-in tracer, checks that every op's stdout is identical in
both passes, and reports per-layer metrics.  Every op of either pass is
checked against the closed forms in ``oracle``.  The last stdout line is
the JSON result; the line before it is the run record.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import warnings
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from reference import REF_LOOP_MS, loop_seconds, speed_factors  # noqa: E402

SETUP_RUNS = 15  # fresh-interpreter imports timed per run, after one untimed
WARMUP_SECONDS = 1.0
# Rounds run by a traced run, fixed so that its counts repeat exactly.
TRACE_ROUNDS = {"sqcd": 12, "highdim": 2, "files": 6}
WARMUP_ROUND = 10**6  # warm-up ops come from rounds no measured run uses
COPIES_BINS = ((1, "copies_lo"), (10**4, "copies_mid"), (10**8, "copies_hi"))

IMPORT_PROBE = """
import statistics, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import holanom, holanom.cli
elapsed = time.perf_counter() - start
if not holanom.__file__.startswith(sys.argv[1]):
    sys.exit("holanom imported from outside the checkout")
sys.path.insert(0, sys.argv[2])
from reference import loop_seconds
print(repr(elapsed), repr(statistics.median(loop_seconds() for _ in range(5))))
"""

E2E_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "failed_ratio": "1",
    "warning_ratio": "1",
    "peak_rss_mb": "MB",
}
# failed_ratio and warning_ratio are 0 on a healthy run, so they are printed
# in the run record but are not graded end-to-end metrics.
GRADED = ("setup_s", "throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb")


class BenchError(Exception):
    """The benchmark cannot run here (no sources, bad arguments)."""


@dataclass
class Result:
    rc: object
    stdout: str
    stderr: str
    warnings: int
    seconds: float
    loop: float  # reference-loop time measured just before the op
    problem: str = ""  # empty when the op passed the checker


# -- program loading and set-up time ------------------------------------------


def load_program():
    if not (SRC / "holanom" / "__init__.py").is_file():
        raise BenchError(f"no holanom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import holanom
    import holanom.cli

    if not Path(holanom.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"holanom was imported from {holanom.__file__}, not {SRC}")
    return holanom


def import_seconds() -> tuple[float, float]:
    """(import time, reference-loop time) in one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC), str(HERE)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if done.returncode != 0:
        raise BenchError(f"import probe failed: {done.stderr.strip()}")
    elapsed, loop = map(float, done.stdout.split())
    return elapsed, loop


def setup_seconds() -> tuple[float, float]:
    """Median fresh-interpreter import time of holanom and holanom.cli: (scaled, wall).

    The first probe compiles bytecode and is not counted: an installed
    package pays that once, not per invocation.
    """
    import_seconds()
    probes = [import_seconds() for _ in range(SETUP_RUNS)]
    scaled = [t * REF_LOOP_MS / 1000 / loop for t, loop in probes]
    return statistics.median(scaled), statistics.median(t for t, _ in probes)


# -- running ops ---------------------------------------------------------------


def run_op(cli, op, path) -> Result:
    argv = [str(path) if a == workloads.FILE_TOKEN else a for a in op.argv]
    loop = loop_seconds()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = perf_counter()
        try:
            rc = cli.run(argv)
        except Exception as exc:  # an escaped exception is a failed op
            rc = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    return Result(rc, out.getvalue(), err.getvalue(), len(caught), seconds, loop)


def check(op, result: Result) -> Result:
    if isinstance(result.rc, str):
        result.problem = f"exception escaped: {result.rc}"
    else:
        result.problem = oracle.check(op.expect, result.rc, result.stdout, result.stderr, op.as_json)
    return result


class Stream:
    """The workload's ops in order, with their theory files written on demand."""

    def __init__(self, workload, seed, workdir, first_round=0):
        self.rounds = workloads.rounds(workload, seed, first_round)
        self.workdir = workdir
        self.pending = []
        self.count = 0

    def next_round(self):
        ops = next(self.rounds)
        for op in ops:
            path = None
            if op.text is not None:
                path = self.workdir / f"op{self.count}.th"
                path.write_text(op.text)
            self.count += 1
            self.pending.append((op, path))
        return ops

    def take(self):
        if not self.pending:
            self.next_round()
        return self.pending.pop(0)


def timed_loop(cli, stream: Stream, seconds: float):
    """Closed loop over whole rounds until `seconds` of measured time have passed.

    Stopping only at a round boundary keeps every run's command mix the same
    as a round's.  Returns (argv, checked result) pairs and the measured
    time.  Input generation, the reference loop and the checker are excluded
    from measured time.  Each op is checked as soon as it returns and its
    output dropped, so memory does not grow with the number of ops run.
    """
    results = []
    paused = 0.0
    start = perf_counter()
    while perf_counter() - start - paused < seconds or stream.pending:
        t0 = perf_counter()
        if not stream.pending:
            stream.next_round()
        op, path = stream.pending.pop(0)
        paused += perf_counter() - t0
        result = run_op(cli, op, path)
        t0 = perf_counter()
        check(op, result)
        result.stdout = result.stderr = ""
        results.append((op.argv, result))
        paused += result.loop + perf_counter() - t0
    return results, perf_counter() - start - paused


def warm_up(cli, workload, seed, workdir):
    stream = Stream(workload, seed, workdir, WARMUP_ROUND)
    start = perf_counter()
    while perf_counter() - start < WARMUP_SECONDS:
        run_op(cli, *stream.take())


# -- metrics -------------------------------------------------------------------


def scaled_seconds(results: list) -> list:
    """Each op's time scaled to the reference speed (see reference.py)."""
    factors = speed_factors([r.loop for r in results])
    return [r.seconds * f for r, f in zip(results, factors)]


def latency_stats(seconds: list) -> dict:
    ms = sorted(s * 1000 for s in seconds)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    return {
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": p90,
        "samples": len(ms),
        "samples_above_p90": sum(1 for x in ms if x > p90),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_commit() -> str:
    # the ceiling keeps git from searching above the checkout
    env = os.environ | {"GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def record_base(holanom, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "holanom": holanom.__version__,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "load": "closed loop, 1 process, 1 thread, 1 caller",
    }


def first_failures(results, limit=5):
    """The first failed ops of (argv, result) pairs."""
    return [{"argv": argv, "problem": r.problem} for argv, r in results if r.problem][:limit]


def measure(holanom, args, workdir):
    """The untraced run: end-to-end metrics over --seconds of ops."""
    setup, setup_wall = setup_seconds()
    cli = holanom.cli
    warm_up(cli, args.workload, args.seed, workdir)
    results, elapsed = timed_loop(cli, Stream(args.workload, args.seed, workdir), args.seconds)
    attempted = len(results)
    failed = sum(1 for _, r in results if r.problem)
    wall = [r.seconds for _, r in results]
    scaled = scaled_seconds([r for _, r in results])
    lat = latency_stats(scaled)
    wall_lat = latency_stats(wall)
    # measured time at reference speed: weight each op's factor by its time
    scaled_elapsed = elapsed * sum(scaled) / sum(wall)
    metrics = {
        "setup_s": setup,
        "throughput_ops_s": attempted / scaled_elapsed,
        "latency_p50_ms": lat["latency_p50_ms"],
        "latency_p90_ms": lat["latency_p90_ms"],
        "failed_ratio": failed / attempted,
        "warning_ratio": sum(1 for _, r in results if r.warnings) / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    record = record_base(holanom, args) | {
        "seconds": elapsed,
        "ops_per_command": dict(Counter(argv[0] for argv, _ in results)),
        "percentile_samples": {k: lat[k] for k in ("samples", "samples_above_p90")},
        "setup_probes": SETUP_RUNS,
        "reference_loop_ms": {"reference": REF_LOOP_MS,
                              "median": statistics.median(r.loop for _, r in results) * 1000},
        "wall_clock": {
            "setup_s": setup_wall,
            "throughput_ops_s": attempted / elapsed,
            "latency_p50_ms": wall_lat["latency_p50_ms"],
            "latency_p90_ms": wall_lat["latency_p90_ms"],
        },
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
        "failures": first_failures(results),
    }
    graded = {k: {"value": metrics[k], "unit": E2E_UNITS[k]} for k in GRADED}
    return attempted, failed, True, graded, record


# -- traced run ----------------------------------------------------------------


def fixed_ops(workload, seed, workdir):
    stream = Stream(workload, seed, workdir)
    for _ in range(TRACE_ROUNDS[workload]):
        stream.next_round()
    return stream.pending


def layer_metrics(tracer, ops, traced, untraced_s, traced_s) -> dict:
    """Per-layer metrics from the spans of the traced pass."""
    own = tracer.self_times()
    by_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "out": 0,
                                   "raised": 0, "degree": 0, "evaluate": 0})
    hm_self_by_op = defaultdict(float)
    roots_self_by_op = defaultdict(float)
    for i, s in enumerate(tracer.spans):
        name = s[0]
        agg = by_name[name]
        agg["calls"] += 1
        agg["self_s"] += own[i]
        agg["total_s"] += s[2] - s[1]
        agg["out"] += max(s[5], 0)
        agg["raised"] += s[6]
        for counter, n in (s[7] or {}).items():
            agg[counter] += n
        if name == "ring.homogeneous_monomials":
            hm_self_by_op[s[4]] += own[i]
        elif name == "univariate.rational_roots":
            roots_self_by_op[s[4]] += own[i]

    def get(name, stat):
        return by_name[name][stat] if name in by_name else 0

    def ratio(a, b):
        return a / b if b else 0.0

    n_ops = len(ops)
    hm, roots = "ring.homogeneous_monomials", "univariate.rational_roots"
    m = {
        f"{hm}.calls": get(hm, "calls"),
        f"{hm}.self_s": get(hm, "self_s"),
        f"{hm}.degree_evals": get(hm, "degree"),
        f"{hm}.monomials": get(hm, "out"),
        f"{hm}.yield": ratio(get(hm, "out"), get(hm, "degree")),
    }
    hi = [i for i, (op, _) in enumerate(ops) if op.tags.get("dim", 0) >= 7]
    m[f"{hm}.op_share_dim_ge7"] = ratio(sum(hm_self_by_op[i] for i in hi),
                                        sum(traced[i].seconds for i in hi))
    for dim in range(3, 9):
        at = [i for i, (op, _) in enumerate(ops) if op.tags.get("dim") == dim]
        m[f"{hm}.self_s_per_op.dim{dim}"] = ratio(sum(hm_self_by_op[i] for i in at), len(at))
    for method in ("init", "mul", "exp"):
        m[f"ring.GradedPoly.{method}.calls"] = get(f"ring.GradedPoly.{method}", "calls")
        m[f"ring.GradedPoly.{method}.self_s"] = get(f"ring.GradedPoly.{method}", "self_s")
    ap = "anomaly.anomaly_polynomial"
    m[f"{ap}.calls"] = get(ap, "calls")
    m[f"{ap}.self_s"] = get(ap, "self_s")
    m[f"{ap}.runs_per_op"] = ratio(get(ap, "calls"), n_ops)
    m["theory.interpolate_in_r.calls"] = get("theory.interpolate_in_r", "calls")
    m["theory.interpolate_in_r.total_s"] = get("theory.interpolate_in_r", "total_s")
    for name in ("theory.twist_content", "chern.todd", "chern.ch_content"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    m["chern.pushforward_curve.self_s"] = get("chern.pushforward_curve", "self_s")
    m[f"{roots}.calls"] = get(roots, "calls")
    m[f"{roots}.self_s"] = get(roots, "self_s")
    m[f"{roots}.candidates"] = get(roots, "evaluate")
    m[f"{roots}.hit_ratio"] = ratio(get(roots, "out"), get(roots, "evaluate"))
    for i, (low, label) in enumerate(COPIES_BINS):
        high = COPIES_BINS[i + 1][0] if i + 1 < len(COPIES_BINS) else float("inf")
        at = [j for j, (op, _) in enumerate(ops) if low <= op.tags.get("copies", 0) < high]
        m[f"{roots}.self_s_per_op.{label}"] = ratio(sum(roots_self_by_op[j] for j in at), len(at))
    m["univariate.lagrange_interpolate.self_s"] = get("univariate.lagrange_interpolate", "self_s")
    m["anomaly.classify.self_s"] = get("anomaly.classify", "self_s")
    m["anomaly.solve_r.total_s"] = get("anomaly.solve_r", "total_s")
    m["duality.seiberg_match.total_s"] = get("duality.seiberg_match", "total_s")
    tf = "theoryfile.parse_theory_file"
    m[f"{tf}.calls"] = get(tf, "calls")
    m[f"{tf}.self_s"] = get(tf, "self_s")
    m[f"{tf}.rejected"] = get(tf, "raised")
    m["cli.render_records.self_s"] = get("cli.render_records", "self_s")
    m["cli.run.total_s"] = get("cli.run", "total_s")
    m["trace.ops"] = n_ops
    m["trace.overhead_ratio"] = ratio(traced_s, untraced_s)
    return m


RATIO_STATS = ("yield", "hit_ratio", "overhead_ratio", "op_share_dim_ge7")


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat in RATIO_STATS:
        return "1"
    if stat.endswith("_s") or ".self_s_per_op." in name:
        return "s"
    return "count"


def trace(holanom, args, workdir):
    """The traced run: a fixed op list, untraced then traced, with per-layer metrics."""
    from tracer import Tracer

    cli = holanom.cli
    warm_up(cli, args.workload, args.seed, workdir)
    ops = fixed_ops(args.workload, args.seed, workdir)
    untraced = [check(op, run_op(cli, op, path)) for op, path in ops]
    tracer = Tracer(holanom)
    traced = []
    with tracer:
        for i, (op, path) in enumerate(ops):
            tracer.op = i
            traced.append(check(op, run_op(cli, op, path)))
    untraced_s = sum(scaled_seconds(untraced))
    traced_s = sum(scaled_seconds(traced))
    differ = [i for i, (a, b) in enumerate(zip(untraced, traced)) if a.stdout != b.stdout]
    failed = sum(1 for a, b in zip(untraced, traced) if a.problem or b.problem)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(spans_path)
    metrics = layer_metrics(tracer, ops, traced, untraced_s, traced_s)
    record = record_base(holanom, args) | {
        "traced_ops": len(ops),
        "ops_per_command": dict(Counter(op.command for op, _ in ops)),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "stdout_differs_when_traced": differ[:10],
        "failures": first_failures([(op.argv, r) for (op, _), r in zip(ops * 2, untraced + traced)]),
    }
    reported = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    return len(ops), failed, not differ, reported, record


# -- entry points ----------------------------------------------------------------


def run_workload(args) -> int:
    holanom = load_program()
    work_parent = HERE / ".work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent))
    try:
        step = trace if args.trace else measure
        attempted, failed, consistent, metrics, record = step(holanom, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in record.get("metrics", metrics).items():
        print(f"{args.workload}: {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter, then one table of every metric."""
    rows = {}
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            raise BenchError(f"workload {workload} failed: {done.stderr.strip()}")
        lines = done.stdout.strip().splitlines()
        rows[workload] = (json.loads(lines[-2])["record"], json.loads(lines[-1]))
    print(f"{'metric':18} {'unit':6}" + "".join(f"{w:>14}" for w in rows))
    for name, unit in E2E_UNITS.items():
        values = "".join(f"{rec['metrics'][name]['value']:>14.6g}" for rec, _ in rows.values())
        print(f"{name:18} {unit:6}{values}")
    samples = "".join(f"{rec['percentile_samples']['samples']:>14}" for rec, _ in rows.values())
    print(f"{'samples':18} {'count':6}{samples}")
    correct = all(res["correct"] for _, res in rows.values())
    print(json.dumps({"correct": correct, "workloads": {w: res for w, (_, res) in rows.items()}}))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into an exit, so the work directory is still removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
