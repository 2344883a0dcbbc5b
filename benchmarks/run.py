"""lanefair benchmark: end-to-end metrics per workload, or per-layer metrics.

Run from the repository root::

    python3 benchmarks/run.py --workload mc-calibration --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --out bench.json
    python3 benchmarks/run.py --workload large-field --seed 1 --seconds 5 --smoke

Workloads are described in ``workloads.py``.  All load comes from one
process in a closed loop with one client; BLAS and OpenMP thread pools are
pinned to one thread for it and its children.

``--trace 0`` measures, for ``--seconds``, the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of import, input generation
  from the seed and one warm-up operation, from spawn to exit;
* ``items_per_s``: work completed per second of measured operations: CLI
  calls (``calls_per_s``), replicate fits (``reps_per_s``) or usable pairs
  carried through the whole pipeline (``pairs_per_s``);
* ``latency_p50_s``: median time of one CLI call from spawn to exit
  (``call_p50_s``), one ``mc_calibration`` call (``mc_call_p50_s``) or one
  event's pipeline (``event_p50_s``);
* ``peak_rss_mb``: peak resident set of the workload process, or of its
  largest child on ``cli-session``;
* ``error_rate``: failed checks or non-zero exits over operations attempted.
  It is 0 on a correct program, so it is printed and carried by the
  ``failed`` and ``attempted`` fields rather than compared as a metric.

The compared times are scaled to a host of fixed speed (see
``HostSpeed``): a shared host's speed drifts by tens of percent between
runs, more than a regression bound can allow.  Each scaled figure is
printed with its wall-clock value next to it.

``--trace 1`` alternates untraced and traced passes of a fixed piece of
work for ``--seconds``, reports each per-layer metric as its median over
the traced passes, and prints the tracing overhead.  The import layer is
measured in separate interpreters with ``-X importtime``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out`` also
writes the full record, with the machine and code state, as JSON.
"""

from __future__ import annotations

import os

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in PINNED_THREADS:        # before numpy is imported, here or in a child
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from importlib import metadata
from pathlib import Path

import layers
import workloads as wl

ROOT = wl.ROOT
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = str(ROOT / "src")

END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "latency_p50_s": "s",
              "peak_rss_mb": "MB"}
ALIASES = {
    "cli-session": {"items_per_s": "calls_per_s", "latency_p50_s": "call_p50_s"},
    "mc-calibration": {"items_per_s": "reps_per_s", "latency_p50_s": "mc_call_p50_s"},
    "large-field": {"items_per_s": "pairs_per_s", "latency_p50_s": "event_p50_s"},
}
# Per-layer metrics compared across runs.  A time of a layer that some
# workload never calls would read 0.0 on every run of that workload, so
# only times of layers every workload calls are listed; the full table is
# printed with every traced run.
PER_LAYER = {
    "import.interpreter_s": "s", "import.lanefair_s": "s", "import.scipy_s": "s",
    "import.numpy_s": "s",
    "cli.main.calls": "count", "dataset.parse_event.calls": "count",
    "model.fit_ml.calls": "count", "model.fit_ml.self_s": "s",
    "model.profile_loglik.calls": "count", "model.profile_loglik.self_s": "s",
    "model.gls_beta.calls": "count", "model.build_moments.self_s": "s",
    "model.profile_evals_per_fit": "count", "model.solves_per_fit": "count",
    "model.fixed_point_residual_max": "1", "model.condition_number_max": "1",
    "diagnostics.clean_and_refit.calls": "count", "diagnostics.refit_ratio": "ratio",
    "simulate.simulate_event.calls": "count",
}
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
REFERENCE_S = 0.025
SPAWN_REFERENCE_S = 0.2
SPEED_WINDOW = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="lanefair benchmark")
    p.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one set-up, for the benchmark's own tests")
    p.add_argument("--out", help="also write the full result record here as JSON")
    p.add_argument("--setup-only", action="store_true", dest="setup_only",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def check_tree() -> None:
    """Refuse to run outside a full checkout: the program must be present."""
    missing = [p for p in ("src/lanefair/__init__.py", "data/swc1994.csv")
               if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"benchmark: not a lanefair checkout, missing {', '.join(missing)}")


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "lanefair").glob("*.py")))
    return {
        "nproc": os.cpu_count(), "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "blas_env": {k: os.environ[k] for k in PINNED_THREADS},
        "seed": seed, "git_commit": commit, "src_lines": src_lines,
    }


def timing_summary(samples: list[float], median: float) -> str:
    """The median with the sample count, and the highest percentile that
    has at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"median {median:.6f} s over {n} samples"
    for pct in (99.9, 99, 95, 90, 75):
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            text += f", p{pct:g} {ordered[rank - 1]:.6f} s"
            break
    return text


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter work and small numpy solves,
    the kind of work lanefair does: 25 to 45 ms on a 2-CPU Xeon VM."""
    import numpy as np

    a = np.eye(4) * 10.0 + np.arange(16.0).reshape(4, 4)
    start = time.perf_counter()
    acc: dict[int, int] = {}
    for i in range(60_000):
        acc[i & 255] = acc.get(i & 255, 0) + i * i
    for _ in range(1_500):
        np.linalg.solve(a, a[0])
    return time.perf_counter() - start


def reference_spawn() -> float:
    """Seconds for a fresh interpreter to import numpy and exit, the kind of
    work a CLI call starts with: about 0.2 s on a 2-CPU Xeon VM."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, check=True)
    return time.perf_counter() - start


class HostSpeed:
    """Scales wall times to a host of fixed speed.

    A shared host's speed drifts by tens of percent over minutes, which
    moves every statistic of a run alike.  A reference task that the
    program cannot change is timed before the first measured operation
    and after each one.  An operation's wall time is scaled by the
    reference's nominal time over the median reference time of the probes
    within SPEED_WINDOW operations of it, which follows the drift but not
    the reference's own jitter.

    Work done in this process is scaled by ``reference_kernel``; work done
    in child processes, which starts by spawning an interpreter and
    importing, by ``reference_spawn``.  Measured on a 2-CPU Xeon VM, over
    eight 30 s stretches of CLI calls the spread of the stretch medians
    (quartile distance over median) was 0.29 unscaled, 0.09 scaled by the
    kernel and 0.02 scaled by the spawn; for mc-calibration's median call
    time across runs the kernel cut it from 0.28 to 0.04.
    """

    def __init__(self, in_process: bool) -> None:
        self.measure, self.nominal = ((reference_kernel, REFERENCE_S) if in_process
                                      else (reference_spawn, SPAWN_REFERENCE_S))
        self.probes = [self.measure()]

    def probe(self) -> None:
        self.probes.append(self.measure())

    def factors(self) -> list[float]:
        """One scale factor per interval between consecutive probes."""
        p = self.probes
        return [self.nominal / statistics.median(p[max(0, i + 1 - SPEED_WINDOW):
                                                     i + 1 + SPEED_WINDOW])
                for i in range(len(p) - 1)]


def setup_samples(args, repeats: int) -> tuple[list[float], list[float]]:
    """Set up the workload in fresh interpreters, spawn to exit: wall and scaled."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    wall = []
    speed = HostSpeed(in_process=False)
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        wall.append(time.perf_counter() - start)
        speed.probe()
    return wall, [t * f for t, f in zip(wall, speed.factors())]


def guarded(fn, *args):
    """Run one operation; an exception counts as a failed check."""
    try:
        return fn(*args)
    except Exception:          # the loop must go on and report the failure
        traceback.print_exc()
        return None


def weighted_median(values: list[float], weights: list[float]) -> float:
    pairs = sorted(zip(values, weights))
    half = sum(weights) / 2.0
    acc = 0.0
    for i, (value, weight) in enumerate(pairs):
        acc += weight
        if acc > half:
            return value
        if acc == half:
            return (value + pairs[i + 1][0]) / 2.0
    return pairs[-1][0]


def measure(workload: wl.Workload, seconds: float) -> dict:
    outcomes = []
    speed = HostSpeed(workload.in_process)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(outcomes) < workload.pass_ops:
        outcomes.append(guarded(workload.op))
        speed.probe()
    kept = [(r, f) for r, f in zip(outcomes, speed.factors()) if r is not None]
    results, factors = [r for r, _ in kept], [f for _, f in kept]
    failed_ops = len(outcomes) - len(results)
    if not results:
        raise RuntimeError("every measured operation failed")
    checks = [ok for r in results for ok in r.checks]
    counts = Counter(r.kind for r in results)
    weights = [1.0 / counts[r.kind] for r in results for _ in r.latencies]
    latencies = [t for r in results for t in r.latencies]
    scaled = [t * f for r, f in zip(results, factors) for t in r.latencies]

    def per_kind_sum(values) -> float:
        """Sum over kinds of the mean per operation of that kind."""
        return sum(v / counts[r.kind] for r, v in zip(results, values))

    items = [r.items for r in results]
    return {
        "ops": len(results),
        "latencies": latencies, "scaled_latencies": scaled,
        "latency_p50": weighted_median(latencies, weights),
        "scaled_latency_p50": weighted_median(scaled, weights),
        "items_per_s": per_kind_sum(items) / per_kind_sum([r.elapsed for r in results]),
        "scaled_items_per_s": per_kind_sum(items) / per_kind_sum(
            [r.elapsed * f for r, f in zip(results, factors)]),
        "items": sum(items), "speed": sum(factors) / len(factors),
        "attempted": len(checks) + failed_ops,
        "failed": checks.count(False) + failed_ops,
    }


def run_untraced(args, workload: wl.Workload, own_setup: float, record: dict) -> dict:
    m = measure(workload, args.seconds)
    setups, scaled_setups = record["setup_wall_s"], record["setup_scaled_s"]
    metrics = {
        "setup_s": statistics.median(scaled_setups),
        "items_per_s": m["scaled_items_per_s"],
        "latency_p50_s": m["scaled_latency_p50"],
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    correct = m["failed"] == 0
    notes = []
    if isinstance(workload, wl.McCalibration) and workload.reports:
        ok, text = workload.pooled_check()
        notes.append(("pooled check", ("ok: " if ok else "FAILED: ") + text))
        m["attempted"] += 1
        m["failed"] += not ok
        correct = correct and ok
    error_rate = m["failed"] / m["attempted"]
    alias = ALIASES[workload.name]
    print(f"setup_s         {metrics['setup_s']:.6f} s    median of {len(setups)} fresh "
          f"set-ups; wall {[round(t, 4) for t in setups]} s; in-process {own_setup:.4f} s")
    print(f"{alias['items_per_s']:<15} {metrics['items_per_s']:.6f} 1/s  (items_per_s) "
          f"{m['items']} items in {m['ops']} operations; wall {m['items_per_s']:.6f} 1/s")
    print(f"{alias['latency_p50_s']:<15} {metrics['latency_p50_s']:.6f} s    (latency_p50_s) "
          f"{timing_summary(m['scaled_latencies'], m['scaled_latency_p50'])}; "
          f"wall {timing_summary(m['latencies'], m['latency_p50'])}")
    print(f"peak_rss_mb     {metrics['peak_rss_mb']:.3f} MB")
    print(f"error_rate      {error_rate:.6f} 1     {m['failed']} of {m['attempted']}")
    print(f"host speed      times scaled by {m['speed']:.4f} on average to the reference "
          f"{'kernel' if workload.in_process else 'spawn'}'s nominal time")
    for label, text in notes:
        print(f"{label}: {text}")
    record.update(metrics={k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
                  aliases={alias.get(k, k): v for k, v in metrics.items()},
                  error_rate=error_rate, latencies_s=m["latencies"],
                  scaled_latencies_s=m["scaled_latencies"])
    return {"correct": correct, "attempted": m["attempted"], "failed": m["failed"],
            "metrics": record["metrics"]}


def run_traced(args, workload: wl.Workload, record: dict) -> dict:
    import lanefair  # noqa: F401  -- imported before the first timed pass

    imports = layers.import_metrics(dict(os.environ), str(ROOT),
                                    1 if args.smoke else IMPORT_REPEATS)
    plain, traced, passes, checks, failed_ops = [], [], [], [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not passes:
        t0 = time.perf_counter()
        res = guarded(workload.trace_pass)
        plain.append(time.perf_counter() - t0)
        tracer = layers.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            res_traced = guarded(workload.trace_pass)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        for r in (res, res_traced):
            if r is None:
                failed_ops += 1
            else:
                checks.extend(r)
        passes.append(tracer)
    layer = {k: statistics.median(t.metrics()[k] for t in passes)
             for k in passes[0].metrics()}
    layer.update(imports)
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    print(f"{len(passes)} untraced and {len(passes)} traced passes; medians per pass")
    print(f"{'span':<36}{'calls':>10}{'self_s':>12}{'total_s':>12}")
    names = sorted(passes[0].stats, key=lambda k: -passes[0].stats[k][2])
    for name in names:
        calls, total, self_s = (statistics.median(t.stats[name][i] for t in passes)
                                for i in range(3))
        if calls:
            print(f"{name:<36}{calls:>10.0f}{self_s:>12.6f}{total:>12.6f}")
    print("per-layer metrics:")
    for name in sorted(layer):
        mark = "" if name in PER_LAYER else "   (printed only)"
        print(f"  {name:<40}{layer[name]:.9g}{mark}")
    print(f"tracing overhead ({workload.name}): traced pass median "
          f"{statistics.median(traced):.6f} s vs untraced {statistics.median(plain):.6f} s"
          f" ({overhead:+.1%})")
    attempted = len(checks) + failed_ops
    failed = checks.count(False) + failed_ops
    record.update(per_layer=layer, tracing_overhead=overhead)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}}


def run_one(args) -> int:
    workload = wl.WORKLOADS[args.workload](args.seed, args.smoke,
                                          wl.make_workdir(args.workload))
    try:
        if args.setup_only:
            workload.setup()
            return 0
        record = {"workload": args.workload, "trace": args.trace,
                  "seconds": args.seconds, "env": environment(args.seed)}
        print(f"lanefair benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("env " + json.dumps(record["env"], sort_keys=True))
        if not args.trace:
            record["setup_wall_s"], record["setup_scaled_s"] = setup_samples(
                args, 1 if args.smoke else SETUP_REPEATS)
        t0 = time.perf_counter()
        workload.setup()
        own_setup = time.perf_counter() - t0
        if args.trace:
            result = run_traced(args, workload, record)
        else:
            result = run_untraced(args, workload, own_setup, record)
    finally:
        wl.remove_workdir(workload.workdir)
    record["result"] = result
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one summary table."""
    records = {}
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for name in wl.WORKLOADS:
            out = Path(tmp) / f"{name}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(out)]
            subprocess.run(cmd + (["--smoke"] if args.smoke else []), cwd=ROOT, check=True)
            records[name] = json.loads(out.read_text(encoding="utf-8"))
    with contextlib.suppress(OSError):
        work.rmdir()
    print("summary:")
    for name, rec in records.items():
        values = rec.get("aliases") or rec["per_layer"]
        shown = {k: values[k] for k in values if args.trace == 0 or k in PER_LAYER}
        extra = (f", error_rate {rec['error_rate']:.6f}" if args.trace == 0
                 else f", tracing overhead {rec['tracing_overhead']:+.1%}")
        print(f"  {name}: " + ", ".join(f"{k} {v:.6g}" for k, v in shown.items()) + extra)
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    results = [rec["result"] for rec in records.values()]
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{name}/{k}": v for name, rec in records.items()
                    for k, v in rec["result"]["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    check_tree()
    # One CPU for this process and its children, so the reference kernel
    # times the CPU that runs the measured work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
