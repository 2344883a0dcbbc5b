"""The three benchmark workloads and their correctness checks.

Each workload has a set-up (import, inputs made from the seed, one
warm-up operation), a measured operation repeated in a closed loop with
one client, and a fixed traced pass whose work depends on the seed only.

* ``cli-session``: the analyst's path, a fixed script of ``lanefair``
  subprocesses over the bundled ``data/``, one at a time, in an order
  shuffled by the seed.  Every call pays interpreter start and import.
* ``mc-calibration``: repeated in-process ``mc_calibration`` calls at
  n = 30, where nearly all the time is the rho profile search.
* ``large-field``: synthetic events of 250, 1000 and 2500 skaters written
  in the bundled CSV format, each carried through parse, screen-and-refit,
  validation and adjusted differences, then combined across the set.
  Here the O(n) and O(n^2) data layers dominate and the search is constant.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens"
SCHEMAS = ROOT / "src" / "lanefair" / "schemas"
CLI_ENTRY = "import sys; from lanefair.cli import main; sys.exit(main())"


@dataclass
class OpResult:
    """One measured operation: its timed samples, work items and checks.

    Operations of one ``kind`` do the same work; statistics weight each
    kind equally, so a run that stops part-way through the cli script
    does not shift them towards the calls it happened to repeat.
    """

    latencies: list[float]
    items: int
    elapsed: float
    checks: list[bool] = field(default_factory=list)
    kind: str = ""


def derived_seed(seed: int, *key: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


class Workload:
    name = ""
    in_process = True           # operations run in this process, not in children

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> OpResult:
        raise NotImplementedError

    def trace_pass(self) -> list[bool]:
        """Fixed work for the per-layer run; returns one check per operation."""
        raise NotImplementedError

    @property
    def pass_ops(self) -> int:
        """Operations a full pass must complete before a measured run may stop."""
        return 1

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- cli-session

SWC = [f"data/swc{year}.csv" for year in range(1984, 1995)]


@dataclass(frozen=True)
class CliCall:
    name: str
    argv: tuple[str, ...]
    schema: str | None = None
    side_files: tuple[tuple[str, str], ...] = ()   # (golden name, path under workdir)


def cli_script(workdir: str) -> list[CliCall]:
    return [
        CliCall("fit", ("fit", *SWC, "--format", "json"), "fit.json"),
        CliCall("meta-split-half", ("meta", *SWC, "--split-half")),
        CliCall("meta-summary", ("meta", "--summary", "data/summaries_women.csv")),
        CliCall("validate",
                ("validate", "data/swc1994.csv", "--kde-prefix", f"{workdir}/kde",
                 "--adjusted-out", f"{workdir}/adjusted.json", "--format", "json"),
                "validate.json",
                (("validate.kde_diff.csv", "kde_diff.csv"),
                 ("validate.kde_ave.csv", "kde_ave.csv"),
                 ("validate.adjusted.json", "adjusted.json"))),
        *(CliCall(f"speculate-oly{year}", ("speculate", f"data/oly{year}.csv"))
          for year in (1988, 1992, 1994)),
        CliCall("power", ("power", "--sigma", "0.25", "--se", "0.02", "--d", "0.05")),
        CliCall("mc", ("mc", "--seed", "7", "--reps", "50")),
    ]


class CliSession(Workload):
    name = "cli-session"
    in_process = False

    def setup(self) -> None:
        import jsonschema

        rel = os.path.relpath(self.workdir, ROOT)
        self.script = cli_script(rel)
        random.Random(self.seed).shuffle(self.script)
        self.goldens = {p.name: p.read_bytes() for p in GOLDENS.iterdir()}
        self.validators = {
            c.schema: jsonschema.Draft202012Validator(
                json.loads((SCHEMAS / c.schema).read_text(encoding="utf-8")))
            for c in self.script if c.schema}
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.next_call = 0
        self.child_rss_mb = 0.0
        warm = next(c for c in self.script if c.name == "power")
        if not self._run(warm)[1]:
            raise RuntimeError("warm-up call failed")

    @property
    def pass_ops(self) -> int:
        return len(self.script)

    def _check(self, call: CliCall, code: int, stdout: bytes) -> bool:
        if code != 0 or stdout != self.goldens.get(f"{call.name}.out"):
            return False
        if call.schema:
            payload = json.loads(stdout)
            if not self.validators[call.schema].is_valid(payload):
                return False
        for golden, rel in call.side_files:
            path = self.workdir / rel
            if not path.is_file() or path.read_bytes() != self.goldens.get(golden):
                return False
            path.unlink()
        return True

    def _run(self, call: CliCall) -> tuple[float, bool]:
        """Spawn one CLI call, wait for it, and check what it wrote."""
        start = time.perf_counter()
        with open(self.workdir / "stderr.txt", "wb") as err:
            proc = subprocess.Popen([sys.executable, "-c", CLI_ENTRY, *call.argv],
                                    stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT)
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_mb = max(self.child_rss_mb, usage.ru_maxrss / 1024.0)
        return elapsed, self._check(call, proc.returncode, stdout)

    def op(self) -> OpResult:
        call = self.script[self.next_call % len(self.script)]
        self.next_call += 1
        elapsed, ok = self._run(call)
        return OpResult([elapsed], 1, elapsed, [ok], call.name)

    def trace_pass(self) -> list[bool]:
        from lanefair import cli

        checks = []
        for call in self.script:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(call.argv))
            checks.append(self._check(call, code, out.getvalue().encode("utf-8")))
        return checks

    def peak_rss_mb(self) -> float:
        return self.child_rss_mb


# ------------------------------------------------------------------ mc-calibration

MC_PARAMS = dict(n=30, d=0.05, sigma=0.25, kappa=0.30)
# Var(d-hat) / (2 sigma^2 / n) measured at n = 30 over 6,000 replicates: the
# large-sample formula understates the finite-sample variance by about 7%.
MC_VAR_RATIO = 1.07


class McCalibration(Workload):
    name = "mc-calibration"

    def setup(self) -> None:
        from lanefair import simulate

        self.reps = 10 if self.smoke else 50
        self.trace_calls = 1 if self.smoke else 4
        self.next_call = 0
        self.reports = []
        simulate.mc_calibration(reps=self.reps, seed=derived_seed(self.seed, 1 << 30),
                                **MC_PARAMS)

    def _call(self, k: int):
        from lanefair import simulate

        return simulate.mc_calibration(reps=self.reps, seed=derived_seed(self.seed, k),
                                       **MC_PARAMS)

    def op(self) -> OpResult:
        start = time.perf_counter()
        rep = self._call(self.next_call)
        elapsed = time.perf_counter() - start
        self.next_call += 1
        self.reports.append(rep)
        ok = all(math.isfinite(v) for v in vars(rep).values())
        return OpResult([elapsed], rep.reps, elapsed, [ok])

    def trace_pass(self) -> list[bool]:
        return [all(math.isfinite(v) for v in vars(self._call(k)).values())
                for k in range(self.trace_calls)]

    def pooled_check(self) -> tuple[bool, str]:
        """Seed-independent calibration check over every measured call.

        The pooled variance of d-hat divided by 2 sigma^2 / n must lie in
        MC_VAR_RATIO * (1 +- 6 sqrt(2 / df)), and the pooled mean of d-hat
        within 5 standard errors of the true d.
        """
        reports = self.reports
        total = sum(r.reps for r in reports)
        df = total - len(reports)
        var = sum(r.d_var * (r.reps - 1) for r in reports) / df
        mean = sum(r.d_mean * r.reps for r in reports) / total
        ratio = var / reports[0].d_var_theory
        half = 6.0 * math.sqrt(2.0 / df)
        band = (MC_VAR_RATIO * (1.0 - half), MC_VAR_RATIO * (1.0 + half))
        se = math.sqrt(var / total)
        ok = band[0] <= ratio <= band[1] and abs(mean - MC_PARAMS["d"]) <= 5.0 * se
        return ok, (f"pooled over {total} replicates: var_ratio {ratio:.4f} in "
                    f"[{band[0]:.3f}, {band[1]:.3f}]; d_mean {mean:.5f} vs "
                    f"{MC_PARAMS['d']} +- 5 x {se:.5f}")


# --------------------------------------------------------------------- large-field

# 250 is the field size null_flag_rates uses; 1250 paired runs is what
# power_plan asks for at sigma 0.25, se 0.01, between the upper two sizes.
LADDER = (250, 1000, 2500)
SMOKE_LADDER = (40, 80)
EVENTS_PER_SIZE = 2
TRUE = dict(a1=17.0, a2=17.0, b=2.0, d=0.05, sigma=0.25, kappa=0.30)
NON_FINISH, SAME_LANE, OUTLIERS = 0.02, 0.01, 0.01


def _cs(seconds: float) -> str:
    cs = round(seconds * 100)
    return f"{cs // 100}.{cs % 100:02d}"


def synthetic_event(seed: int, index: int, n: int) -> tuple[str, set[str]]:
    """One event file's text in the bundled format and its planted outliers.

    About 2% of skaters fail to finish a run, 1% start in the same lane on
    both days and 1% get 3 to 4 s added to one run.  That shift puts the
    outlier's t3 at 8 or more, so the 2.75 screen must flag it.
    """
    import numpy as np

    rng = np.random.default_rng([seed, index])
    x1, x2 = rng.normal(10.1, 0.2, n), rng.normal(10.1, 0.2, n)
    w = np.where(rng.permutation(n) < n // 2, 0.5, -0.5)
    c = rng.normal(0.0, TRUE["kappa"], n)
    e1, e2 = rng.normal(0.0, TRUE["sigma"], n), rng.normal(0.0, TRUE["sigma"], n)
    k_nf, k_same, k_out = (max(1, round(f * n)) for f in (NON_FINISH, SAME_LANE, OUTLIERS))
    special = rng.permutation(n)
    non_finish = set(special[:k_nf].tolist())
    same_lane = set(special[k_nf:k_nf + k_same].tolist())
    outliers = set(special[k_nf + k_same:k_nf + k_same + k_out].tolist())
    lines = [f"#event,Field{n}-{index},{2000 + index}"]
    planted = set()
    for i in range(n):
        name = f"S{i:05d}"
        lane1 = "o" if w[i] > 0 else "i"
        lane2 = lane1 if i in same_lane else ("i" if lane1 == "o" else "o")
        w2 = w[i] if i in same_lane else -w[i]
        y1 = TRUE["a1"] + TRUE["b"] * x1[i] + c[i] + TRUE["d"] * w[i] + e1[i]
        y2 = TRUE["a2"] + TRUE["b"] * x2[i] + c[i] + TRUE["d"] * w2 + e2[i]
        run1 = [lane1, _cs(x1[i]), _cs(y1), "ok"]
        run2 = [lane2, _cs(x2[i]), _cs(y2), "ok"]
        if i in outliers:
            shift = rng.uniform(3.0, 4.0)
            target = run1 if rng.random() < 0.5 else run2
            target[2] = _cs(float(target[2]) + shift)
            planted.add(name)
        if i in non_finish:
            target = run1 if rng.random() < 0.5 else run2
            status = ("fell", "dnf", "dq", "dns")[int(rng.integers(4))]
            target[1:] = ["" if status == "dns" else target[1], "", status]
        lines.append(",".join([name, *run1, *run2]))
    return "\n".join(lines) + "\n", planted


class LargeField(Workload):
    name = "large-field"

    def setup(self) -> None:
        self.events = []
        index = 0
        for n in SMOKE_LADDER if self.smoke else LADDER:
            for _ in range(EVENTS_PER_SIZE):
                text, planted = synthetic_event(self.seed, index, n)
                path = self.workdir / f"field{n}-{index}.csv"
                path.write_text(text, encoding="utf-8")
                self.events.append((path, planted))
                index += 1
        self._event(*self.events[0])

    def _event(self, path: Path, planted: set[str]):
        from lanefair import dataset, diagnostics

        ds = dataset.load_event(path)
        pairs, warnings = dataset.usable_pairs(ds)
        cleaned = diagnostics.clean_and_refit(pairs, warnings=warnings)
        diagnostics.validate_model(cleaned.pairs_clean, cleaned.fit)
        diagnostics.adjusted_differences(cleaned.pairs_clean)
        fit = cleaned.fit
        ok = (abs(fit.d - TRUE["d"]) <= 5.0 * fit.se_d
              and planted <= set(cleaned.removed))
        return ds.label, pairs, cleaned, ok

    def op(self) -> OpResult:
        """One round: every event through the pipeline, then the set combined."""
        from lanefair import meta

        latencies, checks, cleaned_set, items = [], [], [], 0
        start = time.perf_counter()
        for path, planted in self.events:
            t0 = time.perf_counter()
            label, pairs, cleaned, ok = self._event(path, planted)
            latencies.append(time.perf_counter() - t0)
            checks.append(ok)
            cleaned_set.append((label, cleaned.pairs_clean))
            items += len(pairs)
        summaries = meta.summaries_from_events(cleaned_set)
        result = meta.combine(summaries)
        contrast = meta.split_half(cleaned_set)
        elapsed = time.perf_counter() - start
        checks.append(math.isfinite(result.grand_d) and math.isfinite(result.grand_se)
                      and len(contrast.per_event) == len(self.events))
        return OpResult(latencies, items, elapsed, checks)

    def trace_pass(self) -> list[bool]:
        return self.op().checks


WORKLOADS = {w.name: w for w in (CliSession, McCalibration, LargeField)}


def make_workdir(name: str) -> Path:
    path = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        path.parent.rmdir()
