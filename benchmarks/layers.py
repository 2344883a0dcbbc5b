"""Per-layer tracing of lanefair from outside the package.

A ``Tracer`` replaces every module-level binding of each traced public
function with a timing wrapper, in every lanefair module that binds it
(``diagnostics.fit_ml``, ``meta.fit_ml``, ``cli.clean_and_refit``, ...),
so nested calls are attributed to their callers as child spans.  Spans
are folded into per-function totals as they close: one Monte Carlo pass
makes over a hundred thousand calls, too many to keep one record each.
A span's self time is its duration minus the durations of its direct
children.  ``model.solves_per_fit`` counts calls of ``numpy.linalg.solve``
made inside ``fit_ml``, so a stacked solve over many systems counts once.

The import layer is measured in fresh interpreters with
``python -X importtime``, since an in-process import happens only once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import statistics
import subprocess
import sys
import time

LAYERS = ("cli", "dataset", "model", "diagnostics", "meta", "counterfactual",
          "simulate", "report")

# The cli subcommand handlers are dispatch targets, not an interface: the
# cli layer is entered through main alone, so its self time covers them.
ENTRY_POINTS = {"cli": ("main",)}


class Tracer:
    """Timing wrappers around the public functions of every lanefair layer."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.rows = 0                         # skater rows parsed by parse_event
        self.refits = 0                       # clean_and_refit calls that refitted
        self.profile_evals_in_fit = 0
        self.solves_in_fit = 0
        self.fixed_point_residual_max = 0.0   # over interior fits, rho > 0
        self.boundary_fits = 0                # fits that ended at rho = 0
        self.condition_number_max = 0.0
        self._stack: list[list] = []
        self._fit_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import numpy
        import lanefair

        modules = {name: importlib.import_module(f"lanefair.{name}") for name in LAYERS}
        namespaces = [lanefair, *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or attr not in ENTRY_POINTS.get(layer, (attr,))):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, wrapper)
        self._patch(numpy.linalg, "solve", self._count_solves(numpy.linalg.solve))

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    def _patch(self, ns, key: str, value) -> None:
        self._patches.append((ns, key, getattr(ns, key)))
        setattr(ns, key, value)

    def _count_solves(self, solve):
        @functools.wraps(solve)
        def counted(*args, **kwargs):
            if self._fit_depth:
                self.solves_in_fit += 1
            return solve(*args, **kwargs)
        return counted

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        is_fit = name == "model.fit_ml"
        is_profile = name == "model.profile_loglik"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if is_fit:
                self._fit_depth += 1
            elif is_profile and self._fit_depth:
                self.profile_evals_in_fit += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if is_fit:
                    self._fit_depth -= 1
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            self._observe(name, result)
            return result
        return traced

    def _observe(self, name: str, result) -> None:
        if name == "dataset.parse_event":
            self.rows += len(result.skaters)
        elif name == "model.fit_ml":
            # At the rho = 0 boundary the stationarity identity need not hold.
            if result.rho > 0.0:
                self.fixed_point_residual_max = max(self.fixed_point_residual_max,
                                                    result.fixed_point_residual)
            else:
                self.boundary_fits += 1
            self.condition_number_max = max(self.condition_number_max,
                                            result.condition_number)
        elif name == "diagnostics.clean_and_refit" and result.removed:
            self.refits += 1

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def metrics(self) -> dict[str, float]:
        """The named per-layer metrics of one traced pass."""
        fits = self.calls("model.fit_ml")
        cleans = self.calls("diagnostics.clean_and_refit")
        parse_s = self.self_s("dataset.parse_event")
        out = {
            "cli.main.calls": self.calls("cli.main"),
            "cli.main.self_s": self.self_s("cli.main"),
            "dataset.load_event.self_s": self.self_s("dataset.load_event"),
            "dataset.parse_event.calls": self.calls("dataset.parse_event"),
            "dataset.parse_event.self_s": parse_s,
            "dataset.parse_event.s_per_row": parse_s / self.rows if self.rows else 0.0,
            "dataset.usable_pairs.self_s": self.self_s("dataset.usable_pairs"),
            "model.fit_ml.calls": fits,
            "model.fit_ml.self_s": self.self_s("model.fit_ml"),
            "model.profile_loglik.calls": self.calls("model.profile_loglik"),
            "model.profile_loglik.self_s": self.self_s("model.profile_loglik"),
            "model.gls_beta.calls": self.calls("model.gls_beta"),
            "model.build_moments.self_s": self.self_s("model.build_moments"),
            "model.profile_evals_per_fit": self.profile_evals_in_fit / fits if fits else 0.0,
            "model.solves_per_fit": self.solves_in_fit / fits if fits else 0.0,
            "model.fixed_point_residual_max": self.fixed_point_residual_max,
            "model.boundary_fit_share": self.boundary_fits / fits if fits else 0.0,
            "model.condition_number_max": self.condition_number_max,
            "diagnostics.clean_and_refit.calls": cleans,
            "diagnostics.clean_and_refit.self_s": self.self_s("diagnostics.clean_and_refit"),
            "diagnostics.refit_ratio": self.refits / cleans if cleans else 0.0,
        }
        for name in ("diagnostics.outlier_scan", "diagnostics.validate_model",
                     "diagnostics.gaussian_kde_curve", "diagnostics.adjusted_differences",
                     "meta.summaries_from_events", "meta.combine", "meta.split_half",
                     "counterfactual.parse_olympic", "counterfactual.speculate"):
            out[f"{name}.self_s"] = self.self_s(name)
        out["simulate.simulate_event.calls"] = self.calls("simulate.simulate_event")
        for name in ("simulate.simulate_event", "simulate.mc_calibration"):
            out[f"{name}.self_s"] = self.self_s(name)
        out["report.render.self_s"] = sum(s[2] for name, s in self.stats.items()
                                          if name.startswith("report."))
        return out


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def _top_level_cumulative(stderr: str, package: str) -> float:
    """Cumulative import seconds of ``package`` and its submodules, counting
    only entries not nested under another entry of the same package."""
    entries = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    total = 0
    inside: list[bool] = []           # per depth: does an open ancestor belong?
    # importtime prints a module after its children, so walk it backwards.
    for depth, name, cumulative in reversed(entries):
        del inside[depth:]
        mine = name == package or name.startswith(package + ".")
        if mine and not any(inside):
            total += cumulative
        inside.append(mine)
    return total / 1e6


def import_metrics(env: dict[str, str], cwd: str, repeats: int) -> dict[str, float]:
    """Median import.* seconds over ``repeats`` fresh interpreters."""
    samples: dict[str, list[float]] = {k: [] for k in (
        "import.interpreter_s", "import.lanefair_s", "import.scipy_s", "import.numpy_s")}
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True)
        samples["import.interpreter_s"].append(time.perf_counter() - start)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lanefair"],
                              env=env, cwd=cwd, check=True, capture_output=True, text=True)
        for package in ("lanefair", "scipy", "numpy"):
            samples[f"import.{package}_s"].append(_top_level_cumulative(proc.stderr, package))
    return {k: statistics.median(v) for k, v in samples.items()}
