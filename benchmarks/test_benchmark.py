"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root with ``python -m pytest benchmarks``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _smoke(workload: str, trace: int, seed: int = 3) -> tuple[dict, str]:
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                "--trace", str(trace), "--smoke")
    return _result(proc), proc.stdout


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_smoke_end_to_end(workload):
    result, out = _smoke(workload, 0)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_rate      0.000000" in out
    assert '"src_lines": ' in out


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_smoke_per_layer(workload):
    result, out = _smoke(workload, 1)
    assert set(result["metrics"]) == set(run.PER_LAYER)
    for name in ("import.scipy_s", "model.solves_per_fit", "dataset.parse_event.s_per_row",
                 "report.render.self_s", "cli.main.self_s"):
        assert f"  {name} " in out
    assert f"tracing overhead ({workload})" in out
    assert result["metrics"]["model.fit_ml.calls"]["value"] > 0


@pytest.mark.parametrize("workload", ["mc-calibration", "large-field"])
def test_per_fit_counts_repeat_exactly_for_a_fixed_seed(workload):
    names = ("model.profile_evals_per_fit", "model.solves_per_fit", "model.fit_ml.calls")
    first, _ = _smoke(workload, 1, seed=5)
    second, _ = _smoke(workload, 1, seed=5)
    for name in names:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "mc-calibration", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_cli_check_rejects_changed_bytes_and_failed_exits(tmp_path):
    session = wl.CliSession(1, True, tmp_path)
    call = wl.CliCall("power", ("power",))
    session.goldens = {"power.out": b"expected\n"}
    assert session._check(call, 0, b"expected\n")
    assert not session._check(call, 0, b"expected \n")
    assert not session._check(call, 5, b"expected\n")


def test_synthetic_event_plants_outliers_the_screen_flags():
    sys.path.insert(0, str(ROOT / "src"))
    from lanefair import clean_and_refit, parse_event, usable_pairs

    text, planted = wl.synthetic_event(9, 0, 250)
    assert text == wl.synthetic_event(9, 0, 250)[0]
    pairs, warnings = usable_pairs(parse_event(text))
    assert len(planted) == 2 and len(pairs) == 245 and len(warnings) == 2
    assert planted <= set(clean_and_refit(pairs, warnings=warnings).removed)


def test_importtime_counts_only_outermost_package_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        50 |         50 |     numpy",
        "import time:        20 |         70 |   lanefair.model",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        30 |         40 |     scipy",
        "import time:        15 |         15 |       numpy.fft",
        "import time:       200 |        215 |     scipy.stats",
        "import time:        25 |        280 |   lanefair.meta",
        "import time:         5 |        355 | lanefair",
    ])
    assert layers._top_level_cumulative(stderr, "scipy") == pytest.approx(255e-6)
    assert layers._top_level_cumulative(stderr, "numpy") == pytest.approx(65e-6)
    assert layers._top_level_cumulative(stderr, "lanefair") == pytest.approx(355e-6)
