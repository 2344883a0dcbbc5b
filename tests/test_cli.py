from __future__ import annotations

import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from lanefair.cli import main

import cli_sweep
from conftest import DATA, REPO

SCHEMAS = REPO / "src" / "lanefair" / "schemas"
BENCHMARKS = REPO / "benchmarks"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def check_schema(payload: str, name: str):
    schema = json.loads((SCHEMAS / f"{name}.json").read_text())
    jsonschema.validate(json.loads(payload), schema)


def test_fit_text_report(capsys):
    code, out, err = run(capsys, "fit", str(DATA / "swc1994.csv"))
    assert code == 0 and not err
    assert "1994 Calgary" in out
    assert "outliers removed: T.Hamamichi, P.Tahmindjis" in out


def test_fit_json_validates(capsys):
    code, out, _ = run(capsys, "fit", str(DATA / "swc1994.csv"),
                       str(DATA / "swc1993.csv"), "--format", "json")
    assert code == 0
    check_schema(out, "fit")
    payload = json.loads(out)
    assert [e["label"] for e in payload["events"]] == ["1994 Calgary", "1993 Ikaho"]
    fit94 = payload["events"][0]["fit"]
    assert fit94["n"] == 28
    assert abs(fit94["d"] - 0.0091) < 5e-4
    assert payload["events"][1]["fit"]["warnings"]  # same-lane record noted


def test_fit_outputs_are_deterministic(capsys, tmp_path):
    args = ("fit", str(DATA / "swc1990.csv"), "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_fit_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "fit", "no-such-file.csv")
    assert code == 3
    assert "cannot read" in err


def test_fit_malformed_file_is_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("#event,V,1990\nA,q,9.82,35.96,ok,i,9.75,35.76,ok\n")
    code, _, err = run(capsys, "fit", str(bad))
    assert code == 4
    assert "lane token" in err


@pytest.mark.parametrize("command,source,time,bad_time", [
    ("fit", "swc1994.csv", ",9.70,", ",9.7\u00b2,"),
    ("speculate", "oly1994.csv", ",36.39,", ",36.3\u00b2,"),
], ids=["fit", "speculate"])
def test_time_with_a_non_ascii_digit_is_parse_error(capsys, tmp_path, command, source,
                                                    time, bad_time):
    bad = tmp_path / source
    bad.write_text((DATA / source).read_text(encoding="utf-8").replace(time, bad_time, 1),
                   encoding="utf-8")
    code, out, err = run(capsys, command, str(bad))
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and err.startswith("lanefair: ")
    assert "centisecond" in err


@pytest.mark.parametrize("digits", [307, 4301])
@pytest.mark.parametrize("command,source,time", [
    ("fit", "swc1994.csv", ",35.96,"),
    ("speculate", "oly1994.csv", ",38.58,"),
], ids=["fit", "speculate"])
def test_oversized_time_is_parse_error(capsys, tmp_path, command, source, time, digits):
    bad = tmp_path / source
    bad.write_text((DATA / source).read_text(encoding="utf-8").replace(
        time, f",{'9' * digits}.00,", 1), encoding="utf-8")
    code, out, err = run(capsys, command, str(bad))
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and err.startswith("lanefair: ")
    assert "2**53 centiseconds" in err


@pytest.mark.parametrize("command,source", [
    ("fit", "swc1994.csv"),
    ("speculate", "oly1994.csv"),
], ids=["fit", "speculate"])
def test_non_canonical_header_year_is_parse_error(capsys, tmp_path, command, source):
    bad = tmp_path / source
    text = (DATA / source).read_text(encoding="utf-8")
    assert text.startswith("#event,") and ",1994\n" in text.splitlines(True)[0]
    bad.write_text(text.replace(",1994\n", ",01994\n", 1), encoding="utf-8")
    code, out, err = run(capsys, command, str(bad))
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and err.startswith("lanefair: ")
    assert "line 1: year '01994'" in err


def test_fit_degenerate_design_is_compute_error(capsys, tmp_path):
    rows = ["#event,V,1990"]
    for i in range(6):
        rows.append(f"S{i},i,10.0{i},37.1{i},ok,o,10.1{i},37.2{i},ok")
    one_lane = tmp_path / "onelane.csv"
    one_lane.write_text("\n".join(rows) + "\n")
    code, _, err = run(capsys, "fit", str(one_lane))
    assert code == 5
    assert "lane" in err


def test_fit_writes_output_file(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, out, _ = run(capsys, "fit", str(DATA / "swc1994.csv"),
                       "--format", "csv", "--out", str(out_path))
    assert code == 0 and out == ""
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("label,a1,a2")
    assert lines[1].startswith("1994 Calgary,")


def test_meta_over_all_events(capsys):
    files = [str(DATA / f"swc{y}.csv") for y in range(1984, 1995)]
    code, out, _ = run(capsys, "meta", *files, "--format", "json")
    assert code == 0
    check_schema(out, "meta")
    grand = json.loads(out)["grand"]
    assert abs(grand["d"] - 0.048) <= 0.005
    assert abs(grand["se"] - 0.016) <= 0.003
    assert grand["K"] == 11


def test_meta_from_summary_csv(capsys):
    code, out, _ = run(capsys, "meta", "--summary",
                       str(DATA / "summaries_women.csv"), "--format", "json")
    assert code == 0
    check_schema(out, "meta")
    grand = json.loads(out)["grand"]
    assert abs(grand["d"] - (-0.015)) <= 0.001
    assert abs(grand["se"] - 0.020) <= 0.001


@pytest.mark.parametrize("lead", ["# women 500 m\n", "\n", " \n# women 500 m\n\n"])
def test_summary_header_after_comment_or_blank_lines(capsys, tmp_path, lead):
    women = DATA / "summaries_women.csv"
    summary = tmp_path / "summary.csv"
    summary.write_text(lead + women.read_text(encoding="utf-8"), encoding="utf-8")
    for fmt in ("text", "json"):
        code, want, _ = run(capsys, "meta", "--summary", str(women), "--format", fmt)
        assert code == 0
        assert run(capsys, "meta", "--summary", str(summary), "--format", fmt) == (0, want, "")


@pytest.mark.parametrize("text", ["A,0.1,0.05\nlabel,d,se\n", "# c\n\nA,0.1,0.05\nB,x,0.05\n",
                                  "label,d,se\nA,0.1,0.05\nlabel,d,se\n"])
def test_summary_non_numeric_row_after_first_data_row_exits_4(capsys, tmp_path, text):
    summary = tmp_path / "summary.csv"
    summary.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "meta", "--summary", str(summary))
    assert (code, out) == (4, "") and err.endswith("non-numeric d/se\n")


def test_meta_single_event_equals_event(capsys):
    code, out, _ = run(capsys, "meta", str(DATA / "swc1989.csv"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["grand"]["d"] == payload["events"][0]["d"]
    assert payload["grand"]["se"] == payload["events"][0]["se"]


def test_meta_split_half_flag(capsys):
    files = [str(DATA / f"swc{y}.csv") for y in range(1984, 1995)]
    code, out, _ = run(capsys, "meta", *files, "--split-half")
    assert code == 0
    assert "split-half contrast" in out
    assert "-0.042" in out
    code, out, _ = run(capsys, "meta", *files, "--split-half", "--format", "json")
    assert code == 0
    check_schema(out, "meta")
    contrast = json.loads(out)["split_half"]
    assert abs(contrast["delta"] - (-0.042)) <= 5e-4 and contrast["se"] > 0
    code, out, _ = run(capsys, "meta", *files, "--split-half", "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1] == (f"split-half (best - rest),{contrast['delta']:.3f},"
                                    f"{contrast['se']:.3f}")
    _, out, _ = run(capsys, "meta", *files, "--format", "json")
    assert "split_half" not in json.loads(out)


def test_meta_requires_input(capsys):
    code, _, err = run(capsys, "meta")
    assert code == 4 and "needs" in err


def test_meta_split_half_of_a_small_field_is_compute_error(capsys, tmp_path):
    small = tmp_path / "small.csv"
    small.write_text("".join((DATA / "swc1994.csv").read_text().splitlines(True)[:10]))
    code, out, _ = run(capsys, "meta", str(small))
    assert code == 0
    code, out, err = run(capsys, "meta", str(small), "--split-half")
    assert code == 5 and out == ""
    assert err == "lanefair: no event could be split\n"


def test_speculate_csv_and_schema(capsys):
    code, out, _ = run(capsys, "speculate", str(DATA / "oly1994.csv"),
                       "--d", "0.05", "--format", "json")
    assert code == 0
    check_schema(out, "speculate")
    payload = json.loads(out)
    assert payload["d"] == 0.05
    assert payload["entries"][0] == {"rank": 1, "name": "Aleksandr Golubyev",
                                     "time": 36.38}


def test_speculate_text_layout(capsys):
    code, out, _ = run(capsys, "speculate", str(DATA / "oly1988.csv"))
    assert code == 0
    assert "real list:" in out and "speculative list:" in out
    assert "Uwe-Jens Mey" in out


@pytest.mark.parametrize("fmt,expected", [
    ("text", "Calgary 1988\nreal list:   speculative list:\n"),
    ("csv", "rank,name,time\n"),
    ("json", '{\n  "label": "Calgary 1988",\n  "d": 0.05,\n  "entries": []\n}\n'),
])
def test_speculate_on_a_header_only_list_shows_no_entries(capsys, tmp_path, fmt, expected):
    empty = tmp_path / "empty.csv"
    empty.write_text("#event,Calgary,1988\n", encoding="utf-8")
    assert run(capsys, "speculate", str(empty), "--format", fmt) == (0, expected, "")


def test_speculate_on_a_list_out_of_order_is_parse_error(capsys, tmp_path):
    bad = tmp_path / "unsorted.csv"
    bad.write_text("#event,Calgary,1988\nA,i,36.33,ok\nB,o,36.33,ok\nC,i,36.20,ok\n",
                   encoding="utf-8")
    code, out, err = run(capsys, "speculate", str(bad))
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and err.startswith("lanefair: ")
    assert "line 4: time 36.20 is faster" in err


def test_validate_outputs(capsys, tmp_path):
    prefix = tmp_path / "kde"
    code, out, _ = run(capsys, "validate", str(DATA / "swc1994.csv"),
                       "--format", "json", "--kde-prefix", str(prefix))
    assert code == 0
    check_schema(out, "validate")
    payload = json.loads(out)
    assert payload["n"] == 28
    assert abs(payload["moments"]["corr"] - 0.249) < 0.001
    for suffix in ("_diff.csv", "_ave.csv"):
        lines = Path(str(prefix) + suffix).read_text().splitlines()
        assert lines[0] == "x,density"
        assert len(lines) == 513


def test_validate_fixed_bandwidth(capsys):
    code, out, _ = run(capsys, "validate", str(DATA / "swc1994.csv"),
                       "--bandwidth", "0.4")
    assert code == 0


def test_validate_adjusted_differences_output(capsys, tmp_path):
    out_csv = tmp_path / "adjusted.csv"
    code, _, _ = run(capsys, "validate", str(DATA / "swc1994.csv"),
                     "--adjusted-out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "name,w,D,D_star"
    assert len(lines) == 29
    out_json = tmp_path / "adjusted.json"
    code, _, _ = run(capsys, "validate", str(DATA / "swc1994.csv"),
                     "--format", "json", "--adjusted-out", str(out_json))
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert len(payload["skaters"]) == 28
    assert {"name", "w", "D", "D_star"} <= set(payload["skaters"][0])


def test_power_reference(capsys):
    code, out, _ = run(capsys, "power", "--sigma", "0.25", "--se", "0.02",
                       "--d", "0.05", "--format", "json")
    assert code == 0
    check_schema(out, "power")
    payload = json.loads(out)
    assert payload["N_required"] == 313
    assert abs(payload["power"] - 0.80) <= 0.01


def test_mc_smoke_and_determinism(capsys):
    args = ("mc", "--n", "20", "--reps", "40", "--seed", "3", "--format", "json")
    code, out, _ = run(capsys, *args)
    assert code == 0
    check_schema(out, "mc")
    _, again, _ = run(capsys, *args)
    assert out == again
    payload = json.loads(out)
    assert payload["reps"] == 40 and payload["seed"] == 3


def test_mc_needs_two_replicates(capsys):
    for reps in ("0", "1"):
        code, out, err = run(capsys, "mc", "--n", "20", "--reps", reps, "--format", "json")
        assert code == 5 and out == ""
        assert err.count("\n") == 1 and "replicates" in err


# Inputs whose result leaves the float range: a summary row's weight 1/se^2,
# a weighted sum, the weight sum, inf - inf in the weighted sum, the
# dispersion, a run count, a variance bound that underflows to zero and
# moments that overflow.
TINY_SE = "label,d,se\nA,0.05,1e-200\nB,0.04,0.02\n"
INNER_STARTS = "A,i,36.40,ok\nB,i,36.50,ok\n"     # no time falls as d grows
HUGE_D = "label,d,se\nA,1e308,0.02\nB,1e308,0.02\n"
OUT_OF_RANGE = {
    "mc-sigma-underflow": (("mc", "--reps", "3", "--sigma", "1e-200"), 5),
    "mc-sigma-overflow": (("mc", "--reps", "3", "--sigma", "1e200"), 5),
    "meta-se-tiny": (("meta", "--summary", TINY_SE), 4),
    "meta-d-overflow": (("meta", "--summary", HUGE_D), 5),
    "meta-weight-sum-overflow": (("meta", "--summary", "A,0.05,1.1e-154\nB,0.04,1.1e-154\n"
                                  "C,0.03,1.1e-154\n"), 5),
    "meta-opposite-overflows": (("meta", "--summary", "A,1e200,1e-120\nB,-1e200,1e-120\n"), 5),
    "meta-dispersion-overflow": (("meta", "--summary", "A,0,1e-100\nB,1e150,1e-10\n"), 5),
    "power-overflow": (("power", "--sigma", "1e200", "--se", "1e-200"), 5),
    "speculate-time-beyond-exact-floats": (("speculate", INNER_STARTS, "--d", "1.7e306"), 5),
}


@pytest.mark.parametrize("argv,expected", [
    pytest.param(("fit", str(DATA / "swc1994.csv"), "--threshold", "nan"), 5,
                 id="fit-threshold-nan"),
    pytest.param(("speculate", str(DATA / "oly1994.csv"), "--d", "nan"), 5,
                 id="speculate-d-nan"),
    pytest.param(("speculate", str(DATA / "oly1994.csv"), "--d", "inf"), 5,
                 id="speculate-d-inf"),
    pytest.param(("speculate", str(DATA / "oly1994.csv"), "--d", "1e307"), 5,
                 id="speculate-d-overflows-centiseconds"),
    pytest.param(("speculate", str(DATA / "oly1994.csv"), "--d", "40"), 5,
                 id="speculate-d-negative-outer-times"),
    pytest.param(("speculate", str(DATA / "oly1994.csv"), "--d", "-40"), 5,
                 id="speculate-d-negative-inner-times"),
    pytest.param(("validate", str(DATA / "swc1994.csv"), "--bandwidth", "abc"), 5,
                 id="validate-bandwidth-abc"),
    pytest.param(("validate", str(DATA / "swc1994.csv"), "--bandwidth", "nan"), 5,
                 id="validate-bandwidth-nan"),
    pytest.param(("validate", str(DATA / "swc1994.csv"), "--bandwidth", "0"), 5,
                 id="validate-bandwidth-zero"),
    pytest.param(("power", "--sigma", "nan", "--se", "0.02"), 5, id="power-sigma-nan"),
    pytest.param(("mc", "--n", "6", "--reps", "5", "--sigma", "0"), 5, id="mc-sigma-zero"),
    *(pytest.param((*argv, "--format", fmt), code, id=f"{name}-{fmt}")
      for name, (argv, code) in OUT_OF_RANGE.items() for fmt in ("text", "json")),
])
def test_unusable_arguments_are_compute_errors(capsys, tmp_path, argv, expected):
    for k, arg in enumerate(argv):
        if "\n" in arg:                     # the text of an input file
            source = tmp_path / "input.csv"
            source.write_text(arg)
            argv = (*argv[:k], str(source), *argv[k + 1:])
    code, out, err = run(capsys, *argv)
    assert code == expected and out == ""
    assert err.count("\n") == 1 and err.startswith("lanefair: ")
    assert "(34," not in err        # errno text of a bare OverflowError


def test_non_finite_json_is_compute_error(capsys, monkeypatch):
    from lanefair import simulate

    report = simulate.mc_calibration(n=6, reps=3)
    monkeypatch.setattr(simulate, "mc_calibration",
                        lambda **_: dataclasses.replace(report, var_ratio=math.inf))
    code, out, err = run(capsys, "mc", "--format", "json")
    assert code == 5 and out == ""
    assert err.count("\n") == 1 and "not JSON compliant" in err
    code, out, _ = run(capsys, "mc")
    assert code == 0 and "ratio inf" in out


def test_cli_matches_benchmark_goldens(capsys, monkeypatch, tmp_path):
    """Every call of the benchmark's cli script reproduces its golden bytes."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    monkeypatch.chdir(REPO)
    for call in workloads.cli_script(str(tmp_path)):
        code, out, _ = run(capsys, *call.argv)
        assert code == 0, call.name
        assert out.encode() == (BENCHMARKS / "goldens" / f"{call.name}.out").read_bytes(), \
            call.name
        for golden, rel in call.side_files:
            assert ((tmp_path / rel).read_bytes()
                    == (BENCHMARKS / "goldens" / golden).read_bytes()), golden


def test_every_cli_call_matches_its_manifest_digest():
    """The sweep of tests/cli_sweep.py reproduces the committed digest of every call."""
    manifest = json.loads(cli_sweep.MANIFEST.read_text(encoding="utf-8"))
    assert cli_sweep.changed(cli_sweep.run_sweep(), manifest) == []


def test_byte_order_mark_is_ignored(capsys, tmp_path):
    source = DATA / "swc1994.csv"
    bom = tmp_path / "swc1994.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    _, expected, _ = run(capsys, "fit", str(source))
    code, out, err = run(capsys, "fit", str(bom))
    assert code == 0 and not err
    assert out == expected



# Modules that only the estimators need; the package import, the integer and
# closed-form subcommands and combining published summaries must not load them.
ESTIMATION_MODULES = ("numpy", "lanefair.model", "lanefair.diagnostics")
OLYMPIC = str(DATA / "oly1994.csv")
SUMMARY = str(DATA / "summaries_women.csv")
FIT_SOURCE = str(DATA / "swc1994.csv")


# Standard-library modules that the light calls' start-up time shows: dataclasses
# loads inspect (and with it ast, dis and tokenize), and only the normal quantiles
# of power need statistics.
STARTUP_MODULES = ("dataclasses", "inspect", "json", "statistics")
LIGHT_CALLS = {
    "import": "import lanefair",
    "speculate": f"from lanefair.cli import main; assert main(['speculate', {OLYMPIC!r}]) == 0",
    "power": "from lanefair.cli import main;"
             " assert main(['power', '--sigma', '1', '--se', '0.1']) == 0",
    "meta-summary": "from lanefair.cli import main;"
                    f" assert main(['meta', '--summary', {SUMMARY!r}]) == 0",
}


def _loaded(statement: str, modules: tuple[str, ...]) -> str:
    """Which of ``modules`` a fresh interpreter has loaded after ``statement``."""
    probe = f"{statement}\nimport sys\nprint(sorted(set({modules!r}) & set(sys.modules)))"
    path = [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("statement", LIGHT_CALLS.values(), ids=LIGHT_CALLS.keys())
def test_light_calls_load_no_numpy(statement):
    assert _loaded(statement, ESTIMATION_MODULES) == "[]"


@pytest.mark.parametrize("call", ["power", "meta-summary"])
def test_calls_without_a_list_load_no_counterfactual(call):
    assert _loaded(LIGHT_CALLS[call], ("lanefair.counterfactual", "lanefair.dataset")) == "[]"


@pytest.mark.parametrize("call", ["speculate", "power", "meta-summary"])
def test_light_text_calls_load_no_dataclasses_inspect_or_json(call):
    expected = "['statistics']" if call == "power" else "[]"
    assert _loaded(LIGHT_CALLS[call], STARTUP_MODULES) == expected


def test_fit_text_loads_no_dataclasses():
    statement = f"from lanefair.cli import main; assert main(['fit', {FIT_SOURCE!r}]) == 0"
    assert _loaded(statement, ("dataclasses",)) == "[]"


def test_parse_error_loads_no_numpy(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("#event,V,1990\nA,q,9.82,35.96,ok,i,9.75,35.76,ok\n", encoding="utf-8")
    statement = f"from lanefair.cli import main; assert main(['fit', {str(bad)!r}]) == 4"
    assert _loaded(statement, ESTIMATION_MODULES) == "[]"


def test_package_names_are_their_home_modules_objects():
    import lanefair

    assert len(lanefair.__all__) == len(set(lanefair.__all__)) == 44
    for name in lanefair.__all__:
        obj = getattr(lanefair, name)
        assert obj is getattr(importlib.import_module(obj.__module__), name), name
    with pytest.raises(AttributeError):
        lanefair.no_such_name


def test_result_records_cannot_be_assigned(events, pipeline):
    import lanefair as lf

    _, entries = lf.parse_olympic((DATA / "oly1994.csv").read_text(encoding="utf-8"))
    spec = lf.speculate(entries, 0.05)
    contrast = lf.split_half((y, c.pairs_clean) for y, c in pipeline.items())
    cleaned = pipeline[1994]
    validation = lf.validate_model(cleaned.pairs_clean, cleaned.fit)
    summaries = lf.read_summaries(Path(SUMMARY).read_text(encoding="utf-8"))
    records = [
        events[1994], events[1994].skaters[0], entries[0], spec, spec.entries[0],
        summaries[0], lf.combine(summaries), lf.power_plan(0.25, 0.02, 0.05),
        contrast, contrast.per_event[0],
        lf.build_moments(cleaned.pairs_clean), cleaned, cleaned.fit, cleaned.report,
        validation, validation.kde_diff, lf.adjusted_differences(cleaned.pairs_clean)]
    assert sorted(type(r).__name__ for r in records) == sorted(
        "EventDataset SkaterPair OlympicEntry SpeculativeList SpeculativeEntry EventSummary"
        " MetaResult PowerSpec SplitContrast SplitEntry MomentMatrices CleanedFit FitResult"
        " OutlierReport ValidationReport KdeCurve AdjustedDiffs".split())
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
