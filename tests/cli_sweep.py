"""The CLI byte-identity sweep: every subcommand in every format, on the bundled
files and on the malformed inputs the tests hold, one sha256 per call.

Each digest covers the exit code, stdout, stderr, the warnings raised and
every file the call writes.  The calls run in-process, in a temporary working
directory that holds a copy of ``data/`` and the malformed inputs, with relative
paths, so no digest embeds a temporary path.  ``tests/test_cli.py`` compares the
digests with ``tests/data/cli_manifest.json``; to rewrite the manifest after a
deliberate output change, run from the repository root::

    PYTHONPATH=src python tests/cli_sweep.py --write

Without ``--write`` the script lists the calls whose digest differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

from lanefair.cli import main

REPO = Path(__file__).resolve().parent.parent
MANIFEST = REPO / "tests" / "data" / "cli_manifest.json"
FORMATS = ("text", "csv", "json")
EVENTS = [f"data/swc{y}.csv" for y in range(1984, 1995)]

HEADER = "#event,V,1990\n"
GOOD_ROW = "D,o,9.82,35.96,ok,i,9.75,35.76,ok\n"
# Three rows and a blank line that fill the parse memos before a malformed row.
WARM_ROWS = ("A,o,9.82,35.96,ok,i,9.75,35.76,ok\n"
             "B,i,9.90,36.10,ok,o,9.82,35.96,ok\n"
             "\n"
             "C,o,9.75,,fell,i,,,dns\n")
# The malformed rows of tests/test_dataset.py.
BAD_ROWS = [
    "X,x,9.82,35.96,ok,i,9.75,35.76,ok",
    "X,o,9.821,35.96,ok,i,9.75,35.76,ok",
    "X,o,9.82,35.96,ok,i,9.75,35.76,great",
    "X,o,9.82,35.96,ok,i,9.75,35.76",
    "X,o,,35.96,ok,i,9.75,35.76,ok",
    "X,o,9.82,35.96,fell,i,9.75,35.76,ok",
    "X,o,35.96,9.82,ok,i,9.75,35.76,ok",
    "X,o,9.7\u00b2,35.96,ok,i,9.75,35.76,ok",
    "X,o,\u0669.78,35.96,ok,i,9.75,35.76,ok",
    "X,o,9.82,\uff13\uff15.96,ok,i,9.75,35.76,ok",
    "X,o,9.82,90071992547409.92,ok,i,9.75,35.76,ok",
    f"X,o,9.82,{'1' * 307}.00,ok,i,9.75,35.76,ok",
    f"X,o,9.82,35.96,ok,i,{'9' * 4301}.75,35.76,ok",
    "X,o,9.82,35.96,ok, x,9.75,35.76,ok",
    "X,x,9.82,35.96,great,i,9.75,35.76,ok",
    "X,o,9.82,35.96,ok,i,9.75,,ok",
    "X,o,9.82,9.82,ok,i,9.75,35.76,ok",
    "X,o,9.82,35.96,ok,i,,35.76,dns",
    "X,o,9.82,35.96,ok,i,9.75,35.76,ok,n,x",
    " ,o,9.82,35.96,ok,i,9.75,35.76,ok",
    "B,o,9.82,35.96,ok,i,9.75,35.76,ok",
    "X, o,9.82,35.96,ok,i ,9.75,35.76,ok",
]


def _edited(path: str, old: str, new: str) -> str:
    text = (REPO / path).read_text(encoding="utf-8")
    assert old in text, (path, old)
    return text.replace(old, new, 1)


def _one_lane_half(best: bool) -> str:
    """A 12-skater event whose best half (or rest half) all started inner on day 1,
    so that half cannot identify d while the whole event and the other half can."""
    rows = []
    for i in range(12):
        lane1 = "i" if (i < 6) == best else "io"[i % 2]
        lane2 = "o" if lane1 == "i" else "i"
        x1, x2 = 10.00 + 0.04 * i + 0.02 * (i * 5 % 3), 10.02 + 0.04 * i + 0.02 * (i * 7 % 3)
        y1, y2 = 36.40 + 0.15 * i + 0.04 * (i * 7 % 4), 36.46 + 0.15 * i + 0.04 * (i * 5 % 4)
        rows.append(f"S{i:02d},{lane1},{x1:.2f},{y1:.2f},ok,{lane2},{x2:.2f},{y2:.2f},ok\n")
    return HEADER + "".join(rows)


def inputs() -> dict[str, str]:
    """The malformed and edge-case input files, by relative path."""
    files = {f"bad/line2-{k:02d}.csv": f"{HEADER}{row}\n" for k, row in enumerate(BAD_ROWS)}
    files.update({f"bad/warm-{k:02d}.csv": f"{HEADER}{WARM_ROWS}{row}\n{GOOD_ROW}"
                  for k, row in enumerate(BAD_ROWS)})
    one_lane = "".join(f"S{i},i,10.0{i},37.1{i},ok,o,10.1{i},37.2{i},ok\n" for i in range(6))
    swc1994 = (REPO / "data/swc1994.csv").read_text(encoding="utf-8")
    women = (REPO / "data/summaries_women.csv").read_text(encoding="utf-8")
    files.update({
        "bad/lane.csv": "#event,V,1990\nA,q,9.82,35.96,ok,i,9.75,35.76,ok\n",
        "bad/fit-superscript.csv": _edited("data/swc1994.csv", ",9.70,", ",9.7\u00b2,"),
        "bad/oly-superscript.csv": _edited("data/oly1994.csv", ",36.39,", ",36.3\u00b2,"),
        "bad/fit-307.csv": _edited("data/swc1994.csv", ",35.96,", f",{'9' * 307}.00,"),
        "bad/oly-4301.csv": _edited("data/oly1994.csv", ",38.58,", f",{'9' * 4301}.00,"),
        "bad/fit-year.csv": _edited("data/swc1994.csv", ",1994\n", ",01994\n"),
        "bad/oly-year.csv": _edited("data/oly1994.csv", ",1994\n", ",01994\n"),
        "bad/no-header.csv": GOOD_ROW,
        "bad/oly-unsorted.csv": "#event,Calgary,1988\nA,i,36.33,ok\nB,o,36.33,ok\n"
                                "C,i,36.20,ok\n",
        "bad/summary-header-after-data.csv": "A,0.1,0.05\nlabel,d,se\n",
        "bad/summary-non-numeric.csv": "# c\n\nA,0.1,0.05\nB,x,0.05\n",
        "bad/summary-two-headers.csv": "label,d,se\nA,0.1,0.05\nlabel,d,se\n",
        "edge/one-lane.csv": HEADER + one_lane,
        "edge/best-one-lane.csv": _one_lane_half(best=True),
        "edge/rest-one-lane.csv": _one_lane_half(best=False),
        "edge/small.csv": "".join(swc1994.splitlines(True)[:10]),
        "edge/bom.csv": "\ufeff" + swc1994,
        "edge/oly-header-only.csv": "#event,Calgary,1988\n",
        "edge/oly-no-header.csv": "A,i,36.40,ok\nB,o,36.50,ok\nC,i,,dnf\n",
        "edge/summary-comment.csv": " \n# women 500 m\n\n" + women,
        "edge/tiny-se.csv": "label,d,se\nA,0.05,1e-200\nB,0.04,0.02\n",
        "edge/huge-d.csv": "label,d,se\nA,1e308,0.02\nB,1e308,0.02\n",
        "edge/weight-sum.csv": "A,0.05,1.1e-154\nB,0.04,1.1e-154\nC,0.03,1.1e-154\n",
        "edge/opposite.csv": "A,1e200,1e-120\nB,-1e200,1e-120\n",
        "edge/dispersion.csv": "A,0,1e-100\nB,1e150,1e-10\n",
        "edge/inner-starts.csv": "A,i,36.40,ok\nB,i,36.50,ok\n",
    })
    return files


def calls() -> dict[str, tuple[str, ...]]:
    """Every call of the sweep, by name."""
    out = {}

    def add(name, *argv, formats=FORMATS):
        out.update({f"{name}/{fmt}": (*argv, "--format", fmt) for fmt in formats})

    for path in EVENTS:
        add(f"fit/{Path(path).stem}", "fit", path)
        add(f"validate/{Path(path).stem}", "validate", path)
    add("fit/all", "fit", *EVENTS)
    add("fit/swc1993-strict", "fit", "data/swc1993.csv", "--lane-policy", "strict")
    add("fit/swc1988-threshold-2.5", "fit", "data/swc1988.csv", "--threshold", "2.5")
    add("fit/swc1994-out", "fit", "data/swc1994.csv", "--out", "out/fit")
    add("fit/bom", "fit", "edge/bom.csv")
    add("meta/all", "meta", *EVENTS)
    add("meta/all-split-half", "meta", *EVENTS, "--split-half")
    add("meta/all-strict-split-half", "meta", *EVENTS, "--lane-policy", "strict",
        "--split-half")
    add("meta/all-no-screen", "meta", *EVENTS, "--threshold", "1e9")
    add("meta/best-one-lane-split-half", "meta", "data/swc1994.csv", "edge/best-one-lane.csv",
        "--split-half")
    add("meta/rest-one-lane-split-half", "meta", "edge/rest-one-lane.csv", "data/swc1994.csv",
        "--split-half")
    add("meta/swc1989", "meta", "data/swc1989.csv")
    add("meta/summary-men", "meta", "--summary", "data/summaries_men.csv")
    add("meta/summary-women", "meta", "--summary", "data/summaries_women.csv")
    add("meta/summary-comment", "meta", "--summary", "edge/summary-comment.csv")
    add("meta/summary-out", "meta", "--summary", "data/summaries_men.csv", "--out", "out/m")
    for name in ("oly1988", "oly1992", "oly1994"):
        for d in ("0.05", "0", "0.3", "-0.12"):
            add(f"speculate/{name}-d{d}", "speculate", f"data/{name}.csv", "--d", d)
    add("speculate/header-only", "speculate", "edge/oly-header-only.csv")
    add("speculate/no-header", "speculate", "edge/oly-no-header.csv")
    add("validate/swc1994-side-files", "validate", "data/swc1994.csv",
        "--kde-prefix", "out/kde", "--adjusted-out", "out/adjusted")
    add("validate/swc1993-strict-fixed", "validate", "data/swc1993.csv", "--lane-policy",
        "strict", "--bandwidth", "0.4", "--threshold", "2.5", "--kde-prefix", "out/kde",
        "--adjusted-out", "out/adjusted")
    add("power/default", "power", "--sigma", "0.25", "--se", "0.02")
    add("power/d-alpha", "power", "--sigma", "0.3", "--se", "0.015", "--d", "0.03",
        "--alpha", "0.1")
    add("mc/n12", "mc", "--n", "12", "--reps", "20", "--seed", "3")
    add("mc/n30", "mc", "--reps", "8")

    bad = [path for path in inputs() if path.startswith("bad/")]
    for path in bad:                # a parse error is written the same in every format
        if path.startswith(("bad/line2-", "bad/warm-")):
            add(f"fit/{Path(path).stem}", "fit", path, formats=("text",))
    errors = {
        **{f"fit/{Path(p).stem}": ("fit", p) for p in bad
           if not p.startswith(("bad/oly", "bad/summary", "bad/line2-", "bad/warm-"))},
        **{f"speculate/{Path(p).stem}": ("speculate", p) for p in bad
           if p.startswith("bad/oly")},
        **{f"meta/{Path(p).stem}": ("meta", "--summary", p) for p in bad
           if p.startswith("bad/summary")},
        "validate/lane": ("validate", "bad/lane.csv", "--adjusted-out", "out/adjusted"),
        "meta/lane": ("meta", "data/swc1994.csv", "bad/lane.csv"),
        "fit/missing-file": ("fit", "no-such-file.csv"),
        "fit/degenerate-design": ("fit", "edge/one-lane.csv"),
        "meta/no-input": ("meta",),
        "meta/small-split-half": ("meta", "edge/small.csv", "--split-half"),
        "meta/summary-split-half": ("meta", "--summary", "data/summaries_men.csv",
                                    "--split-half"),
        "fit/threshold-nan": ("fit", "data/swc1994.csv", "--threshold", "nan"),
        "fit/out-unwritable": ("fit", "data/swc1994.csv", "--out", "no-such-dir/fit"),
        "speculate/d-nan": ("speculate", "data/oly1994.csv", "--d", "nan"),
        "speculate/d-inf": ("speculate", "data/oly1994.csv", "--d", "inf"),
        "speculate/d-1e307": ("speculate", "data/oly1994.csv", "--d", "1e307"),
        "speculate/d-40": ("speculate", "data/oly1994.csv", "--d", "40"),
        "speculate/d-minus-40": ("speculate", "data/oly1994.csv", "--d", "-40"),
        "speculate/beyond-exact-floats": ("speculate", "edge/inner-starts.csv",
                                          "--d", "1.7e306"),
        "validate/bandwidth-abc": ("validate", "data/swc1994.csv", "--bandwidth", "abc"),
        "validate/bandwidth-nan": ("validate", "data/swc1994.csv", "--bandwidth", "nan"),
        "validate/bandwidth-zero": ("validate", "data/swc1994.csv", "--bandwidth", "0"),
        "validate/small-field": ("validate", "edge/small.csv"),
        "power/sigma-nan": ("power", "--sigma", "nan", "--se", "0.02"),
        "power/overflow": ("power", "--sigma", "1e200", "--se", "1e-200"),
        "mc/sigma-zero": ("mc", "--n", "6", "--reps", "5", "--sigma", "0"),
        "mc/one-replicate": ("mc", "--n", "20", "--reps", "1"),
        "mc/sigma-underflow": ("mc", "--reps", "3", "--sigma", "1e-200"),
        "mc/sigma-overflow": ("mc", "--reps", "3", "--sigma", "1e200"),
        **{f"meta/{Path(p).stem}": ("meta", "--summary", p) for p in (
            "edge/tiny-se.csv", "edge/huge-d.csv", "edge/weight-sum.csv",
            "edge/opposite.csv", "edge/dispersion.csv")},
    }
    for name, argv in errors.items():
        add(name, *argv, formats=("text", "json"))
    return out


def _digest(code, stdout: str, stderr: str, caught, side_files) -> str:
    h = hashlib.sha256()
    parts = [f"exit {code}".encode(), stdout.encode(), stderr.encode(),
             *(f"{w.category.__name__}: {w.message}".encode() for w in caught)]
    for path in side_files:
        parts += [path.as_posix().encode(), path.read_bytes()]
    for part in parts:
        h.update(len(part).to_bytes(8, "little") + part)
    return h.hexdigest()


def run_sweep() -> dict[str, str]:
    """The digest of every call, run in a fresh temporary working directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(REPO / "data", work / "data")
        for rel, text in inputs().items():
            (work / rel).parent.mkdir(parents=True, exist_ok=True)
            (work / rel).write_text(text, encoding="utf-8")
        (work / "out").mkdir()
        os.chdir(work)
        try:
            digests = {}
            for name, argv in calls().items():
                stdout, stderr = io.StringIO(), io.StringIO()
                with warnings.catch_warnings(record=True) as caught, \
                        contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    warnings.simplefilter("always")
                    code = main(list(argv))
                side = sorted(Path("out").iterdir())
                digests[name] = _digest(code, stdout.getvalue(), stderr.getvalue(), caught,
                                        side)
                for path in side:
                    path.unlink()
        finally:
            os.chdir(cwd)
    return digests


def changed(digests: dict[str, str], manifest: dict[str, str]) -> list[str]:
    """The call names whose digest differs from the manifest, or that only one side has."""
    return sorted(name for name in digests.keys() | manifest.keys()
                  if digests.get(name) != manifest.get(name))


if __name__ == "__main__":
    digests = run_sweep()
    if sys.argv[1:] == ["--write"]:
        MANIFEST.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
        print(f"wrote {len(digests)} digests to {MANIFEST.relative_to(REPO)}")
    else:
        diff = changed(digests, json.loads(MANIFEST.read_text(encoding="utf-8")))
        print("\n".join(diff) or f"all {len(digests)} digests match")
        sys.exit(1 if diff else 0)
