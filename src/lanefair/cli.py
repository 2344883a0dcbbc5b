"""Command-line front end: fit, meta, speculate, validate, power, mc.

Each subcommand imports the modules it computes with and maps their errors
to exit codes, so ``speculate``, ``power`` and ``meta --summary`` never load
numpy."""

from __future__ import annotations

import argparse
import functools
import math
import sys
from contextlib import contextmanager
from pathlib import Path

from . import DEFAULT_THRESHOLD, report

EXIT_OK = 0
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_COMPUTE = 5


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextmanager
def _exit_on(errors, code: int, prefix: str = ""):
    """Turn ``errors`` raised in the block into a _CliFailure with ``code``."""
    try:
        yield
    except errors as exc:
        raise _CliFailure(code, f"{prefix}{exc}") from None


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise _CliFailure(EXIT_IO, f"cannot read {path}: {exc.strerror}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _CliFailure(EXIT_IO, f"cannot write {out}: {exc.strerror}") from None


def _render(output: str, fmt: str, *result) -> str:
    with _exit_on(ValueError, EXIT_COMPUTE, f"{output}: "):    # NaN or inf in JSON
        return report.render(output, fmt, *result)


def _load_events(paths):
    from .dataset import ParseError, parse_event

    events = []
    for path in paths:
        text = _read(path)
        with _exit_on(ParseError, EXIT_PARSE, f"{path}: "):
            events.append(parse_event(text))
    return events


def _clean_all(events, lane_policy: str, threshold: float):
    from .dataset import usable_pairs
    from .diagnostics import clean_and_refit
    from .model import FitError

    out = []
    for ds in events:
        pairs, warns = usable_pairs(ds, lane_policy)
        with _exit_on(FitError, EXIT_COMPUTE, f"{ds.label}: "):
            cleaned = clean_and_refit(pairs, threshold, warnings=warns)
        out.append((ds, pairs, cleaned))
    return out


def cmd_fit(args) -> int:
    events = _load_events(args.files)
    cleaned = _clean_all(events, args.lane_policy, args.threshold)
    rows = [(ds.label, c, len(pairs)) for ds, pairs, c in cleaned]
    _emit(_render("fit", args.format, rows), args.out)
    return EXIT_OK


def cmd_meta(args) -> int:
    from . import meta

    if args.summary:
        with _exit_on(meta.MetaError, EXIT_PARSE, f"{args.summary}: "):
            summaries = meta.read_summaries(_read(args.summary))
    elif args.files:
        cleaned = _clean_all(_load_events(args.files), args.lane_policy, args.threshold)
        with _exit_on(meta.MetaError, EXIT_COMPUTE):
            summaries = [meta.EventSummary(ds.label, c.fit.d, c.fit.se_d, c.fit.n)
                         for ds, _, c in cleaned]
    else:
        raise _CliFailure(EXIT_PARSE, "meta needs event files or --summary")
    with _exit_on(meta.MetaError, EXIT_COMPUTE):
        result = meta.combine(summaries)
    contrast = None
    if args.split_half:
        if args.summary:
            raise _CliFailure(EXIT_PARSE, "--split-half needs raw event files")
        with _exit_on(meta.MetaError, EXIT_COMPUTE):
            contrast = meta.split_half((ds.label, c.pairs_clean) for ds, _, c in cleaned)
    _emit(_render("meta", args.format, summaries, result, contrast), args.out)
    return EXIT_OK


def cmd_speculate(args) -> int:
    from .counterfactual import speculate
    from .dataset import ParseError, parse_olympic

    text_in = _read(args.file)
    with _exit_on(ParseError, EXIT_PARSE, f"{args.file}: "):
        label, entries = parse_olympic(text_in)
    with _exit_on(ValueError, EXIT_COMPUTE, f"{args.file}: "):
        spec = speculate(entries, args.d)
    _emit(_render("speculate", args.format, label, entries, spec), args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    from .diagnostics import adjusted_differences, validate_model
    from .model import FitError

    try:
        bandwidth = None if args.bandwidth == "silverman" else float(args.bandwidth)
    except ValueError:
        raise _CliFailure(EXIT_COMPUTE, f"--bandwidth {args.bandwidth!r} is neither "
                                        "'silverman' nor a number") from None
    events = _load_events([args.file])
    cleaned = _clean_all(events, args.lane_policy, args.threshold)
    ds, _, c = cleaned[0]
    with _exit_on(ValueError, EXIT_COMPUTE, f"{ds.label}: "):
        rep = validate_model(c.pairs_clean, c.fit)
        if bandwidth is not None:           # a fixed width replaces both of Silverman's
            if not 0.0 < bandwidth < math.inf:
                raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
            rep = rep._replace(bandwidth_diff=bandwidth, bandwidth_ave=bandwidth)
    if args.kde_prefix:
        _emit(_render("kde", "csv", rep.kde_diff), f"{args.kde_prefix}_diff.csv")
        _emit(_render("kde", "csv", rep.kde_ave), f"{args.kde_prefix}_ave.csv")
    if args.adjusted_out:
        with _exit_on(FitError, EXIT_COMPUTE):
            ad = adjusted_differences(c.pairs_clean)
        _emit(_render("adjusted", args.format, ds.label, ad), args.adjusted_out)
    _emit(_render("validate", args.format, ds.label, rep), args.out)
    return EXIT_OK


def cmd_power(args) -> int:
    from . import meta

    with _exit_on(meta.MetaError, EXIT_COMPUTE):
        spec = meta.power_plan(args.sigma, args.se, args.d, args.alpha)
    _emit(_render("power", args.format, spec), args.out)
    return EXIT_OK


def cmd_mc(args) -> int:
    from . import simulate
    from .model import FitError

    with _exit_on((ValueError, FitError), EXIT_COMPUTE):
        rep = simulate.mc_calibration(n=args.n, reps=args.reps, seed=args.seed,
                                      d=args.d, sigma=args.sigma, kappa=args.kappa)
    _emit(_render("mc", args.format, rep), args.out)
    return EXIT_OK


def _common_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--out", help="write the report here instead of stdout")


def _common_pipeline(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="outlier flag threshold (default %(default)s)")
    p.add_argument("--lane-policy", choices=["warn_day1", "strict"],
                   default="warn_day1", dest="lane_policy",
                   help="handling of same-lane-both-days records")


@functools.cache                # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lanefair",
        description="Lane-advantage analysis of two-day paired 500 m results.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit each event and report estimates + outliers")
    p.add_argument("files", nargs="+", metavar="EVENT_CSV")
    _common_pipeline(p)
    _common_output(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("meta", help="combine per-event estimates")
    p.add_argument("files", nargs="*", metavar="EVENT_CSV")
    p.add_argument("--summary", help="read label,d,se rows instead of fitting")
    p.add_argument("--split-half", action="store_true", dest="split_half",
                   help="also contrast best half vs rest per event")
    _common_pipeline(p)
    _common_output(p)
    p.set_defaults(func=cmd_meta)

    p = sub.add_parser("speculate", help="re-rank a single-run list under a lane swap")
    p.add_argument("file", metavar="OLYMPIC_CSV")
    p.add_argument("--d", type=float, default=0.05,
                   help="lane advantage in seconds (default %(default)s)")
    _common_output(p)
    p.set_defaults(func=cmd_speculate)

    p = sub.add_parser("validate", help="normality and independence checks")
    p.add_argument("file", metavar="EVENT_CSV")
    p.add_argument("--bandwidth", default="silverman",
                   help="'silverman' or a fixed kernel bandwidth")
    p.add_argument("--kde-prefix", dest="kde_prefix",
                   help="write density curves to PREFIX_{diff,ave}.csv")
    p.add_argument("--adjusted-out", dest="adjusted_out",
                   help="write per-skater adjusted lap-time differences here")
    _common_pipeline(p)
    _common_output(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("power", help="sample-size and detection probability")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--se", type=float, required=True, help="target standard error")
    p.add_argument("--d", type=float, default=0.05, help="true difference")
    p.add_argument("--alpha", type=float, default=0.05)
    _common_output(p)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("mc", help="Monte Carlo calibration of the estimator")
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--d", type=float, default=0.05)
    p.add_argument("--sigma", type=float, default=0.25)
    p.add_argument("--kappa", type=float, default=0.30)
    _common_output(p)
    p.set_defaults(func=cmd_mc)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise _CliFailure(EXIT_COMPUTE, f"--{name} must be a finite number, got {value}")
        return args.func(args)
    except _CliFailure as exc:
        print(f"lanefair: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
