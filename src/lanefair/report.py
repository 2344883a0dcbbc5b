"""Text, CSV and JSON renderings of every command-line output.

``render(output, fmt, *result)`` looks the renderer up in one table keyed
by (output, format); the renderers of one output share a signature.  JSON
numbers that are estimates carry six significant figures (``_g``), and
``_json`` refuses NaN and infinity, so every JSON output is valid JSON.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence, TypeAlias

if TYPE_CHECKING:       # result types only: rendering needs none of their modules
    from .counterfactual import SpeculativeList
    from .diagnostics import AdjustedDiffs, CleanedFit, ValidationReport
    from .meta import MetaResult, PowerSpec, SplitContrast
    from .simulate import McReport

FitRows: TypeAlias = "Sequence[tuple[str, CleanedFit, int]]"  # (label, fit, usable pairs)


def _g(x: float) -> float:
    return float(f"{x:.6g}")


def _rows(names, *columns):
    """(name, value, ...) per skater of a report's float64 columns, as Python floats."""
    return zip(names, *(c.tolist() for c in columns))


def _json(payload: dict) -> str:
    import json

    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _fit_json(rows: FitRows) -> str:
    events = []
    for label, c, n_usable in rows:
        f, se, r = c.fit, c.fit.se, c.report
        events.append({
            "label": label,
            "n_usable": n_usable,
            "fit": {
                "a1": _g(f.a1), "a2": _g(f.a2), "b": _g(f.b), "d": _g(f.d),
                "rho": _g(f.rho),
                "sigma_un": _g(f.sigma_un), "kappa_un": _g(f.kappa_un),
                "se": {"a1": _g(se[0]), "a2": _g(se[1]), "b": _g(se[2]), "d": _g(se[3])},
                "loglik": _g(f.loglik),
                "n": f.n,
                "warnings": list(c.warnings),
            },
            "outliers": {
                "threshold": r.threshold,
                "removed": list(c.removed),
                "statistics": [
                    {"name": name, "t1": _g(t1), "t2": _g(t2), "t3": _g(t3),
                     "flagged_by": list(tags)}
                    for (name, t1, t2, t3), tags in zip(_rows(r.names, r.t1, r.t2, r.t3),
                                                        r.flagged_by)],
            },
        })
    return _json({"events": events})


def _fit_csv(rows: FitRows) -> str:
    lines = ["label,a1,a2,b,d,rho,sigma,kappa,se_d,n,outliers"]
    for label, c, _ in rows:
        f = c.fit
        lines.append(",".join([
            label, f"{f.a1:.3f}", f"{f.a2:.3f}", f"{f.b:.3f}", f"{f.d:.3f}",
            f"{f.rho:.3f}", f"{f.sigma_un:.3f}", f"{f.kappa_un:.3f}",
            f"{f.se_d:.3f}", str(f.n), ";".join(c.removed)]))
    return "\n".join(lines) + "\n"


def _fit_text(rows: FitRows) -> str:
    head = (f"{'event':<18}{'a1':>8}{'a2':>8}{'b':>7}{'d':>8}"
            f"{'rho':>7}{'sigma':>7}{'kappa':>7}{'se(d)':>7}{'n':>4}")
    lines = [head]
    for label, c, n_usable in rows:
        f = c.fit
        lines.append(f"{label:<18}{f.a1:>8.3f}{f.a2:>8.3f}{f.b:>7.3f}{f.d:>8.3f}"
                     f"{f.rho:>7.3f}{f.sigma_un:>7.3f}{f.kappa_un:>7.3f}"
                     f"{f.se_d:>7.3f}{f.n:>4}")
        removed = ", ".join(c.removed) if c.removed else "none"
        lines.append(f"  usable pairs: {n_usable}; outliers removed: {removed}")
        for w in c.warnings:
            lines.append(f"  warning: {w}")
    return "\n".join(lines) + "\n"


def _meta_json(summaries, result: MetaResult, contrast: SplitContrast | None) -> str:
    payload = {
        "events": [{"label": s.label, "d": _g(s.d), "se": _g(s.se)} for s in summaries],
        "grand": {
            "d": _g(result.grand_d), "se": _g(result.grand_se), "z": _g(result.z),
            "p_one_sided": _g(result.p_one_sided), "p_two_sided": _g(result.p_two_sided),
            "ci95": [_g(result.ci95[0]), _g(result.ci95[1])],
            "omega0": _g(result.omega0), "K": result.K,
        },
    }
    if contrast is not None:
        payload["split_half"] = {"delta": _g(contrast.combined_delta),
                                 "se": _g(contrast.combined_se)}
    return _json(payload)


def _meta_csv(summaries, result: MetaResult, contrast: SplitContrast | None) -> str:
    lines = ["label,d,se"]
    lines += [f"{s.label},{s.d:.3f},{s.se:.3f}" for s in summaries]
    lines.append(f"grand average,{result.grand_d:.3f},{result.grand_se:.3f}")
    if contrast is not None:
        lines.append(f"split-half (best - rest),{contrast.combined_delta:.3f},"
                     f"{contrast.combined_se:.3f}")
    return "\n".join(lines) + "\n"


def _meta_text(summaries, result: MetaResult, contrast: SplitContrast | None) -> str:
    width = max(len(s.label) for s in summaries) + 2
    lines = [f"{'event':<{width}}{'d':>8}{'se':>8}"]
    lines += [f"{s.label:<{width}}{s.d:>8.3f}{s.se:>8.3f}" for s in summaries]
    lines.append(f"{'grand average':<{width}}{result.grand_d:>8.3f}{result.grand_se:>8.3f}")
    lines.append(f"z = {result.z:.2f}, one-sided p = {result.p_one_sided:.4g}, "
                 f"two-sided p = {result.p_two_sided:.4g}")
    lines.append(f"95% CI [{result.ci95[0]:.3f}, {result.ci95[1]:.3f}], "
                 f"between-event spread omega0 = {result.omega0:.3f}")
    if contrast is not None:
        lines.append(f"split-half contrast (best - rest): {contrast.combined_delta:+.3f}"
                     f" +- {contrast.combined_se:.3f}")
    return "\n".join(lines) + "\n"


def _validate_json(label: str, rep: ValidationReport) -> str:
    return _json({
        "label": label,
        "n": rep.n,
        "skaters": [{"name": name, "ave_star": _g(ave), "diff_star": _g(diff)}
                    for name, ave, diff in _rows(rep.names, rep.ave_star, rep.diff_star)],
        "moments": {
            "skew_diff": _g(rep.skew_diff), "skew_ave": _g(rep.skew_ave),
            "kurt_diff": _g(rep.kurt_diff), "kurt_ave": _g(rep.kurt_ave),
            "corr": _g(rep.corr),
        },
        "bands": {"skew": _g(rep.band_skew), "kurt": _g(rep.band_kurt),
                  "corr": _g(rep.band_corr)},
    })


def _validate_csv(label: str, rep: ValidationReport) -> str:
    lines = ["name,ave_star,diff_star"]
    lines += [f"{name},{ave:.4f},{diff:.4f}"
              for name, ave, diff in _rows(rep.names, rep.ave_star, rep.diff_star)]
    return "\n".join(lines) + "\n"


def _validate_text(label: str, rep: ValidationReport) -> str:
    lines = [f"{label}: model validation on {rep.n} pairs",
             f"  skewness      diff* {rep.skew_diff:+.3f}  ave* {rep.skew_ave:+.3f}"
             f"   (90% band +-{rep.band_skew:.2f})",
             f"  excess kurt   diff* {rep.kurt_diff:+.3f}  ave* {rep.kurt_ave:+.3f}"
             f"   (90% band +-{rep.band_kurt:.2f})",
             f"  corr(ave*, diff*) {rep.corr:+.3f}   (90% band +-{rep.band_corr:.2f})"]
    return "\n".join(lines) + "\n"


def _kde_csv(curve) -> str:
    lines = ["x,density"]
    lines += [f"{x:.6g},{y:.6g}" for x, y in zip(curve.grid, curve.density)]
    return "\n".join(lines) + "\n"


def _adjusted_csv(label: str, ad: AdjustedDiffs) -> str:
    lines = ["name,w,D,D_star"]
    lines += [f"{name},{w:+.1f},{D:.4f},{star:.4f}"
              for name, w, D, star in _rows(ad.names, ad.w, ad.D, ad.D_star)]
    return "\n".join(lines) + "\n"


def _adjusted_json(label: str, ad: AdjustedDiffs) -> str:
    return _json({
        "label": label,
        "sigma_un": _g(ad.fit_zero_d.sigma_un),
        "skaters": [{"name": name, "w": w, "D": _g(D), "D_star": _g(star)}
                    for name, w, D, star in _rows(ad.names, ad.w, ad.D, ad.D_star)],
    })


def _speculate_json(label: str, entries, spec: SpeculativeList) -> str:
    return _json({
        "label": label,
        "d": spec.d_cs / 100.0,
        "entries": [{"rank": e.rank, "name": e.name,
                     "time": None if e.time_cs is None else e.time_cs / 100.0}
                    for e in spec.entries],
    })


def _speculate_csv(label: str, entries, spec: SpeculativeList) -> str:
    lines = ["rank,name,time"]
    for e in spec.entries:
        lines.append(f"{'' if e.rank is None else e.rank},{e.name},{e.time_text}")
    return "\n".join(lines) + "\n"


def _rank_marks(ranks) -> list[str]:
    """'<rank>.' where a rank first appears, '' elsewhere and when unranked."""
    return ["" if r is None or r == prev else f"{r}." for prev, r in zip([None, *ranks], ranks)]


def _speculate_text(label: str, entries, spec: SpeculativeList) -> str:
    """Aligned real-vs-speculative listing, one skater per line each side."""
    from .counterfactual import competition_ranks
    from .dataset import format_time

    finished = [e for e in entries if e.finished]
    unranked = [e for e in entries if not e.finished]
    real_marks = _rank_marks(competition_ranks([e.time_cs for e in finished])
                             + [None] * len(unranked))
    spec_marks = _rank_marks([s.rank for s in spec.entries])
    width = max((len(e.name) for e in entries), default=0)
    lines = []
    if label:
        lines.append(label)
    lines.append(f"{'real list:':<{width + 13}}speculative list:")
    for rr, e, sr, s in zip(real_marks, finished + unranked, spec_marks, spec.entries):
        rt = format_time(e.time_cs) if e.finished else e.status.value
        lines.append(f"{rr:>4} {e.name:<{width}} {e.lane.value} {rt:>6}"
                     f"    {sr:>4} {s.name:<{width}} {s.time_text:>6}")
    return "\n".join(lines) + "\n"


def _power_json(spec: PowerSpec) -> str:
    return _json({"sigma": spec.sigma, "target_se": spec.target_se, "true_d": spec.true_d,
                  "alpha": spec.alpha, "N_required": spec.N_required,
                  "power": _g(spec.power)})


def _power_csv(spec: PowerSpec) -> str:
    return ("sigma,target_se,true_d,alpha,N_required,power\n"
            f"{spec.sigma:g},{spec.target_se:g},{spec.true_d:g},"
            f"{spec.alpha:g},{spec.N_required},{spec.power:.4f}\n")


def _power_text(spec: PowerSpec) -> str:
    return (f"per-run spread sigma = {spec.sigma:g}, target se = {spec.target_se:g}\n"
            f"paired runs required: {spec.N_required}\n"
            f"one-sided power at true d = {spec.true_d:g} "
            f"(alpha = {spec.alpha:g}): {spec.power:.3f}\n")


# McReport fields that JSON and CSV print at six significant figures.
_MC_ESTIMATES = ("d_mean", "d_var", "d_var_theory", "var_ratio", "sigma2_un_mean", "rho_mean")


def _mc_json(rep: McReport) -> str:
    return _json({"n": rep.n, "reps": rep.reps, "seed": rep.seed,
                  "true": {"d": rep.d_true, "sigma": rep.sigma_true, "kappa": rep.kappa_true},
                  **{k: _g(getattr(rep, k)) for k in _MC_ESTIMATES}})


def _mc_csv(rep: McReport) -> str:
    values = [rep.n, rep.reps, rep.seed, *(_g(getattr(rep, k)) for k in _MC_ESTIMATES)]
    return f"n,reps,seed,{','.join(_MC_ESTIMATES)}\n{','.join(map(str, values))}\n"


def _mc_text(rep: McReport) -> str:
    return (f"{rep.reps} simulated events of n = {rep.n} (seed {rep.seed})\n"
            f"mean d-hat = {rep.d_mean:g} (true {rep.d_true:g})\n"
            f"var d-hat = {rep.d_var:g} vs 2 sigma^2/n = {rep.d_var_theory:g} "
            f"(ratio {rep.var_ratio:g})\n"
            f"mean sigma_un^2 = {rep.sigma2_un_mean:g} (true {rep.sigma_true ** 2:g}); "
            f"mean rho-hat = {rep.rho_mean:g}\n")


_RENDERERS = {
    ("fit", "text"): _fit_text, ("fit", "csv"): _fit_csv, ("fit", "json"): _fit_json,
    ("meta", "text"): _meta_text, ("meta", "csv"): _meta_csv, ("meta", "json"): _meta_json,
    ("validate", "text"): _validate_text, ("validate", "csv"): _validate_csv,
    ("validate", "json"): _validate_json,
    # Side files: adjusted differences are CSV unless JSON is asked for; KDE curves are CSV.
    ("adjusted", "text"): _adjusted_csv, ("adjusted", "csv"): _adjusted_csv,
    ("adjusted", "json"): _adjusted_json, ("kde", "csv"): _kde_csv,
    ("speculate", "text"): _speculate_text, ("speculate", "csv"): _speculate_csv,
    ("speculate", "json"): _speculate_json,
    ("power", "text"): _power_text, ("power", "csv"): _power_csv,
    ("power", "json"): _power_json,
    ("mc", "text"): _mc_text, ("mc", "csv"): _mc_csv, ("mc", "json"): _mc_json,
}


def render(output: str, fmt: str, *result) -> str:
    """Render one command's result in ``fmt`` (``text``, ``csv`` or ``json``).

    Raises ValueError when a JSON rendering would hold NaN or infinity.
    """
    return _RENDERERS[(output, fmt)](*result)
