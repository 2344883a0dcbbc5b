"""Lane-advantage estimation for two-day paired 500 m speed-skating results.

Public names resolve from their home modules at each lookup (PEP 562): the
package import loads no numpy, and a name patched in its home module is
patched here too.
"""

from importlib import import_module

_HOMES = {
    "counterfactual": "SpeculativeList speculate",
    "dataset": "EventDataset Lane OlympicEntry ParseError Run RunStatus SkaterPair"
               " load_event parse_event parse_olympic usable_pairs",
    "diagnostics": "AdjustedDiffs CleanedFit OutlierReport ValidationReport adjusted_differences"
                   " clean_and_refit gaussian_kde_curve outlier_scan validate_model",
    "meta": "EventSummary MetaResult PowerSpec SplitContrast combine cross_group_correlation"
            " heterogeneity power_plan predict_range read_summaries split_half",
    "model": "FitError FitResult MomentMatrices Pairs build_moments fit_many fit_ml gls_beta"
             " profile_loglik",
    "simulate": "mc_calibration simulate_event",
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = list(_HOME_OF)
__version__ = "0.1.0"

# Outlier-screen threshold on |t|; here so every CLI call can default to it without
# loading numpy or compiling the parsers.
DEFAULT_THRESHOLD = 2.75


def __getattr__(name: str):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME_OF[name]}", __name__), name)
