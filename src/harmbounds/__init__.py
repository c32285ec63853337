"""Principal-stratum bounds, data fusion, and treatment choice for binary problems.

The package splits into small pure layers:

* :mod:`harmbounds.laws` - full and observed probability laws (each
  checks itself when built), the push-forward between them, and the law
  file format;
* :mod:`harmbounds.identify` - potential-outcome means from trial data and
  from fused trial + observational data;
* :mod:`harmbounds.bounds` - sharp interval identification of stratum
  probabilities in closed form;
* :mod:`harmbounds.utility` - outcome-level and stratum-level utility
  tables, gain equality, and the margin-only fast path;
* :mod:`harmbounds.decide` - policies under the supported criteria, policy
  evaluation at a known law, and the outcome cost of stratum-level choice;
* :mod:`harmbounds.data` - dataset CSV files read as per-cell row counts
  (:class:`CellCounts`), and plug-in estimation of the observed law from them;
* :mod:`harmbounds.simulate` - random laws, dataset sampling to
  :class:`CellCounts`, and the dataset CSV writer
  ``format_dataset_csv(law, n, seed, oracle)``;
* :mod:`harmbounds.verify` - brute-force property sweeps, the treatment
  regimes and bound-improvement test they check, and the exact integer LP
  oracle that certifies the bounds;
* :mod:`harmbounds.cli` - the ``harmbounds`` command.
"""

from .bounds import StrataBounds, exp_bounds, fused_bounds, fused_lower_bound_s1, true_bounds
from .data import CellCounts, estimate_observed_law, parse_dataset_csv, read_dataset_file
from .decide import (CRITERIA, DecisionCell, DecisionReport, Policy,
                     counterfactual_policy, counterfactual_report,
                     excess_outcome, gain_interval, interventionist_policy,
                     interventionist_report, policy_value, true_law_policies)
from .errors import (FileFormatError, GainEqualityError, GammaMissingError,
                     HarmboundsError, IncompatibleLawsError, LawValidationError,
                     NotPointIdentifiedError, PartialPolicyError, PositivityError)
from .identify import (IdentifiedMeans, att_atu, exp_potential_mean,
                       fused_potential_mean, identified_means)
from .laws import (STRATA, STRATUM_OUTCOMES, FullLaw, ObservedLaw,
                   observed_from_full, parse_law_text, potential_outcome,
                   read_law_file, stratum_margins)
from .utility import (UtilitySpec, expected_cf_utility_diff, expected_int_utility,
                      gain_equality_diff, gain_equality_holds, harm_penalized_gamma,
                      induced_gamma, parse_utility_text, read_utility_file,
                      survival_spec)

__version__ = "0.1.0"

# Names from modules that load numpy, mapped to their module: they are
# imported on first use (PEP 562), so the law-mode and data-mode layers and
# CLI commands start without numpy.
_LAZY = {**dict.fromkeys(("format_dataset_csv", "random_law", "sample_dataset"), "simulate"),
         **dict.fromkeys(("Regime", "improvement_test", "regime_lower_bound",
                          "regime_value"), "verify")}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_LAZY])
