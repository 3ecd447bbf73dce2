"""The fixed numerical policy: the one table of tolerances and caps."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Tolerances and caps; every function reads the one instance DEFAULT.

    isolation_width: target width of exact-mode isolating intervals.
    im_rel_tol: relative |Im| threshold for declaring a float root real.
    im_abs_tol: absolute floor for the same threshold.
    trim_rel: relative cutoff below which trailing float coefficients are
        folded into the perturbation budget before root finding.
    uniformization_tol: default truncation tolerance for semigroup series.
    bp_root_cutoff: roots left of -bp_root_cutoff are absorbed into the
        Poisson factor during Bernoulli-Poisson decomposition.
    bp_sigma_tol: largest tolerated negative fitted Poisson rate.
    na_slack: numerical slack (times mass scale) for NA pass/fail.
    upset_cap: most up-sets enumerated for one side of an NA split.
    m_max_default: default approximant depth for t-stability refutation.
    """

    isolation_width: float = 1e-12
    im_rel_tol: float = 1e-8
    im_abs_tol: float = 1e-12
    trim_rel: float = 1e-13
    uniformization_tol: float = 1e-12
    bp_root_cutoff: float = 1e6
    bp_sigma_tol: float = 1e-6
    na_slack: float = 1e-12
    upset_cap: int = 256
    m_max_default: int = 20


DEFAULT = Tolerances()
