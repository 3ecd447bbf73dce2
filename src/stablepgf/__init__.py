"""Stable probability generating functions under birth-death and
particle-system dynamics."""

from .config import DEFAULT
from .polycore import (
    MultiPoly,
    RootList,
    UniPoly,
    elem_sym,
    hermite_sum_form,
    kummer_series_poly,
    polarize,
    polarize_multi,
    quadratic_death_cluster_poly,
    real_roots,
)
from .stability import (
    StabilityCertificate,
    TStableApproximant,
    Verdict,
    certify_tstable,
    is_real_rooted,
    is_stable_multi,
    real_rooted_batch,
    tstable_approximant,
)
from .measures import (
    BPDecomposition,
    InputRangeError,
    Measure,
    bp_decompose,
    bp_synthesize,
    marginal_sum,
    pgf,
    poisson_box,
    project,
)
from .bdchain import (
    BirthDeathRates,
    TruncatedSemigroup,
    backward_residual,
    birth_monotonicity_probe,
    evolve,
    evolve_grid,
    generator,
    hermite_root_law,
    kingman,
    kummer_root_law,
    lie_split_evolve,
    quadratic_map_counterexample,
    transition,
    tv_distance,
    wf_residual,
)
from .particles import (
    Configuration,
    PGFWithExpFactor,
    SiteSystem,
    exact_pgf_transform,
    gillespie_empirical,
    gillespie_sample,
    single_jump_transform,
    truncated_generator_evolve,
)
from .nacheck import (
    CapExceeded,
    NAReport,
    NASplitResult,
    UpSetFamily,
    enumerate_upsets,
    is_na,
    na_all_splits,
)

__version__ = "0.1.0"
