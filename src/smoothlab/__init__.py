"""Numerical laboratory for smooth numbers in arithmetic progressions.

Exact smooth counting, Dirichlet character groups, a C^9 cutoff kernel with
its Mellin transform, saddle-point abscissas, truncated Euler products,
contour reconstruction with tail accounting, a seeded inequality harness,
and equidistribution experiment runners.
"""

from .contour import (
    ContourResult,
    ContourSpec,
    contour_psi,
    main_term_ratio,
    oscillating_integral,
    truncation_bound,
)
from .dirichlet import (
    DirichletCharacter,
    character_group,
    principal_character,
)
from .experiments import (
    ExperimentConfig,
    ResultRecord,
    UnsmoothingRecord,
    export_plot_data,
    export_results,
    export_unsmoothing,
    load_results,
    max_discrepancy,
    power_subgroup,
    run_coset,
    run_equidistribution,
    run_unsmoothing,
    unsmoothing_ratio,
    unsmoothing_slopes,
)
from .inequalities import (
    InequalityReport,
    MellinPowerF,
    PolyExpF,
    RandomEulerSpec,
    SuiteResult,
    calculus_grid,
    check_calculus,
    check_lemma1,
    check_lemma2,
    check_majorant,
    check_pointwise_product,
    pointwise_product_chain,
    run_suite,
)
from .kernel import SmoothingKernel
from .lseries import EulerProductValue, euler_product
from .primes import primes_upto
from .saddle import SaddlePoint, saddle_alpha
from .smooth_core import (
    EnnolaEstimate,
    SmoothCount,
    SmoothCountQuery,
    count_smooth,
    count_smooth_bigx,
    count_smooth_weighted,
    ennola_estimate,
    is_smooth,
    smooth_values,
)

__version__ = "0.1.0"
