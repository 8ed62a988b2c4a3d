"""Two-stage scheduling with speed predictions.

Jobs are grouped into bags while machine speeds are only predicted; the bags
are then scheduled, unsplit, once the true speeds are revealed.  The package
provides the data model, exact and greedy schedulers, prediction-trusting and
rebalanced partitioners, deterministic instance generators, and an
experiment/verification harness with a CLI front end (``speedsched``).
"""

from .gen import (
    CLAMP_FLOOR,
    Dist,
    SplitMix64,
    SyntheticConfig,
    gen_binary_lb_instance,
    gen_prop1_instance,
    gen_synthetic,
    gen_tradeoff_instance,
    normal_inv_cdf,
    substream,
)
from .harness import (
    AlgorithmSpec,
    CurveRow,
    ExperimentConfig,
    ExperimentRow,
    PropertyCheck,
    evaluate,
    make_partition,
    oracle_value,
    run_experiment,
    theory_curve,
    verify_properties,
)
from .model import (
    Assignment,
    Bag,
    Instance,
    IprState,
    Partition,
    bag_load,
    beta_ratio,
    prediction_error,
    validate_partition,
)
from .partition import (
    IprConfig,
    IprResult,
    binary_speed_partition,
    consistent_partition,
    fluid_ipr,
    ipr,
    lpt_partition,
)
from .solvers import (
    DEFAULT_NODE_BUDGET,
    BudgetExceededError,
    CapacityInfeasibleError,
    SolveResult,
    brute_force_makespan,
    capacity_robust_schedule,
    exact_schedule,
    lpt_schedule,
    merge_to_fit,
    opt_lower_bound,
)

__version__ = "1.0.0"

__all__ = [
    "Assignment",
    "AlgorithmSpec",
    "Bag",
    "BudgetExceededError",
    "CLAMP_FLOOR",
    "CapacityInfeasibleError",
    "CurveRow",
    "DEFAULT_NODE_BUDGET",
    "Dist",
    "ExperimentConfig",
    "ExperimentRow",
    "Instance",
    "IprConfig",
    "IprResult",
    "IprState",
    "Partition",
    "PropertyCheck",
    "SolveResult",
    "SplitMix64",
    "SyntheticConfig",
    "bag_load",
    "beta_ratio",
    "binary_speed_partition",
    "brute_force_makespan",
    "capacity_robust_schedule",
    "consistent_partition",
    "evaluate",
    "exact_schedule",
    "fluid_ipr",
    "gen_binary_lb_instance",
    "gen_prop1_instance",
    "gen_synthetic",
    "gen_tradeoff_instance",
    "ipr",
    "lpt_partition",
    "lpt_schedule",
    "make_partition",
    "merge_to_fit",
    "normal_inv_cdf",
    "opt_lower_bound",
    "oracle_value",
    "prediction_error",
    "run_experiment",
    "substream",
    "theory_curve",
    "validate_partition",
    "verify_properties",
]
