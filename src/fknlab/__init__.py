"""Exact Fourier analysis on the hypercube and a verification lab for
FKN-type variance bounds over partitions of the variables."""

from .bounds import (
    BoundReport,
    Constants,
    CorollaryReport,
    DEFAULT_CONSTANTS,
    claim6_example,
    claim8_check,
    claim9_bound,
    corollary2_apply,
    lemma4_bound,
    lemma5_bound,
    lemma7_bound,
    partition_split,
    theorem1_check,
    tribes_example,
)
from .cube import (
    BooleanFunction,
    FourierExpansion,
    M_MAX,
    Partition,
    RealFunction,
    balance_extend,
    inverse_wht,
    restriction,
    sq_l2_dist,
    variance,
    wht,
)
from .rv import (
    ConstAbsRV,
    DiscreteRV,
    TwoPointBalancedRV,
    abs_rv,
    center,
    const_abs_approx,
    convolve,
    expectation,
    two_point_decompose,
    var_abs_shifted,
    variance_rv,
)
from .sweep import (
    SweepConfig,
    SweepResult,
    conjecture_probe,
    corollary2_exhaustive,
    empirical_constant,
    enumerate_boolean_functions,
    random_rv,
    run_sweep,
    tightness_scan,
)

__version__ = "0.1.0"
