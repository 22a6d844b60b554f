"""Exact combinatorics of bi-free probability.

Non-crossing and bi-non-crossing partition lattices, Kreweras complements,
multiplicative-function convolutions, truncated formal power series over
the rationals, moment/cumulant dictionaries for two-faced pairs, the
two-variable partial T- and S-transforms, and verification suites for
their behavior under sums and products of bi-free pairs.  Everything is
exact rational arithmetic; nothing is floating point.
"""

from .errors import (
    BifreeError,
    CapExceeded,
    InvalidSize,
    InvalidSubclass,
    NonzeroConstantTerm,
    NotComparable,
    NotInvertible,
    NotNormalized,
    SizeMismatch,
    TruncationExceeded,
    UniquenessViolation,
    WDivisionError,
    ZeroConstantTerm,
    ZeroMean,
    ZeroScale,
    ZWDivisionError,
)
from .series import (
    TruncatedSeries1,
    TruncatedSeries2,
    as_rational,
    render_series_1,
    render_series_2,
    s1_comp_inverse,
    s1_compose,
    s1_reciprocal,
    s1_shift_down,
    s2_compose_each_variable,
    s2_divide_monomial,
    s2_from_s1,
    s2_reciprocal,
)
from .ncpart import (
    NCPartition,
    ascii_diagram,
    enumerate_nc,
    enumerate_nc_prime,
    full_partition,
    join_is_full,
    kreweras,
    leq,
    partition_from_text,
    partition_to_text,
    singletons_partition,
    unique_complement_check,
)
from .multfn import (
    MultFn,
    convolve,
    eval_on,
    phi_series,
    pinched_convolve,
)
from .bnc import (
    BNCPartition,
    BNCShape,
    ascii_diagram_bnc,
    bnc_from_nc,
    bnc_from_text,
    bnc_to_text,
    catalan,
    chi_permutation,
    enumerate_bnc,
    leq_bnc,
    mobius_bnc,
    mobius_nc,
    sigma_doubling,
)
from .bicum import (
    BiFreeFamily,
    PairDistribution,
    RIGHT_ORDERS,
    cumulants_from_moments,
    moments_from_cumulants,
    product_pair_cumulants,
    product_pair_distribution,
    random_family,
    random_pair_distribution,
    series_C,
    series_H,
    series_K,
    sum_product_pair_cumulants,
    sum_product_pair_distribution,
)
from .transforms import (
    check_S_multiplicativity,
    check_T_multiplicativity,
    check_bimoment_factorization,
    check_convolution_inversion,
    check_inverse_product,
    left_marginal,
    moment_series_1var,
    partial_S,
    partial_T,
    rescale_pair,
    right_marginal,
    s_transform_1var,
    trim_pair,
    x_series,
)
from .oracle import (
    FAMILIES,
    LEMMAS,
    PartitionClassSpec,
    check_lemma,
    class_count,
    class_sum,
    enumerate_class,
    psi_sum,
)

__version__ = "0.1.0"
