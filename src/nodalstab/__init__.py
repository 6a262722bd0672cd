"""Numerical semistability of vector bundle classes on tree-like nodal curves.

The package works purely with exact numerical data: decorated dual
graphs, multidegrees, rational polarization weights, explicit gluing
flags over small exact fields, and truncated power-series arithmetic.
"""

from .balance import BalanceResult, balance, balance_step, unbalance_report
from .curve import (
    Component,
    Ordering,
    TreeLikeCurve,
    arithmetic_genus,
    decompose,
    prune_ordering,
    validate_curve,
    verify_ordering,
)
from .fields import PrimeField, RationalField, parse_field
from .gpb import (
    GluingFlag,
    GpbClass,
    build_rational_flag,
    check_no_kernel_section,
    check_projections,
    gpb_subbundle_check,
    parabolic_slope,
    phi_rank_degree,
    picard_rth_root,
)
from .stability import (
    AmpleDegrees,
    Polarization,
    Window,
    det_compatibility,
    gieseker_vs_seshadri,
    lambda_check,
    lambda_check_passes,
    polarization_from_ample,
    seshadri_slope,
    slope,
)
from .truncated import (
    TruncatedMatrix,
    TruncatedScalar,
    det_section,
    det_trace_identity,
    sl_kernel_check,
    sl_lift,
    torsor_correct,
    trace_section,
)
from .twist import (
    BundleClass,
    TwistDivisor,
    chi_subcurve_sum,
    euler_char_component,
    euler_char_total,
    intersection,
    intersection_matrix,
    twist,
)

__version__ = "0.1.0"
