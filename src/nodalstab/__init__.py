"""Numerical semistability of vector bundle classes on tree-like nodal curves.

The package works purely with exact numerical data: decorated dual
graphs, multidegrees, rational polarization weights, explicit gluing
flags over small exact fields, and truncated power-series arithmetic.

Importing the package loads none of its submodules.  Each exported name
imports its submodule on first read (PEP 562), so a caller of the tree
half never loads the ring half, and the other way round.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("balance", ("BalanceResult", "balance")),
    ("curve", ("Component", "Ordering", "TreeLikeCurve", "prune_ordering", "validate_curve",
               "verify_ordering")),
    ("fields", ("PrimeField", "RationalField", "parse_field")),
    ("gpb", ("GluingFlag", "GpbClass", "build_rational_flag", "check_no_kernel_section",
             "check_projections", "gpb_subbundle_check", "parabolic_slope",
             "phi_rank_degree", "picard_rth_root")),
    ("stability", ("AmpleDegrees", "Polarization", "Window", "det_compatibility",
                   "gieseker_vs_seshadri", "lambda_check", "polarization_from_ample",
                   "seshadri_slope", "slope")),
    ("truncated", ("TruncatedMatrix", "TruncatedScalar", "det_section",
                   "det_trace_identity", "sl_kernel_check", "sl_lift", "torsor_correct",
                   "trace_section")),
    ("twist", ("BundleClass", "TwistDivisor", "chi_subcurve_sum", "euler_char_total",
               "intersection", "twist")),
) for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value   # later reads are plain dict hits
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


class _Package(types.ModuleType):
    """The package module.  ``balance`` and ``twist`` are both submodules and
    the functions they export; importing a submodule binds it on the package,
    which would hide the function, so such a binding over an exported name
    is dropped and the name keeps (or will load) the function."""

    def __setattr__(self, name, value):
        if name in _EXPORTS and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
