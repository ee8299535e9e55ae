"""Exact combinatorics of germ expansions for general linear groups over division algebras.

Importing the package runs the closed-form core: `partitions`, `qpoly`,
`cosets` and `germ`.  The two leaves that no package module imports,
the brute-force `oracle` and the n = 2 catalog `gl2`, are registered in
`sys.modules` as lazy modules: each one's code runs on the first
attribute access, so a closed-form command never pays for them.  The
oracle names re-exported here load `oracle` when they are first read.
"""

import importlib.util
import sys

from .partitions import (
    Partition,
    d_of,
    dominance_leq,
    dual,
    enumerate_partitions,
    minimal_elements,
    scale_partition,
)
from .qpoly import QPoly, q_factorial, q_int, q_multinomial
from .cosets import Family, SubgroupSpec, base_count, count_at_depth
from .germ import (
    CoefficientMap,
    DimensionPolynomial,
    PositivityError,
    closed_form_multiplicity_matrix,
    dim_fixed,
    dimension_polynomial,
    forward_multiplicities,
    gk_dimension,
    induce_maps,
    jl_transfer,
    lj_transfer,
    multiplicity_polynomials,
    solve_from_multiplicities,
    whittaker_dims,
)


def _lazy(name: str):
    """Register the submodule `name` in sys.modules; its code runs on its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _lazy("oracle")
gl2 = _lazy("gl2")

_ORACLE_NAMES = {"OracleBoundError", "build_A_lambda", "flag_orbit_count", "multiplicity_matrix", "nilpotent_partition",
                 "xi_multiplicity"}


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
