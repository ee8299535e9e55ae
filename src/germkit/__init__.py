"""Exact combinatorics of germ expansions for general linear groups over division algebras."""

from .partitions import (
    Partition,
    d_of,
    dominance_leq,
    dual,
    enumerate_partitions,
    induce_partition,
    minimal_elements,
    scale_partition,
)
from .qpoly import QPoly, q_factorial, q_int, q_multinomial
from .cosets import Family, SubgroupSpec, base_count, count_at_depth, gl2_chain_index
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
from .oracle import (
    FqMatrix,
    OracleBoundError,
    build_A_lambda,
    count_parabolic_cosets,
    multiplicity_matrix,
    nilpotent_partition,
    xi_multiplicity,
)

__version__ = "0.1.0"
