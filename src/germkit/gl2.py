"""The n = 2 catalog: coefficient maps and fixed-vector dimensions per class.

Every finite-length class for GL_2 over a division algebra with residue
field of size t = q^d is its coefficient map on the partitions of 2, the
pair (a, b) = (c((2)), c((1,1))), and has closed-form fixed-vector
dimensions at each pro-p chain member SubgroupSpec(family, j, q, d):
a c_(2) + b c_(1,1), the sum `germ.dim_fixed` takes, with c_lam the
member's count of P_lam-cosets from `cosets.count_columns`.  That is

    I-half chain:  a + 2 b t^j
    K chain:       a + (t+1) b t^j
    I chain:       a + 2t b t^j

valid for j >= 0 for the cataloged classes (supercuspidal classes of
positive level excepted: their formulas go negative below the level,
which is exactly the depth where invariants first appear).
`dim_invariants` refuses a negative value.  `catalog(q)` is built once
per q and process.

A Speh class and its essentially square-integrable partner share
b_speh + b_ess = dim sigma, but the split of b between them is
undetermined when the inducing datum has dimension > 1.  So the pair is
built only from an explicit split (`speh_ess_pair`), both parts
positive.  The catalog's two rows "speh(2; b=1)" and "ess-sq-int(2; b=3)"
use the split 1 + 3 of dim sigma = 4, chosen for illustration: the
theory does not determine it, and their b and dimensions hold for that
split only.

Mod-p supersingular data (p odd, d = 1) is quarantined in its own
operation: the coefficient-map theory above assumes the coefficient
field has characteristic different from p, so those rows are literal
dimension formulas only and are not coefficient maps.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .cosets import Family, SubgroupSpec, count_columns, require_prime, require_prime_power
from .germ import CoefficientMap
from .partitions import Partition, require_at_least, require_int

_TWO, _ONE_ONE = Partition([2]), Partition([1, 1])


def _ab(a: int, b: int) -> CoefficientMap:
    return CoefficientMap(2, {_TWO: a, _ONE_ONE: b})


def finite_dim(dim: int) -> CoefficientMap:
    """A finite-dimensional class of dimension dim: (a, b) = (dim, 0)."""
    return _ab(require_at_least(dim, 1, "dimension"), 0)


def principal_series(dim_sigma: int) -> CoefficientMap:
    """Full induction from the diagonal torus of a dim_sigma-dimensional datum: (a, b) = (0, dim_sigma)."""
    return _ab(0, require_at_least(dim_sigma, 1, "dimension"))


STEINBERG = _ab(-1, 1)
"""The Steinberg class or any character twist of it."""

CUSPIDAL_STEINBERG = _ab(-2, 1)
"""The cuspidal length-2 constituent of Steinberg (coefficient characteristic dividing t+1)."""


def speh_ess_pair(dim_pi2: int, dim_sigma: int, b_speh: int) -> tuple[CoefficientMap, CoefficientMap]:
    """A Speh class, with a = dim_pi2, and its essentially square-integrable partner, with a = -dim_pi2.

    dim_pi2 is the transferred dimension.  The split must satisfy
    b_speh + b_ess = dim_sigma with both parts >= 1; the sum constraint
    is the only thing known in general.
    """
    require_at_least(dim_pi2, 1, "dimension")
    b_ess = require_int(dim_sigma, "dim_sigma") - require_int(b_speh, "b_speh")
    if b_speh < 1 or b_ess < 1:
        raise ValueError(
            f"both b splits must be >= 1 and sum to dim_sigma = {dim_sigma}; got {b_speh} + {b_ess}"
        )
    return _ab(dim_pi2, b_speh), _ab(-dim_pi2, b_ess)


def supercuspidal(level: int | Fraction, q: int) -> CoefficientMap:
    """Minimal supercuspidal of GL_2 over the base field (d = 1), by normalized level.

    The level is a half-integer >= 1/2 and determines a through q; b = 1
    by unicity of the non-degenerate Whittaker model.
    """
    if type(level) is not int and not isinstance(level, Fraction):  # bool is a subclass of int
        raise ValueError(f"level must be an int or a Fraction, got {level!r}")
    level = Fraction(level)
    if level.denominator not in (1, 2) or level < Fraction(1, 2):
        raise ValueError(f"level must be a half-integer >= 1/2, got {level}")
    require_prime_power(q)
    if level.denominator == 1:
        return _ab(-2 * q ** int(level), 1)
    return _ab(-(q + 1) * q ** int(level - Fraction(1, 2)), 1)


def ab_coefficients(c: CoefficientMap) -> tuple[int, int]:
    """The pair (a, b) = (c((2)), c((1,1))) of a map on the partitions of 2."""
    if c.n != 2:
        raise ValueError(f"the n = 2 catalog reads maps on the partitions of 2, got n = {c.n}")
    return c.value(_TWO), c.value(_ONE_ONE)


def dim_invariants(c: CoefficientMap, spec: SubgroupSpec) -> int:
    """Fixed-vector dimension of the class c at spec's member of its pro-p chain.

    A negative formula value means the depth is below the class's
    validity threshold, which is an error rather than a dimension.
    """
    a, b = ab_coefficients(c)
    if not isinstance(spec, SubgroupSpec):
        raise ValueError(f"a chain formula needs a SubgroupSpec, got {spec!r}")
    if not spec.family.is_pro_p:
        raise ValueError(f"chain formulas exist for the pro-p families only, got {spec.family.token}")
    two, one_one = count_columns([_TWO, _ONE_ONE], [spec])[0]
    value = a * two + b * one_one
    if value < 0:
        raise ValueError(
            f"chain formula gives {value} < 0 at depth {spec.depth}: below the validity threshold of {c!r}"
        )
    return value


def modp_supersingular_coefficients(twist_of_pi0: bool) -> tuple[int, int, int]:
    """(a, b, a') of a supersingular class: a' = -3 for twists of the base class, -4 otherwise."""
    return -2, 2, -3 if twist_of_pi0 else -4


def modp_supersingular_dims(twist_of_pi0: bool, family: Family, j: int, p: int) -> int:
    """Supersingular fixed-vector dimensions in coefficient characteristic p (p odd, j >= 0).

    I-half chain: a + 2b p^j; K chain: a' + (p+1) b p^j, the chain
    formulas at t = p with a' in place of a on the K chain: b times the
    count of (1,1)-cosets, plus a or a' times that of (2), which is 1.
    """
    if require_prime(p, "p") == 2:
        raise ValueError(f"mod-p supersingular data requires an odd prime p, got {p}")
    spec = SubgroupSpec(family, j, p, 1)
    if family is not Family.PRO_P_IWAHORI_HALF and family is not Family.VERTEX_CONGRUENCE:
        raise ValueError(
            f"mod-p supersingular dimensions are tabulated for the I-half and K chains only, got {family.token}"
        )
    a, b, a_prime = modp_supersingular_coefficients(twist_of_pi0)
    return (a_prime if family is Family.VERTEX_CONGRUENCE else a) + b * count_columns([_ONE_ONE], [spec])[0][0]


_SPEH, _ESS = speh_ess_pair(2, 4, 1)
_FIXED = (
    ("trivial", finite_dim(1)),
    ("finite-dim(2)", finite_dim(2)),
    ("principal-series(1)", principal_series(1)),
    ("principal-series(2)", principal_series(2)),
    ("steinberg", STEINBERG),
    ("cuspidal-steinberg", CUSPIDAL_STEINBERG),
    ("speh(2; b=1)", _SPEH),
    ("ess-sq-int(2; b=3)", _ESS),
)


def catalog(q: int) -> list[tuple[str, CoefficientMap]]:
    """Labeled classes with concrete parameters, as (label, map), for tables and cross-checks.

    Only the supercuspidal entries depend on q.  Built once per q; each
    call returns a fresh list, so no caller can change what the next reads.
    """
    return list(_catalog(q))


@functools.lru_cache(maxsize=64, typed=True)  # typed: 3.0 is not served the entries of 3, it is refused
def _catalog(q: int) -> tuple[tuple[str, CoefficientMap], ...]:
    """The memo behind `catalog`; a tuple, so no caller can edit it.  A bad q raises, and nothing is kept."""
    levels = (Fraction(1, 2), 1, Fraction(3, 2))
    return (*_FIXED, *((f"supercuspidal(level {level})", supercuspidal(level, q)) for level in levels))
