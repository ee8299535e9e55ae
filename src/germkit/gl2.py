"""The n = 2 catalog: (a, b) pairs and fixed-vector dimensions per class.

Every finite-length class for GL_2 over a division algebra with residue
field of size t = q^d has two coefficients (a, b) = (c((2)), c((1,1)))
and closed-form fixed-vector dimensions along the three pro-p chains:

    I-half chain:  a + 2 b t^j
    K chain:       a + (t+1) b t^j
    I chain:       a + 2t b t^j

valid for j >= 0 for the cataloged classes (supercuspidal classes of
positive level excepted: their formulas go negative below the level,
which is exactly the depth where invariants first appear).

The Speh / essentially-square-integrable pair leaves the split of b
between the two factors undetermined when the inducing datum has
dimension > 1; it is modeled as an explicit unknown constrained by
b_Z + b_L = dim sigma with both parts positive, never invented.

Mod-p supersingular data (p odd, d = 1) is quarantined in its own
operation: the coefficient-map theory above assumes the coefficient
field has characteristic different from p, so those rows are literal
dimension formulas only and do not convert to a CoefficientMap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cosets import Family, require_prime, require_prime_power
from .germ import CoefficientMap
from .partitions import Partition, require_at_least, require_int


@dataclass(frozen=True)
class FiniteDim:
    """A finite-dimensional class of dimension dim."""

    dim: int

    def __post_init__(self):
        require_at_least(self.dim, 1, "dimension")


@dataclass(frozen=True)
class PrincipalSeries:
    """Full induction from the diagonal torus of a dim_sigma-dimensional datum."""

    dim_sigma: int

    def __post_init__(self):
        require_at_least(self.dim_sigma, 1, "dimension")


@dataclass(frozen=True)
class SteinbergTwist:
    """The Steinberg class or any character twist of it."""


@dataclass(frozen=True)
class CuspidalSteinberg:
    """The cuspidal length-2 constituent of Steinberg (coefficient characteristic dividing t+1)."""


@dataclass(frozen=True)
class _SplitPair:
    """Fields shared by the Speh and essentially square-integrable classes.

    dim_pi2 is the transferred dimension and b the undetermined Whittaker
    split; b = None keeps the split symbolic.
    """

    dim_pi2: int
    b: int | None = None

    def __post_init__(self):
        require_at_least(self.dim_pi2, 1, "dimension")
        if self.b is not None:
            require_at_least(self.b, 1, "a supplied b split")


class SpehPair(_SplitPair):
    """Speh constituent of a reducible induction, with a = dim_pi2."""


class EssSquareIntegrablePair(_SplitPair):
    """Essentially square-integrable partner of a SpehPair, with a = -dim_pi2."""


@dataclass(frozen=True)
class SupercuspidalGL2F:
    """Minimal supercuspidal of GL_2 over the base field (d = 1), by normalized level.

    The level is a half-integer >= 1/2; a is determined by it, and b = 1
    by unicity of the non-degenerate Whittaker model.
    """

    level: Fraction

    def __post_init__(self):
        if type(self.level) is not int and not isinstance(self.level, Fraction):  # bool is a subclass of int
            raise ValueError(f"level must be an int or a Fraction, got {self.level!r}")
        level = Fraction(self.level)
        if level.denominator not in (1, 2) or level < Fraction(1, 2):
            raise ValueError(f"level must be a half-integer >= 1/2, got {self.level}")
        object.__setattr__(self, "level", level)


GL2Rep = (
    FiniteDim
    | PrincipalSeries
    | SteinbergTwist
    | CuspidalSteinberg
    | SpehPair
    | EssSquareIntegrablePair
    | SupercuspidalGL2F
)


def ab_coefficients(rep: GL2Rep, q: int) -> tuple[int, int]:
    """The pair (a, b) = (c((2)), c((1,1))) of the class.

    q enters only for supercuspidal classes (through the level formula).
    Symbolic Speh/essentially-square-integrable splits must be given a
    concrete b first.
    """
    if isinstance(rep, FiniteDim):
        return rep.dim, 0
    if isinstance(rep, PrincipalSeries):
        return 0, rep.dim_sigma
    if isinstance(rep, SteinbergTwist):
        return -1, 1
    if isinstance(rep, CuspidalSteinberg):
        return -2, 1
    if isinstance(rep, _SplitPair):
        speh = isinstance(rep, SpehPair)
        if rep.b is None:
            pair = "a Speh pair" if speh else "an essentially square-integrable pair"
            raise ValueError(f"the b split of {pair} is undetermined; supply it explicitly")
        sign = 1 if speh else -1
        return sign * rep.dim_pi2, rep.b
    if isinstance(rep, SupercuspidalGL2F):
        require_prime_power(q)
        if rep.level.denominator == 1:
            return -2 * q ** int(rep.level), 1
        return -(q + 1) * q ** int(rep.level - Fraction(1, 2)), 1
    raise TypeError(f"not a GL2 representation class: {rep!r}")


def chain_dim_formula(a: int, b: int, family: Family, j: int, q: int, d: int) -> int:
    """Raw value of the chain formula at depth j (may be negative below the validity threshold)."""
    if not family.is_pro_p:
        raise ValueError(f"chain formulas exist for the pro-p families only, got {family.token}")
    require_at_least(j, 0, "depth")
    require_prime_power(q)
    require_at_least(d, 1, "d")
    t = q**d
    if family is Family.PRO_P_IWAHORI_HALF:
        factor = 2
    elif family is Family.VERTEX_CONGRUENCE:
        factor = t + 1
    else:
        factor = 2 * t
    return a + factor * b * t**j


def dim_invariants(rep: GL2Rep, family: Family, j: int, q: int, d: int) -> int:
    """Fixed-vector dimension of the class at depth j of the given pro-p chain.

    A negative formula value means j is below the class's validity
    threshold, which is an error rather than a dimension.
    """
    a, b = ab_coefficients(rep, q)
    value = chain_dim_formula(a, b, family, j, q, d)
    if value < 0:
        raise ValueError(
            f"chain formula gives {value} < 0 at depth {j}: below the validity threshold of {rep!r}"
        )
    return value


def modp_supersingular_coefficients(twist_of_pi0: bool) -> tuple[int, int, int]:
    """(a, b, a') of a supersingular class: a' = -3 for twists of the base class, -4 otherwise."""
    return -2, 2, -3 if twist_of_pi0 else -4


def modp_supersingular_dims(twist_of_pi0: bool, family: Family, j: int, p: int, what: str = "p") -> int:
    """Supersingular fixed-vector dimensions in coefficient characteristic p (p odd, j >= 0).

    I-half chain: a + 2b p^j; K chain: a' + (p+1) b p^j, the chain
    formulas at t = p with a' in place of a on the K chain.  An error
    about p names it `what` (the CLI passes "--q").
    """
    if require_prime(p, what) == 2:
        raise ValueError(f"mod-p supersingular data requires an odd prime {what}, got {p}")
    require_at_least(j, 0, "depth")
    a, b, a_prime = modp_supersingular_coefficients(twist_of_pi0)
    if family is Family.PRO_P_IWAHORI_HALF:
        return chain_dim_formula(a, b, family, j, p, 1)
    if family is Family.VERTEX_CONGRUENCE:
        return chain_dim_formula(a_prime, b, family, j, p, 1)
    raise ValueError(
        f"mod-p supersingular dimensions are tabulated for the I-half and K chains only, got {family.token}"
    )


def to_coefficient_map(rep: GL2Rep, q: int) -> CoefficientMap:
    """The coefficient map {(2): a, (1,1): b} of the class."""
    a, b = ab_coefficients(rep, q)
    return CoefficientMap(2, [(Partition([2]), a), (Partition([1, 1]), b)])


def speh_ess_pair(
    dim_pi2: int, dim_sigma: int, b_speh: int
) -> tuple[SpehPair, EssSquareIntegrablePair]:
    """A Speh pair and its partner with an explicit b split.

    The split must satisfy b_speh + b_ess = dim_sigma with both parts
    >= 1; the sum constraint is the only thing known in general.
    """
    b_ess = require_int(dim_sigma, "dim_sigma") - require_int(b_speh, "b_speh")
    if b_speh < 1 or b_ess < 1:
        raise ValueError(
            f"both b splits must be >= 1 and sum to dim_sigma = {dim_sigma}; got {b_speh} + {b_ess}"
        )
    return SpehPair(dim_pi2, b_speh), EssSquareIntegrablePair(dim_pi2, b_ess)


def catalog() -> list[tuple[str, GL2Rep]]:
    """Labeled classes with concrete parameters, for tables and cross-checks."""
    return [
        ("trivial", FiniteDim(1)),
        ("finite-dim(2)", FiniteDim(2)),
        ("principal-series(1)", PrincipalSeries(1)),
        ("principal-series(2)", PrincipalSeries(2)),
        ("steinberg", SteinbergTwist()),
        ("cuspidal-steinberg", CuspidalSteinberg()),
        ("speh(2; b=1)", SpehPair(2, b=1)),
        ("ess-sq-int(2; b=3)", EssSquareIntegrablePair(2, b=3)),
        ("supercuspidal(level 1/2)", SupercuspidalGL2F(Fraction(1, 2))),
        ("supercuspidal(level 1)", SupercuspidalGL2F(Fraction(1))),
        ("supercuspidal(level 3/2)", SupercuspidalGL2F(Fraction(3, 2))),
    ]
