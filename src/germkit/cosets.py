"""Closed-form double-coset counts along the standard filtration subgroups.

For G = GL_n over a division algebra with residue field of size t = q^d,
the named subgroup families are the two parahorics and the three pro-p
chains between them:

    K0      maximal parahoric (vertex stabilizer), depth 0 only
    K       vertex congruence chain K_{1+j}
    I0      Iwahori, depth 0 only
    Ihalf   pro-p Iwahori chain I_{j+1/2}
    I       Iwahori congruence chain I_{1+j}

Each pro-p family has a base count at depth 0, a polynomial in t; moving
one congruence step deeper multiplies the count of P_lam-cosets by
t^(d_lam).  Counts for any other conjugacy class of filtration subgroup
reduce to a base count at shallow depth plus the same scaling law, so
the API accepts a user-supplied base count wherever a family is.

The I-chain base count for n > 2 is a derived convention
(multinomial * t^(d_lam)), consistent with the known n = 2 values but
not validated beyond them; treat n > 2 output of that family as
experimental.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass

from .partitions import Partition, d_of, require_at_least, require_int
from .qpoly import QPoly, q_multinomial


def _least_factor(q: int) -> int:
    """The least prime factor of q >= 2."""
    return next((k for k in range(2, math.isqrt(q) + 1) if q % k == 0), q)


def is_prime(q: int) -> bool:
    return q >= 2 and _least_factor(q) == q


def is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    p = _least_factor(q)
    while q % p == 0:
        q //= p
    return q == 1


def require_prime(q, what: str) -> int:
    """q itself if it is an int prime; ValueError naming it `what` otherwise."""
    if not is_prime(require_int(q, what)):
        raise ValueError(f"{what} must be a prime, got {q}")
    return q


def require_prime_power(q) -> int:
    """q itself if it is an int prime power; ValueError otherwise."""
    if not is_prime_power(require_int(q, "q")):
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    return q


class Family(enum.Enum):
    """The five standard subgroup families, keyed by CLI token."""

    VERTEX_MAX = "K0"
    VERTEX_CONGRUENCE = "K"
    IWAHORI = "I0"
    PRO_P_IWAHORI_HALF = "Ihalf"
    IWAHORI_CONGRUENCE = "I"

    @property
    def token(self) -> str:
        return self.value

    @property
    def is_pro_p(self) -> bool:
        return self in _PRO_P_CHAINS

    def label(self, depth: int) -> str:
        """The member's name in the n=2 chain K0 > I0 > I1/2 > K1 > I1 > I3/2 > K2 > ...

        At depth j the pro-p chains give I_{j+1/2}, K_{1+j} and I_{1+j};
        the parahorics K0 and I0 exist at depth 0 only.
        """
        if self is Family.PRO_P_IWAHORI_HALF:
            return f"I{2 * depth + 1}/2"
        return f"{self.value}{depth + 1}" if self.is_pro_p else self.value

    @classmethod
    def parse(cls, token: str) -> "Family":
        for fam in cls:
            if fam.value == token:
                return fam
        raise ValueError(f"unknown subgroup family {token!r}; expected one of "
                         + ", ".join(f.value for f in cls))


# the three pro-p chains, in the column order of the GL_2 table
_PRO_P_CHAINS = (Family.PRO_P_IWAHORI_HALF, Family.VERTEX_CONGRUENCE, Family.IWAHORI_CONGRUENCE)


@dataclass(frozen=True)
class SubgroupSpec:
    """A family member at a given congruence depth, with parameters (q, d).

    depth j >= 0 indexes the chain member (K_{1+j}, I_{j+1/2}, I_{1+j});
    the parahoric families K0 and I0 exist at depth 0 only.
    """

    family: Family
    depth: int
    q: int
    d: int

    def __post_init__(self):
        require_at_least(self.depth, 0, "depth")
        if not self.family.is_pro_p and self.depth != 0:
            raise ValueError(f"family {self.family.token} is depth-0 only, got depth {self.depth}")
        require_prime_power(self.q)
        require_at_least(self.d, 1, "d")

    @property
    def residue_size(self) -> int:
        """t = q^d, the size of the residue field of the division algebra."""
        return self.q**self.d


def multinomial(lam: Partition) -> int:
    """n! / prod(lam_i!), the number of cosets of the Weyl subgroup S_lam in S_n."""
    out = math.factorial(lam.n)
    for p in lam:
        out //= math.factorial(p)
    return out


def base_count(lam: Partition, family: Family) -> QPoly:
    """Count of P_lam-cosets at the family's base (depth 0), as a polynomial in t = q^d."""
    if family is Family.VERTEX_MAX:
        return QPoly.one()
    if family is Family.VERTEX_CONGRUENCE:
        return q_multinomial(lam)
    if family is Family.IWAHORI or family is Family.PRO_P_IWAHORI_HALF:
        return QPoly.constant(multinomial(lam))
    if family is Family.IWAHORI_CONGRUENCE:
        # derived convention; see the module docstring
        return QPoly.monomial(d_of(lam), multinomial(lam))
    raise ValueError(f"unsupported family {family!r}")


def count_at_depth(lam: Partition, spec: SubgroupSpec, base: int | None = None) -> int:
    """Exact coset count for the subgroup described by spec.

    The base count at depth 0 comes from the family formula, or from
    `base` for a subgroup outside the named families; each depth step
    multiplies it by t^(d_lam).
    """
    t = spec.residue_size
    b = base_count(lam, spec.family).eval_at(t) if base is None else require_int(base, "base")
    return b * t ** (d_of(lam) * spec.depth)


def parabolic_index(lam: Partition, q: int, d: int) -> int:
    """One congruence step inside P_lam has index q^(d*(n^2 - d_lam)).

    n^2 - d_lam is the block upper-triangular algebra's dimension over
    the division algebra; the full-group case lam = (n) gives q^(d*n^2).
    """
    require_prime_power(q)
    require_at_least(d, 1, "d")
    n = lam.n
    return q ** (d * (n * n - d_of(lam)))


_CHAIN_RE = re.compile(r"^(K|I)(\d+)(/2)?$")


def _chain_position(label: str) -> int:
    """Index of K<j>, I<j> or I<odd>/2 in the descending n=2 chain; adjacent members differ by 1."""
    m = _CHAIN_RE.match(label.strip())
    if not m:
        raise ValueError(f"cannot parse chain member {label!r}; expected K<j>, I<j> or I<odd>/2")
    kind, num, half = m.group(1), int(m.group(2)), m.group(3)
    if half and (kind != "I" or num % 2 == 0):
        raise ValueError(f"half-integer levels exist only for I<odd>/2, got {label!r}")
    return 3 * (num // 2) + 2 if half else 3 * num + (kind == "I")


def gl2_chain_index(upper: str, lower: str) -> QPoly:
    """Index [upper : lower] between adjacent members of the n=2 chain, in t = q^d.

    The members are named as `Family.label` names them: K0 > I0 > I1/2 >
    K1 > I1 > I3/2 > K2 > ...  The tabulated values: [K0:I0] = t+1,
    [I0:I1/2] = (t-1)^2, [I1/2:K1] = t, then periodically [K_j:I_j] = t,
    [I_j:I_{j+1/2}] = t^2, [I_{j+1/2}:K_{j+1}] = t for j >= 1.
    """
    p = _chain_position(upper)
    if _chain_position(lower) != p + 1:
        raise ValueError(f"{upper} and {lower} are not adjacent (in that order) in the chain")
    if p == 0:
        return QPoly((1, 1))
    if p == 1:
        return QPoly((1, -2, 1))
    if p % 3 == 1:
        return QPoly.monomial(2)
    return QPoly.monomial(1)
