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
t^(d_lam).  That law is proved only for the five families above, and
every count here is a family's own.  A SubgroupSpec is one chain member:
`count_columns` (partitions of any n, one column per spec) is the one
place that builds a factorial table or applies the law, to a family's
base count, which tests check against the polynomial `base_count` at t.
`cosets`, `germ dimpoly` and `gl2 table`, whose n = 2 chain dimensions
are sums of its counts, read every count they print from it.
`count_at_depth` is its one-partition, one-spec entry.
Other Moy-Prasad subgroups are not served, since no single t-scaling
fits them: at nu = lam = (2,1) and q = 2, the groups G_(nu,0+) and
G_(nu,1) at the facet of type nu give 4 and 10.

The I-chain base count multinomial * t^(d_lam) is proved: I_1 is normal
in K_1 and K_1/I_1 = M_n(F_t)/b is abelian (b upper triangular), so by
trace duality the I_1-orbits on G/P_lam number sum_F |n cap u_F| over
the lam-flags F over F_t (n strictly upper, u_F the nilradical at F),
and each Bruhat cell of W/W_lam holds t^l(w) flags F, each with
|n cap u_F| = t^(d_lam - l(w)).  That sum is checked in closed form, via
the multiplicity matrix, for n <= 10; there is no exhaustive check yet.
"""

from __future__ import annotations

import enum
import math
import operator
from itertools import accumulate, repeat
from typing import NamedTuple

from .partitions import Partition, d_of, require_at_least, require_int, require_partition
from .qpoly import QPoly, q_multinomial


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with every base in _SMALL_PRIMES is exact below this bound (OEIS A014233)
PRIME_CHECK_BOUND = 3317044064679887385961981
# `is_prime_power` searches a root of q for each exponent up to log2(q) / 5, in time about cubic in q's bits; on a
# 2-vCPU Xeon, Python 3.11, the worst case (odd, no prime factor below 43) takes 9 ms at 1,024 bits, 55 ms at 2,048
# and 0.4 s at 4,096, and dividing out 2 from 2^100000 took 2.6 s
PRIME_POWER_MAX_BITS = 2**11


def is_prime(q: int) -> bool:
    """Exact: trial division by the primes up to 41, then Miller-Rabin with them as bases.

    A q that needs Miller-Rabin at or above PRIME_CHECK_BOUND is a ValueError.
    """
    if q < 2:
        return False
    for p in _SMALL_PRIMES:
        if q % p == 0:
            return q == p
    if q < 43 * 43:  # no prime factor below 43 and none above sqrt(q)
        return True
    if q >= PRIME_CHECK_BOUND:
        raise ValueError(f"cannot test {q} for primality exactly: the test stops below {PRIME_CHECK_BOUND}")
    s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = d * 2^s with d odd
    for a in _SMALL_PRIMES:
        x = pow(a, (q - 1) >> s, q)
        if x != 1 and all(pow(x, 1 << i, q) != q - 1 for i in range(s)):
            return False  # a witnesses that q is composite
    return True


def _root(q: int, k: int) -> int:
    """floor(q^(1/k)) for q >= 1, by Newton's method on ints from above."""
    r = 1 << -(-q.bit_length() // k)
    while (s := ((k - 1) * r + q // r ** (k - 1)) // k) < r:
        r = s
    return r


def is_prime_power(q: int) -> bool:
    """Exact: q = p^k for a prime p and k >= 1.  A q of more than PRIME_POWER_MAX_BITS bits is a ValueError."""
    if q < 2:
        return False
    if q.bit_length() > PRIME_POWER_MAX_BITS:
        raise ValueError(f"cannot test a number of {q.bit_length()} bits for being a prime power: "
                         f"the test stops at {PRIME_POWER_MAX_BITS} bits")
    for p in _SMALL_PRIMES:
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
    # q = r^k with k as large as possible is a prime power iff r is prime; here r >= 43 > 2^5
    k = next((k for k in range(q.bit_length() // 5, 1, -1) if _root(q, k) ** k == q), 1)
    return is_prime(_root(q, k))


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


# the three pro-p chains, in the column order of the GL_2 table
_PRO_P_CHAINS = (Family.PRO_P_IWAHORI_HALF, Family.VERTEX_CONGRUENCE, Family.IWAHORI_CONGRUENCE)


class _SubgroupFields(NamedTuple):
    family: Family
    depth: int
    q: int
    d: int


class SubgroupSpec(_SubgroupFields):
    """A family member at a given congruence depth, with parameters (q, d).

    depth j >= 0 indexes the chain member (K_{1+j}, I_{j+1/2}, I_{1+j});
    the parahoric families K0 and I0 exist at depth 0 only.  An immutable
    value: it equals and hashes as the tuple (family, depth, q, d).
    """

    __slots__ = ()

    def __new__(cls, family: Family, depth: int, q: int, d: int):
        require_at_least(depth, 0, "depth")
        if not isinstance(family, Family):
            raise ValueError(f"family must be a Family, got {family!r}")
        if not family.is_pro_p and depth != 0:
            raise ValueError(f"family {family.token} is depth-0 only, got depth {depth}")
        require_prime_power(q)
        require_at_least(d, 1, "d")
        return super().__new__(cls, family, depth, q, d)

    @property
    def residue_size(self) -> int:
        """t = q^d, the size of the residue field of the division algebra."""
        return self.q**self.d


def multinomial(lam: Partition) -> int:
    """n! / prod(lam_i!), the number of cosets of the Weyl subgroup S_lam in S_n."""
    return math.factorial(require_partition(lam, "a coset count").n) // math.prod(map(math.factorial, lam))


def base_count(lam: Partition, family: Family) -> QPoly:
    """Count of P_lam-cosets at depth 0 as a polynomial in t = q^d: the reference `count_columns` is tested against."""
    require_partition(lam, "a coset count")
    if family is Family.VERTEX_MAX:
        return QPoly.one()
    if family is Family.VERTEX_CONGRUENCE:
        return q_multinomial(lam)
    if family is Family.IWAHORI or family is Family.PRO_P_IWAHORI_HALF:
        return QPoly._derived((multinomial(lam),))
    if family is Family.IWAHORI_CONGRUENCE:
        # multinomial * t^(d_lam), proved in the module docstring
        return QPoly._derived((0,) * d_of(lam) + (multinomial(lam),))
    raise ValueError(f"unsupported family {family!r}")


def _factorials(n: int, t: int | None) -> list[int]:
    """[k]_t! for k = 0..n, from [k]_t = t * [k-1]_t + 1, or k! when t is None."""
    steps = range(1, n + 1) if t is None else accumulate(repeat(t, n - 1), lambda m, t: m * t + 1, initial=1)
    return list(accumulate(steps, operator.mul, initial=1))


def count_columns(lams, specs) -> list[list[int]]:
    """The exact count of each partition in lams (of any n, in the given order) under each spec: one column per spec.

    Each table of [k]_t! (for K) or k! is built, and each partition divided by it with the remainder checked, once per
    call: I0, Ihalf and I share the multinomial n!/prod(lam_i!).  A column is its family's base count times
    t^(d_lam * depth), the one place the depth law is applied; I's base count carries one more factor t^(d_lam).
    A spec that is not a SubgroupSpec is a ValueError, and a remainder an ArithmeticError.
    """
    for spec in specs:
        if not isinstance(spec, SubgroupSpec):
            raise ValueError(f"a coset count needs a SubgroupSpec, got {spec!r}")
    lams = list(map(require_partition, lams, repeat("a coset count")))
    if not lams:
        return [[] for _ in specs]
    ns, ds, quotients, columns = list(map(sum, lams)), None, {}, []  # quotients: the table's t (None for k!) -> counts
    for spec in specs:
        family, t = spec.family, spec.residue_size
        if family is Family.VERTEX_MAX:
            columns.append([1] * len(lams))
            continue
        key = t if family is Family.VERTEX_CONGRUENCE else None
        if key not in quotients:
            fact = _factorials(max(ns), key)
            products = map(math.prod, map(map, repeat(fact.__getitem__), lams))
            counts, rests = zip(*map(divmod, map(fact.__getitem__, ns), products))
            if any(rests):
                lam = lams[next(i for i, rest in enumerate(rests) if rest)]
                raise ArithmeticError(f"inexact division in the {family.token} coset count of {lam} at t = {t}")
            quotients[key] = list(counts)
        counts, steps = quotients[key], spec.depth + (family is Family.IWAHORI_CONGRUENCE)
        if steps:  # t^(d_lam * steps) = (t^steps)^(d_lam)
            ds = ds or list(map(d_of, lams))
            counts = list(map(operator.mul, counts, map(pow, repeat(t**steps), ds)))
        columns.append(counts)
    return columns


def count_at_depth(lam: Partition, spec: SubgroupSpec) -> int:
    """Exact coset count for spec: the family's base count at depth 0 times t^(d_lam) per depth step."""
    return count_columns([lam], [spec])[0][0]
