"""Coefficient maps on partitions and their dimension-growth polynomials.

A CoefficientMap is the finite combinatorial shadow of a finite-length
smooth representation near the identity: integer coefficients indexed by
partitions of n.  Together with the base coset counts it determines, for
every pro-p filtration family, a polynomial P(X) with integer
coefficients whose value at (q^d)^j is the fixed-vector dimension at
congruence depth j, for j large enough.  Every count is a named
family's own: dimension_polynomial (depth 0) and dim_fixed (its spec's
one column) each read the counts of the support from one
`cosets.count_columns` call (tested against `cosets.base_count`), so
only that function scales a count by depth.
No vector spaces or group actions are ever modeled; twisting by a
character does not change the map, which is structural here since the
map carries no character data.

dim_fixed evaluates the asymptotic formula at every depth; below a
representation-dependent validity threshold the true dimension may
differ (it can even make the formula negative).  The n = 2 catalog in
the gl2 module is the case where validity from depth 0 is known for the
standard classes.
"""

from __future__ import annotations

import functools
import operator
from itertools import pairwise, product
from typing import Mapping, NamedTuple, Sequence

from .cosets import Family, SubgroupSpec, count_columns, require_prime_power
from .partitions import (
    Partition,
    canonical_order,
    d_of,
    dominance_leq,
    enumerate_partitions,
    minimal_elements,
    require_at_least,
    require_int,
    scale_partition,
)
from .qpoly import QPoly, q_multinomial


class PositivityError(ValueError):
    """A dominance-minimal support value is not positive."""


class CoefficientMap:
    """Finitely supported integer-valued function on the partitions of n, built from a mapping {Partition: int}.

    Zero values are dropped, never stored; the zero map is valid data
    (virtual combinations can vanish near the identity without being zero).
    """

    __slots__ = ("n", "_entries")

    def __init__(self, n: int, entries: Mapping[Partition, int]):
        require_at_least(n, 1, "n")
        store: dict[Partition, int] = {}
        for lam, value in entries.items():
            if not isinstance(lam, Partition):
                raise ValueError(f"keys must be Partition, got {lam!r}")
            if lam.n != n:
                raise ValueError(f"key {lam} is not a partition of n = {n}")
            if require_int(value, "entry value"):
                store[lam] = value
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_entries", store)

    def __setattr__(self, name, value):
        raise AttributeError("CoefficientMap is immutable")

    def __reduce__(self):
        # the default would restore the slots by assignment, which __setattr__ refuses: rebuild through the constructor
        return CoefficientMap, (self.n, self._entries)

    @classmethod
    def zero(cls, n: int) -> "CoefficientMap":
        return cls(n, {})

    @classmethod
    def indicator(cls, lam: Partition) -> "CoefficientMap":
        return cls(lam.n, {lam: 1})

    def value(self, lam: Partition) -> int:
        return self._entries.get(lam, 0)

    def items(self) -> list[tuple[Partition, int]]:
        """Entries in canonical partition order."""
        return [(lam, self._entries[lam]) for lam in canonical_order(self._entries)]

    def support(self) -> set[Partition]:
        return set(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoefficientMap)
            and self.n == other.n
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._entries.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"{lam}: {v}" for lam, v in self.items())
        return f"CoefficientMap(n={self.n}, {{{body}}})"

    def __add__(self, other: "CoefficientMap") -> "CoefficientMap":
        if not isinstance(other, CoefficientMap):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"cannot add maps with n = {self.n} and n = {other.n}")
        merged = dict(self._entries)
        for lam, v in other._entries.items():
            merged[lam] = merged.get(lam, 0) + v
        return CoefficientMap(self.n, merged)

    def __neg__(self) -> "CoefficientMap":
        return CoefficientMap(self.n, {lam: -v for lam, v in self._entries.items()})

    def __sub__(self, other: "CoefficientMap") -> "CoefficientMap":
        if not isinstance(other, CoefficientMap):
            return NotImplemented
        return self + (-other)

    def scale(self, k: int) -> "CoefficientMap":
        return CoefficientMap(self.n, {lam: k * v for lam, v in self._entries.items()})

    @classmethod
    def from_json(cls, data) -> "CoefficientMap":
        if not isinstance(data, dict) or "n" not in data or "entries" not in data:
            raise ValueError('a coefficient map serializes as {"n": int, "entries": [...]}')
        n = require_int(data["n"], '"n"')
        if not isinstance(data["entries"], list):
            raise ValueError(f'"entries" must be a JSON array, got {data["entries"]!r}')
        entries = {}
        for item in data["entries"]:
            if not isinstance(item, dict) or "partition" not in item or "value" not in item:
                raise ValueError(f'each entry needs "partition" and "value", got {item!r}')
            lam = Partition.from_json(item["partition"])
            if lam in entries:
                raise ValueError(f"the partition {lam} is listed twice")
            entries[lam] = item["value"]
        return cls(n, entries)


def gk_dimension(c: CoefficientMap) -> int:
    """max of d_lam over the support; the growth exponent of fixed-vector dimensions."""
    if c.is_zero():
        raise ValueError("the zero map has no growth degree")
    return max(d_of(lam) for lam in c.support())


class DimensionPolynomial(NamedTuple):
    """P(X), with the formal degree and leading coefficient it was summed to.

    formal_degree is the maximal d_lam over the support and
    formal_leading the coefficient sum at that degree; when cancellation
    makes that sum zero the actual degree of poly is smaller, and both
    are reported rather than assuming the cancellation cannot happen.
    An immutable value: it equals and hashes as the tuple of its fields.
    """

    poly: QPoly
    formal_degree: int | None
    formal_leading: int | None

    @property
    def degree(self) -> int:
        return self.poly.degree


def dimension_polynomial(c: CoefficientMap, family: Family, q: int, d: int) -> DimensionPolynomial:
    """P(X) = sum over lam of c(lam) * (depth-0 coset count of P_lam) * X^(d_lam).

    The counts are the family's formula at t = q^d, read for the whole
    support in one `count_columns` call.  P at X = (q^d)^j is
    `dim_fixed` at depth j.
    """
    coeffs: dict[int, int] = {}
    for (lam, value), base in zip(c._entries.items(), count_columns(c._entries, [SubgroupSpec(family, 0, q, d)])[0]):
        k = d_of(lam)
        coeffs[k] = coeffs.get(k, 0) + value * base
    formal_degree = max(coeffs, default=None)  # every support partition added its key d_lam
    poly = QPoly(coeffs.get(k, 0) for k in range(formal_degree + 1 if coeffs else 0))
    return DimensionPolynomial(poly, formal_degree, coeffs.get(formal_degree))


def dim_fixed(c: CoefficientMap, spec: SubgroupSpec) -> int:
    """Fixed-vector dimension at spec's depth: sum over lam of c(lam) * (coset count of P_lam at that depth).

    The counts of the whole support come from one `count_columns` call.
    Valid for depths at or above the representation's threshold; below
    it the formula is still evaluated (and may even be negative).
    """
    return sum(map(operator.mul, c._entries.values(), count_columns(c._entries, [spec])[0]))


def induce_maps(maps: Sequence[CoefficientMap]) -> CoefficientMap:
    """The coefficient map of a parabolically induced tuple.

    c(lam) sums the products c_1(lam_1)...c_r(lam_r) over all tuples
    whose gathered parts sort to lam.  Multilinear in each argument and
    independent of the argument order.
    """
    if not maps:
        raise ValueError("induce_maps needs at least one map")
    # one pair at a time, smallest support first, so each partial product has at most p(n) entries and
    # stays small for longest; it is a plain dict keyed by the parts in increasing order, which `sorted`
    # gathers in one C-level pass
    first, *rest = sorted(maps, key=lambda m: len(m._entries))
    acc = {lam[::-1]: v for lam, v in first._entries.items()}
    for m in rest:
        step: dict[tuple[int, ...], int] = {}
        right, values = [mu[::-1] for mu in m._entries], list(m._entries.values())
        for lam, a in acc.items():
            for nu, b in zip(map(tuple, map(sorted, map(lam.__add__, right))), values):
                step[nu] = step.get(nu, 0) + a * b
        acc = step
    return CoefficientMap(sum(m.n for m in maps), {Partition._derived(nu[::-1]): v for nu, v in acc.items()})


def lj_transfer(c: CoefficientMap, n: int, d: int) -> CoefficientMap:
    """Transfer from partitions of d*n down to partitions of n.

    c'(lam) = (-1)^(dn-n) * c(d*lam); entries of c at partitions not of
    the form d*lam are in the kernel and are dropped.  For d = 1 this is
    the identity.  Only the support of c is read, never every partition of n.
    """
    require_at_least(n, 1, "n")
    require_at_least(d, 1, "d")
    if c.n != d * n:
        raise ValueError(f"expected a map on partitions of {d * n}, got n = {c.n}")
    sign = (-1) ** (d * n - n)
    return CoefficientMap(
        n,
        {Partition(p // d for p in mu): sign * v for mu, v in c.items() if all(p % d == 0 for p in mu)},
    )


def jl_transfer(c: CoefficientMap, d: int) -> CoefficientMap:
    """Section of lj_transfer: c'(d*lam) = (-1)^(dn-n) * c(lam), zero elsewhere."""
    require_at_least(d, 1, "d")
    n = c.n
    sign = (-1) ** (d * n - n)
    return CoefficientMap(
        d * n, {scale_partition(lam, d): sign * v for lam, v in c.items()}
    )


MultiplicityMatrix = Mapping[Partition, Mapping[Partition, int]]


def _check_unitriangular(M: MultiplicityMatrix, parts: list[Partition]) -> None:
    for lam in parts:
        if lam not in M:
            raise ValueError(f"multiplicity matrix is missing the row {lam}")
        row = M[lam]
        if row.get(lam, None) != 1:
            raise ValueError(f"multiplicity matrix must have M[{lam}][{lam}] = 1, got {row.get(lam)}")
        for mu in parts:
            if row.get(mu, 0) != 0 and not dominance_leq(mu, lam):
                raise ValueError(
                    f"multiplicity matrix must vanish at ({lam}, {mu}) since {lam} is not >= {mu}"
                )


def forward_multiplicities(c: CoefficientMap, M: MultiplicityMatrix) -> dict[Partition, int]:
    """m(lam) = sum over mu of c(mu) * M[lam][mu]: the multiplicities c produces."""
    parts = enumerate_partitions(c.n)
    _check_unitriangular(M, parts)
    return {lam: sum(c.value(mu) * M[lam].get(mu, 0) for mu in parts) for lam in parts}


def solve_from_multiplicities(
    m: Mapping[Partition, int], M: MultiplicityMatrix
) -> CoefficientMap:
    """Recover the unique c with m(lam) = sum_mu c(mu) M[lam][mu].

    M must be dominance-unitriangular (diagonal 1, zero unless the row
    partition dominates the column partition); the solve runs upward
    from the dominance-minimal partitions:

        c(lam) = m(lam) - sum over mu < lam of c(mu) * M[lam][mu].
    """
    if not m:
        raise ValueError("empty multiplicity data")
    ns = {lam.n for lam in m}
    if len(ns) != 1:
        raise ValueError(f"multiplicities must be keyed by partitions of one n, got {sorted(ns)}")
    n = ns.pop()
    parts = enumerate_partitions(n)
    missing = [lam for lam in parts if lam not in m]
    if missing:
        raise ValueError(f"multiplicity data is missing {missing[0]} (need all partitions of {n})")
    _check_unitriangular(M, parts)
    values: dict[Partition, int] = {}
    # reverse canonical order is a linear extension of dominance from below
    for lam in reversed(parts):
        # _check_unitriangular makes M[lam][mu] vanish unless mu < lam
        values[lam] = m[lam] - sum(values[mu] * M[lam].get(mu, 0) for mu in values)
    return CoefficientMap(n, values)


def closed_form_multiplicity_matrix(n: int, q: int) -> dict[Partition, dict[Partition, int]]:
    """The depth-one multiplicity matrix from Hall polynomials, at q.

    A fresh int matrix: `multiplicity_polynomials(n)` evaluated at the
    prime power q.  This is the independent route that the exhaustive
    oracle `oracle.multiplicity_matrix` is checked against.
    """
    require_prime_power(q)
    return {lam: {mu: p.eval_at(q) for mu, p in row.items()} for lam, row in multiplicity_polynomials(n).items()}


def multiplicity_polynomials(n: int) -> dict[Partition, dict[Partition, QPoly]]:
    """The depth-one multiplicity matrix as polynomials in q, from Hall polynomials.

    M[lam][mu] counts the flags of type mu that the block-shift matrix
    A_lam (Jordan type lam' = dual(lam)) moves one step down.  Peeling
    off one step at a time gives M[lam][mu] = f(lam', mu), f(empty, ()) = 1,

        f(rho, (m, rest)) = sum over nu of g^rho_{nu,(1^m)}(q) * f(nu, rest)

    over the nu with rho/nu a vertical m-strip, where (Macdonald,
    Symmetric Functions and Hall Polynomials, II (4.6))

        g^rho_{nu,(1^m)}(q) = q^(n(rho) - n(nu) - n(1^m))
                              * prod_i [rho'_i - rho'_(i+1) choose rho'_i - nu'_i]_(1/q),

    n(rho) = sum_i (i-1) rho_i and [a choose b]_(1/q) = q^(-b(a-b)) [a choose b]_q,
    the q-binomials coming from `q_multinomial`.  Every total power of q
    is >= 0, so a negative one is a bug (ArithmeticError).

    Built once per n and process; each call returns a fresh matrix, so
    no caller can change what the next one reads.
    """
    return {lam: dict(row) for lam, row in _multiplicity_polynomials(require_at_least(n, 1, "n")).items()}


def _n_from_dual(parts: tuple[int, ...]) -> int:
    """n(rho) = sum_i C(rho'_i, 2), read off the parts of rho'."""
    return sum(p * (p - 1) // 2 for p in parts)


@functools.cache
def _multiplicity_polynomials(n: int) -> dict[Partition, dict[Partition, QPoly]]:
    """The memo behind `multiplicity_polynomials`; its rows are never handed out.

    f runs on rho' in place of rho, so no partition is dualised, and is
    memoised within this build only.
    """
    memo = {((), ()): QPoly.one()}

    def f(dual_rho: tuple[int, ...], mu: tuple[int, ...]) -> QPoly:
        if (dual_rho, mu) not in memo:
            m, padded, total = mu[0], dual_rho + (0,), QPoly.zero()
            # rho/nu is a vertical m-strip iff rho'_(i+1) <= nu'_i <= rho'_i and |nu| = |rho| - m
            for dual_nu in product(*(range(low, high + 1) for high, low in pairwise(padded))):
                if sum(dual_nu) != sum(dual_rho) - m:
                    continue
                e = _n_from_dual(dual_rho) - _n_from_dual(dual_nu) - m * (m - 1) // 2
                term = f(tuple(t for t in dual_nu if t), mu[1:])
                for high, low, t in zip(padded, padded[1:], dual_nu):
                    a, b = high - low, high - t
                    e -= b * (a - b)
                    if 0 < b < a:
                        term = term * q_multinomial(Partition(sorted((b, a - b), reverse=True)))
                if e < 0:
                    raise ArithmeticError(f"Hall polynomial at rho' = {dual_rho}, nu' = {dual_nu} has q^{e}")
                total = total + QPoly._derived((0,) * e + term)  # times q^e
            memo[dual_rho, mu] = total
        return memo[dual_rho, mu]

    parts = enumerate_partitions(n)
    return {lam: {mu: f(lam, mu) for mu in parts} for lam in parts}


def whittaker_dims(c: CoefficientMap) -> dict[Partition, int]:
    """Degenerate Whittaker-space dimensions read off the minimal support.

    The dominance-minimal support partitions carry positive values equal
    to those dimensions; a non-positive minimal value is an error since
    no actual representation produces it.
    """
    dims = {lam: c.value(lam) for lam in canonical_order(minimal_elements(c.support()))}
    bad = ", ".join(f"{lam}: {v}" for lam, v in dims.items() if v <= 0)
    if bad:
        raise PositivityError(f"minimal support value must be positive; got {bad}")
    return dims
