"""Coefficient maps on partitions and their dimension-growth polynomials.

A CoefficientMap is the finite combinatorial shadow of a finite-length
smooth representation near the identity: integer coefficients indexed by
partitions of n.  Together with the base coset counts it determines, for
every pro-p filtration family, a polynomial P(X) with integer
coefficients whose value at (q^d)^j is the fixed-vector dimension at
congruence depth j, for j large enough.  No vector spaces or group
actions are ever modeled; twisting by a character does not change the
map, which is structural here since the map carries no character data.

dim_fixed evaluates the asymptotic formula at every depth; below a
representation-dependent validity threshold the true dimension may
differ (it can even make the formula negative).  The n = 2 catalog in
the gl2 module is the case where validity from depth 0 is known for the
standard classes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .cosets import Family, SubgroupSpec, base_count, require_prime_power
from .partitions import (
    Partition,
    canonical_order,
    charge,
    d_of,
    dominance_leq,
    dual,
    enumerate_partitions,
    induce_partition,
    minimal_elements,
    require_at_least,
    require_int,
    scale_partition,
    semistandard_tableaux,
)
from .qpoly import QPoly


class PositivityError(ValueError):
    """A dominance-minimal support value is not positive."""


class CoefficientMap:
    """Finitely supported integer-valued function on the partitions of n.

    Zero values are never stored; the zero map is valid data (virtual
    combinations can vanish near the identity without being zero).
    """

    __slots__ = ("n", "_entries")

    def __init__(self, n: int, entries: Mapping[Partition, int] | Iterable[tuple[Partition, int]] = ()):
        require_at_least(n, 1, "n")
        items = entries.items() if isinstance(entries, Mapping) else entries
        store: dict[Partition, int] = {}
        for lam, value in items:
            if not isinstance(lam, Partition):
                raise ValueError(f"keys must be Partition, got {lam!r}")
            if lam.n != n:
                raise ValueError(f"key {lam} is not a partition of n = {n}")
            value = require_int(value, "entry value")
            if value != 0:
                store[lam] = store.get(lam, 0) + value
                if store[lam] == 0:
                    del store[lam]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_entries", store)

    def __setattr__(self, name, value):
        raise AttributeError("CoefficientMap is immutable")

    @classmethod
    def zero(cls, n: int) -> "CoefficientMap":
        return cls(n)

    @classmethod
    def indicator(cls, lam: Partition, value: int = 1) -> "CoefficientMap":
        return cls(lam.n, [(lam, value)])

    def value(self, lam: Partition) -> int:
        return self._entries.get(lam, 0)

    def items(self) -> list[tuple[Partition, int]]:
        """Entries in canonical partition order."""
        return [(lam, self._entries[lam]) for lam in canonical_order(self._entries)]

    def support(self) -> set[Partition]:
        return set(self._entries)

    def support_min(self) -> set[Partition]:
        """Dominance-minimal elements of the support."""
        return minimal_elements(self._entries)

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

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": [{"partition": lam.to_json(), "value": v} for lam, v in self.items()],
        }

    @classmethod
    def from_json(cls, data) -> "CoefficientMap":
        if not isinstance(data, dict) or "n" not in data or "entries" not in data:
            raise ValueError('a coefficient map serializes as {"n": int, "entries": [...]}')
        n = require_int(data["n"], '"n"')
        entries = []
        for item in data["entries"]:
            if not isinstance(item, dict) or "partition" not in item or "value" not in item:
                raise ValueError(f'each entry needs "partition" and "value", got {item!r}')
            entries.append((Partition.from_json(item["partition"]), item["value"]))
        return cls(n, entries)


@dataclass(frozen=True)
class PositivityCheck:
    """Per-partition verdicts at the dominance-minimal support."""

    entries: tuple[tuple[Partition, int, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, _, ok in self.entries)


def check_minimal_positivity(c: CoefficientMap) -> PositivityCheck:
    """Check that every dominance-minimal support value is positive.

    A failure means c cannot come from an actual finite-length
    representation; the zero map passes vacuously.
    """
    rows = tuple(
        (lam, c.value(lam), c.value(lam) > 0) for lam in canonical_order(c.support_min())
    )
    return PositivityCheck(rows)


def gk_dimension(c: CoefficientMap) -> int:
    """max of d_lam over the support; the growth exponent of fixed-vector dimensions."""
    if c.is_zero():
        raise ValueError("the zero map has no growth degree")
    return max(d_of(lam) for lam in c.support())


@dataclass(frozen=True)
class DimensionPolynomial:
    """P(X) with its construction context.

    formal_degree is the maximal d_lam over the support and
    formal_leading the coefficient sum at that degree; when cancellation
    makes that sum zero the actual degree of poly is smaller, and both
    are reported rather than assuming the cancellation cannot happen.
    """

    poly: QPoly
    family: Family | None
    q: int
    d: int
    base_depth: int
    formal_degree: int | None
    formal_leading: int | None

    @property
    def degree(self) -> int:
        return self.poly.degree

    def dim_at_depth(self, j: int) -> int:
        """Value at X = (q^d)^j, the depth-(base_depth + j) fixed-vector dimension."""
        require_at_least(j, 0, "depth")
        return self.poly.eval_at((self.q**self.d) ** j)


def dimension_polynomial(
    c: CoefficientMap,
    family: Family | None,
    q: int,
    d: int,
    base_counts: Mapping[Partition, int] | None = None,
    base_depth: int = 0,
) -> DimensionPolynomial:
    """P(X) = sum over lam of (coset count of P_lam at base_depth) * c(lam) * X^(d_lam).

    Counts come from the named family, or from base_counts (already
    depth-base_depth integers) for subgroups outside the named families;
    a support partition with neither is an error.
    """
    require_at_least(base_depth, 0, "base_depth")
    require_prime_power(q)
    require_at_least(d, 1, "d")
    t = q**d
    coeffs: dict[int, int] = {}
    for lam, value in c.items():
        if base_counts is not None and lam in base_counts:
            count = require_int(base_counts[lam], f"the base count of {lam}") * t ** (d_of(lam) * base_depth)
        elif family is not None:
            count = base_count(lam, family).eval_at(t) * t ** (d_of(lam) * base_depth)
        else:
            raise ValueError(f"missing base count for {lam}: no family and no user count")
        k = d_of(lam)
        coeffs[k] = coeffs.get(k, 0) + count * value
    formal_degree = max(coeffs, default=None)  # every support partition added its key d_lam
    poly = QPoly(coeffs.get(k, 0) for k in range(formal_degree + 1 if coeffs else 0))
    return DimensionPolynomial(poly, family, q, d, base_depth, formal_degree, coeffs.get(formal_degree))


def dim_fixed(
    c: CoefficientMap,
    spec: SubgroupSpec,
    base_counts: Mapping[Partition, int] | None = None,
) -> int:
    """Fixed-vector dimension at spec's depth, by the asymptotic formula.

    Valid for depths at or above the representation's threshold; below
    it the formula is still evaluated (and may even be negative).
    """
    dp = dimension_polynomial(c, spec.family, spec.q, spec.d, base_counts=base_counts)
    return dp.dim_at_depth(spec.depth)


def induce_maps(maps: Sequence[CoefficientMap]) -> CoefficientMap:
    """The coefficient map of a parabolically induced tuple.

    c(lam) sums the products c_1(lam_1)...c_r(lam_r) over all tuples
    whose gathered parts sort to lam.  Multilinear in each argument and
    independent of the argument order.
    """
    if not maps:
        raise ValueError("induce_maps needs at least one map")
    acc = maps[0]
    # one pair at a time, so each partial product has at most p(n) entries
    for m in maps[1:]:
        step: dict[Partition, int] = {}
        for lam, a in acc.items():
            for mu, b in m.items():
                nu = induce_partition([lam, mu])
                step[nu] = step.get(nu, 0) + a * b
        acc = CoefficientMap(acc.n + m.n, step)
    return acc


def lj_transfer(c: CoefficientMap, n: int, d: int) -> CoefficientMap:
    """Transfer from partitions of d*n down to partitions of n.

    c'(lam) = (-1)^(dn-n) * c(d*lam); entries of c at partitions not of
    the form d*lam are in the kernel and are dropped.  For d = 1 this is
    the identity.
    """
    require_at_least(n, 1, "n")
    require_at_least(d, 1, "d")
    if c.n != d * n:
        raise ValueError(f"expected a map on partitions of {d * n}, got n = {c.n}")
    sign = (-1) ** (d * n - n)
    return CoefficientMap(
        n, {lam: sign * c.value(scale_partition(lam, d)) for lam in enumerate_partitions(n)}
    )


def jl_transfer(c: CoefficientMap, d: int) -> CoefficientMap:
    """Section of lj_transfer: c'(d*lam) = (-1)^(dn-n) * c(lam), zero elsewhere."""
    require_at_least(d, 1, "d")
    n = c.n
    sign = (-1) ** (d * n - n)
    return CoefficientMap(
        d * n, {scale_partition(lam, d): sign * v for lam, v in c.items()}
    )


def square_integrable_top_coeff(dim_div_algebra_rep: int, n: int) -> int:
    """Value at (n) for a square-integrable class: (-1)^(n-1) times the transferred dimension."""
    require_at_least(dim_div_algebra_rep, 1, "dimension")
    require_at_least(n, 1, "n")
    return (-1) ** (n - 1) * dim_div_algebra_rep


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


def kostka_foulkes(lam: Partition, mu: Partition) -> QPoly:
    """The Kostka-Foulkes polynomial K_{lam mu}(t) = sum of t^charge(T).

    T runs over the semistandard tableaux of shape lam and content mu,
    so K_{lam mu}(1) is the Kostka number K_{lam mu}.
    """
    coeffs: dict[int, int] = {}
    for tableau in semistandard_tableaux(lam, mu.parts):
        k = charge(tableau)
        coeffs[k] = coeffs.get(k, 0) + 1
    return QPoly(coeffs.get(k, 0) for k in range(max(coeffs, default=-1) + 1))


def closed_form_multiplicity_matrix(n: int, q: int) -> dict[Partition, dict[Partition, int]]:
    """The depth-one multiplicity matrix from Kostka-Foulkes polynomials, at q.

    A fresh int matrix: `multiplicity_polynomials(n)` evaluated at the
    prime power q.  This is the independent route that the exhaustive
    oracle `oracle.multiplicity_matrix` is checked against.
    """
    require_prime_power(q)
    rows = multiplicity_polynomials(n)
    return {lam: {mu: poly.eval_at(q) for mu, poly in row.items()} for lam, row in rows.items()}


def multiplicity_polynomials(n: int) -> dict[Partition, dict[Partition, QPoly]]:
    """The depth-one multiplicity matrix as polynomials in q, from Kostka-Foulkes polynomials.

    M[lam][mu] counts the flags of type mu that the block-shift matrix
    A_lam (Jordan type lam' = dual(lam)) moves one step down.  In the
    Hall algebra (Macdonald, Symmetric Functions and Hall Polynomials,
    Ch. II-III) this is

        M[lam][mu] = q^(n(lam') - sum_i C(mu_i, 2))
                     * sum over nu of K_{nu' mu} * K_{nu lam'}(1/q),

    with n(rho) = sum_i (i-1) rho_i, so n(lam') = sum_i C(lam_i, 2).
    Each K_{nu lam'}(t) has degree at most n(lam'), so the sum times
    q^(n(lam')) is a polynomial.  Its division by q^(sum_i C(mu_i, 2))
    is exact at every prime power, hence exact as a polynomial: a
    nonzero coefficient below that power is a bug (ArithmeticError).

    Built once per n and process; each call returns a fresh matrix, so
    no caller can change what the next one reads.
    """
    return {lam: dict(row) for lam, row in _multiplicity_polynomials(require_at_least(n, 1, "n")).items()}


@functools.cache
def _multiplicity_polynomials(n: int) -> dict[Partition, dict[Partition, QPoly]]:
    """The memo behind `multiplicity_polynomials`; its rows are never handed out.

    Each K_{a b}(t) is built once, into one table; K_{nu' mu} is read
    from it at t = 1.
    """
    parts = enumerate_partitions(n)
    table = {(a, b): kostka_foulkes(a, b).coeffs for a in parts for b in parts}
    kostka = {(nu, mu): sum(table[dual(nu), mu]) for nu in parts for mu in parts}
    out: dict[Partition, dict[Partition, QPoly]] = {}
    for lam in parts:
        top = sum(p * (p - 1) // 2 for p in lam)
        # q^(n(lam')) * K_{nu lam'}(1/q): coefficient k of K moves to q^(top - k)
        flipped = {nu: table[nu, dual(lam)] for nu in parts}
        row = {}
        for mu in parts:
            total = [0] * (top + 1)
            for nu in parts:
                weight = kostka[nu, mu]
                if weight:
                    for k, c in enumerate(flipped[nu]):
                        total[top - k] += weight * c
            shift = sum(p * (p - 1) // 2 for p in mu)
            if any(total[:shift]):
                raise ArithmeticError(f"closed form for ({lam}, {mu}) is not divisible by q^{shift}")
            row[mu] = QPoly(total[shift:])
        out[lam] = row
    return out


def whittaker_dims(c: CoefficientMap) -> dict[Partition, int]:
    """Degenerate Whittaker-space dimensions read off the minimal support.

    The dominance-minimal support partitions carry positive values equal
    to those dimensions; a non-positive minimal value is an error since
    no actual representation produces it.
    """
    report = check_minimal_positivity(c)
    if not report.passed:
        bad = ", ".join(f"{lam}: {v}" for lam, v, ok in report.entries if not ok)
        raise PositivityError(f"minimal support value must be positive; got {bad}")
    return {lam: v for lam, v, _ in report.entries}
