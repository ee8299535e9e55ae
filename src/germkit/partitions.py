"""Integer partitions with dominance order.

A partition of n is a weakly decreasing sequence of positive integers
summing to n; it indexes nilpotent conjugacy classes and associate
classes of block upper-triangular subgroups.

All values are immutable and hashable.  The canonical enumeration order
is lexicographically decreasing, and every table or JSON emission in
this package lists partitions in that order.  The partitions of each n
are enumerated once per process and kept for at most 64 values of n,
and so are their d_lam and duals (_map_partitions): all partitions of
n <= 20 hold about 0.4 MB, their d_lam 0.02 MB and their duals 0.3 MB
(tracemalloc).
"""

from __future__ import annotations

import functools
import operator
from itertools import accumulate, zip_longest
from typing import Iterable


def require_int(x, what: str) -> int:
    """x itself if it is an int; ValueError on a float, str or bool, as the wire formats do."""
    if type(x) is not int:  # bool is a subclass of int
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def require_at_least(x, low: int, what: str) -> int:
    """x itself if it is an int >= low; ValueError otherwise."""
    if require_int(x, what) < low:
        raise ValueError(f"{what} must be >= {low}, got {x}")
    return x


def require_partition(lam, what: str) -> Partition:
    """lam itself if it is a Partition; ValueError naming `what` otherwise."""
    if not isinstance(lam, Partition):
        raise ValueError(f"{what} needs a Partition, got {lam!r}")
    return lam


class Partition(tuple):
    """A partition of n: a nonempty, weakly decreasing tuple of positive integers.

    It is the tuple of its parts, so it equals and hashes as that tuple,
    and `<` is lexicographic order (the canonical order reversed), not
    dominance.  It pickles and copies through its checked constructor,
    and assignment raises.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int]) -> "Partition":
        parts = tuple(parts)
        # one C-level pass per check; the part-by-part checks below only name the first fault
        if parts and {int}.issuperset(map(type, parts)) and min(parts) >= 1 and all(map(operator.ge, parts, parts[1:])):
            return tuple.__new__(cls, parts)
        for p in parts:
            require_int(p, "a partition part")
        if not parts:
            raise ValueError("empty partition is not allowed (n must be >= 1)")
        for p in parts:
            require_at_least(p, 1, "partition parts")
        raise ValueError(f"partition parts must be weakly decreasing, got {parts}")  # the one check left

    @classmethod
    def _derived(cls, parts: Iterable[int]) -> "Partition":
        """A partition whose parts the package derived from a valid one, stored unchecked."""
        return tuple.__new__(cls, parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def n(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return f"Partition({list(self)})"

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self)) + ")"

    @classmethod
    def from_json(cls, data) -> "Partition":
        # JSON true/false decode to bool, a subclass of int, so test the exact type
        if not isinstance(data, list) or not {int}.issuperset(map(type, data)):
            raise ValueError(f"a partition serializes as a JSON array of integers, got {data!r}")
        return cls(data)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, in lexicographically decreasing order.

    The first entry is (n), the last is (1,...,1).  This order is the
    package-wide canonical order.
    """
    require_at_least(n, 1, "n")
    return list(_partitions(n))


@functools.lru_cache(maxsize=64)
def _partitions(n: int) -> tuple[Partition, ...]:
    """The memo behind `enumerate_partitions`; a tuple, so no caller can edit it."""
    out: list[Partition] = []

    def rec(remaining: int, max_part: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(Partition._derived(prefix))
            return
        for k in range(min(remaining, max_part), 0, -1):
            prefix.append(k)
            rec(remaining - k, k, prefix)
            prefix.pop()

    rec(n, n, [])
    return tuple(out)


def dual(lam: Partition) -> Partition:
    """The dual (conjugate) partition: dual(lam)[i] = #{j : lam[j] >= i+1}."""
    k, out = len(lam), []
    for i in range(1, lam[0] + 1):
        while lam[k - 1] < i:  # the parts are decreasing: lam[:k] are those >= i
            k -= 1
        out.append(k)
    return Partition._derived(out)


def dominance_leq(mu: Partition, lam: Partition) -> bool:
    """True iff mu <= lam in dominance order.

    Both must be partitions of the same n (ValueError otherwise).  The
    comparison pads the shorter list of prefix sums with the total n.
    """
    if mu.n != lam.n:
        raise ValueError(f"dominance compares partitions of the same n: {mu} vs {lam}")
    return all(a <= b for a, b in zip_longest(accumulate(mu), accumulate(lam), fillvalue=mu.n))


def dominance_lt(mu: Partition, lam: Partition) -> bool:
    """Strict dominance: mu <= lam and mu != lam."""
    return mu != lam and dominance_leq(mu, lam)


def d_of(lam: Partition) -> int:
    """d_lam = sum over i<j of lam[i]*lam[j], the block count above the diagonal.

    It equals (n^2 - sum_i lam[i]^2) / 2.  This is the dimension of the
    strictly upper block-triangular algebra of shape lam, and the growth
    exponent of coset counts along the congruence filtrations.
    """
    return (sum(lam) ** 2 - sum(map(operator.mul, lam, lam))) // 2


@functools.lru_cache(maxsize=128)
def _map_partitions(f, n: int) -> tuple:
    """f of each partition of n, in canonical order: d_of and dual, each for at most 64 values of n."""
    return tuple(map(f, _partitions(n)))


def scale_partition(lam: Partition, d: int) -> Partition:
    """Multiply every part by d >= 1, giving a partition of d*n."""
    require_at_least(d, 1, "scale factor")
    return Partition(d * p for p in lam)


def minimal_elements(partitions: Iterable[Partition]) -> set[Partition]:
    """Dominance-minimal elements of a set of partitions of one fixed n."""
    elems = set(partitions)
    if not elems:
        return set()
    ns = {lam.n for lam in elems}
    if len(ns) != 1:
        raise ValueError(f"minimal_elements needs partitions of a single n, got n in {sorted(ns)}")
    return {lam for lam in elems if not any(dominance_lt(mu, lam) for mu in elems)}


def canonical_order(partitions: Iterable[Partition]) -> list[Partition]:
    """Sort partitions into the canonical (lexicographically decreasing) order."""
    return sorted(partitions, reverse=True)
