"""Integer partitions and compositions with dominance order.

A partition of n is a weakly decreasing sequence of positive integers
summing to n; it indexes nilpotent conjugacy classes and associate
classes of block upper-triangular subgroups.  Compositions (arbitrary
order) are kept as a separate type so that an unsorted tuple can never
be passed where a partition is required.

All values are immutable and hashable.  The canonical enumeration order
is lexicographically decreasing, and every table or JSON emission in
this package lists partitions in that order.
"""

from __future__ import annotations

from itertools import accumulate, zip_longest
from typing import Iterable, Iterator, Sequence


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


class _Parts:
    """A nonempty tuple of positive parts, immutable and hashable.

    Subclasses keep their own type: equal parts of different types are
    unequal.  `_noun` names the type in error messages.
    """

    __slots__ = ("parts",)
    _noun: str

    def __init__(self, parts: Iterable[int]):
        parts = tuple(require_int(p, f"a {self._noun} part") for p in parts)
        if not parts:
            raise ValueError(f"empty {self._noun} is not allowed (n must be >= 1)")
        for p in parts:
            require_at_least(p, 1, f"{self._noun} parts")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _derived(cls, parts: Iterable[int]):
        """A value whose parts the package derived from a valid one, stored unchecked."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "parts", tuple(parts))
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.parts))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.parts)})"

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    @classmethod
    def _from_int_array(cls, array, wire_form: str, data):
        # JSON true/false decode to bool, a subclass of int, so test the exact type
        if not isinstance(array, list) or not all(type(x) is int for x in array):
            raise ValueError(f"a {cls._noun} serializes as {wire_form}, got {data!r}")
        return cls(array)


class Partition(_Parts):
    """A weakly decreasing sequence of positive integers."""

    __slots__ = ()
    _noun = "partition"

    def __init__(self, parts: Iterable[int]):
        super().__init__(parts)
        for a, b in zip(self.parts, self.parts[1:]):
            if a < b:
                raise ValueError(f"partition parts must be weakly decreasing, got {self.parts}")

    def to_json(self) -> list[int]:
        return list(self.parts)

    @classmethod
    def from_json(cls, data) -> "Partition":
        return cls._from_int_array(data, "a JSON array of integers", data)


class Composition(_Parts):
    """A sequence of positive integers in arbitrary order."""

    __slots__ = ()
    _noun = "composition"

    def to_json(self) -> dict:
        # explicit wrapper keeps compositions distinct from partitions on the wire
        return {"composition": list(self.parts)}

    @classmethod
    def from_json(cls, data) -> "Composition":
        array = data.get("composition") if isinstance(data, dict) else None
        return cls._from_int_array(array, '{"composition": [ints]}', data)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, in lexicographically decreasing order.

    The first entry is (n), the last is (1,...,1).  This order is the
    package-wide canonical order.
    """
    require_at_least(n, 1, "n")
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
    return out


def dual(lam: Partition) -> Partition:
    """The dual (conjugate) partition: dual(lam)[i] = #{j : lam[j] >= i+1}."""
    counts = [0] * lam[0]  # counts[i] = #{j : lam[j] == i+1}
    for p in lam:
        counts[p - 1] += 1
    return Partition._derived(reversed(list(accumulate(reversed(counts)))))


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


def dominance_compare(mu: Partition, lam: Partition) -> int | None:
    """-1 if mu < lam, 0 if equal, 1 if mu > lam, None if incomparable.

    Dominance is only a partial order; callers that need a total order
    must not use it for sorting.
    """
    if mu == lam:
        return 0
    le = dominance_leq(mu, lam)
    ge = dominance_leq(lam, mu)
    if le:
        return -1
    if ge:
        return 1
    return None


def d_of(lam: Partition) -> int:
    """d_lam = sum over i<j of lam[i]*lam[j], the block count above the diagonal.

    It equals (n^2 - sum_i lam[i]^2) / 2.  This is the dimension of the
    strictly upper block-triangular algebra of shape lam, and the growth
    exponent of coset counts along the congruence filtrations.
    """
    return (lam.n**2 - sum(p * p for p in lam)) // 2


def sort_to_partition(comp: Composition) -> Partition:
    """Reorder a composition decreasingly into its associated partition."""
    return Partition(sorted(comp.parts, reverse=True))


def composition_from_subset(subset: Iterable[int], n: int) -> Composition:
    """The composition of n with cut points at the given subset of {1,...,n-1}.

    The empty subset gives (n); {i_1 < ... < i_r} gives
    (i_1, i_2-i_1, ..., n-i_r).  This is a bijection from subsets of
    {1,...,n-1} onto compositions of n.
    """
    require_at_least(n, 1, "n")
    given = [require_int(i, "a cut point") for i in subset]
    cuts = sorted(set(given))
    if len(cuts) != len(given):
        raise ValueError(f"cut points must be distinct, got {given}")
    for i in cuts:
        if not 1 <= i <= n - 1:
            raise ValueError(f"cut points must lie in [1, {n - 1}], got {i}")
    bounds = [0] + cuts + [n]
    return Composition(b - a for a, b in zip(bounds, bounds[1:]))


def subset_from_composition(comp: Composition) -> tuple[int, ...]:
    """Inverse of composition_from_subset: the proper prefix sums."""
    return tuple(accumulate(comp.parts[:-1]))


def induce_partition(parts: Sequence[Partition]) -> Partition:
    """Gather the parts of several partitions and sort them decreasingly."""
    if not parts:
        raise ValueError("induce_partition needs at least one partition")
    gathered: list[int] = []
    for lam in parts:
        gathered.extend(lam.parts)
    return Partition(sorted(gathered, reverse=True))


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
    return sorted(partitions, key=lambda p: p.parts, reverse=True)
