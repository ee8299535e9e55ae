"""Exact univariate polynomials over arbitrary-precision integers.

Carries the q-analog counting quantities: q-integers [m]_q, q-factorials
[n!]_q, and q-multinomials [n!]_q / prod [lam_i!]_q.  The same type also
holds dimension-growth polynomials in a second contextual variable X;
the variable name is purely presentational.  A QPoly is the tuple of its
coefficients, constant term first, as a Partition is the tuple of its
parts.

The q-multinomial divides [n!]_q by one q-integer [m]_q = (1 - q^m) / (1 - q)
at a time, in time linear in the degree: times 1 - q, then an exact
division by 1 - q^m, with a hard error on a nonzero remainder.  So the
divisibility that makes the count a polynomial is checked on every value
the process computes instead of being assumed.  q-factorials and
q-multinomials are memoised per process behind the checks of their
arguments.  The q-multinomial memo keeps at most 1024 partitions: about
0.85 MB once every partition of n <= 14 has passed through it, and 6 MB
once every partition of n <= 20 has (tracemalloc, both memos counted).

Polynomials the package derives from checked ones (sums, products,
q-integers, q-multinomials) skip the coefficient check of the public
constructor and only drop trailing zeros.
"""

from __future__ import annotations

import functools
import operator
from itertools import accumulate, starmap, zip_longest

from .partitions import Partition, require_int, require_partition


class QPoly(tuple):
    """Immutable polynomial with int coefficients: the tuple of them, constant term first.

    The zero polynomial is the empty tuple and a nonzero one ends in a
    nonzero coefficient, so `p[k]` is the coefficient of q^k for k <= the
    degree, and a QPoly equals and hashes as the tuple of its
    coefficients (`QPoly([1, 2, 0]) == (1, 2)`); `<` is tuple order.  The
    arithmetic takes QPoly operands, and ints for `*`.  It pickles and
    copies through its checked constructor, and assignment raises.
    """

    __slots__ = ()

    def __new__(cls, coeffs=()) -> "QPoly":
        coeffs = tuple(coeffs)
        if not {int}.issuperset(map(type, coeffs)):  # one C-level pass; the loop below names the first fault
            for c in coeffs:
                require_int(c, "a coefficient")
        return cls._derived(coeffs)

    @classmethod
    def _derived(cls, coeffs) -> "QPoly":
        """A polynomial whose int coefficients the package computed from checked values, trailing zeros dropped."""
        coeffs = tuple(coeffs)
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        return tuple.__new__(cls, coeffs[:end])

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self) - 1

    def __repr__(self) -> str:
        return f"QPoly({list(self)})"

    def __add__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        return QPoly._derived(starmap(operator.add, zip_longest(self, other, fillvalue=0)))

    def __sub__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        return QPoly._derived(starmap(operator.sub, zip_longest(self, other, fillvalue=0)))

    def __neg__(self) -> "QPoly":
        return QPoly._derived(map(operator.neg, self))

    def __mul__(self, other):
        if isinstance(other, int):
            return QPoly(c * other for c in self)
        if not isinstance(other, QPoly):
            return NotImplemented
        if not self or not other:
            return QPoly.zero()
        out = [0] * (len(self) + len(other) - 1)
        for i, a in enumerate(self):
            if a == 0:
                continue
            for j, b in enumerate(other):
                out[i + j] += a * b
        return QPoly._derived(out)

    __rmul__ = __mul__  # k * p is p * k

    def eval_at(self, v: int) -> int:
        """Horner evaluation with exact integer arithmetic."""
        acc = 0
        for c in reversed(self):
            acc = acc * v + c
        return acc

    def pretty(self, var: str = "q") -> str:
        """Compact descending form, e.g. 'q^2+2q+1' or 't^2-2t+1'."""
        return self._format(range(self.degree, -1, -1), var, "")

    def pretty_ascending(self, var: str = "X") -> str:
        """Spaced ascending form, e.g. '-1 + 4X' or '2X'."""
        return self._format(range(len(self)), var, " ")

    def _format(self, exponents, var: str, sep: str) -> str:
        """The nonzero terms in the order of `exponents`, joined by `sep`.

        The first term carries only a leading '-' when negative; each
        later term starts with '+' or '-' followed by `sep`.
        """
        if not self:
            return "0"
        pieces = []
        for k in exponents:
            c = self[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                power = var if k == 1 else f"{var}^{k}"
                body = head + power
            if pieces:
                sign = ("-" if c < 0 else "+") + sep
            else:
                sign = "-" if c < 0 else ""
            pieces.append(sign + body)
        return sep.join(pieces)


def q_int(m: int) -> QPoly:
    """[m]_q = 1 + q + ... + q^(m-1), for m >= 1."""
    if require_int(m, "m") < 1:
        raise ValueError(f"q_int requires m >= 1, got {m}")
    return QPoly._derived((1,) * m)


def q_factorial(n: int) -> QPoly:
    """[n!]_q = product of [m]_q for m = 1..n."""
    if require_int(n, "n") < 1:
        raise ValueError(f"q_factorial requires n >= 1, got {n}")
    return _q_factorial(n)


@functools.cache
def _q_factorial(n: int) -> QPoly:
    coeffs = [1]
    for m in range(2, n + 1):
        # times [m]_q: coefficient k becomes the sum of coefficients k-m+1 .. k
        prefix = [0, *accumulate(coeffs)]
        top = len(coeffs)
        coeffs = [prefix[min(k + 1, top)] - prefix[max(k + 1 - m, 0)] for k in range(top + m - 1)]
    return QPoly._derived(coeffs)


def q_multinomial(lam: Partition) -> QPoly:
    """[n!]_q / prod_i [lam_i!]_q, dividing by one q-integer at a time.

    Evaluated at a prime power q this is the number of cosets of the
    block upper-triangular subgroup of shape lam in GL_n(F_q).
    """
    return _q_multinomial(require_partition(lam, "q_multinomial"))


@functools.lru_cache(maxsize=1024)
def _q_multinomial(lam: Partition) -> QPoly:
    coeffs = list(_q_factorial(lam.n))
    for part in lam:
        for m in range(2, part + 1):
            # [m]_q = (1 - q^m) / (1 - q): times 1 - q, then c_k = a_k + c_(k-m) divides by 1 - q^m
            coeffs = [a - b for a, b in zip(coeffs + [0], [0] + coeffs)]
            for k in range(m, len(coeffs)):
                coeffs[k] += coeffs[k - m]
            if any(coeffs[-m:]):
                raise ArithmeticError(f"inexact polynomial division by [{m}]_q in the q-multinomial of {lam}")
            del coeffs[-m:]
    return QPoly._derived(coeffs)
