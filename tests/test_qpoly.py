import functools
import itertools
import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from germkit.oracle import gl_order, parabolic_order
from germkit.partitions import Composition, Partition, enumerate_partitions
from germkit.qpoly import QPoly, q_factorial, q_int, q_multinomial


def rand_poly(rng, max_deg=6, bound=9):
    return QPoly([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg + 1))])


class TestQPolyType:
    def test_trailing_zeros_stripped(self):
        assert QPoly([1, 0, 0]) == QPoly([1])
        assert QPoly([0, 0]) == QPoly.zero()
        assert not QPoly.zero()
        assert QPoly.zero().degree == -1

    def test_degree_and_coeff(self):
        p = QPoly([1, 0, 5])
        assert p.degree == 2
        assert p.coeff(0) == 1 and p.coeff(1) == 0 and p.coeff(2) == 5
        assert p.coeff(99) == 0

    def test_immutable_and_hashable(self):
        p = QPoly([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = (3,)
        assert len({QPoly([1, 2]), QPoly([1, 2]), QPoly([2, 1])}) == 2

    def test_json_round_trip(self):
        p = QPoly([-1, 4])
        assert p.to_json() == [-1, 4]
        assert QPoly.from_json([-1, 4]) == p
        with pytest.raises(ValueError):
            QPoly.from_json("q+1")


class TestArithmetic:
    def test_product_example(self):
        assert QPoly([1, 1]) * QPoly([-1, 1]) == QPoly([-1, 0, 1])

    def test_substitute(self):
        # a + bX at 4X becomes a + 4bX
        assert QPoly([3, 5]).substitute(4) == QPoly([3, 20])
        assert QPoly([1, 1, 1]).substitute(2) == QPoly([1, 2, 4])
        assert QPoly.zero().substitute(7) == QPoly.zero()

    def test_additive_identity(self):
        p = QPoly([2, -3, 1])
        assert p + QPoly.zero() == p
        assert p - p == QPoly.zero()
        assert -(-p) == p

    def test_scalar_multiplication(self):
        p = QPoly([1, 2])
        assert 3 * p == QPoly([3, 6]) == p * 3
        assert 0 * p == QPoly.zero()

    @pytest.mark.parametrize("other", [1, 1.5, "q", [1, 2]])
    def test_other_operands_are_a_type_error(self, other):
        p = QPoly([1, 2])
        for op in (operator.add, operator.sub):
            for args in ((p, other), (other, p)):
                with pytest.raises(TypeError):
                    op(*args)
        if not isinstance(other, int):  # an int is a scalar
            for args in ((p, other), (other, p)):
                with pytest.raises(TypeError):
                    operator.mul(*args)

    def test_ring_axioms_randomized(self):
        rng = random.Random(20240)
        for _ in range(200):
            a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_evaluation_is_ring_homomorphism(self):
        rng = random.Random(77)
        for _ in range(200):
            a, b = rand_poly(rng), rand_poly(rng)
            v = rng.randint(-10, 10)
            assert (a + b).eval_at(v) == a.eval_at(v) + b.eval_at(v)
            assert (a * b).eval_at(v) == a.eval_at(v) * b.eval_at(v)

    def test_eval_examples(self):
        assert QPoly([1, 1]).eval_at(2) == 3
        assert q_factorial(3).eval_at(2) == 21  # = |GL_3(F_2)| / |B(F_2)| = 168/8
        assert QPoly.zero().eval_at(12345) == 0


class TestExactDivision:
    def test_exact(self):
        num = QPoly([1, 1]) * QPoly([1, 1, 1])
        assert num.exact_div(QPoly([1, 1])) == QPoly([1, 1, 1])
        assert QPoly.zero().exact_div(QPoly([1, 1])) == QPoly.zero()

    def test_inexact_raises(self):
        with pytest.raises(ArithmeticError):
            QPoly([1, 1, 1]).exact_div(QPoly([1, 1]))
        with pytest.raises(ArithmeticError):
            QPoly([1]).exact_div(QPoly([0, 1]))

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            QPoly([2, 2]).exact_div(QPoly([0, 2]))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            QPoly([1]).exact_div(QPoly.zero())


_coeffs = st.lists(st.integers(-50, 50), max_size=8)


class TestExactDivisionProperties:
    @settings(max_examples=300, deadline=None, database=None)
    @given(_coeffs, _coeffs, _coeffs)
    def test_exact_div_inverts_multiplication(self, a, b, r):
        quotient, divisor = QPoly(a), QPoly(b + [1])  # monic, degree len(b)
        assert (quotient * divisor).exact_div(divisor) == quotient
        remainder = QPoly(r[: divisor.degree])  # degree below the divisor's
        if remainder:
            with pytest.raises(ArithmeticError):
                (quotient * divisor + remainder).exact_div(divisor)


class TestQAnalogs:
    def test_q_int(self):
        assert q_int(1) == QPoly([1])
        assert q_int(2) == QPoly([1, 1])
        assert q_int(3) == QPoly([1, 1, 1])
        with pytest.raises(ValueError):
            q_int(0)

    def test_q_factorial(self):
        assert q_factorial(1) == QPoly([1])
        assert q_factorial(2) == QPoly([1, 1])
        assert q_factorial(3) == QPoly([1, 2, 2, 1])  # (q+1)(q^2+q+1) expanded
        with pytest.raises(ValueError):
            q_factorial(0)

    def test_q_multinomial_examples(self):
        assert q_multinomial(Partition([1, 1])) == QPoly([1, 1])
        for n in range(1, 7):
            assert q_multinomial(Partition([n])) == QPoly.one()
        assert q_multinomial(Partition([2, 1])) == QPoly([1, 1, 1])

    def test_at_one_is_ordinary_multinomial(self):
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                expected = math.factorial(n)
                for part in lam:
                    expected //= math.factorial(part)
                assert q_multinomial(lam).eval_at(1) == expected

    def test_coefficients_nonnegative_up_to_8(self):
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                assert all(c >= 0 for c in q_multinomial(lam).coeffs)

    def test_against_group_order_quotient(self):
        # |GL_n(F_q)| / |P_lam(F_q)| from the order formulas, an independent route
        for n in range(1, 5):
            for q in (2, 3):
                for lam in enumerate_partitions(n):
                    assert q_multinomial(lam).eval_at(q) == gl_order(n, q) // parabolic_order(lam, q)


def _fresh_multinomial(lam):
    """[n!]_q / prod [lam_i!]_q from products of q-integers, through no memo."""
    def factorial(n):
        return functools.reduce(operator.mul, (q_int(m) for m in range(1, n + 1)), QPoly.one())

    return functools.reduce(QPoly.exact_div, (factorial(p) for p in lam), factorial(lam.n))


_small_partitions = st.integers(1, 9).flatmap(lambda n: st.sampled_from(enumerate_partitions(n)))


class TestMemo:
    def test_memo_sits_behind_the_checks(self):
        # a bad argument raises whatever the memo holds (functools keys True and 1.0 alike)
        assert q_factorial(1) == QPoly.one() and q_multinomial(Partition([1])) == QPoly.one()
        for bad in (True, 1.0):
            with pytest.raises(ValueError):
                q_factorial(bad)
        for bad in ([1], (1,), Composition([1])):
            with pytest.raises(ValueError):
                q_multinomial(bad)

    @settings(max_examples=200, deadline=None, database=None)
    @given(_small_partitions)
    def test_memoised_equals_a_fresh_fold(self, lam):
        expected = _fresh_multinomial(lam)
        assert q_multinomial(lam) == expected
        assert q_multinomial(Partition(list(lam))) == expected  # an equal key built anew


def _assert_canonical(poly):
    assert all(type(c) is int for c in poly.coeffs)
    assert not poly.coeffs or poly.coeffs[-1] != 0
    assert poly == QPoly(list(poly.coeffs))


class TestDerivedValues:
    """Arithmetic builds its results unchecked; they must still be what the checked constructor builds."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(_coeffs, _coeffs, _coeffs, st.integers(-5, 5), st.integers(1, 12))
    def test_arithmetic_results_are_canonical(self, a, b, m, k, width):
        p, r, monic = QPoly(a), QPoly(b), QPoly(m + [1])
        for result in (p + r, p - r, r - r, -p, p * r, p * QPoly.zero(), p * k, k * p,
                       (p * monic).exact_div(monic), QPoly.zero().exact_div(monic),
                       p.substitute(k), q_int(width)):
            _assert_canonical(result)

    def test_q_analogs_are_canonical(self):
        for n in range(1, 10):
            _assert_canonical(q_factorial(n))
            for lam in enumerate_partitions(n):
                _assert_canonical(q_multinomial(lam))

    def test_substitute_checks_its_scale(self):
        for bad in (1.5, 2.0, True, "2"):
            with pytest.raises(ValueError, match="scale must be an integer"):
                QPoly((1, 2)).substitute(bad)


class TestPretty:
    def test_descending(self):
        assert QPoly([1, 2, 1]).pretty("q") == "q^2+2q+1"
        assert QPoly([1, -2, 1]).pretty("t") == "t^2-2t+1"
        assert QPoly([-1, 0, 1]).pretty("q") == "q^2-1"
        assert QPoly.zero().pretty("q") == "0"
        assert QPoly([7]).pretty("q") == "7"
        assert QPoly([0, -1]).pretty("q") == "-q"

    def test_ascending(self):
        assert QPoly([-1, 4]).pretty_ascending("X") == "-1 + 4X"
        assert QPoly([0, 2]).pretty_ascending("X") == "2X"
        assert QPoly([-1, 0, -3]).pretty_ascending("X") == "-1 - 3X^2"
        assert QPoly.zero().pretty_ascending("X") == "0"
        assert QPoly([0, 1]).pretty_ascending("X") == "X"

    def test_printers_match_reference_on_small_polynomials(self):
        # every coefficient tuple in -2..2 up to degree 3, against the two
        # printers written out separately
        def descending(coeffs, var):
            pieces = []
            for k in range(len(coeffs) - 1, -1, -1):
                c = coeffs[k]
                if c == 0:
                    continue
                sign = "-" if c < 0 else ("+" if pieces else "")
                mag = abs(c)
                if k == 0:
                    body = str(mag)
                else:
                    head = "" if mag == 1 else str(mag)
                    body = f"{head}{var}" if k == 1 else f"{head}{var}^{k}"
                pieces.append(sign + body)
            return "".join(pieces) or "0"

        def ascending(coeffs, var):
            pieces = []
            for k, c in enumerate(coeffs):
                if c == 0:
                    continue
                mag = abs(c)
                if k == 0:
                    body = str(mag)
                else:
                    head = "" if mag == 1 else str(mag)
                    body = f"{head}{var}" if k == 1 else f"{head}{var}^{k}"
                if not pieces:
                    pieces.append(("-" if c < 0 else "") + body)
                else:
                    pieces.append(("- " if c < 0 else "+ ") + body)
            return " ".join(pieces) or "0"

        for coeffs in itertools.product(range(-2, 3), repeat=4):
            poly = QPoly(coeffs)
            for var in ("q", "t", "X"):
                assert poly.pretty(var) == descending(coeffs, var)
                assert poly.pretty_ascending(var) == ascending(coeffs, var)


class TestWireFormat:
    def test_round_trip(self):
        poly = QPoly([-1, 0, 3])
        assert QPoly.from_json(poly.to_json()) == poly

    @pytest.mark.parametrize("coeffs, bad", [([1.9, True], "1.9"), ([1, True], "True"), (["2"], "'2'")])
    def test_constructor_rejects_non_integers(self, coeffs, bad):
        with pytest.raises(ValueError) as info:
            QPoly(coeffs)
        assert str(info.value) == f"a coefficient must be an integer, got {bad}"

    @pytest.mark.parametrize("data", [[True], [1, False], [1.0], ["1"], "12", None])
    def test_rejects_non_integers(self, data):
        with pytest.raises(ValueError) as info:
            QPoly.from_json(data)
        assert str(info.value) == f"a polynomial serializes as a JSON array of integers, got {data!r}"
