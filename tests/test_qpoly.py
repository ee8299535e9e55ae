import functools
import importlib
import itertools
import math
import operator
import pkgutil
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import germkit
from germkit import qpoly
from germkit.oracle import gl_order, parabolic_order
from germkit.partitions import Partition, enumerate_partitions
from germkit.qpoly import QPoly, q_factorial, q_int, q_multinomial


def exact_div(num: QPoly, divisor: QPoly) -> QPoly:
    """Exact quotient num / divisor by schoolbook long division; a nonzero remainder is an error.

    The divisor must be monic so the division stays in integer
    coefficients.  The package divides only by q-integers, inside
    q_multinomial; this general division is the reference it is
    checked against.
    """
    if not divisor:
        raise ZeroDivisionError("division by the zero polynomial")
    if divisor[-1] != 1:
        raise ValueError(f"exact_div requires a monic divisor, got leading {divisor[-1]}")
    rem = list(num)
    dd = divisor.degree
    qd = len(rem) - 1 - dd
    if qd < 0:
        if any(rem):
            raise ArithmeticError(f"inexact polynomial division: {num!r} by {divisor!r}")
        return QPoly.zero()
    quot = [0] * (qd + 1)
    for k in range(qd, -1, -1):
        c = rem[k + dd]
        if c == 0:
            continue
        quot[k] = c
        for i, b in enumerate(divisor):
            rem[k + i] -= c * b
    if any(rem):
        raise ArithmeticError(f"inexact polynomial division: {num!r} by {divisor!r}")
    return QPoly._derived(quot)


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
        assert p[0] == 1 and p[1] == 0 and p[2] == 5
        assert len(p) == 3

    def test_immutable_and_hashable(self):
        p = QPoly([1, 2])
        with pytest.raises(AttributeError, match="QPoly is immutable"):
            p.degree = 3
        assert len({QPoly([1, 2]), QPoly([1, 2]), QPoly([2, 1])}) == 2

    def test_json_round_trip(self):
        p = QPoly([-1, 4])
        assert list(p) == [-1, 4]
        assert QPoly(list(p)) == p


class TestArithmetic:
    def test_product_example(self):
        assert QPoly([1, 1]) * QPoly([-1, 1]) == QPoly([-1, 0, 1])

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
        assert exact_div(num, QPoly([1, 1])) == QPoly([1, 1, 1])
        assert exact_div(QPoly.zero(), QPoly([1, 1])) == QPoly.zero()

    def test_inexact_raises(self):
        with pytest.raises(ArithmeticError):
            exact_div(QPoly([1, 1, 1]), QPoly([1, 1]))
        with pytest.raises(ArithmeticError):
            exact_div(QPoly([1]), QPoly([0, 1]))

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            exact_div(QPoly([2, 2]), QPoly([0, 2]))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(QPoly([1]), QPoly.zero())


_coeffs = st.lists(st.integers(-50, 50), max_size=8)


class TestExactDivisionProperties:
    @settings(max_examples=300)
    @given(_coeffs, _coeffs, _coeffs)
    def test_exact_div_inverts_multiplication(self, a, b, r):
        quotient, divisor = QPoly(a), QPoly(b + [1])  # monic, degree len(b)
        assert exact_div(quotient * divisor, divisor) == quotient
        remainder = QPoly(r[: divisor.degree])  # degree below the divisor's
        if remainder:
            with pytest.raises(ArithmeticError):
                exact_div(quotient * divisor + remainder, divisor)


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

    def test_q_factorial_is_the_product_of_q_integers(self):
        product = QPoly.one()
        for n in range(1, 31):
            product = product * q_int(n)
            assert q_factorial(n) == product

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
                assert all(c >= 0 for c in q_multinomial(lam))

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

    return functools.reduce(exact_div, (factorial(p) for p in lam), factorial(lam.n))


_small_partitions = st.integers(1, 9).flatmap(lambda n: st.sampled_from(enumerate_partitions(n)))


class TestMemo:
    def test_memo_sits_behind_the_checks(self):
        # a bad argument raises whatever the memo holds (functools keys True and 1.0 alike)
        assert q_factorial(1) == QPoly.one() and q_multinomial(Partition([1])) == QPoly.one()
        for bad in (True, 1.0):
            with pytest.raises(ValueError):
                q_factorial(bad)
        for bad in ([1], (1,)):
            with pytest.raises(ValueError):
                q_multinomial(bad)

    @settings(max_examples=200)
    @given(_small_partitions)
    def test_memoised_equals_a_fresh_fold(self, lam):
        expected = _fresh_multinomial(lam)
        assert q_multinomial(lam) == expected
        assert q_multinomial(Partition(list(lam))) == expected  # an equal key built anew


class TestDivisionByQIntegers:
    """q_multinomial divides by one [m]_q at a time; the schoolbook fold above is its reference."""

    def test_equals_the_schoolbook_route_up_to_12(self):
        for n in range(1, 13):
            for lam in enumerate_partitions(n):
                assert q_multinomial(lam) == _fresh_multinomial(lam)

    def test_two_parts_of_60_within_budget(self, within_budget):
        lam = Partition([60, 60])
        q_factorial(120)  # time the divisions, not the numerator
        start = time.perf_counter()
        poly = qpoly._q_multinomial.__wrapped__(lam)  # past the memo
        within_budget(time.perf_counter() - start, 2.0)
        assert poly.eval_at(1) == math.comb(120, 60)
        assert poly == poly[::-1] and poly.degree == 60 * 60

    def test_an_inexact_division_raises(self, monkeypatch):
        # [2]_q [5]_q in place of [3!]_q: [2]_q divides it and [3]_q does not
        monkeypatch.setattr(qpoly, "_q_factorial", lambda n: q_int(2) * q_int(5))
        with pytest.raises(ArithmeticError, match=r"by \[3\]_q in the q-multinomial of \(3\)$"):
            qpoly._q_multinomial.__wrapped__(Partition([3]))


# Memos kept once per n of a process, whose size the number of n asked for bounds.
_PER_N_MEMOS = {"germkit.qpoly._q_factorial", "germkit.germ._multiplicity_polynomials", "germkit.cli._parser"}


def test_every_package_memo_is_bounded_or_per_n():
    """An unbounded memo keyed by a value, such as a partition, would grow for the life of the process."""
    memos = {}
    for info in pkgutil.iter_modules(germkit.__path__, "germkit."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            members = vars(value).items() if isinstance(value, type) else ()
            for qualname, obj in [(name, value), *((f"{name}.{k}", v) for k, v in members)]:
                if hasattr(obj, "cache_parameters") and getattr(obj, "__module__", None) == info.name:
                    memos[f"{info.name}.{qualname}"] = obj.cache_parameters()["maxsize"]
    bounded = {"germkit.partitions._partitions", "germkit.partitions._map_partitions", "germkit.qpoly._q_multinomial",
               "germkit.cli._partition_json"}
    assert bounded | _PER_N_MEMOS <= set(memos)
    assert all(memos[name] is not None for name in bounded)
    assert {name for name, maxsize in memos.items() if maxsize is None} <= _PER_N_MEMOS


def _assert_canonical(poly):
    assert all(type(c) is int for c in poly)
    assert not poly or poly[-1] != 0
    assert poly == QPoly(list(poly))


class TestDerivedValues:
    """Arithmetic builds its results unchecked; they must still be what the checked constructor builds."""

    @settings(max_examples=300)
    @given(_coeffs, _coeffs, _coeffs, st.integers(-5, 5), st.integers(1, 12))
    def test_arithmetic_results_are_canonical(self, a, b, m, k, width):
        p, r, monic = QPoly(a), QPoly(b), QPoly(m + [1])
        for result in (p + r, p - r, r - r, -p, p * r, p * QPoly.zero(), p * k, k * p,
                       exact_div(p * monic, monic), exact_div(QPoly.zero(), monic), q_int(width)):
            _assert_canonical(result)

    def test_q_analogs_are_canonical(self):
        for n in range(1, 10):
            _assert_canonical(q_factorial(n))
            for lam in enumerate_partitions(n):
                _assert_canonical(q_multinomial(lam))


def _trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


_padded = st.builds(operator.add, _coeffs, st.lists(st.just(0), max_size=3))  # trailing zeros as well


class TestTupleForm:
    """A QPoly is the tuple of its coefficients, constant term first, with no trailing zero."""

    @settings(max_examples=300)
    @given(_padded, _padded, st.integers(-5, 5))
    def test_arithmetic_is_the_schoolbook_reference(self, a, b, k):
        width = max(len(a), len(b))
        wide_a, wide_b = a + [0] * (width - len(a)), b + [0] * (width - len(b))
        product = [0] * (len(a) + len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                product[i + j] += x * y
        expected = {
            "a + b": [x + y for x, y in zip(wide_a, wide_b)],
            "a - b": [x - y for x, y in zip(wide_a, wide_b)],
            "-a": [-x for x in a],
            "a * b": product,
            "k * a": [k * x for x in a],
        }
        p, r = QPoly(a), QPoly(b)
        for name, poly in {"a + b": p + r, "a - b": p - r, "-a": -p, "a * b": p * r, "k * a": k * p}.items():
            assert type(poly) is QPoly and tuple(poly) == _trimmed(expected[name]), name
            assert not poly or poly[-1] != 0, name

    def test_equals_and_hashes_as_its_coefficient_tuple(self):
        assert QPoly([1, 2, 0]) == QPoly([1, 2]) == (1, 2)
        assert hash(QPoly([1, 2, 0])) == hash(QPoly([1, 2])) == hash((1, 2))
        assert QPoly.zero() == () and QPoly([5, 1]) < QPoly([5, 1, 1]) < QPoly([6])  # tuple order
        assert isinstance(QPoly.one(), tuple) and QPoly.__slots__ == ()


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
    @pytest.mark.parametrize("coeffs, bad", [([1.9, True], "1.9"), ([1, True], "True"), (["2"], "'2'")])
    def test_constructor_rejects_non_integers(self, coeffs, bad):
        with pytest.raises(ValueError) as info:
            QPoly(coeffs)
        assert str(info.value) == f"a coefficient must be an integer, got {bad}"
