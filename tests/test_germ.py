import math
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from germkit import germ
from germkit.cosets import Family, SubgroupSpec
from germkit.germ import (
    CoefficientMap,
    PositivityError,
    check_minimal_positivity,
    closed_form_multiplicity_matrix,
    dim_fixed,
    dimension_polynomial,
    forward_multiplicities,
    gk_dimension,
    induce_maps,
    jl_transfer,
    kostka_foulkes,
    lj_transfer,
    multiplicity_polynomials,
    solve_from_multiplicities,
    square_integrable_top_coeff,
    whittaker_dims,
)
from germkit.oracle import multiplicity_matrix
from germkit.partitions import Partition, dominance_leq, enumerate_partitions, induce_partition, kostka_number
from germkit.qpoly import QPoly, q_multinomial


def P(*parts):
    return Partition(parts)


def steinberg():
    return CoefficientMap(2, {P(2): -1, P(1, 1): 1})


def random_map(n, rng, bound=5):
    return CoefficientMap(
        n, {lam: rng.randint(-bound, bound) for lam in enumerate_partitions(n)}
    )


class TestCoefficientMap:
    def test_zero_pruning_and_accumulation(self):
        c = CoefficientMap(2, [(P(2), 1), (P(2), -1), (P(1, 1), 0)])
        assert c.is_zero()
        assert c.value(P(2)) == 0

    def test_wrong_n_rejected(self):
        with pytest.raises(ValueError):
            CoefficientMap(2, {P(3): 1})
        with pytest.raises(ValueError):
            CoefficientMap(0)
        with pytest.raises(ValueError, match="keys must be Partition"):
            CoefficientMap(2, {(2,): 1})

    def test_immutable_hashable_and_printed(self):
        c = steinberg()
        with pytest.raises(AttributeError):
            c.n = 3
        assert len({c, steinberg(), -c}) == 2
        assert repr(c) == "CoefficientMap(n=2, {(2): -1, (1,1): 1})"

    @pytest.mark.parametrize("value", [1.5, True, "1"])
    def test_values_must_be_integers(self, value):
        with pytest.raises(ValueError) as info:
            CoefficientMap(2, {P(2): value})
        assert str(info.value) == f"entry value must be an integer, got {value!r}"

    def test_items_in_canonical_order(self):
        c = CoefficientMap(3, {P(1, 1, 1): 1, P(3): 2, P(2, 1): -1})
        assert [lam for lam, _ in c.items()] == [P(3), P(2, 1), P(1, 1, 1)]

    def test_json_round_trip(self):
        c = steinberg()
        data = c.to_json()
        assert data == {
            "n": 2,
            "entries": [
                {"partition": [2], "value": -1},
                {"partition": [1, 1], "value": 1},
            ],
        }
        assert CoefficientMap.from_json(data) == c

    def test_json_errors(self):
        with pytest.raises(ValueError):
            CoefficientMap.from_json({"entries": []})
        with pytest.raises(ValueError):
            CoefficientMap.from_json({"n": 2, "entries": [{"partition": [2]}]})
        with pytest.raises(ValueError):
            CoefficientMap.from_json({"n": 2, "entries": [{"partition": [2], "value": "x"}]})

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"n": True, "entries": [{"partition": [1], "value": 1}]}, '"n" must be an integer, got True'),
            ({"n": 2.0, "entries": []}, '"n" must be an integer, got 2.0'),
            ({"n": 1, "entries": [{"partition": [True], "value": 1}]}, "a partition serializes as a JSON array of integers, got [True]"),
            ({"n": 1, "entries": [{"partition": [1], "value": True}]}, "entry value must be an integer, got True"),
            ({"n": 1, "entries": [{"partition": [1], "value": 1.0}]}, "entry value must be an integer, got 1.0"),
        ],
    )
    def test_json_rejects_booleans_and_floats(self, data, message):
        with pytest.raises(ValueError) as info:
            CoefficientMap.from_json(data)
        assert str(info.value) == message

    def test_arithmetic(self):
        triv = CoefficientMap.indicator(P(2))
        ind_b = triv + steinberg()
        assert ind_b == CoefficientMap(2, {P(1, 1): 1})
        c = steinberg()
        assert (c + (-c)).is_zero()
        assert c.scale(1) == c
        assert c.scale(-2) == CoefficientMap(2, {P(2): 2, P(1, 1): -2})
        with pytest.raises(ValueError):
            steinberg() + CoefficientMap.indicator(P(3))
        assert triv - steinberg() == CoefficientMap(2, {P(2): 2, P(1, 1): -1})
        assert (c - c).is_zero()
        with pytest.raises(ValueError):
            c - CoefficientMap.indicator(P(3))
        for other in (1, P(2)):
            with pytest.raises(TypeError):
                c + other
            with pytest.raises(TypeError):
                c - other


class TestSupport:
    def test_support_and_minimal(self):
        c = steinberg()
        assert c.support() == {P(2), P(1, 1)}
        assert c.support_min() == {P(1, 1)}
        assert CoefficientMap.indicator(P(4), 5).support_min() == {P(4)}
        z = CoefficientMap.zero(3)
        assert z.support() == set() and z.support_min() == set()

    def test_positivity_check(self):
        assert check_minimal_positivity(steinberg()).passed
        flipped = CoefficientMap(2, {P(2): 1, P(1, 1): -1})
        report = check_minimal_positivity(flipped)
        assert not report.passed
        assert report.entries == ((P(1, 1), -1, False),)
        assert check_minimal_positivity(CoefficientMap.indicator(P(3), 7)).passed
        assert check_minimal_positivity(CoefficientMap.zero(2)).passed  # vacuous

    def test_gk_dimension(self):
        assert gk_dimension(CoefficientMap.indicator(P(5), 3)) == 0
        assert gk_dimension(steinberg()) == 1
        assert gk_dimension(CoefficientMap.indicator(P(1, 1, 1, 1))) == 6
        with pytest.raises(ValueError):
            gk_dimension(CoefficientMap.zero(2))


class TestDimensionPolynomial:
    def test_steinberg_vertex_chain(self):
        for q, d in ((2, 1), (3, 1), (2, 2)):
            dp = dimension_polynomial(steinberg(), Family.VERTEX_CONGRUENCE, q, d)
            assert dp.poly == QPoly([-1, q**d + 1])
            assert dp.formal_degree == 1 and dp.formal_leading == q**d + 1

    def test_trivial_rep_constant(self):
        triv = CoefficientMap.indicator(P(2))
        for fam in Family:
            assert dimension_polynomial(triv, fam, 3, 1).poly == QPoly.one()

    def test_principal_series_pro_p_iwahori(self):
        for s in (1, 2, 5):
            c = CoefficientMap(2, {P(1, 1): s})
            dp = dimension_polynomial(c, Family.PRO_P_IWAHORI_HALF, 2, 1)
            assert dp.poly == QPoly([0, 2 * s])

    def test_user_base_counts(self):
        c = steinberg()
        dp = dimension_polynomial(c, None, 2, 1, base_counts={P(2): 1, P(1, 1): 10})
        assert dp.poly == QPoly([-1, 10])
        with pytest.raises(ValueError):
            dimension_polynomial(c, None, 2, 1, base_counts={P(2): 1})

    def test_formal_vs_actual_degree_on_cancellation(self):
        c = CoefficientMap(6, {P(4, 1, 1): 1, P(3, 3): -1, P(6): 2})
        dp = dimension_polynomial(c, None, 2, 1, base_counts={P(4, 1, 1): 5, P(3, 3): 5, P(6): 1})
        assert dp.formal_degree == 9
        assert dp.formal_leading == 0
        assert dp.degree == 0  # only the constant term survives
        assert dp.poly == QPoly([2])

    def test_zero_map(self):
        dp = dimension_polynomial(CoefficientMap.zero(2), Family.VERTEX_CONGRUENCE, 2, 1)
        assert dp.poly == QPoly.zero()
        assert dp.formal_degree is None and dp.formal_leading is None

    def test_scaling_remark(self):
        # building at base depth j+1 equals substituting q^d X at base depth j
        c = CoefficientMap(3, {P(3): 2, P(2, 1): -1, P(1, 1, 1): 1})
        for fam in (Family.VERTEX_CONGRUENCE, Family.PRO_P_IWAHORI_HALF, Family.IWAHORI_CONGRUENCE):
            for j in range(3):
                deeper = dimension_polynomial(c, fam, 2, 1, base_depth=j + 1)
                shallow = dimension_polynomial(c, fam, 2, 1, base_depth=j)
                assert deeper.poly == shallow.poly.substitute(2)

    def test_dim_fixed_examples(self):
        assert dim_fixed(steinberg(), SubgroupSpec(Family.VERTEX_CONGRUENCE, 0, 3, 1)) == 3
        triv = CoefficientMap.indicator(P(2))
        for fam in Family:
            assert dim_fixed(triv, SubgroupSpec(fam, 0, 2, 1)) == 1
        c = CoefficientMap(2, {P(1, 1): 2})
        assert dim_fixed(c, SubgroupSpec(Family.PRO_P_IWAHORI_HALF, 2, 2, 1)) == 16


class TestInduction:
    def test_unit_examples(self):
        one = CoefficientMap.indicator(P(1))
        assert induce_maps([one, one]) == CoefficientMap(2, {P(1, 1): 1})
        assert induce_maps([CoefficientMap.indicator(P(3)), CoefficientMap.indicator(P(2))]) == CoefficientMap(
            5, {P(3, 2): 1}
        )

    def test_steinberg_times_one(self):
        ind = induce_maps([steinberg(), CoefficientMap.indicator(P(1))])
        assert ind == CoefficientMap(3, {P(2, 1): -1, P(1, 1, 1): 1})

    def test_permutation_invariance_and_multilinearity(self):
        rng = random.Random(4242)
        for _ in range(25):
            a, b, c = random_map(2, rng), random_map(3, rng), random_map(1, rng)
            assert induce_maps([a, b, c]) == induce_maps([c, a, b])
            k = rng.randint(-3, 3)
            assert induce_maps([a.scale(k), b]) == induce_maps([a, b]).scale(k)
            a2 = random_map(2, rng)
            assert induce_maps([a + a2, b]) == induce_maps([a, b]) + induce_maps([a2, b])

    def test_single_argument_is_identity(self):
        rng = random.Random(1)
        c = random_map(4, rng)
        assert induce_maps([c]) == c

    def test_no_argument_rejected(self):
        with pytest.raises(ValueError, match="at least one map"):
            induce_maps([])


class TestTransfer:
    def test_d1_is_identity(self):
        rng = random.Random(11)
        for n in range(1, 7):
            c = random_map(n, rng)
            assert lj_transfer(c, n, 1) == c
            assert jl_transfer(c, 1) == c

    def test_steinberg_to_division_algebra(self):
        c1 = lj_transfer(steinberg(), 1, 2)
        assert c1 == CoefficientMap(1, {P(1): 1})

    def test_jl_example(self):
        assert jl_transfer(CoefficientMap.indicator(P(1)), 2) == CoefficientMap(2, {P(2): -1})

    def test_kernel(self):
        c = CoefficientMap(4, {P(3, 1): 7, P(2, 1, 1): -2})  # not of the form 2*lam
        assert lj_transfer(c, 2, 2).is_zero()

    def test_round_trip_up_to_6(self):
        rng = random.Random(12)
        for n in range(1, 7):
            for d in (1, 2, 3):
                c = random_map(n, rng)
                assert lj_transfer(jl_transfer(c, d), n, d) == c

    def test_n_validation(self):
        with pytest.raises(ValueError):
            lj_transfer(steinberg(), 2, 2)

    def test_square_integrable_top_coeff(self):
        assert square_integrable_top_coeff(1, 2) == -1
        assert square_integrable_top_coeff(7, 1) == 7
        assert square_integrable_top_coeff(2, 3) == 2
        with pytest.raises(ValueError):
            square_integrable_top_coeff(0, 2)


class TestSolve:
    def test_indicator_rows(self):
        for n in (2, 3):
            M = multiplicity_matrix(n, 2)
            for mu0 in enumerate_partitions(n):
                m = {lam: M[lam][mu0] for lam in enumerate_partitions(n)}
                assert solve_from_multiplicities(m, M) == CoefficientMap.indicator(mu0)

    def test_forward_then_solve_round_trip(self):
        rng = random.Random(314)
        for n in (1, 2, 3):
            for q in (2, 3):
                M = multiplicity_matrix(n, q)
                for _ in range(25):
                    c = random_map(n, rng)
                    m = forward_multiplicities(c, M)
                    assert solve_from_multiplicities(m, M) == c

    def test_triangular_2x2_by_hand(self):
        M = multiplicity_matrix(2, 2)
        a, b = -4, 9
        m = {P(1, 1): b, P(2): a + b * M[P(2)][P(1, 1)]}
        assert solve_from_multiplicities(m, M) == CoefficientMap(2, {P(2): a, P(1, 1): b})

    def test_unitriangularity_enforced(self):
        bad_diag = {P(2): {P(2): 2, P(1, 1): 0}, P(1, 1): {P(2): 0, P(1, 1): 1}}
        with pytest.raises(ValueError):
            solve_from_multiplicities({P(2): 0, P(1, 1): 0}, bad_diag)
        bad_zero = {P(2): {P(2): 1, P(1, 1): 0}, P(1, 1): {P(2): 5, P(1, 1): 1}}
        with pytest.raises(ValueError):
            solve_from_multiplicities({P(2): 0, P(1, 1): 0}, bad_zero)
        missing_row = {P(2): {P(2): 1, P(1, 1): 0}}
        with pytest.raises(ValueError, match=r"missing the row \(1,1\)"):
            solve_from_multiplicities({P(2): 0, P(1, 1): 0}, missing_row)

    def test_missing_data(self):
        M = multiplicity_matrix(2, 2)
        with pytest.raises(ValueError):
            solve_from_multiplicities({P(2): 1}, M)
        with pytest.raises(ValueError):
            solve_from_multiplicities({}, M)
        with pytest.raises(ValueError, match=r"partitions of one n, got \[1, 2\]"):
            solve_from_multiplicities({P(2): 1, P(1, 1): 0, P(1): 1}, M)


class TestWhittaker:
    def test_steinberg(self):
        assert whittaker_dims(steinberg()) == {P(1, 1): 1}

    def test_finite_dimensional(self):
        assert whittaker_dims(CoefficientMap.indicator(P(4), 9)) == {P(4): 9}

    def test_induced_steinberg(self):
        ind = induce_maps([steinberg(), CoefficientMap.indicator(P(1))])
        assert whittaker_dims(ind) == {P(1, 1, 1): 1}

    def test_positivity_failure(self):
        with pytest.raises(PositivityError):
            whittaker_dims(CoefficientMap(2, {P(2): 1, P(1, 1): -1}))


def n_of(rho):
    return sum(i * p for i, p in enumerate(rho))


class TestKostkaFoulkes:
    def test_diagonal_is_one(self):
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                assert kostka_foulkes(lam, lam) == QPoly.one()

    def test_one_row_shape_is_a_monomial(self):
        for n in range(1, 8):
            for mu in enumerate_partitions(n):
                assert kostka_foulkes(Partition([n]), mu) == QPoly.monomial(n_of(mu))

    def test_value_at_one_is_the_kostka_number(self):
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                for mu in enumerate_partitions(n):
                    k = kostka_foulkes(lam, mu)
                    assert k.eval_at(1) == kostka_number(lam, mu)
                    # degree n(mu) - n(lam) wherever it is nonzero
                    assert k.degree == (n_of(mu) - n_of(lam) if dominance_leq(mu, lam) else -1)

    def test_examples(self):
        assert kostka_foulkes(P(2, 1), P(1, 1, 1)) == QPoly([0, 1, 1])
        assert kostka_foulkes(P(2, 2), P(2, 1, 1)) == QPoly([0, 1])
        assert kostka_foulkes(P(3, 1), P(2, 1, 1)) == QPoly([0, 1, 1])


class TestClosedFormMatrix:
    def test_unitriangular(self):
        for n in range(1, 7):
            for q in (2, 3, 4):
                M = closed_form_multiplicity_matrix(n, q)
                for lam in enumerate_partitions(n):
                    for mu in enumerate_partitions(n):
                        expected = 1 if lam == mu else (0 if not dominance_leq(mu, lam) else None)
                        assert expected is None or M[lam][mu] == expected

    def test_zero_shape_row_counts_all_cosets(self):
        # A_(n) = 0 fixes every flag, so its row holds the coset counts
        for n in range(1, 7):
            for q in (2, 3, 4, 9):
                M = closed_form_multiplicity_matrix(n, q)
                for mu in enumerate_partitions(n):
                    assert M[Partition([n])][mu] == q_multinomial(mu).eval_at(q)

    def test_rejects_non_prime_power(self):
        with pytest.raises(ValueError):
            closed_form_multiplicity_matrix(3, 6)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_polynomials_unitriangular_in_dominance_order(self, n):
        M = multiplicity_polynomials(n)
        for lam in enumerate_partitions(n):
            assert M[lam][lam] == QPoly.one()
            for mu in enumerate_partitions(n):
                if not dominance_leq(mu, lam):
                    assert M[lam][mu] == QPoly.zero()

    def test_polynomials_are_memoised_and_handed_out_fresh(self):
        first, second = multiplicity_polynomials(4), multiplicity_polynomials(4)
        assert first == second and first is not second
        assert all(first[lam][mu] is second[lam][mu] for lam in first for mu in first[lam])  # built once
        first[P(4)][P(1, 1, 1, 1)] = QPoly.zero()
        first[P(2, 2)].clear()
        del first[P(3, 1)]
        assert multiplicity_polynomials(4) == second
        M = closed_form_multiplicity_matrix(4, 3)
        M[P(4)][P(1, 1, 1, 1)] += 1
        assert closed_form_multiplicity_matrix(4, 3)[P(4)][P(1, 1, 1, 1)] == q_multinomial(P(1, 1, 1, 1)).eval_at(3)

    def test_inexact_division_is_an_arithmetic_error(self, monkeypatch):
        # a constant term in every K_{nu lam'} leaves q^0 terms that q^(sum C(mu_i, 2)) cannot divide
        monkeypatch.setattr(germ, "kostka_foulkes", lambda nu, lam: QPoly.one())
        with pytest.raises(ArithmeticError, match="not divisible by q"):
            germ._multiplicity_polynomials.__wrapped__(2)  # the unmemoised build


def _map_on(n):
    """Coefficient maps on the partitions of n, values in -4..4."""
    parts = enumerate_partitions(n)
    values = st.lists(st.integers(-4, 4), min_size=len(parts), max_size=len(parts))
    return values.map(lambda vs: CoefficientMap(n, zip(parts, vs)))


def _maps(max_n=3):
    return st.integers(1, max_n).flatmap(_map_on)


def _induce_by_product(maps):
    """induce_maps summed over every tuple of support entries at once."""
    acc = {}
    for combo in product(*(m.items() for m in maps)):
        lam = induce_partition([lam_i for lam_i, _ in combo])
        acc[lam] = acc.get(lam, 0) + math.prod(v for _, v in combo)
    return CoefficientMap(sum(m.n for m in maps), acc)


class TestLawsAsProperties:
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(_maps(), min_size=1, max_size=4))
    def test_induce_equals_the_product_route(self, maps):
        assert induce_maps(maps) == _induce_by_product(maps)

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(_maps(), min_size=1, max_size=4).flatmap(lambda ms: st.tuples(st.just(ms), st.permutations(ms))))
    def test_induce_is_independent_of_argument_order(self, case):
        maps, shuffled = case
        assert induce_maps(shuffled) == induce_maps(maps)

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(_maps(), min_size=1, max_size=3), st.data())
    def test_induce_is_multilinear(self, maps, data):
        i = data.draw(st.integers(0, len(maps) - 1))
        other = data.draw(_map_on(maps[i].n))
        k = data.draw(st.integers(-3, 3))
        mixed = maps[:i] + [maps[i].scale(k) + other] + maps[i + 1 :]
        swapped = maps[:i] + [other] + maps[i + 1 :]
        assert induce_maps(mixed) == induce_maps(maps).scale(k) + induce_maps(swapped)

    @settings(max_examples=200, deadline=None, database=None)
    @given(_maps(max_n=5), st.integers(1, 3))
    def test_lj_after_jl_is_the_identity(self, c, d):
        assert lj_transfer(jl_transfer(c, d), c.n, d) == c

    @settings(max_examples=200, deadline=None, database=None)
    @given(_maps(max_n=4), st.sampled_from((2, 3, 4, 5)))
    def test_solve_after_forward_is_the_identity(self, c, q):
        M = closed_form_multiplicity_matrix(c.n, q)
        assert solve_from_multiplicities(forward_multiplicities(c, M), M) == c
