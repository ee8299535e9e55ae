import json
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from germkit import cosets, germ, gl2, oracle, qpoly
from germkit.partitions import (
    Composition,
    Partition,
    canonical_order,
    charge,
    composition_from_subset,
    d_of,
    dominance_compare,
    dominance_leq,
    dominance_lt,
    dual,
    enumerate_partitions,
    induce_partition,
    kostka_number,
    minimal_elements,
    scale_partition,
    semistandard_tableaux,
    sort_to_partition,
    subset_from_composition,
)


def P(*parts):
    return Partition(parts)


class TestPartitionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition([])
        with pytest.raises(ValueError):
            Partition([0])
        with pytest.raises(ValueError):
            Partition([1, 2])
        with pytest.raises(ValueError):
            Partition([3, -1])

    def test_equality_is_part_list_equality(self):
        assert P(3, 1) == P(3, 1)
        assert P(3, 1) != P(2, 2)
        assert P(2) != Composition([2])

    def test_immutable(self):
        lam = P(3, 1)
        with pytest.raises(AttributeError):
            lam.parts = (4,)

    def test_json_round_trip(self):
        lam = P(3, 1, 1)
        assert lam.to_json() == [3, 1, 1]
        assert Partition.from_json(json.loads(json.dumps(lam.to_json()))) == lam
        with pytest.raises(ValueError):
            Partition.from_json({"composition": [1]})

    def test_composition_wire_format_is_distinct(self):
        c = Composition([1, 3, 2])
        assert c.to_json() == {"composition": [1, 3, 2]}
        assert Composition.from_json(c.to_json()) == c
        with pytest.raises(ValueError):
            Composition.from_json([1, 3, 2])

    def test_partition_and_composition_stay_distinct_types(self):
        lam, comp = P(3, 1), Composition([3, 1])
        assert lam != comp and comp != lam
        assert len({lam, comp}) == 2
        assert (repr(lam), repr(comp)) == ("Partition([3, 1])", "Composition([3, 1])")
        assert str(lam) == str(comp) == "(3,1)"
        assert (lam.n, len(comp), comp[1], list(comp)) == (4, 2, 1, [3, 1])
        with pytest.raises(AttributeError, match="^Composition is immutable$"):
            comp.parts = (4,)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Partition([]), "empty partition is not allowed (n must be >= 1)"),
            (lambda: Composition([]), "empty composition is not allowed (n must be >= 1)"),
            (lambda: Partition([2, 0]), "partition parts must be >= 1, got 0"),
            (lambda: Composition([1, -1]), "composition parts must be >= 1, got -1"),
            (lambda: Partition([1, 2]), "partition parts must be weakly decreasing, got (1, 2)"),
        ],
    )
    def test_error_messages_keep_their_nouns(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Partition([2.7, 1]), "a partition part must be an integer, got 2.7"),
            (lambda: Partition([True]), "a partition part must be an integer, got True"),
            (lambda: Composition(["3"]), "a composition part must be an integer, got '3'"),
        ],
    )
    def test_constructors_reject_non_integers(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize("data", [[True], [2, False], [1.0], [1.5, 2], ["1"], "12", None])
    def test_partition_wire_format_rejects_non_integers(self, data):
        with pytest.raises(ValueError) as info:
            Partition.from_json(data)
        assert str(info.value) == f"a partition serializes as a JSON array of integers, got {data!r}"

    @pytest.mark.parametrize(
        "data",
        [
            {"composition": [1.5, 2]},
            {"composition": "12"},
            {"composition": [True, 2]},
            {"composition": None},
            {"parts": [1, 2]},
            [1, 2],
        ],
    )
    def test_composition_wire_format_rejects_non_integers(self, data):
        with pytest.raises(ValueError) as info:
            Composition.from_json(data)
        assert str(info.value) == 'a composition serializes as {"composition": [ints]}, got %r' % (data,)


class TestEnumeration:
    def test_n2_complete(self):
        assert enumerate_partitions(2) == [P(2), P(1, 1)]

    def test_counts(self):
        assert len(enumerate_partitions(5)) == 7
        assert len(enumerate_partitions(6)) == 11

    def test_order_is_lexicographically_decreasing(self):
        for n in range(1, 11):
            parts = enumerate_partitions(n)
            keys = [p.parts for p in parts]
            assert keys == sorted(keys, reverse=True)
            assert parts[0] == Partition([n])
            assert parts[-1] == Partition([1] * n)

    def test_no_duplicates_and_correct_n(self):
        for n in range(1, 11):
            parts = enumerate_partitions(n)
            assert len(set(parts)) == len(parts)
            assert all(lam.n == n for lam in parts)

    def test_n0_rejected(self):
        with pytest.raises(ValueError):
            enumerate_partitions(0)

    def test_canonical_order_matches_enumeration(self):
        parts = enumerate_partitions(7)
        shuffled = list(reversed(parts))
        assert canonical_order(shuffled) == parts


class TestDerivedPartitions:
    def test_enumeration_and_dual_match_the_checked_constructor(self):
        # both build their partitions without the constructor's checks
        for n in range(1, 13):
            for lam in enumerate_partitions(n):
                for value in (lam, dual(lam)):
                    assert type(value) is Partition and value == Partition(list(value))
                    assert all(type(p) is int for p in value)


class TestDual:
    def test_examples(self):
        assert dual(P(4)) == P(1, 1, 1, 1)
        assert dual(P(2, 1)) == P(2, 1)
        assert dual(P(3, 1)) == P(2, 1, 1)

    def test_involution_up_to_12(self):
        for n in range(1, 13):
            for lam in enumerate_partitions(n):
                assert dual(dual(lam)) == lam

    def test_antitone_up_to_10(self):
        # mu <= lam iff dual(lam) <= dual(mu)
        for n in range(1, 11):
            parts = enumerate_partitions(n)
            for mu in parts:
                for lam in parts:
                    assert dominance_leq(mu, lam) == dominance_leq(dual(lam), dual(mu))


@st.composite
def _two_partitions(draw):
    """Two partitions of one n <= 40, each sorted from a composition given by random cut points."""
    n = draw(st.integers(1, 40))
    cuts = st.sets(st.integers(1, n - 1)) if n > 1 else st.just(set())
    return tuple(sort_to_partition(composition_from_subset(draw(cuts), n)) for _ in range(2))


class TestDualProperties:
    @settings(max_examples=300, deadline=None, database=None)
    @given(_two_partitions())
    def test_dual_is_an_involution_that_reverses_dominance(self, pair):
        mu, lam = pair
        assert dual(dual(lam)) == lam and dual(lam).n == lam.n
        assert dominance_leq(mu, lam) == dominance_leq(dual(lam), dual(mu))


class TestDominance:
    def test_examples(self):
        assert dominance_leq(P(1, 1), P(2))
        assert not dominance_leq(P(2), P(1, 1))
        assert not dominance_leq(P(3, 3), P(4, 1, 1))
        assert not dominance_leq(P(4, 1, 1), P(3, 3))
        assert dominance_leq(P(2, 2, 1, 1), P(3, 2, 1))

    def test_mismatched_n_raises(self):
        with pytest.raises(ValueError):
            dominance_leq(P(2), P(2, 1))
        with pytest.raises(ValueError):
            dominance_compare(P(2), P(3))

    def test_three_valued_compare(self):
        assert dominance_compare(P(1, 1), P(2)) == -1
        assert dominance_compare(P(2), P(1, 1)) == 1
        assert dominance_compare(P(2, 1), P(2, 1)) == 0
        assert dominance_compare(P(3, 3), P(4, 1, 1)) is None

    def test_partial_order_axioms_up_to_8(self):
        for n in range(1, 9):
            parts = enumerate_partitions(n)
            for a in parts:
                assert dominance_leq(a, a)
            for a in parts:
                for b in parts:
                    if dominance_leq(a, b) and dominance_leq(b, a):
                        assert a == b
            for a in parts:
                below_a = [b for b in parts if dominance_leq(b, a)]
                for b in below_a:
                    for c in parts:
                        if dominance_leq(c, b):
                            assert dominance_leq(c, a)

    def test_unique_max_and_min(self):
        for n in range(1, 11):
            parts = enumerate_partitions(n)
            top, bottom = Partition([n]), Partition([1] * n)
            for lam in parts:
                assert dominance_leq(lam, top)
                assert dominance_leq(bottom, lam)
                if lam != top:
                    assert not dominance_leq(top, lam)
                if lam != bottom:
                    assert not dominance_leq(lam, bottom)


class TestDOf:
    def test_examples(self):
        assert d_of(P(2, 1)) == 2
        assert d_of(P(3, 3)) == 9
        assert d_of(P(4, 1, 1)) == 9

    def test_extremes(self):
        for n in range(1, 9):
            assert d_of(Partition([n])) == 0
            assert d_of(Partition([1] * n)) == n * (n - 1) // 2

    def test_monotone_up_to_10(self):
        # mu <= lam implies d_mu >= d_lam
        for n in range(1, 11):
            parts = enumerate_partitions(n)
            for mu in parts:
                for lam in parts:
                    if dominance_leq(mu, lam):
                        assert d_of(mu) >= d_of(lam)

    def test_injectivity_below_6_fails_at_6(self):
        for n in range(1, 6):
            values = [d_of(lam) for lam in enumerate_partitions(n)]
            assert len(set(values)) == len(values)
        values6 = [d_of(lam) for lam in enumerate_partitions(6)]
        assert len(set(values6)) < len(values6)


class TestCompositions:
    def test_sort_to_partition(self):
        assert sort_to_partition(Composition([1, 3, 2])) == P(3, 2, 1)
        assert sort_to_partition(Composition([2, 2])) == P(2, 2)
        assert sort_to_partition(Composition([1, 1, 4])) == P(4, 1, 1)

    def test_from_subset_examples(self):
        assert composition_from_subset([], 4) == Composition([4])
        assert composition_from_subset(range(1, 6), 6) == Composition([1] * 6)
        assert composition_from_subset([2, 3], 5) == Composition([2, 1, 2])

    def test_from_subset_errors(self):
        with pytest.raises(ValueError):
            composition_from_subset([0], 4)
        with pytest.raises(ValueError):
            composition_from_subset([4], 4)
        with pytest.raises(ValueError):
            composition_from_subset([2, 2], 4)

    def test_bijection_up_to_10(self):
        from itertools import combinations

        for n in range(1, 11):
            seen = set()
            for r in range(n):
                for subset in combinations(range(1, n), r):
                    comp = composition_from_subset(subset, n)
                    assert subset_from_composition(comp) == subset
                    assert comp.n == n
                    seen.add(comp)
            assert len(seen) == 2 ** (n - 1)


class TestInduceScaleMinimal:
    def test_induce(self):
        assert induce_partition([P(2, 1), P(2)]) == P(2, 2, 1)
        assert induce_partition([P(1), P(1)]) == P(1, 1)
        assert induce_partition([P(3), P(2, 2)]) == P(3, 2, 2)
        with pytest.raises(ValueError):
            induce_partition([])

    def test_scale(self):
        assert scale_partition(P(2, 1), 3) == P(6, 3)
        assert scale_partition(P(1, 1), 2) == P(2, 2)
        assert scale_partition(P(3, 2), 1) == P(3, 2)
        with pytest.raises(ValueError):
            scale_partition(P(2), 0)

    def test_minimal_elements(self):
        assert minimal_elements({P(2), P(1, 1)}) == {P(1, 1)}
        assert minimal_elements({P(3, 3), P(4, 1, 1)}) == {P(3, 3), P(4, 1, 1)}
        assert minimal_elements({P(2, 1)}) == {P(2, 1)}
        assert minimal_elements(set()) == set()
        with pytest.raises(ValueError):
            minimal_elements({P(2), P(2, 1)})

    def test_minimal_elements_against_definition(self):
        parts = enumerate_partitions(6)
        subset = {parts[i] for i in (0, 2, 4, 7, 10)}
        expected = {
            lam for lam in subset if not any(dominance_lt(mu, lam) for mu in subset)
        }
        assert minimal_elements(subset) == expected


class TestTableaux:
    def test_tableaux_are_semistandard_with_the_given_content(self):
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                for mu in enumerate_partitions(n):
                    for t in semistandard_tableaux(lam, mu.parts):
                        assert tuple(len(row) for row in t) == lam.parts
                        assert all(a <= b for row in t for a, b in zip(row, row[1:]))
                        assert all(a < b for r1, r2 in zip(t, t[1:]) for a, b in zip(r1, r2))
                        flat = [a for row in t for a in row]
                        assert [flat.count(i + 1) for i in range(len(mu))] == list(mu.parts)

    def test_standard_tableaux_follow_the_hook_length_formula(self):
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                conj = dual(lam)
                hooks = prod(lam[i] - j + conj[j] - i - 1 for i in range(len(lam)) for j in range(lam[i]))
                assert kostka_number(lam, Partition([1] * n)) == factorial(n) // hooks

    def test_kostka_numbers(self):
        assert kostka_number(P(3, 2), P(2, 2, 1)) == 2
        assert kostka_number(P(2, 2), P(3, 1)) == 0
        for n in range(1, 7):
            parts = enumerate_partitions(n)
            for lam in parts:
                assert kostka_number(lam, lam) == 1
                for mu in parts:
                    assert (kostka_number(lam, mu) > 0) == dominance_leq(mu, lam)
            # RSK: sum over lam of K_{lam mu} f^lam counts the words of content mu
            ones = Partition([1] * n)
            for mu in parts:
                words = factorial(n) // prod(factorial(m) for m in mu)
                assert sum(kostka_number(lam, mu) * kostka_number(lam, ones) for lam in parts) == words

    def test_content_must_match_the_size(self):
        assert list(semistandard_tableaux(P(2, 1), (1, 1))) == []
        with pytest.raises(ValueError):
            list(semistandard_tableaux(P(2, 1), (2, -1, 2)))

    def test_charge_examples(self):
        # reading words 312 and 213 carry charge 2 and 1
        assert charge(((1, 2), (3,))) == 2
        assert charge(((1, 3), (2,))) == 1
        assert charge(((1, 1, 2, 2),)) == 2
        assert charge(((1, 1), (2, 2))) == 0

    def test_charge_needs_partition_content(self):
        with pytest.raises(ValueError):
            charge(((1, 3),))
        with pytest.raises(ValueError):
            charge(((1, 2, 2),))
        with pytest.raises(ValueError):
            charge(((0, 1),))


def _integer_entry_points():
    """(id, call, good): call(x) takes one numeric argument, and call(good) succeeds.

    The constructors' part, coefficient and value checks have their own tests.
    """
    K, Ihalf = cosets.Family.VERTEX_CONGRUENCE, cosets.Family.PRO_P_IWAHORI_HALF
    steinberg = germ.CoefficientMap(2, {P(2): -1, P(1, 1): 1})
    spec = cosets.SubgroupSpec(K, 1, 3, 1)
    return [
        ("enumerate_partitions n", enumerate_partitions, 2),
        ("composition_from_subset n", lambda x: composition_from_subset([], x), 2),
        ("composition_from_subset cut", lambda x: composition_from_subset([x], 3), 2),
        ("scale_partition d", lambda x: scale_partition(P(2, 1), x), 2),
        ("semistandard_tableaux content", lambda x: list(semistandard_tableaux(P(2, 1), [x, 1])), 2),
        ("QPoly.monomial exponent", qpoly.QPoly.monomial, 2),
        ("q_int m", qpoly.q_int, 2),
        ("q_factorial n", qpoly.q_factorial, 2),
        ("SubgroupSpec depth", lambda x: cosets.SubgroupSpec(K, x, 3, 1), 2),
        ("SubgroupSpec q", lambda x: cosets.SubgroupSpec(K, 0, x, 1), 3),
        ("SubgroupSpec d", lambda x: cosets.SubgroupSpec(K, 0, 3, x), 2),
        ("count_at_depth base", lambda x: cosets.count_at_depth(P(1, 1), spec, base=x), 2),
        ("parabolic_index q", lambda x: cosets.parabolic_index(P(1, 1), x, 1), 3),
        ("parabolic_index d", lambda x: cosets.parabolic_index(P(1, 1), 3, x), 2),
        ("CoefficientMap n", germ.CoefficientMap, 2),
        ("dim_at_depth j", lambda x: germ.dimension_polynomial(steinberg, K, 3, 1).dim_at_depth(x), 2),
        ("dimension_polynomial q", lambda x: germ.dimension_polynomial(steinberg, K, x, 1), 3),
        ("dimension_polynomial d", lambda x: germ.dimension_polynomial(steinberg, K, 3, x), 2),
        ("dimension_polynomial base_depth", lambda x: germ.dimension_polynomial(steinberg, K, 3, 1, base_depth=x), 2),
        (
            "dimension_polynomial base_counts",
            lambda x: germ.dimension_polynomial(steinberg, None, 3, 1, base_counts={P(2): 1, P(1, 1): x}),
            2,
        ),
        ("lj_transfer n", lambda x: germ.lj_transfer(steinberg, x, 1), 2),
        ("lj_transfer d", lambda x: germ.lj_transfer(steinberg, 1, x), 2),
        ("jl_transfer d", lambda x: germ.jl_transfer(steinberg, x), 2),
        ("square_integrable_top_coeff dimension", lambda x: germ.square_integrable_top_coeff(x, 2), 2),
        ("square_integrable_top_coeff n", lambda x: germ.square_integrable_top_coeff(1, x), 2),
        ("closed_form_multiplicity_matrix q", lambda x: germ.closed_form_multiplicity_matrix(2, x), 3),
        ("closed_form_multiplicity_matrix n", lambda x: germ.closed_form_multiplicity_matrix(x, 2), 2),
        ("multiplicity_polynomials n", germ.multiplicity_polynomials, 2),
        ("FiniteDim dim", gl2.FiniteDim, 2),
        ("PrincipalSeries dim_sigma", gl2.PrincipalSeries, 2),
        ("SpehPair dim_pi2", gl2.SpehPair, 2),
        ("EssSquareIntegrablePair b", lambda x: gl2.EssSquareIntegrablePair(2, x), 2),
        ("ab_coefficients q", lambda x: gl2.ab_coefficients(gl2.SupercuspidalGL2F(1), x), 3),
        ("chain_dim_formula j", lambda x: gl2.chain_dim_formula(-1, 1, K, x, 3, 1), 2),
        ("chain_dim_formula q", lambda x: gl2.chain_dim_formula(-1, 1, K, 0, x, 1), 3),
        ("chain_dim_formula d", lambda x: gl2.chain_dim_formula(-1, 1, K, 0, 3, x), 2),
        ("modp_supersingular_dims j", lambda x: gl2.modp_supersingular_dims(True, Ihalf, x, 3), 2),
        ("modp_supersingular_dims p", lambda x: gl2.modp_supersingular_dims(True, Ihalf, 0, x), 3),
        ("speh_ess_pair dim_sigma", lambda x: gl2.speh_ess_pair(2, x, 1), 2),
        ("speh_ess_pair b_speh", lambda x: gl2.speh_ess_pair(2, 3, x), 2),
        ("FqMatrix q", lambda x: oracle.FqMatrix(x, [[1]]), 3),
        ("FqMatrix entry", lambda x: oracle.FqMatrix(3, [[x, 1]]), 2),
        ("multiplicity_matrix q", lambda x: oracle.multiplicity_matrix(2, x), 3),
        ("flag_orbit_count q", lambda x: oracle.flag_orbit_count(P(1, 1), x), 3),
        ("nilpotent_census q", lambda x: oracle.nilpotent_census(2, x), 3),
        ("nilpotent_census n", lambda x: oracle.nilpotent_census(x, 2), 2),
        ("nilpotent_census cap", lambda x: oracle.nilpotent_census(2, 2, cap=x), 16),
        ("iter_matrices n", lambda x: next(oracle.iter_matrices(x, 2)), 2),
        ("multiplicity_matrix cap", lambda x: oracle.multiplicity_matrix(2, 2, cap=x), 3),
        ("flag_orbit_count cap", lambda x: oracle.flag_orbit_count(P(1, 1), 2, cap=x), 3),
        ("count_parabolic_cosets cap", lambda x: oracle.count_parabolic_cosets(P(1, 1), 2, 2, cap=x), 3),
        ("gl_order n", lambda x: oracle.gl_order(x, 3), 2),
        ("gl_order q", lambda x: oracle.gl_order(2, x), 3),
        ("parabolic_order q", lambda x: oracle.parabolic_order(P(1, 1), x), 3),
        ("centralizer_order q", lambda x: oracle.centralizer_order(P(1, 1), x), 3),
    ]


@pytest.mark.parametrize("kind", ["float", "bool", "numeric string"])
@pytest.mark.parametrize("entry", _integer_entry_points(), ids=lambda e: e[0])
def test_numeric_inputs_must_be_ints(entry, kind):
    """Every numeric input goes through one integer check: a float, bool or numeric string is a ValueError."""
    _, call, good = entry
    call(good)
    bad = {"float": float(good), "bool": True, "numeric string": str(good)}[kind]
    with pytest.raises(ValueError, match="must be an integer, got "):
        call(bad)
