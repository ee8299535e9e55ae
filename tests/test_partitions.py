import json

import pytest
from hypothesis import given, settings, strategies as st

from germkit import cosets, germ, gl2, oracle, qpoly
from germkit.partitions import (
    Partition,
    _map_partitions,
    canonical_order,
    d_of,
    dominance_leq,
    dominance_lt,
    dual,
    enumerate_partitions,
    minimal_elements,
    require_at_least,
    require_int,
    scale_partition,
)


def P(*parts):
    return Partition(parts)


def _sorted_gaps(cuts, n):
    """The gaps between 0, the sorted cut points in [1, n-1] and n, as a decreasing tuple."""
    bounds = [0, *sorted(cuts), n]
    return tuple(sorted((b - a for a, b in zip(bounds, bounds[1:])), reverse=True))


def _part_tuples(n):
    """The parts of a partition of n as a plain tuple: the sorted gaps between random cut points."""
    cuts = st.sets(st.integers(1, n - 1)) if n > 1 else st.just(set())
    return cuts.map(lambda c: _sorted_gaps(c, n))


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
        assert P(2) == (2,) and P(2) != [2]

    def test_immutable(self):
        lam = P(3, 1)
        with pytest.raises(AttributeError):
            lam.n = 5

    def test_json_round_trip(self):
        lam = P(3, 1, 1)
        assert json.loads(json.dumps(lam)) == [3, 1, 1]
        assert Partition.from_json(json.loads(json.dumps(lam))) == lam
        with pytest.raises(ValueError):
            Partition.from_json({"composition": [1]})

    def test_value_protocol(self):
        lam = P(3, 1)
        assert (repr(lam), str(lam)) == ("Partition([3, 1])", "(3,1)")
        assert (lam.n, len(lam), lam[1], list(lam)) == (4, 2, 1, [3, 1])
        assert len({lam, P(3, 1), Partition._derived([3, 1])}) == 1
        with pytest.raises(AttributeError, match="^Partition is immutable$"):
            lam.n = 5

    @settings(max_examples=200)
    @given(st.lists(st.integers(1, 12).flatmap(_part_tuples), min_size=1, max_size=12), st.randoms())
    def test_a_partition_is_the_tuple_of_its_parts(self, sample, rng):
        for parts in sample:
            lam = Partition(parts)
            assert lam == parts and hash(lam) == hash(parts) and lam != list(parts)
            assert str(lam) == "(" + ",".join(map(str, parts)) + ")"
            assert repr(lam) == "Partition([" + ", ".join(map(str, parts)) + "])"
            assert json.loads(json.dumps(lam)) == list(parts) and Partition.from_json(list(parts)) == lam
        shuffled = [Partition(parts) for parts in sample]
        rng.shuffle(shuffled)
        assert canonical_order(shuffled) == sorted(shuffled, key=tuple, reverse=True)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Partition([]), "empty partition is not allowed (n must be >= 1)"),
            (lambda: Partition([2, 0]), "partition parts must be >= 1, got 0"),
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
            (lambda: Partition(["3"]), "a partition part must be an integer, got '3'"),
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


def _parts_one_at_a_time(parts):
    """The constructor's checks as they ran before they became C-level passes: the reference for its messages."""
    parts = tuple(require_int(p, "a partition part") for p in parts)
    if not parts:
        raise ValueError("empty partition is not allowed (n must be >= 1)")
    for p in parts:
        require_at_least(p, 1, "partition parts")
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValueError(f"partition parts must be weakly decreasing, got {parts}")
    return parts


def _wire_one_at_a_time(data):
    if not isinstance(data, list) or not all(type(x) is int for x in data):
        raise ValueError(f"a partition serializes as a JSON array of integers, got {data!r}")
    return _parts_one_at_a_time(data)


def _outcome(build, parts):
    """The parts built, or the text of the ValueError raised."""
    try:
        return "ok", tuple(build(parts))
    except ValueError as exc:
        return "ValueError", str(exc)


_PART_VALUES = st.one_of(st.integers(-2, 12), st.sampled_from([0, 10**20]), st.booleans(), st.floats(),
                         st.text(max_size=2), st.none())
_PART_LISTS = st.one_of(
    st.lists(_PART_VALUES, max_size=6),
    st.lists(st.integers(1, 12), max_size=6).map(lambda ps: sorted(ps, reverse=True)),  # valid, or empty
    st.lists(st.integers(1, 12), min_size=2, max_size=6).map(sorted),  # increasing unless constant
    st.lists(st.integers(-1, 3), min_size=1, max_size=6).map(lambda ps: sorted(ps, reverse=True)),  # a 0 or below last
)


class TestOnePassChecks:
    """The constructor and the wire format check in C-level passes and name the fault as the part-by-part checks did."""

    @settings(max_examples=300)
    @given(_PART_LISTS)
    def test_the_constructor_raises_what_the_part_by_part_checks_raise(self, parts):
        expected = _outcome(_parts_one_at_a_time, parts)
        assert _outcome(Partition, parts) == expected
        assert _outcome(Partition, tuple(parts)) == expected
        assert _outcome(Partition, (p for p in parts)) == _outcome(_parts_one_at_a_time, (p for p in parts))
        if expected[0] == "ok":
            assert type(Partition(parts)) is Partition

    @settings(max_examples=300)
    @given(_PART_LISTS | st.one_of(st.tuples(st.integers(1, 3)), st.text(max_size=2), st.none(), st.integers()))
    def test_the_wire_format_raises_what_the_part_by_part_checks_raise(self, data):
        assert _outcome(Partition.from_json, data) == _outcome(_wire_one_at_a_time, data)

    @pytest.mark.parametrize("parts", [[], [True, 1], [2, 1.0], ["2"], [0], [-1], [1, 2], [3, 3, 0], [2, 3, 1]])
    def test_each_fault_as_a_generator(self, parts):
        assert _outcome(Partition, iter(parts)) == _outcome(_parts_one_at_a_time, iter(parts))
        assert _outcome(Partition, iter(parts))[0] == "ValueError"


class TestEnumeration:
    def test_n2_complete(self):
        assert enumerate_partitions(2) == [P(2), P(1, 1)]

    def test_counts(self):
        assert len(enumerate_partitions(5)) == 7
        assert len(enumerate_partitions(6)) == 11

    def test_order_is_lexicographically_decreasing(self):
        for n in range(1, 11):
            parts = enumerate_partitions(n)
            assert parts == sorted(parts, key=tuple, reverse=True)
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

    def test_equals_a_reference_up_to_20(self):
        for n, reference in enumerate(_reference_lattices(20)):
            if n:
                assert enumerate_partitions(n) == reference

    def test_a_caller_editing_the_list_leaves_the_next_call_alone(self):
        expected = enumerate_partitions(6)
        edited = enumerate_partitions(6)
        edited.reverse()
        del edited[3:]
        assert enumerate_partitions(6) == expected and len(expected) == 11


def _reference_lattices(top):
    """The partitions of each n <= top as part tuples, largest first: one box added to each of n - 1."""
    lattices = [[()]]
    for _ in range(top):
        grown = set()
        for parts in lattices[-1]:
            grown.add(parts + (1,))
            for i in range(len(parts)):
                grown.add(tuple(sorted(parts[:i] + (parts[i] + 1,) + parts[i + 1:], reverse=True)))
        lattices.append(sorted(grown, reverse=True))
    return lattices


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

    def test_definition_up_to_20(self):
        for n in range(1, 21):
            for lam in enumerate_partitions(n):
                assert list(dual(lam)) == [sum(1 for p in lam if p >= i + 1) for i in range(lam[0])]

    def test_involution_up_to_12(self):
        for n in range(1, 13):
            for lam in enumerate_partitions(n):
                assert dual(dual(lam)) == lam

    def test_memo_equals_d_of_and_dual_up_to_20(self):
        for n in range(1, 21):
            lams = enumerate_partitions(n)
            duals = _map_partitions(dual, n)
            assert list(_map_partitions(d_of, n)) == list(map(d_of, lams)) and list(duals) == list(map(dual, lams))
            assert [dual(mu) for mu in duals] == lams
            assert all(type(mu) is Partition for mu in duals)

    def test_antitone_up_to_10(self):
        # mu <= lam iff dual(lam) <= dual(mu)
        for n in range(1, 11):
            parts = enumerate_partitions(n)
            for mu in parts:
                for lam in parts:
                    assert dominance_leq(mu, lam) == dominance_leq(dual(lam), dual(mu))


@st.composite
def _two_partitions(draw):
    """Two partitions of one n <= 40, each the sorted gaps between random cut points."""
    n = draw(st.integers(1, 40))
    return tuple(Partition(draw(_part_tuples(n))) for _ in range(2))


class TestDualProperties:
    @settings(max_examples=300)
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

    def test_definition_up_to_20(self):
        for n in range(1, 21):
            for lam in enumerate_partitions(n):
                assert d_of(lam) == sum(a * b for i, a in enumerate(lam) for b in lam[i + 1:])

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


class TestInduceScaleMinimal:
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


def _integer_entry_points():
    """(id, call, good): call(x) takes one numeric argument, and call(good) succeeds.

    The constructors' part, coefficient and value checks have their own tests.
    """
    K, Ihalf = cosets.Family.VERTEX_CONGRUENCE, cosets.Family.PRO_P_IWAHORI_HALF
    steinberg = germ.CoefficientMap(2, {P(2): -1, P(1, 1): 1})
    return [
        ("enumerate_partitions n", enumerate_partitions, 2),
        ("scale_partition d", lambda x: scale_partition(P(2, 1), x), 2),
        ("q_int m", qpoly.q_int, 2),
        ("q_factorial n", qpoly.q_factorial, 2),
        ("SubgroupSpec depth", lambda x: cosets.SubgroupSpec(K, x, 3, 1), 2),
        ("SubgroupSpec q", lambda x: cosets.SubgroupSpec(K, 0, x, 1), 3),
        ("SubgroupSpec d", lambda x: cosets.SubgroupSpec(K, 0, 3, x), 2),
        ("CoefficientMap n", lambda x: germ.CoefficientMap(x, {}), 2),
        ("dimension_polynomial q", lambda x: germ.dimension_polynomial(steinberg, K, x, 1), 3),
        ("dimension_polynomial d", lambda x: germ.dimension_polynomial(steinberg, K, 3, x), 2),
        ("lj_transfer n", lambda x: germ.lj_transfer(steinberg, x, 1), 2),
        ("lj_transfer d", lambda x: germ.lj_transfer(steinberg, 1, x), 2),
        ("jl_transfer d", lambda x: germ.jl_transfer(steinberg, x), 2),
        ("closed_form_multiplicity_matrix q", lambda x: germ.closed_form_multiplicity_matrix(2, x), 3),
        ("closed_form_multiplicity_matrix n", lambda x: germ.closed_form_multiplicity_matrix(x, 2), 2),
        ("multiplicity_polynomials n", germ.multiplicity_polynomials, 2),
        # the first three gl2 labels name the catalog class whose parameter is checked
        ("FiniteDim dim", gl2.finite_dim, 2),
        ("PrincipalSeries dim_sigma", gl2.principal_series, 2),
        ("SpehPair dim_pi2", lambda x: gl2.speh_ess_pair(x, 4, 1), 2),
        ("ab_coefficients q", lambda x: gl2.ab_coefficients(gl2.supercuspidal(1, x)), 3),
        ("chain_dim_formula j", lambda x: gl2.dim_invariants(steinberg, cosets.SubgroupSpec(K, x, 3, 1)), 2),
        ("chain_dim_formula q", lambda x: gl2.dim_invariants(steinberg, cosets.SubgroupSpec(K, 0, x, 1)), 3),
        ("chain_dim_formula d", lambda x: gl2.dim_invariants(steinberg, cosets.SubgroupSpec(K, 0, 3, x)), 2),
        ("modp_supersingular_dims j", lambda x: gl2.modp_supersingular_dims(True, Ihalf, x, 3), 2),
        ("modp_supersingular_dims p", lambda x: gl2.modp_supersingular_dims(True, Ihalf, 0, x), 3),
        ("speh_ess_pair dim_sigma", lambda x: gl2.speh_ess_pair(2, x, 1), 2),
        ("speh_ess_pair b_speh", lambda x: gl2.speh_ess_pair(2, 3, x), 2),
        ("nilpotent_partition q", lambda x: oracle.nilpotent_partition([[0]], x), 3),
        ("nilpotent_partition entry", lambda x: oracle.nilpotent_partition([[0, x], [0, 0]], 3), 2),
        ("multiplicity_matrix q", lambda x: oracle.multiplicity_matrix(2, x), 3),
        ("flag_orbit_count q", lambda x: oracle.flag_orbit_count(P(1, 1), x), 3),
        ("nilpotent_census q", lambda x: oracle.nilpotent_census(2, x), 3),
        ("nilpotent_census n", lambda x: oracle.nilpotent_census(x, 2), 2),
        ("nilpotent_census cap", lambda x: oracle.nilpotent_census(2, 2, cap=x), 16),
        ("iter_matrices n", lambda x: next(oracle.iter_matrices(x, 2)), 2),
        ("multiplicity_matrix cap", lambda x: oracle.multiplicity_matrix(2, 2, cap=x), 3),
        ("flag_orbit_count cap", lambda x: oracle.flag_orbit_count(P(1, 1), 2, cap=x), 3),
        ("flag_orbit_size cap", lambda x: oracle.flag_orbit_size(P(1, 1), 2, cap=x), 3),
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
