import re
from itertools import pairwise

import pytest
from hypothesis import given, settings, strategies as st

from germkit import cosets
from germkit.cosets import (
    PRIME_CHECK_BOUND,
    PRIME_POWER_MAX_BITS,
    Family,
    SubgroupSpec,
    base_count,
    count_at_depth,
    count_columns,
    is_prime,
    is_prime_power,
    multinomial,
)
from germkit.germ import CoefficientMap, closed_form_multiplicity_matrix, dim_fixed
from germkit.gl2 import STEINBERG
from germkit.oracle import centralizer_order, flag_orbit_count, parabolic_order
from germkit.partitions import Partition, d_of, enumerate_partitions
from germkit.qpoly import QPoly, q_multinomial


def P(*parts):
    return Partition(parts)


class TestSpecValidation:
    def test_prime_power(self):
        assert is_prime_power(2) and is_prime_power(9) and is_prime_power(8)
        assert not is_prime_power(1) and not is_prime_power(6) and not is_prime_power(12)

    def test_prime_checks_equal_trial_division(self):
        least = list(range(10**5))  # least prime factors: trial division by every k <= 316, as a sieve
        for k in range(2, 317):
            for j in range(k * k, 10**5, k):
                least[j] = min(least[j], k)
        for q in range(10**5):
            r = q
            while r > 1 and r % least[q] == 0:
                r //= least[q]
            assert is_prime(q) == (q >= 2 and least[q] == q), q
            assert is_prime_power(q) == (q >= 2 and r == 1), q

    def test_prime_checks_on_large_q(self):
        # a Carmichael number, two strong pseudoprimes, and the least one to every base up to 37
        for q in (561, 2047, 3215031751, 318665857834031151167461):
            assert not is_prime(q) and not is_prime_power(q)
        for q in (2**61, 3**40, (10**9 + 7) ** 2):
            assert is_prime_power(q) and not is_prime(q)
        assert is_prime(10**18 + 3) and is_prime_power((2**61 - 1) ** 3)
        with pytest.raises(ValueError, match=f"stops below {PRIME_CHECK_BOUND}"):
            is_prime_power(2**89 - 1)
        # the size of q is refused before any division: at the bound a power of 2 is still read
        assert PRIME_POWER_MAX_BITS == 2**11 and is_prime_power(2**2047) and not is_prime_power(2**2047 - 2)
        message = r"^cannot test a number of 2049 bits for being a prime power: the test stops at 2048 bits$"
        for q in (2**2048, 2**2048 + 1):
            with pytest.raises(ValueError, match=message):
                is_prime_power(q)

    def test_depth_zero_only_families(self):
        SubgroupSpec(Family.VERTEX_MAX, 0, 2, 1)
        SubgroupSpec(Family.IWAHORI, 0, 2, 1)
        with pytest.raises(ValueError):
            SubgroupSpec(Family.VERTEX_MAX, 1, 2, 1)
        with pytest.raises(ValueError):
            SubgroupSpec(Family.IWAHORI, 2, 2, 1)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            SubgroupSpec(Family.VERTEX_CONGRUENCE, -1, 2, 1)
        with pytest.raises(ValueError):
            SubgroupSpec(Family.VERTEX_CONGRUENCE, 0, 6, 1)
        with pytest.raises(ValueError):
            SubgroupSpec(Family.VERTEX_CONGRUENCE, 0, 2, 0)

    @pytest.mark.parametrize("family", [None, "K"])
    def test_family_must_be_a_family(self, family):
        with pytest.raises(ValueError, match=f"family must be a Family, got {family!r}"):
            SubgroupSpec(family, 0, 2, 1)

    def test_value_semantics(self):
        spec = SubgroupSpec(Family.VERTEX_CONGRUENCE, 1, 3, 2)
        assert repr(spec) == "SubgroupSpec(family=<Family.VERTEX_CONGRUENCE: 'K'>, depth=1, q=3, d=2)"
        same = SubgroupSpec(Family.VERTEX_CONGRUENCE, 1, 3, 2)
        assert spec == same and hash(spec) == hash(same) and spec.residue_size == 9
        assert spec != SubgroupSpec(Family.IWAHORI_CONGRUENCE, 1, 3, 2)
        for name in ("family", "depth", "q", "d", "other"):
            with pytest.raises(AttributeError):
                setattr(spec, name, 1)

    def test_family_tokens(self):
        assert Family("K") is Family.VERTEX_CONGRUENCE
        assert Family("Ihalf") is Family.PRO_P_IWAHORI_HALF
        with pytest.raises(ValueError):
            Family("J")


class TestBaseCounts:
    def test_vertex_congruence_is_q_multinomial(self):
        assert base_count(P(1, 1), Family.VERTEX_CONGRUENCE) == QPoly([1, 1])
        for n in range(1, 6):
            for lam in enumerate_partitions(n):
                assert base_count(lam, Family.VERTEX_CONGRUENCE) == q_multinomial(lam)

    def test_iwahori_is_weyl_multinomial(self):
        assert base_count(P(2, 1), Family.IWAHORI) == QPoly([3])
        assert base_count(P(2, 1), Family.PRO_P_IWAHORI_HALF) == QPoly([3])
        assert base_count(P(1, 1, 1), Family.IWAHORI) == QPoly([6])

    def test_full_partition_always_one(self):
        for fam in Family:
            for n in (1, 2, 3, 5):
                assert base_count(Partition([n]), fam) == QPoly.one()

    def test_iwahori_congruence_convention(self):
        # multinomial * t^(d_lam): the n = 2 values, known data; every n <= 10 is checked against route C below
        assert base_count(P(1, 1), Family.IWAHORI_CONGRUENCE) == QPoly([0, 2])
        assert base_count(P(2, 1), Family.IWAHORI_CONGRUENCE) == QPoly([0, 0, 3])

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 7, 9])
    def test_iwahori_congruence_equals_route_c_up_to_10(self, t):
        # the I_1-orbits on G/P_lam number sum_F |n cap u_F| over the lam-flags F over F_t, which is
        # sum_kappa |B(F_t)| / |Z_GL(A_kappa)| * M[kappa][(1^n)] * M[kappa][lam], each term an exact quotient
        for n in range(1, 11):
            ones = Partition([1] * n)
            borel, matrix = parabolic_order(ones, t), closed_form_multiplicity_matrix(n, t)
            for lam in enumerate_partitions(n):
                total = 0
                for kappa, row in matrix.items():
                    term, rest = divmod(borel * row.get(ones, 0) * row.get(lam, 0), centralizer_order(kappa, t))
                    assert rest == 0
                    total += term
                assert total == multinomial(lam) * t ** d_of(lam)
                assert total == base_count(lam, Family.IWAHORI_CONGRUENCE).eval_at(t)

    def test_vertex_max_is_one(self):
        for lam in enumerate_partitions(4):
            assert base_count(lam, Family.VERTEX_MAX) == QPoly.one()

    def test_every_family_equals_the_checked_constructors_up_to_8(self):
        # base_count builds its constants and monomials without the constructor's checks
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                weyl = multinomial(lam)
                checked = {
                    Family.VERTEX_MAX: QPoly([1]),
                    Family.VERTEX_CONGRUENCE: q_multinomial(lam),
                    Family.IWAHORI: QPoly([weyl]),
                    Family.PRO_P_IWAHORI_HALF: QPoly([weyl]),
                    Family.IWAHORI_CONGRUENCE: QPoly((0,) * d_of(lam) + (weyl,)),
                }
                for fam in Family:
                    value = base_count(lam, fam)
                    assert value == checked[fam] == QPoly(list(value))


class TestCountAtDepth:
    @pytest.mark.parametrize("q,d", [(2, 1), (3, 1), (2, 2), (5, 2)])
    def test_n2_chain_closed_forms(self, q, d):
        lam = P(1, 1)
        t = q**d
        for j in range(5):
            assert count_at_depth(lam, SubgroupSpec(Family.PRO_P_IWAHORI_HALF, j, q, d)) == 2 * t**j
            assert count_at_depth(lam, SubgroupSpec(Family.VERTEX_CONGRUENCE, j, q, d)) == (t + 1) * t**j
            assert count_at_depth(lam, SubgroupSpec(Family.IWAHORI_CONGRUENCE, j, q, d)) == 2 * t ** (j + 1)

    def test_scaling_law(self):
        for n in range(1, 5):
            for lam in enumerate_partitions(n):
                for fam in (Family.VERTEX_CONGRUENCE, Family.PRO_P_IWAHORI_HALF, Family.IWAHORI_CONGRUENCE):
                    t = 3**2
                    base = count_at_depth(lam, SubgroupSpec(fam, 0, 3, 2))
                    for j in range(1, 6):
                        assert count_at_depth(lam, SubgroupSpec(fam, j, 3, 2)) == base * t ** (d_of(lam) * j)

    @settings(max_examples=300)
    @given(
        st.integers(1, 6).flatmap(lambda n: st.sampled_from(enumerate_partitions(n))),
        st.sampled_from((2, 3, 4, 5, 7, 8, 9)),
        st.integers(1, 3),
        st.integers(0, 5),
        st.sampled_from((Family.PRO_P_IWAHORI_HALF, Family.VERTEX_CONGRUENCE, Family.IWAHORI_CONGRUENCE)),
    )
    def test_scaling_law_property(self, lam, q, d, j, fam):
        deeper = count_at_depth(lam, SubgroupSpec(fam, j + 1, q, d))
        assert deeper == count_at_depth(lam, SubgroupSpec(fam, j, q, d)) * (q**d) ** d_of(lam)

    def test_parahoric_depth_zero(self):
        assert count_at_depth(P(1, 1), SubgroupSpec(Family.VERTEX_MAX, 0, 2, 1)) == 1
        assert count_at_depth(P(1, 1), SubgroupSpec(Family.IWAHORI, 0, 2, 1)) == 2

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 7, 8, 9])
    def test_every_family_is_one_s_multinomial(self, t):
        # at depth 0 each column is [n; lam]_s * t^(d_lam * e): s = 0 on K0, t on K and 1 on I0, Ihalf and I, e = 1 on I
        lams = [lam for n in range(1, 11) for lam in enumerate_partitions(n)]
        s_e = {Family.VERTEX_MAX: (0, 0), Family.VERTEX_CONGRUENCE: (t, 0), Family.IWAHORI: (1, 0),
               Family.PRO_P_IWAHORI_HALF: (1, 0), Family.IWAHORI_CONGRUENCE: (1, 1)}
        columns = count_columns(lams, [SubgroupSpec(fam, 0, t, 1) for fam in s_e])
        for (s, e), column in zip(s_e.values(), columns):
            assert column == [q_multinomial(lam).eval_at(s) * t ** (d_of(lam) * e) for lam in lams]

    @pytest.mark.parametrize("q,d", [(2, 1), (3, 2), (4, 1)])
    def test_equals_the_base_polynomial_at_t_up_to_8(self, q, d):
        # the Horner value of base_count times t^(d_lam * j), one depth at a time or every depth up to j
        t = q**d
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                for fam in Family:
                    depths = range(4) if fam.is_pro_p else [0]
                    expected = [base_count(lam, fam).eval_at(t) * t ** (d_of(lam) * j) for j in depths]
                    assert [count_at_depth(lam, SubgroupSpec(fam, j, q, d)) for j in depths] == expected
            for fam in Family:
                specs = [SubgroupSpec(fam, j, q, d) for j in (range(4) if fam.is_pro_p else [0])]
                assert count_columns(enumerate_partitions(n), specs) == [
                    [count_at_depth(lam, spec) for lam in enumerate_partitions(n)] for spec in specs
                ]

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_integer_route_equals_the_polynomial_route_up_to_12(self, q):
        # the depth-0 column, and the columns of depths 0..4, against the Horner value of base_count times t^(d_lam * j)
        for n in range(1, 13):
            parts = enumerate_partitions(n)
            for d in range(1, 4):
                t = q**d
                for fam in Family:
                    specs = [SubgroupSpec(fam, j, q, d) for j in range(5 if fam.is_pro_p else 1)]
                    bases = [base_count(lam, fam).eval_at(t) for lam in parts]
                    assert count_columns(parts, specs[:1])[0] == bases
                    expected = [[b * t ** (d_of(lam) * spec.depth) for lam, b in zip(parts, bases)] for spec in specs]
                    assert count_columns(parts, specs) == expected

    def test_partitions_of_several_n_in_one_call(self):
        lams = [P(3), P(1), P(2, 2, 1), P(1, 1)]
        for fam in Family:
            spec = SubgroupSpec(fam, 0, 4, 1)
            assert count_columns(lams, [spec])[0] == [base_count(lam, fam).eval_at(4) for lam in lams]
            assert count_columns([], [spec])[0] == []

    @pytest.mark.parametrize("fam", [f for f in Family if f is not Family.VERTEX_MAX])
    def test_a_corrupted_factorial_table_is_an_arithmetic_error(self, monkeypatch, fam):
        original = cosets._factorials
        monkeypatch.setattr(cosets, "_factorials", lambda n, t: original(n, t)[:-1] + [original(n, t)[-1] + 1])
        spec = SubgroupSpec(fam, 0, 3, 1)
        message = rf"^inexact division in the {fam.token} coset count of \(2,1\) at t = 3$"
        with pytest.raises(ArithmeticError, match=message):
            count_columns([P(2, 1)], [spec])[0]
        with pytest.raises(ArithmeticError):
            count_at_depth(P(3, 1), spec)
        with pytest.raises(ArithmeticError):
            count_columns(enumerate_partitions(4), [spec])

    @pytest.mark.parametrize("q,d,j", [(2, 1, 0), (3, 2, 3), (4, 1, 2)])
    def test_several_specs_in_one_call(self, monkeypatch, q, d, j):
        # one table of [k]_t! for K and one of k! that I0, Ihalf and I share, with the column of each spec in turn
        tables, original = [], cosets._factorials
        monkeypatch.setattr(cosets, "_factorials", lambda n, t: tables.append((n, t)) or original(n, t))
        specs = [SubgroupSpec(fam, k, q, d) for fam in Family for k in range(j + 1 if fam.is_pro_p else 1)]
        for n in range(1, 9):
            tables.clear()
            lams = enumerate_partitions(n)
            assert count_columns(lams, specs) == [column for spec in specs for column in count_columns(lams, [spec])]
            assert tables[:2] == [(n, q**d), (n, 1)]
        # partitions of several n in no canonical order: the columns of one call per partition, side by side
        lams = [P(2, 1), P(5), P(1), P(3, 3, 1), P(2, 2), P(1, 1, 1, 1, 1, 1, 1, 1)]
        tables.clear()
        columns = count_columns(lams, specs)
        assert tables == [(8, q**d), (8, 1)]
        assert columns == [list(row) for row in zip(*[[col[0] for col in count_columns([lam], specs)] for lam in lams])]

    def test_one_column_per_spec_of_mixed_depths(self):
        # I at depth 0 and deeper, the parahorics K0 and I0, and the pro-p chains in no depth order
        specs = [SubgroupSpec(Family.IWAHORI_CONGRUENCE, 0, 3, 1), SubgroupSpec(Family.VERTEX_CONGRUENCE, 4, 3, 1),
                 SubgroupSpec(Family.VERTEX_MAX, 0, 3, 1), SubgroupSpec(Family.IWAHORI_CONGRUENCE, 3, 3, 1),
                 SubgroupSpec(Family.IWAHORI, 0, 3, 1), SubgroupSpec(Family.PRO_P_IWAHORI_HALF, 2, 3, 1),
                 SubgroupSpec(Family.VERTEX_CONGRUENCE, 0, 3, 1), SubgroupSpec(Family.IWAHORI_CONGRUENCE, 1, 3, 1)]
        for n in range(1, 8):
            lams = enumerate_partitions(n)
            columns = count_columns(lams, specs)
            assert len(columns) == len(specs)
            for spec, column in zip(specs, columns):
                assert column == [count_at_depth(lam, spec) for lam in lams] == [
                    base_count(lam, spec.family).eval_at(3) * 3 ** (d_of(lam) * spec.depth) for lam in lams]
        assert count_columns([], specs) == [[]] * len(specs)

    def test_dim_fixed_deep_in_the_chain(self):
        # the depth-300 column of a full map at n = 8 is the sum of its one-partition counts
        c = CoefficientMap(8, {lam: (-1) ** i * (i + 1) for i, lam in enumerate(enumerate_partitions(8))})
        spec = SubgroupSpec(Family.VERTEX_CONGRUENCE, 300, 3, 1)
        assert dim_fixed(c, spec) == sum(v * count_at_depth(lam, spec) for lam, v in c.items())

    def test_dim_fixed_builds_one_table_for_its_support(self, monkeypatch):
        # the support's counts at the spec's depth come from one count_columns call, hence one table of [k]_t!
        tables, original = [], cosets._factorials
        monkeypatch.setattr(cosets, "_factorials", lambda n, t: tables.append((n, t)) or original(n, t))
        c = CoefficientMap(8, {lam: (-1) ** i * (i + 1) for i, lam in enumerate(enumerate_partitions(8))})
        spec = SubgroupSpec(Family.VERTEX_CONGRUENCE, 2, 3, 1)
        value = dim_fixed(c, spec)
        assert tables == [(8, 3)]
        assert value == sum(v * count_at_depth(lam, spec) for lam, v in c.items())

    @pytest.mark.parametrize("first", [Family.IWAHORI, Family.PRO_P_IWAHORI_HALF, Family.IWAHORI_CONGRUENCE])
    def test_a_shared_corrupted_table_names_the_first_family_to_read_it(self, monkeypatch, first):
        original = cosets._factorials
        monkeypatch.setattr(cosets, "_factorials", lambda n, t: original(n, t)[:-1] + [original(n, t)[-1] + 1])
        fams = [Family.VERTEX_MAX, first] + [f for f in Family if f not in (Family.VERTEX_MAX, first)]
        specs = [SubgroupSpec(f, 0, 3, 1) for f in fams if f is not Family.VERTEX_CONGRUENCE]
        message = rf"^inexact division in the {first.token} coset count of \(2,1\) at t = 3$"
        with pytest.raises(ArithmeticError, match=message):
            count_columns(enumerate_partitions(3), specs)

    @pytest.mark.parametrize("fam", list(Family))
    @pytest.mark.parametrize("lam", [(2, 1), [2, 1]])
    def test_every_count_refuses_what_is_not_a_partition(self, fam, lam):
        message = rf"^a coset count needs a Partition, got {re.escape(repr(lam))}$"
        spec = SubgroupSpec(fam, 0, 2, 1)
        counts = [lambda: base_count(lam, fam), lambda: count_at_depth(lam, spec),
                  lambda: count_columns([P(1), lam], [spec]), lambda: multinomial(lam)]
        if isinstance(lam, tuple):  # a map with a bare tuple key, past CoefficientMap's own check, still meets this one
            forged = CoefficientMap.zero(3)
            object.__setattr__(forged, "_entries", {lam: 1})
            counts.append(lambda: dim_fixed(forged, spec))
        for count in counts:
            with pytest.raises(ValueError, match=message):
                count()

    @pytest.mark.parametrize("spec", [None, "K", (Family.VERTEX_CONGRUENCE, 0, 2, 1)])
    def test_every_count_refuses_what_is_not_a_spec(self, spec):
        # before any partition is read, so the zero map and a list of non-partitions are refused too
        message = rf"^a coset count needs a SubgroupSpec, got {re.escape(repr(spec))}$"
        good = SubgroupSpec(Family.VERTEX_CONGRUENCE, 0, 2, 1)
        for count in (lambda: count_at_depth(P(2), spec), lambda: count_columns(enumerate_partitions(3), [good, spec]),
                      lambda: count_columns([(2, 1)], [spec]), lambda: count_columns([], [spec]),
                      lambda: dim_fixed(STEINBERG, spec), lambda: dim_fixed(CoefficientMap.zero(2), spec)):
            with pytest.raises(ValueError, match=message):
                count()

    def test_oracle_agreement_small(self):
        for n in range(1, 4):
            for q in (2, 3):
                for lam in enumerate_partitions(n):
                    spec = SubgroupSpec(Family.VERTEX_CONGRUENCE, 0, q, 1)
                    assert count_at_depth(lam, spec) == flag_orbit_count(lam, q)


# The members of the n = 2 chain in descending order, as Family.label names them: the parahorics K0 > I0,
# then I_{j+1/2} > K_{1+j} > I_{1+j} at each depth j
_K, _IHALF, _I = Family.VERTEX_CONGRUENCE, Family.PRO_P_IWAHORI_HALF, Family.IWAHORI_CONGRUENCE
CHAIN = ([Family.VERTEX_MAX.label(0), Family.IWAHORI.label(0)]
         + [fam.label(j) for j in range(3) for fam in (_IHALF, _K, _I)])[:10]

# The index [upper : lower] of each adjacent pair of chain members, as a polynomial in t = q^d
CHAIN_INDEX = {
    ("K0", "I0"): QPoly([1, 1]),
    ("I0", "I1/2"): QPoly([1, -2, 1]),
    ("I1/2", "K1"): QPoly([0, 1]),
    ("K1", "I1"): QPoly([0, 1]),
    ("I1", "I3/2"): QPoly([0, 0, 1]),
    ("I3/2", "K2"): QPoly([0, 1]),
    ("K2", "I2"): QPoly([0, 1]),
    ("I2", "I5/2"): QPoly([0, 0, 1]),
    ("I5/2", "K3"): QPoly([0, 1]),
}


class TestGL2Chain:
    def test_positions_descend_the_chain(self):
        assert CHAIN == ["K0", "I0", "I1/2", "K1", "I1", "I3/2", "K2", "I2", "I5/2", "K3"]
        assert list(CHAIN_INDEX) == list(pairwise(CHAIN))

    def test_tabulated_indices(self):
        indices = list(CHAIN_INDEX.values())
        assert indices[0].pretty("t") == "t+1"
        assert indices[1].pretty("t") == "t^2-2t+1"  # (t-1)^2
        assert indices[2:5] == [(0, 1), (0, 1), (0, 0, 1)]
        # below I1/2 the pattern t, t, t^2 repeats with period three
        assert all(indices[i] == indices[i + 3] for i in range(2, len(indices) - 3))

    def test_k0_to_k1_product_is_gl2_order(self):
        product = CHAIN_INDEX["K0", "I0"] * CHAIN_INDEX["I0", "I1/2"] * CHAIN_INDEX["I1/2", "K1"]
        # |GL_2(F_t)| = (t^2-1)(t^2-t) as a polynomial identity
        assert product == (QPoly([-1, 0, 1])) * (QPoly([0, -1, 1]))

    def test_one_full_step_is_t4(self):
        # any three consecutive indices from I1/2 down multiply to t^4 = [X : p X] for X in the chain
        indices = list(CHAIN_INDEX.values())
        for i in range(2, len(indices) - 2):
            assert indices[i] * indices[i + 1] * indices[i + 2] == (0, 0, 0, 0, 1)


def test_weyl_multinomial_helper():
    assert multinomial(P(2, 1)) == 3
    assert multinomial(P(1, 1, 1, 1)) == 24
    assert multinomial(P(4)) == 1
