import pytest
from hypothesis import given, settings, strategies as st

from germkit.cosets import (
    Family,
    SubgroupSpec,
    _chain_position,
    base_count,
    count_at_depth,
    gl2_chain_index,
    is_prime_power,
    multinomial,
    parabolic_index,
)
from germkit.oracle import count_parabolic_cosets
from germkit.partitions import Partition, d_of, enumerate_partitions
from germkit.qpoly import QPoly, q_multinomial


def P(*parts):
    return Partition(parts)


class TestSpecValidation:
    def test_prime_power(self):
        assert is_prime_power(2) and is_prime_power(9) and is_prime_power(8)
        assert not is_prime_power(1) and not is_prime_power(6) and not is_prime_power(12)

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

    def test_family_tokens(self):
        assert Family.parse("K") is Family.VERTEX_CONGRUENCE
        assert Family.parse("Ihalf") is Family.PRO_P_IWAHORI_HALF
        with pytest.raises(ValueError):
            Family.parse("J")


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
        # multinomial * t^(d_lam); only the n = 2 value is pinned by known data
        assert base_count(P(1, 1), Family.IWAHORI_CONGRUENCE) == QPoly([0, 2])
        assert base_count(P(2, 1), Family.IWAHORI_CONGRUENCE) == QPoly([0, 0, 3])

    def test_vertex_max_is_one(self):
        for lam in enumerate_partitions(4):
            assert base_count(lam, Family.VERTEX_MAX) == QPoly.one()


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

    @settings(max_examples=300, deadline=None, database=None)
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

    def test_user_supplied_base(self):
        lam = P(2, 1)
        spec = SubgroupSpec(Family.VERTEX_CONGRUENCE, 2, 2, 1)
        assert count_at_depth(lam, spec, base=7) == 7 * 2 ** (2 * 2)

    def test_parahoric_depth_zero(self):
        assert count_at_depth(P(1, 1), SubgroupSpec(Family.VERTEX_MAX, 0, 2, 1)) == 1
        assert count_at_depth(P(1, 1), SubgroupSpec(Family.IWAHORI, 0, 2, 1)) == 2

    def test_oracle_agreement_small(self):
        for n in range(1, 4):
            for q in (2, 3):
                for lam in enumerate_partitions(n):
                    spec = SubgroupSpec(Family.VERTEX_CONGRUENCE, 0, q, 1)
                    assert count_at_depth(lam, spec) == count_parabolic_cosets(lam, n, q)


class TestParabolicIndex:
    def test_examples(self):
        n = 3
        assert parabolic_index(Partition([n]), 2, 1) == 2 ** (n * n)
        assert parabolic_index(Partition([1] * n), 2, 1) == 2 ** (n * (n + 1) // 2)
        assert parabolic_index(P(1, 1), 2, 1) == 8

    def test_general_shape(self):
        for q, d in ((2, 1), (3, 2)):
            for lam in enumerate_partitions(4):
                assert parabolic_index(lam, q, d) == q ** (d * (16 - d_of(lam)))


class TestGL2Chain:
    def test_parse(self):
        assert _chain_position("K0") == 0
        assert _chain_position("I3/2") == 5
        assert _chain_position(" I2 ") == 7
        with pytest.raises(ValueError):
            _chain_position("I2/2")
        with pytest.raises(ValueError):
            _chain_position("K1/2")
        with pytest.raises(ValueError):
            _chain_position("zzz")

    def test_positions_descend_the_chain(self):
        labels = ["K0", "I0", "I1/2", "K1", "I1", "I3/2", "K2", "I2", "I5/2", "K3"]
        assert [_chain_position(s) for s in labels] == list(range(10))
        # Family.label names the same members: the parahorics, then I_{j+1/2}, K_{1+j}, I_{1+j} at depth j
        K, Ihalf, I = Family.VERTEX_CONGRUENCE, Family.PRO_P_IWAHORI_HALF, Family.IWAHORI_CONGRUENCE
        members = [(Family.VERTEX_MAX, 0), (Family.IWAHORI, 0)] + [(fam, j) for j in range(3) for fam in (Ihalf, K, I)]
        assert [fam.label(j) for fam, j in members[:10]] == labels

    def test_tabulated_indices(self):
        t = "t"
        assert gl2_chain_index("K0", "I0").pretty(t) == "t+1"
        assert gl2_chain_index("I0", "I1/2").pretty(t) == "t^2-2t+1"  # (t-1)^2
        assert gl2_chain_index("I1/2", "K1") == QPoly([0, 1])
        assert gl2_chain_index("K1", "I1") == QPoly([0, 1])
        assert gl2_chain_index("I1", "I3/2") == QPoly([0, 0, 1])
        assert gl2_chain_index("I3/2", "K2") == QPoly([0, 1])
        # the pattern continues with period three
        assert gl2_chain_index("K2", "I2") == QPoly([0, 1])
        assert gl2_chain_index("I2", "I5/2") == QPoly([0, 0, 1])
        assert gl2_chain_index("I5/2", "K3") == QPoly([0, 1])

    def test_non_adjacent_rejected(self):
        with pytest.raises(ValueError):
            gl2_chain_index("K0", "I1/2")
        with pytest.raises(ValueError):
            gl2_chain_index("I0", "K0")  # wrong direction

    def test_k0_to_k1_product_is_gl2_order(self):
        product = gl2_chain_index("K0", "I0") * gl2_chain_index("I0", "I1/2") * gl2_chain_index("I1/2", "K1")
        # |GL_2(F_t)| = (t^2-1)(t^2-t) as a polynomial identity
        assert product == (QPoly([-1, 0, 1])) * (QPoly([0, -1, 1]))

    def test_one_full_step_is_t4(self):
        # any three consecutive indices below K1 multiply to t^4 = [X : p X] for X in the chain
        segments = [("K1", "I1", "I3/2", "K2"), ("I1", "I3/2", "K2", "I2"), ("I1/2", "K1", "I1", "I3/2")]
        for a, b, c, dd in segments:
            prod = gl2_chain_index(a, b) * gl2_chain_index(b, c) * gl2_chain_index(c, dd)
            assert prod == QPoly.monomial(4)


def test_weyl_multinomial_helper():
    assert multinomial(P(2, 1)) == 3
    assert multinomial(P(1, 1, 1, 1)) == 24
    assert multinomial(P(4)) == 1
