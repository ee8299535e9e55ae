from fractions import Fraction

import pytest

from germkit.cosets import Family, SubgroupSpec
from germkit.germ import CoefficientMap, dim_fixed, jl_transfer
from germkit.gl2 import (
    CuspidalSteinberg,
    EssSquareIntegrablePair,
    FiniteDim,
    PrincipalSeries,
    SpehPair,
    SteinbergTwist,
    SupercuspidalGL2F,
    ab_coefficients,
    catalog,
    chain_dim_formula,
    dim_invariants,
    modp_supersingular_dims,
    speh_ess_pair,
    to_coefficient_map,
)
from germkit.partitions import Partition


def P(*parts):
    return Partition(parts)


CHAINS = (Family.PRO_P_IWAHORI_HALF, Family.VERTEX_CONGRUENCE, Family.IWAHORI_CONGRUENCE)


class TestABCoefficients:
    def test_table(self):
        assert ab_coefficients(FiniteDim(1), 3) == (1, 0)
        assert ab_coefficients(FiniteDim(4), 3) == (4, 0)
        assert ab_coefficients(PrincipalSeries(2), 3) == (0, 2)
        assert ab_coefficients(SteinbergTwist(), 3) == (-1, 1)
        assert ab_coefficients(CuspidalSteinberg(), 3) == (-2, 1)
        assert ab_coefficients(SpehPair(3, b=2), 3) == (3, 2)
        assert ab_coefficients(EssSquareIntegrablePair(3, b=1), 3) == (-3, 1)

    def test_supercuspidal_levels(self):
        assert ab_coefficients(SupercuspidalGL2F(Fraction(1, 2)), 3) == (-4, 1)
        assert ab_coefficients(SupercuspidalGL2F(Fraction(1)), 3) == (-6, 1)
        assert ab_coefficients(SupercuspidalGL2F(Fraction(3, 2)), 2) == (-6, 1)
        assert ab_coefficients(SupercuspidalGL2F(Fraction(2)), 2) == (-8, 1)

    def test_symbolic_b_requires_input(self):
        with pytest.raises(ValueError):
            ab_coefficients(SpehPair(2), 3)
        with pytest.raises(ValueError):
            ab_coefficients(EssSquareIntegrablePair(2), 3)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            SupercuspidalGL2F(Fraction(1, 3))
        with pytest.raises(ValueError):
            SupercuspidalGL2F(Fraction(0))

    def test_level_must_be_int_or_fraction(self):
        for level in ("3/2", 1.5, True, "1"):
            with pytest.raises(ValueError, match="level must be an int or a Fraction, got "):
                SupercuspidalGL2F(level)
        assert SupercuspidalGL2F(1).level == Fraction(1)
        assert SupercuspidalGL2F(Fraction(3, 2)).level == Fraction(3, 2)

    def test_additivity_row(self):
        a_triv, b_triv = ab_coefficients(FiniteDim(1), 2)
        a_st, b_st = ab_coefficients(SteinbergTwist(), 2)
        assert (a_triv + a_st, b_triv + b_st) == ab_coefficients(PrincipalSeries(1), 2)

    def test_supercuspidal_matches_transfer_sign_rule(self):
        # a = (-1)^(n-1) * (transferred dimension) with n = 2, where the
        # dimension is 2q^level (integral level) or (q+1)q^(level-1/2)
        for q in (2, 3, 5):
            for level in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
                a, b = ab_coefficients(SupercuspidalGL2F(level), q)
                if level.denominator == 1:
                    dim_pi2 = 2 * q ** int(level)
                else:
                    dim_pi2 = (q + 1) * q ** int(level - Fraction(1, 2))
                assert a == jl_transfer(CoefficientMap.indicator(P(1), dim_pi2), 2).value(P(2)) == -dim_pi2
                assert b == 1


class TestDimInvariants:
    def test_examples(self):
        assert dim_invariants(SteinbergTwist(), Family.VERTEX_CONGRUENCE, 0, 3, 1) == 3
        for fam in CHAINS:
            for j in range(3):
                assert dim_invariants(FiniteDim(7), fam, j, 2, 1) == 7
        assert dim_invariants(PrincipalSeries(2), Family.IWAHORI_CONGRUENCE, 1, 2, 1) == 16

    def test_below_threshold_raises(self):
        rep = SupercuspidalGL2F(Fraction(1, 2))  # (a, b) = (-(q+1), 1)
        with pytest.raises(ValueError):
            dim_invariants(rep, Family.PRO_P_IWAHORI_HALF, 0, 2, 1)
        assert dim_invariants(rep, Family.PRO_P_IWAHORI_HALF, 1, 2, 1) == 1

    def test_chain_formula_validation(self):
        with pytest.raises(ValueError):
            chain_dim_formula(0, 1, Family.VERTEX_MAX, 0, 2, 1)
        with pytest.raises(ValueError):
            chain_dim_formula(0, 1, Family.VERTEX_CONGRUENCE, -1, 2, 1)

    def test_consistency_with_germ_machinery(self):
        for _, rep in catalog():
            cmap = to_coefficient_map(rep, 3)
            for fam in CHAINS:
                for j in range(4):
                    spec = SubgroupSpec(fam, j, 3, 1)
                    a, b = ab_coefficients(rep, 3)
                    assert chain_dim_formula(a, b, fam, j, 3, 1) == dim_fixed(cmap, spec)

    def test_chain_formula_only_on_pro_p_families(self):
        pro_p = {fam for fam in Family if fam.is_pro_p}
        assert pro_p == {Family.PRO_P_IWAHORI_HALF, Family.VERTEX_CONGRUENCE, Family.IWAHORI_CONGRUENCE}
        for fam in set(Family) - pro_p:
            with pytest.raises(ValueError) as info:
                chain_dim_formula(1, 0, fam, 0, 3, 1)
            assert str(info.value) == f"chain formulas exist for the pro-p families only, got {fam.token}"


class TestModP:
    def test_frozen_values(self):
        assert modp_supersingular_dims(True, Family.PRO_P_IWAHORI_HALF, 0, 3) == 2
        assert modp_supersingular_dims(False, Family.PRO_P_IWAHORI_HALF, 0, 3) == 2
        assert modp_supersingular_dims(True, Family.VERTEX_CONGRUENCE, 0, 3) == 5
        assert modp_supersingular_dims(False, Family.VERTEX_CONGRUENCE, 1, 3) == 20

    def test_growth(self):
        for j in range(4):
            assert modp_supersingular_dims(True, Family.PRO_P_IWAHORI_HALF, j, 5) == -2 + 4 * 5**j
            assert modp_supersingular_dims(False, Family.VERTEX_CONGRUENCE, j, 5) == -4 + 12 * 5**j

    def test_p2_and_even_rejected(self):
        with pytest.raises(ValueError):
            modp_supersingular_dims(True, Family.PRO_P_IWAHORI_HALF, 0, 2)
        with pytest.raises(ValueError):
            modp_supersingular_dims(True, Family.PRO_P_IWAHORI_HALF, 0, 9)

    def test_ichain_not_tabulated(self):
        with pytest.raises(ValueError):
            modp_supersingular_dims(True, Family.IWAHORI_CONGRUENCE, 0, 3)


class TestCoefficientMapBridge:
    def test_examples(self):
        assert to_coefficient_map(SteinbergTwist(), 2).items() == [(P(2), -1), (P(1, 1), 1)]
        assert to_coefficient_map(PrincipalSeries(1), 2).items() == [(P(1, 1), 1)]
        assert to_coefficient_map(CuspidalSteinberg(), 2).items() == [(P(2), -2), (P(1, 1), 1)]


class TestSpehPairs:
    def test_valid_split(self):
        z, l = speh_ess_pair(dim_pi2=2, dim_sigma=4, b_speh=1)
        az, bz = ab_coefficients(z, 3)
        al, bl = ab_coefficients(l, 3)
        assert az + al == 0
        assert bz + bl == 4
        assert bz >= 1 and bl >= 1

    def test_invalid_split(self):
        with pytest.raises(ValueError):
            speh_ess_pair(2, 4, 0)
        with pytest.raises(ValueError):
            speh_ess_pair(2, 4, 4)

    def test_pair_types_are_distinct(self):
        speh, ess = SpehPair(2, b=1), EssSquareIntegrablePair(2, b=1)
        assert not isinstance(speh, EssSquareIntegrablePair)
        assert not isinstance(ess, SpehPair)
        assert speh != ess and speh == SpehPair(2, 1)
        assert (repr(speh), repr(ess)) == ("SpehPair(dim_pi2=2, b=1)", "EssSquareIntegrablePair(dim_pi2=2, b=1)")
        with pytest.raises(AttributeError):
            speh.b = 2

    @pytest.mark.parametrize("cls", [SpehPair, EssSquareIntegrablePair])
    def test_pair_validation(self, cls):
        with pytest.raises(ValueError, match=r"^dimension must be >= 1, got 0$"):
            cls(0)
        with pytest.raises(ValueError, match=r"^a supplied b split must be >= 1, got 0$"):
            cls(2, b=0)

    def test_symbolic_b_messages(self):
        with pytest.raises(ValueError) as info:
            ab_coefficients(SpehPair(2), 3)
        assert str(info.value) == "the b split of a Speh pair is undetermined; supply it explicitly"
        with pytest.raises(ValueError) as info:
            ab_coefficients(EssSquareIntegrablePair(2), 3)
        assert str(info.value) == (
            "the b split of an essentially square-integrable pair is undetermined; supply it explicitly"
        )

    def test_catalog_is_concrete(self):
        labels = [label for label, _ in catalog()]
        assert len(labels) == len(set(labels))
        for _, rep in catalog():
            ab_coefficients(rep, 3)  # never raises: all entries have concrete parameters
