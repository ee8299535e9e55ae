import re
from fractions import Fraction

import pytest

from germkit.cosets import Family, SubgroupSpec, count_columns
from germkit.germ import CoefficientMap, dim_fixed, jl_transfer
from germkit.gl2 import (
    CUSPIDAL_STEINBERG,
    STEINBERG,
    ab_coefficients,
    catalog,
    dim_invariants,
    finite_dim,
    modp_supersingular_dims,
    principal_series,
    speh_ess_pair,
    supercuspidal,
)
from germkit.partitions import Partition


def P(*parts):
    return Partition(parts)


CHAINS = (Family.PRO_P_IWAHORI_HALF, Family.VERTEX_CONGRUENCE, Family.IWAHORI_CONGRUENCE)


def chain_factor(family, j, t):
    """The multiplier of b at a chain member by hand: 2 t^j on the I-half chain, (t+1) t^j on K and 2t t^j on I."""
    return dict(zip(CHAINS, (2, t + 1, 2 * t)))[family] * t**j


class TestABCoefficients:
    def test_table(self):
        assert ab_coefficients(finite_dim(1)) == (1, 0)
        assert ab_coefficients(finite_dim(4)) == (4, 0)
        assert ab_coefficients(principal_series(2)) == (0, 2)
        assert ab_coefficients(STEINBERG) == (-1, 1)
        assert ab_coefficients(CUSPIDAL_STEINBERG) == (-2, 1)
        speh, ess = speh_ess_pair(3, 3, 2)
        assert (ab_coefficients(speh), ab_coefficients(ess)) == ((3, 2), (-3, 1))
        with pytest.raises(ValueError, match=r"^the n = 2 catalog reads maps on the partitions of 2, got n = 1$"):
            ab_coefficients(CoefficientMap.indicator(P(1)))

    def test_supercuspidal_levels(self):
        assert ab_coefficients(supercuspidal(Fraction(1, 2), 3)) == (-4, 1)
        assert ab_coefficients(supercuspidal(Fraction(1), 3)) == (-6, 1)
        assert ab_coefficients(supercuspidal(Fraction(3, 2), 2)) == (-6, 1)
        assert ab_coefficients(supercuspidal(Fraction(2), 2)) == (-8, 1)

    def test_level_validation(self):
        with pytest.raises(ValueError, match=r"^level must be a half-integer >= 1/2, got 1/3$"):
            supercuspidal(Fraction(1, 3), 3)
        with pytest.raises(ValueError, match=r"^level must be a half-integer >= 1/2, got 0$"):
            supercuspidal(Fraction(0), 3)
        with pytest.raises(ValueError, match=r"^q must be a prime power >= 2, got 6$"):
            supercuspidal(1, 6)

    def test_level_must_be_int_or_fraction(self):
        for level in ("3/2", 1.5, True, "1"):
            with pytest.raises(ValueError, match="level must be an int or a Fraction, got "):
                supercuspidal(level, 3)
        assert supercuspidal(1, 3) == supercuspidal(Fraction(1), 3)

    def test_additivity_row(self):
        assert finite_dim(1) + STEINBERG == principal_series(1)

    def test_supercuspidal_matches_transfer_sign_rule(self):
        # a = (-1)^(n-1) * (transferred dimension) with n = 2, where the
        # dimension is 2q^level (integral level) or (q+1)q^(level-1/2)
        for q in (2, 3, 5):
            for level in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
                a, b = ab_coefficients(supercuspidal(level, q))
                if level.denominator == 1:
                    dim_pi2 = 2 * q ** int(level)
                else:
                    dim_pi2 = (q + 1) * q ** int(level - Fraction(1, 2))
                assert a == jl_transfer(CoefficientMap(1, {P(1): dim_pi2}), 2).value(P(2)) == -dim_pi2
                assert b == 1


class TestDimInvariants:
    def test_examples(self):
        assert dim_invariants(STEINBERG, SubgroupSpec(Family.VERTEX_CONGRUENCE, 0, 3, 1)) == 3
        for fam in CHAINS:
            for j in range(3):
                assert dim_invariants(finite_dim(7), SubgroupSpec(fam, j, 2, 1)) == 7
        assert dim_invariants(principal_series(2), SubgroupSpec(Family.IWAHORI_CONGRUENCE, 1, 2, 1)) == 16

    def test_below_threshold_raises(self):
        c = supercuspidal(Fraction(1, 2), 2)  # (a, b) = (-(q+1), 1)
        with pytest.raises(ValueError):
            dim_invariants(c, SubgroupSpec(Family.PRO_P_IWAHORI_HALF, 0, 2, 1))
        assert dim_invariants(c, SubgroupSpec(Family.PRO_P_IWAHORI_HALF, 1, 2, 1)) == 1

    def test_chain_formula_validation(self):
        with pytest.raises(ValueError):
            dim_invariants(principal_series(1), SubgroupSpec(Family.VERTEX_MAX, 0, 2, 1))
        with pytest.raises(ValueError):
            dim_invariants(principal_series(1), SubgroupSpec(Family.VERTEX_CONGRUENCE, -1, 2, 1))

    @pytest.mark.parametrize("q, d", [(2, 1), (3, 1), (4, 1), (3, 2), (2, 3)])
    def test_chain_factor_is_the_multiplier_of_b(self, q, d):
        # the kernel's (1,1) column is the hand-written factor and its (2) column is 1, so a dimension is a + factor * b
        t = q**d
        for j in range(5):
            specs = [SubgroupSpec(fam, j, q, d) for fam in CHAINS]
            factors = [chain_factor(fam, j, t) for fam in CHAINS]
            assert count_columns([P(2), P(1, 1)], specs) == [[1, factor] for factor in factors]
            for spec, factor in zip(specs, factors):
                for a, b in ((0, 1), (-1, 1), (5, 0), (-6, 3)):
                    assert dim_invariants(CoefficientMap(2, {P(2): a, P(1, 1): b}), spec) == a + factor * b

    def test_consistency_with_germ_machinery(self):
        for _, cmap in catalog(3):
            a, b = ab_coefficients(cmap)
            for fam in CHAINS:
                for j in range(4):
                    spec = SubgroupSpec(fam, j, 3, 1)
                    value = a + chain_factor(fam, j, 3) * b
                    assert dim_fixed(cmap, spec) == value
                    if value < 0:
                        with pytest.raises(ValueError, match=rf"^chain formula gives {value} < 0 at depth {j}: "):
                            dim_invariants(cmap, spec)
                    else:
                        assert dim_invariants(cmap, spec) == value

    def test_chain_formula_only_on_pro_p_families(self):
        pro_p = {fam for fam in Family if fam.is_pro_p}
        assert pro_p == {Family.PRO_P_IWAHORI_HALF, Family.VERTEX_CONGRUENCE, Family.IWAHORI_CONGRUENCE}
        for fam in set(Family) - pro_p:
            with pytest.raises(ValueError) as info:
                dim_invariants(finite_dim(1), SubgroupSpec(fam, 0, 3, 1))
            assert str(info.value) == f"chain formulas exist for the pro-p families only, got {fam.token}"

    def test_a_family_that_is_not_a_family_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"^family must be a Family, got 'K'$"):
            dim_invariants(STEINBERG, SubgroupSpec("K", 0, 2, 1))

    @pytest.mark.parametrize("spec", [None, "K", Family.VERTEX_CONGRUENCE, (Family.VERTEX_CONGRUENCE, 0, 2, 1)])
    def test_a_value_that_is_not_a_spec_is_a_value_error(self, spec):
        # a tuple of the right fields is not a chain member either
        with pytest.raises(ValueError, match=rf"^a chain formula needs a SubgroupSpec, got {re.escape(repr(spec))}$"):
            dim_invariants(STEINBERG, spec)


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
        with pytest.raises(ValueError, match=r"^mod-p supersingular data requires an odd prime p, got 2$"):
            modp_supersingular_dims(True, Family.PRO_P_IWAHORI_HALF, 0, 2)
        with pytest.raises(ValueError, match=r"^p must be a prime, got 9$"):
            modp_supersingular_dims(True, Family.PRO_P_IWAHORI_HALF, 0, 9)

    def test_ichain_not_tabulated(self):
        with pytest.raises(ValueError):
            modp_supersingular_dims(True, Family.IWAHORI_CONGRUENCE, 0, 3)

    def test_a_family_that_is_not_a_family_is_a_value_error(self):
        # the one spec the mod-p rows build checks the family before its token is read
        with pytest.raises(ValueError, match=r"^family must be a Family, got 'K'$"):
            modp_supersingular_dims(True, "K", 0, 3)


class TestCatalogMaps:
    def test_examples(self):
        assert STEINBERG.items() == [(P(2), -1), (P(1, 1), 1)]
        assert principal_series(1).items() == [(P(1, 1), 1)]
        assert CUSPIDAL_STEINBERG.items() == [(P(2), -2), (P(1, 1), 1)]


class TestSpehPairs:
    def test_valid_split(self):
        z, l = speh_ess_pair(dim_pi2=2, dim_sigma=4, b_speh=1)
        az, bz = ab_coefficients(z)
        al, bl = ab_coefficients(l)
        assert az + al == 0
        assert bz + bl == 4
        assert bz >= 1 and bl >= 1

    def test_invalid_split(self):
        with pytest.raises(ValueError):
            speh_ess_pair(2, 4, 0)
        with pytest.raises(ValueError):
            speh_ess_pair(2, 4, 4)

    def test_pair_validation(self):
        with pytest.raises(ValueError, match=r"^dimension must be >= 1, got 0$"):
            speh_ess_pair(0, 4, 1)
        with pytest.raises(ValueError, match=r"^both b splits must be >= 1 and sum to dim_sigma = 4; got 0 \+ 4$"):
            speh_ess_pair(2, 4, 0)

    def test_catalog_is_concrete(self):
        entries = catalog(3)
        labels = [label for label, _ in entries]
        assert len(labels) == len(set(labels)) == 11
        assert all(isinstance(c, CoefficientMap) and c.n == 2 for _, c in entries)
        assert [c for _, c in catalog(5)][:8] == [c for _, c in entries][:8]  # only the supercuspidals read q

    def test_catalog_is_a_fresh_list_per_call(self):
        # built once per q, but no caller's edit of the list it gets reaches the next caller
        expected = catalog(7)
        first = catalog(7)
        assert first == expected and first is not expected
        first[0] = ("edited", STEINBERG)
        first.append(("appended", STEINBERG))
        del first[1]
        assert catalog(7) == expected
        assert catalog(7)[0][0] == "trivial" and len(catalog(7)) == 11

    def test_catalog_refuses_a_bad_q_on_every_call(self):
        catalog(3)
        for q in (6, 6, 3.0, True):  # a refusal is not kept, and 3.0 is not served the entries of 3
            with pytest.raises(ValueError):
                catalog(q)
