import copy
import json
import math
import pickle
import random
import re
import time
from itertools import chain, combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from germkit import cli, germ
from germkit.cosets import Family, SubgroupSpec, base_count
from germkit.germ import (
    CoefficientMap,
    PositivityError,
    closed_form_multiplicity_matrix,
    dim_fixed,
    dimension_polynomial,
    forward_multiplicities,
    gk_dimension,
    induce_maps,
    jl_transfer,
    lj_transfer,
    multiplicity_polynomials,
    solve_from_multiplicities,
    whittaker_dims,
)
from germkit.oracle import centralizer_order, gl_order, multiplicity_matrix
from germkit.partitions import (
    Partition,
    d_of,
    dominance_leq,
    dual,
    enumerate_partitions,
    minimal_elements,
    scale_partition,
)
from germkit.qpoly import QPoly, q_factorial, q_int, q_multinomial


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
        c = CoefficientMap(2, {P(2): 0, P(1, 1): 0})
        assert c.is_zero() and c == CoefficientMap.zero(2)
        assert c.value(P(2)) == 0
        assert CoefficientMap(2, {P(2): 3, P(1, 1): 0}).support() == {P(2)}
        # values of one partition accumulate under +, and an entry that cancels is not stored
        assert (CoefficientMap(2, {P(2): 1, P(1, 1): 2}) + CoefficientMap(2, {P(2): -1})).support() == {P(1, 1)}

    def test_wrong_n_rejected(self):
        with pytest.raises(ValueError):
            CoefficientMap(2, {P(3): 1})
        with pytest.raises(ValueError):
            CoefficientMap(0, {})
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
        data = json.loads(cli._json_text(cli._map_json(c)))
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


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_values_copy_and_pickle_and_stay_immutable(clone):
    dp = dimension_polynomial(steinberg(), Family.VERTEX_CONGRUENCE, 2, 1)
    values = [(P(3, 1), "n"), (QPoly([1, 0, 2]), "degree"), (steinberg(), "n"), (dp, "poly"), (dp.poly, "degree")]
    for value, field in values:
        twin = clone(value)
        assert twin == value and type(twin) is type(value)
        with pytest.raises(AttributeError):
            setattr(twin, field, getattr(value, field))


class TestSupport:
    def test_support_and_minimal(self):
        c = steinberg()
        assert c.support() == {P(2), P(1, 1)}
        assert minimal_elements(c.support()) == {P(1, 1)}
        assert minimal_elements(CoefficientMap(4, {P(4): 5}).support()) == {P(4)}
        z = CoefficientMap.zero(3)
        assert z.support() == set() and minimal_elements(z.support()) == set()

    def test_positivity_check(self):
        assert whittaker_dims(steinberg()) == {P(1, 1): 1}
        flipped = CoefficientMap(2, {P(2): 1, P(1, 1): -1})
        with pytest.raises(PositivityError, match=r"^minimal support value must be positive; got \(1,1\): -1$"):
            whittaker_dims(flipped)
        assert whittaker_dims(CoefficientMap(3, {P(3): 7})) == {P(3): 7}
        assert whittaker_dims(CoefficientMap.zero(2)) == {}  # vacuous

    def test_gk_dimension(self):
        assert gk_dimension(CoefficientMap(5, {P(5): 3})) == 0
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

    def test_family_must_be_a_family(self):
        with pytest.raises(ValueError, match="family must be a Family, got None"):
            dimension_polynomial(steinberg(), None, 2, 1)

    def test_value_semantics(self):
        dp = dimension_polynomial(steinberg(), Family.VERTEX_CONGRUENCE, 2, 1)
        assert repr(dp) == "DimensionPolynomial(poly=QPoly([-1, 3]), formal_degree=1, formal_leading=3)"
        same = dimension_polynomial(steinberg(), Family.VERTEX_CONGRUENCE, 2, 1)
        assert dp == same and hash(dp) == hash(same) and dp.degree == 1
        assert dp != dimension_polynomial(steinberg(), Family.VERTEX_CONGRUENCE, 3, 1)
        for name in ("poly", "formal_degree", "formal_leading", "other"):
            with pytest.raises(AttributeError):
                setattr(dp, name, None)

    def test_formal_vs_actual_degree_on_cancellation(self):
        # under I0, (4,1,1) has 30 cosets and (3,3) has 20, both with d = 9: 2 * 30 - 3 * 20 cancels
        c = CoefficientMap(6, {P(4, 1, 1): 2, P(3, 3): -3, P(6): 2})
        dp = dimension_polynomial(c, Family.IWAHORI, 2, 1)
        assert dp.formal_degree == 9
        assert dp.formal_leading == 0
        assert dp.degree == 0  # only the constant term survives
        assert dp.poly == QPoly([2])

    def test_zero_map(self):
        dp = dimension_polynomial(CoefficientMap.zero(2), Family.VERTEX_CONGRUENCE, 2, 1)
        assert dp.poly == QPoly.zero()
        assert dp.formal_degree is None and dp.formal_leading is None

    def test_scaling_remark(self):
        # two routes to the depth-j dimension: the polynomial assembled at depth 0, read at X = (q^d)^j,
        # and the direct sum of the depth-j counts
        rng = random.Random(6)
        for _ in range(20):
            c = random_map(rng.randint(1, 6), rng)
            for fam in (f for f in Family if f.is_pro_p):
                for q, d in ((2, 1), (3, 2)):
                    poly = dimension_polynomial(c, fam, q, d).poly
                    for j in range(5):
                        assert poly.eval_at((q**d) ** j) == dim_fixed(c, SubgroupSpec(fam, j, q, d))

    def test_equals_a_sum_over_the_support(self):
        # each count from base_count's polynomial at t, one partition at a time
        rng = random.Random(34)
        for _ in range(12):
            n = rng.randint(1, 8)
            c, parts = random_map(n, rng), enumerate_partitions(n)
            for fam, (q, d) in product(Family, ((2, 1), (3, 2), (4, 3))):
                t = q**d
                count = {lam: base_count(lam, fam).eval_at(t) for lam in parts}
                coeffs = {}
                for lam, v in c.items():
                    coeffs[d_of(lam)] = coeffs.get(d_of(lam), 0) + v * count[lam]
                poly = QPoly([coeffs.get(k, 0) for k in range(max(coeffs, default=-1) + 1)])
                assert dimension_polynomial(c, fam, q, d).poly == poly
                for j in range(4) if fam.is_pro_p else [0]:
                    expected = sum(v * count[lam] * t ** (d_of(lam) * j) for lam, v in c.items())
                    assert dim_fixed(c, SubgroupSpec(fam, j, q, d)) == expected

    def test_parahorics_exist_at_depth_0_only(self):
        for fam in (Family.VERTEX_MAX, Family.IWAHORI):
            dp = dimension_polynomial(steinberg(), fam, 3, 1)
            assert dp.poly.eval_at(1) == dim_fixed(steinberg(), SubgroupSpec(fam, 0, 3, 1))
            with pytest.raises(ValueError, match=f"^family {fam.token} is depth-0 only, got depth 3$"):
                SubgroupSpec(fam, 3, 3, 1)

    def test_pro_p_chains_take_any_depth(self):
        # Steinberg's P is -1 + (t + 1)X on K, -1 + 2X on Ihalf and -1 + 2tX on I; at depth 5, t = 3, X = 3^5
        expected = {Family.VERTEX_CONGRUENCE: -1 + 4 * 3**5, Family.PRO_P_IWAHORI_HALF: -1 + 2 * 3**5,
                    Family.IWAHORI_CONGRUENCE: -1 + 6 * 3**5}
        assert {fam: dim_fixed(steinberg(), SubgroupSpec(fam, 5, 3, 1)) for fam in expected} == expected

    @staticmethod
    def _jacobi_trudi(rho):
        """c_rho(mu) = sum over w of sign(w) [no rho_i - i + w(i) is negative, and the sorted positive ones are mu]."""
        out = {}
        for w in permutations(range(len(rho))):
            parts = [p - i + wi for i, (p, wi) in enumerate(zip(rho, w))]
            if min(parts) >= 0:
                mu = Partition(sorted((p for p in parts if p), reverse=True))
                sign = (-1) ** sum(a > b for a, b in combinations(w, 2))
                out[mu] = out.get(mu, 0) + sign
        return CoefficientMap(rho.n, out)

    def test_jacobi_trudi_law(self):
        # s_rho = det(h_(rho_i - i + j)): K gives the q-hook formula, I0 the standard tableaux, K0 one for (n)
        assert self._jacobi_trudi(P(1, 1)) == steinberg()
        for n in range(1, 8):
            for rho in enumerate_partitions(n):
                c, cols = self._jacobi_trudi(rho), dual(rho)
                hooks = [p - j + cols[j] - i - 1 for i, p in enumerate(rho) for j in range(p)]
                n_rho = sum(i * p for i, p in enumerate(rho))
                assert dim_fixed(c, SubgroupSpec(Family.IWAHORI, 0, 2, 1)) == math.factorial(n) // math.prod(hooks)
                assert dim_fixed(c, SubgroupSpec(Family.VERTEX_MAX, 0, 2, 1)) == (1 if rho == P(n) else 0)
                for q in (2, 3, 4):
                    hook_product = math.prod(q_int(h).eval_at(q) for h in hooks)
                    q_hook = q**n_rho * q_factorial(n).eval_at(q) // hook_product
                    assert dim_fixed(c, SubgroupSpec(Family.VERTEX_CONGRUENCE, 0, q, 1)) == q_hook

    def test_dim_fixed_examples(self):
        assert dim_fixed(steinberg(), SubgroupSpec(Family.VERTEX_CONGRUENCE, 0, 3, 1)) == 3
        triv = CoefficientMap.indicator(P(2))
        for fam in Family:
            assert dim_fixed(triv, SubgroupSpec(fam, 0, 2, 1)) == 1
        c = CoefficientMap(2, {P(1, 1): 2})
        assert dim_fixed(c, SubgroupSpec(Family.PRO_P_IWAHORI_HALF, 2, 2, 1)) == 16

    def test_degree_is_independent_of_the_subgroup(self):
        # the paper's d(pi) is the same for every K: max d_lam over the support
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(1, 6)
            parts = enumerate_partitions(n)
            support = rng.sample(parts, rng.randint(1, len(parts)))
            c = CoefficientMap(n, {lam: rng.choice((-1, 1)) * rng.randint(1, 5) for lam in support})
            for fam in Family:
                for q, d in ((2, 1), (3, 2), (4, 1)):
                    assert dimension_polynomial(c, fam, q, d).formal_degree == gk_dimension(c)


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

    @staticmethod
    def lj_by_enumeration(c, n, d):
        """The reference: c'(lam) = (-1)^(dn-n) * c(d*lam) at every partition lam of n."""
        sign = (-1) ** (d * n - n)
        return CoefficientMap(n, {lam: sign * c.value(scale_partition(lam, d)) for lam in enumerate_partitions(n)})

    def test_equals_the_enumeration_on_random_maps(self):
        rng = random.Random(14)
        for _ in range(300):
            d = rng.randint(1, 6)
            n = rng.randint(1, 18 // d)
            parts = enumerate_partitions(d * n)
            support = rng.sample(parts, rng.randint(0, len(parts)))
            c = CoefficientMap(d * n, {lam: rng.randint(-5, 5) for lam in support})
            assert lj_transfer(c, n, d) == self.lj_by_enumeration(c, n, d)

    def test_reads_the_support_not_every_partition(self, within_budget):
        # p(70) is about 4 * 10^6, so enumerating the partitions of n would take over a minute
        c = CoefficientMap.indicator(P(70))
        start = time.perf_counter()
        assert lj_transfer(c, 70, 1) == c
        assert lj_transfer(c, 35, 2) == CoefficientMap(35, {P(35): -1})
        within_budget(time.perf_counter() - start, 0.01)

    def test_square_integrable_top_coeff_is_the_transfer_of_a_point(self):
        # a square-integrable class of GL_n carries (-1)^(n-1) times the transferred dimension at (n)
        for dim, n, top in ((1, 2, -1), (7, 1, 7), (2, 3, 2)):
            assert jl_transfer(CoefficientMap(1, {P(1): dim}), n) == CoefficientMap(n, {P(n): top})


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
        assert whittaker_dims(CoefficientMap(4, {P(4): 9})) == {P(4): 9}

    def test_induced_steinberg(self):
        ind = induce_maps([steinberg(), CoefficientMap.indicator(P(1))])
        assert whittaker_dims(ind) == {P(1, 1, 1): 1}

    def test_positivity_failure(self):
        with pytest.raises(PositivityError):
            whittaker_dims(CoefficientMap(2, {P(2): 1, P(1, 1): -1}))
        # (3,3) and (4,1,1) are incomparable, so both are minimal; the error names each bad one in canonical order
        c = CoefficientMap(6, {P(6): 4, P(3, 3): -1, P(4, 1, 1): -2})
        with pytest.raises(PositivityError) as info:
            whittaker_dims(c)
        assert str(info.value) == "minimal support value must be positive; got (4,1,1): -2, (3,3): -1"
        with pytest.raises(PositivityError) as info:
            whittaker_dims(c + CoefficientMap(6, {P(3, 3): 4}))
        assert str(info.value) == "minimal support value must be positive; got (4,1,1): -2"
        assert list(whittaker_dims(c.scale(-1))) == [P(4, 1, 1), P(3, 3)]


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

    @staticmethod
    def _assert_column_sums(n, q):
        # each element of n_mu(F_q) is nilpotent and lies in the orbit of exactly one A_lam
        M = closed_form_multiplicity_matrix(n, q)
        for mu in M:
            orbits = sum(M[lam][mu] * (gl_order(n, q) // centralizer_order(lam, q)) for lam in M)
            assert orbits == q ** d_of(mu) * q_multinomial(mu).eval_at(q), (n, q, mu)

    @pytest.mark.parametrize("n", range(1, cli.SOLVE_MAX_N + 1))
    def test_column_sums_count_the_nilradicals(self, n):
        for q in (2, 3, 4, 5, 7, 8, 9):
            self._assert_column_sums(n, q)

    @settings(max_examples=40)
    @given(st.integers(1, 8), st.sampled_from((2, 3, 5, 7, 11, 13, 101, 65537, 10**9 + 7)), st.integers(1, 4))
    def test_column_sums_at_random_prime_powers(self, n, p, k):
        self._assert_column_sums(n, p**k)

    def test_negative_hall_exponent_is_an_arithmetic_error(self, monkeypatch):
        # with n(rho) read as 0, the strip of (1,1) to the empty partition gets q^(-1)
        monkeypatch.setattr(germ, "_n_from_dual", lambda parts: 0)
        with pytest.raises(ArithmeticError, match=r"has q\^-1"):
            germ._multiplicity_polynomials.__wrapped__(2)  # the unmemoised build


def _map_on(n):
    """Coefficient maps on the partitions of n, values in -4..4."""
    parts = enumerate_partitions(n)
    values = st.lists(st.integers(-4, 4), min_size=len(parts), max_size=len(parts))
    return values.map(lambda vs: CoefficientMap(n, dict(zip(parts, vs))))


def _maps(max_n=3):
    return st.integers(1, max_n).flatmap(_map_on)


def _gather(parts):
    """The parts of several partitions, sorted decreasingly: the partition the induced entry lands on."""
    return Partition(sorted(chain(*parts), reverse=True))


def _induce_by_product(maps):
    """induce_maps summed over every tuple of support entries at once."""
    acc = {}
    for combo in product(*(m.items() for m in maps)):
        lam = _gather(lam_i for lam_i, _ in combo)
        acc[lam] = acc.get(lam, 0) + math.prod(v for _, v in combo)
    return CoefficientMap(sum(m.n for m in maps), acc)


def _induce_pairwise(maps):
    """induce_maps as it folded before its partial products were plain dicts: one checked map per step."""
    acc = maps[0]
    for m in maps[1:]:
        step = {}
        right = m.items()
        for lam, a in acc.items():
            for mu, b in right:
                nu = _gather((lam, mu))
                step[nu] = step.get(nu, 0) + a * b
        acc = CoefficientMap(acc.n + m.n, step)
    return acc


def _typed_entries(m):
    """n and the entries of m in canonical order, with the type of each key."""
    return m.n, [(lam, type(lam), v) for lam, v in m.items()]


class TestPlainDictFold:
    """induce_maps against the fold it replaced, which built one checked map per step."""

    @settings(max_examples=200)
    @given(st.lists(_maps(), min_size=1, max_size=4))
    @example([CoefficientMap(2, {P(2): 1, P(1, 1): 1}), CoefficientMap(2, {P(1, 1): 1, P(2): -1})])
    @example([CoefficientMap(2, {P(2): 1, P(1, 1): 1}), CoefficientMap(2, {P(1, 1): 1, P(2): -1}), steinberg()])
    def test_induce_equals_the_pairwise_fold(self, maps):
        # (2)(1,1) and (1,1)(2) gather to (2,1,1) with values 1 and -1: the entry cancels to zero
        assert _typed_entries(induce_maps(maps)) == _typed_entries(_induce_pairwise(maps))


class TestLawsAsProperties:
    @settings(max_examples=200)
    @given(st.lists(_maps(), min_size=1, max_size=4))
    def test_induce_equals_the_product_route(self, maps):
        assert induce_maps(maps) == _induce_by_product(maps)

    @settings(max_examples=200)
    @given(st.lists(_maps(), min_size=1, max_size=4).flatmap(lambda ms: st.tuples(st.just(ms), st.permutations(ms))))
    def test_induce_is_independent_of_argument_order(self, case):
        maps, shuffled = case
        assert induce_maps(shuffled) == induce_maps(maps)

    @settings(max_examples=200)
    @given(st.lists(_maps(), min_size=1, max_size=3), st.data())
    def test_induce_is_multilinear(self, maps, data):
        i = data.draw(st.integers(0, len(maps) - 1))
        other = data.draw(_map_on(maps[i].n))
        k = data.draw(st.integers(-3, 3))
        mixed = maps[:i] + [maps[i].scale(k) + other] + maps[i + 1 :]
        swapped = maps[:i] + [other] + maps[i + 1 :]
        assert induce_maps(mixed) == induce_maps(maps).scale(k) + induce_maps(swapped)

    @settings(max_examples=200)
    @given(_maps(max_n=5), st.integers(1, 3))
    def test_lj_after_jl_is_the_identity(self, c, d):
        assert lj_transfer(jl_transfer(c, d), c.n, d) == c

    @settings(max_examples=200)
    @given(_maps(max_n=4), st.sampled_from((2, 3, 4, 5)))
    def test_solve_after_forward_is_the_identity(self, c, q):
        M = closed_form_multiplicity_matrix(c.n, q)
        assert solve_from_multiplicities(forward_multiplicities(c, M), M) == c


def test_readme_quick_tour_runs(capsys):
    """The README's Python block runs as written and prints what its comments say."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (tour,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(tour, {})
    assert capsys.readouterr().out == "-1 + 4X\n35\n"
