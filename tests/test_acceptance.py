"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass/fail
line per criterion (plus an explicit PASS print from each).  Every
comparison is exact integer or polynomial equality; the stated time
budgets are asserted where they are meaningful, scaled to the host's
speed by the `within_budget` fixture (tests/conftest.py).
"""

import random
import time

from germkit.cosets import Family, SubgroupSpec, count_at_depth
from germkit.germ import (
    CoefficientMap,
    dim_fixed,
    dimension_polynomial,
    forward_multiplicities,
    induce_maps,
    jl_transfer,
    lj_transfer,
    solve_from_multiplicities,
    whittaker_dims,
)
from germkit.gl2 import STEINBERG, ab_coefficients, catalog, dim_invariants, modp_supersingular_dims, principal_series
from germkit.oracle import flag_orbit_count, multiplicity_matrix
from germkit.partitions import (
    Partition,
    d_of,
    dominance_leq,
    dual,
    enumerate_partitions,
)
from germkit.qpoly import q_multinomial

PRO_P = (Family.PRO_P_IWAHORI_HALF, Family.VERTEX_CONGRUENCE, Family.IWAHORI_CONGRUENCE)


def P(*parts):
    return Partition(parts)


def test_criterion_01_d_lists(within_budget):
    """d-value lists for n = 2..6, injectivity below 6 and the collision at 6."""
    start = time.perf_counter()

    def d_list(n):
        return {lam: d_of(lam) for lam in enumerate_partitions(n)}

    assert d_list(2) == {P(2): 0, P(1, 1): 1}
    assert d_list(3) == {P(3): 0, P(2, 1): 2, P(1, 1, 1): 3}
    assert d_list(4) == {P(4): 0, P(3, 1): 3, P(2, 2): 4, P(2, 1, 1): 5, P(1, 1, 1, 1): 6}
    assert d_list(5) == {
        P(5): 0,
        P(4, 1): 4,
        P(3, 2): 6,
        P(3, 1, 1): 7,
        P(2, 2, 1): 8,
        P(2, 1, 1, 1): 9,
        P(1, 1, 1, 1, 1): 10,
    }
    six = d_list(6)
    assert six[P(6)] == 0
    assert six[P(5, 1)] == 5
    assert six[P(4, 2)] == 8
    assert six[P(4, 1, 1)] == 9 == six[P(3, 3)]
    assert six[P(1, 1, 1, 1, 1, 1)] == 15
    assert sorted(six.values())[:4] == [0, 5, 8, 9]
    for n in range(2, 6):
        values = list(d_list(n).values())
        assert len(set(values)) == len(values)
    assert len(set(six.values())) < len(six)
    elapsed = time.perf_counter() - start
    within_budget(elapsed, 0.001)
    print(f"ACCEPTANCE 1: PASS - d-lists n=2..6 exact, collision at n=6 ({elapsed * 1e6:.0f} us)")


def test_criterion_02_coset_counts_vs_oracle(within_budget):
    """q-multinomial evaluations equal exhaustive coset counts, n in {2,3,4}, q in {2,3}."""
    start = time.perf_counter()
    assert flag_orbit_count(P(1, 1, 1), 2) == 21
    assert flag_orbit_count(P(2, 1), 2) == 7
    for n in (2, 3, 4):
        for q in (2, 3):
            for lam in enumerate_partitions(n):
                assert q_multinomial(lam).eval_at(q) == flag_orbit_count(lam, q)
    elapsed = time.perf_counter() - start
    within_budget(elapsed, 30)
    print(f"ACCEPTANCE 2: PASS - coset counts match the exhaustive oracle ({elapsed:.2f} s)")


def test_criterion_03_multiplicity_matrix_unitriangular(within_budget):
    """Dominance-unitriangularity of the depth-one multiplicity matrix, n <= 4 and q in {2,3}, and n in {5, 6}, q = 2."""
    start = time.perf_counter()
    for n, q in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (6, 2)):
        M = multiplicity_matrix(n, q)
        for lam in enumerate_partitions(n):
            assert M[lam][lam] == 1
            for mu in enumerate_partitions(n):
                if not dominance_leq(mu, lam):
                    assert M[lam][mu] == 0
    assert multiplicity_matrix(2, 2)[P(2)][P(1, 1)] == 3
    elapsed = time.perf_counter() - start
    within_budget(elapsed, 10)
    print(f"ACCEPTANCE 3: PASS - multiplicity matrices unitriangular, M[(2)][(1,1)] = 3 ({elapsed:.2f} s)")


def test_criterion_04_solve_round_trip():
    """Forward multiplicities then triangular solve recovers 100 random maps exactly."""
    rng = random.Random(2024)
    matrices = {n: multiplicity_matrix(n, 2) for n in (1, 2, 3)}
    for _ in range(100):
        n = rng.choice((1, 2, 3))
        c = CoefficientMap(n, {lam: rng.randint(-5, 5) for lam in enumerate_partitions(n)})
        m = forward_multiplicities(c, matrices[n])
        assert solve_from_multiplicities(m, matrices[n]) == c
    print("ACCEPTANCE 4: PASS - 100 random maps recovered exactly from multiplicities")


def test_criterion_05_gl2_catalog_consistency():
    """Chain formulas equal the generic machinery for every concrete class, (q,d) grid, j <= 4."""
    assert dim_invariants(STEINBERG, SubgroupSpec(Family.VERTEX_CONGRUENCE, 0, 3, 1)) == 3
    assert dim_invariants(principal_series(2), SubgroupSpec(Family.IWAHORI_CONGRUENCE, 1, 2, 1)) == 16
    checked = 0
    for q in (2, 3, 5):
        for d in (1, 2):
            t = q**d
            # the multiplier of b by hand: 2 t^j on the I-half chain, (t+1) t^j on K and 2t t^j on I
            factors = dict(zip(PRO_P, (2, t + 1, 2 * t)))
            for _, cmap in catalog(q):
                a, b = ab_coefficients(cmap)
                for fam in PRO_P:
                    for j in range(5):
                        spec = SubgroupSpec(fam, j, q, d)
                        assert a + factors[fam] * t**j * b == dim_fixed(cmap, spec)
                        checked += 1
    print(f"ACCEPTANCE 5: PASS - GL_2 catalog consistent with the germ machinery ({checked} identities)")


def test_criterion_06_scaling_law():
    """A depth step multiplies a count by t^(d_lam), and P at X = (q^d)^j is the depth-j dimension, exactly."""
    for q, d in ((2, 1), (3, 2)):
        t = q**d
        for n in range(1, 6):
            parts = enumerate_partitions(n)
            for lam in parts:
                for fam in PRO_P:
                    for j in range(5):
                        assert count_at_depth(lam, SubgroupSpec(fam, j + 1, q, d)) == count_at_depth(
                            lam, SubgroupSpec(fam, j, q, d)
                        ) * t ** d_of(lam)
            mixed = CoefficientMap(n, {lam: (-1) ** i * (i + 1) for i, lam in enumerate(parts)})
            for c in [CoefficientMap.indicator(lam) for lam in parts] + [mixed]:
                for fam in PRO_P:
                    poly = dimension_polynomial(c, fam, q, d).poly
                    for j in range(5):
                        assert poly.eval_at(t**j) == dim_fixed(c, SubgroupSpec(fam, j, q, d))
    print("ACCEPTANCE 6: PASS - scaling law holds, and P(t^j) is dim_fixed at depth j, n <= 5")


def test_criterion_07_transfer_round_trip():
    """lj after jl is the identity up to n = 6; the Steinberg sign case transfers to 1."""
    rng = random.Random(7)
    for n in range(1, 7):
        for d in (1, 2, 3):
            for lam in enumerate_partitions(n):
                c = CoefficientMap(lam.n, {lam: rng.randint(1, 9)})
                assert lj_transfer(jl_transfer(c, d), n, d) == c
            c = CoefficientMap(n, {lam: rng.randint(-9, 9) for lam in enumerate_partitions(n)})
            assert lj_transfer(jl_transfer(c, d), n, d) == c
    steinberg = CoefficientMap(2, {P(2): -1, P(1, 1): 1})
    transferred = lj_transfer(steinberg, 1, 2)
    assert transferred.value(P(1)) == 1
    assert transferred == CoefficientMap(1, {P(1): 1})
    print("ACCEPTANCE 7: PASS - transfer round trips, Steinberg lands on the 1-dimensional class")


def test_criterion_08_induction_and_whittaker():
    """Induced Steinberg map and its Whittaker readout at minimal support."""
    steinberg = CoefficientMap(2, {P(2): -1, P(1, 1): 1})
    induced = induce_maps([steinberg, CoefficientMap.indicator(P(1))])
    assert induced == CoefficientMap(3, {P(2, 1): -1, P(1, 1, 1): 1})
    assert whittaker_dims(induced) == {P(1, 1, 1): 1}
    print("ACCEPTANCE 8: PASS - induction convolution and Whittaker readout exact")


def test_criterion_09_dominance_dual_properties(within_budget):
    """Involution, antitonicity, order axioms and d-monotonicity, exhaustive to n = 10."""
    start = time.perf_counter()
    for n in range(1, 11):
        parts = enumerate_partitions(n)
        leq = {(a, b): dominance_leq(a, b) for a in parts for b in parts}
        for a in parts:
            assert dual(dual(a)) == a
            assert leq[(a, a)]
        for a in parts:
            for b in parts:
                assert leq[(a, b)] == dominance_leq(dual(b), dual(a))
                if leq[(a, b)]:
                    assert d_of(a) >= d_of(b)
                if leq[(a, b)] and leq[(b, a)]:
                    assert a == b
        for a in parts:
            for b in parts:
                if not leq[(a, b)]:
                    continue
                for c in parts:
                    if leq[(b, c)]:
                        assert leq[(a, c)]
    elapsed = time.perf_counter() - start
    within_budget(elapsed, 1)
    print(f"ACCEPTANCE 9: PASS - dominance and duality properties exhaustive to n=10 ({elapsed:.2f} s)")


def test_criterion_10_modp_catalog():
    """Mod-p supersingular dimensions reproduce the tabulated values exactly."""
    assert modp_supersingular_dims(True, Family.PRO_P_IWAHORI_HALF, 0, 3) == 2
    assert modp_supersingular_dims(False, Family.PRO_P_IWAHORI_HALF, 0, 3) == 2
    assert modp_supersingular_dims(True, Family.VERTEX_CONGRUENCE, 0, 3) == 5
    assert modp_supersingular_dims(False, Family.VERTEX_CONGRUENCE, 1, 3) == 20
    print("ACCEPTANCE 10: PASS - mod-p supersingular dimensions exact")
