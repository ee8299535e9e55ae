import random
from collections import Counter
from itertools import accumulate, permutations, product, takewhile

import pytest
from hypothesis import given, settings, strategies as st

from germkit.oracle import (
    DEFAULT_CAP,
    FqMatrix,
    OracleBoundError,
    OracleConsistencyError,
    _echelon,
    _identity,
    build_A_lambda,
    centralizer_order,
    count_parabolic_cosets,
    flag_orbit_count,
    gl_order,
    iter_matrices,
    multiplicity_matrix,
    nilpotent_census,
    nilpotent_partition,
    parabolic_order,
    xi_multiplicity,
)
from germkit.germ import closed_form_multiplicity_matrix
from germkit.partitions import Partition, d_of, dominance_leq, enumerate_partitions


def P(*parts):
    return Partition(parts)


# ---------------------------------------------------------------------------
# references: plain functions on row tuples over F_q, independent of the oracle's kernels


def _mat_mul(a, b, q):
    """The matrix product of row tuples, entries reduced mod q."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % q for col in cols) for row in a)


def _power(rows, k, q):
    """X^k by repeated multiplication, k >= 0."""
    acc = _identity(len(rows))
    for _ in range(k):
        acc = _mat_mul(acc, rows, q)
    return acc


def _leibniz_det(rows, q):
    """det as the signed sum over permutations, independent of any elimination."""
    n, total = len(rows), 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total % q


def _gauss_jordan(rows, q):
    """Textbook reduced row echelon form, column by column; zero rows dropped."""
    mat, rank = [list(r) for r in rows], 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] % q), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], q - 2, q)
        mat[rank] = [(x * inv) % q for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(x - f * y) % q for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return tuple(tuple(r) for r in mat[:rank])


def _invertible(rows, q):
    """A square X is invertible when its Gauss-Jordan rank is n."""
    return len(_gauss_jordan(rows, q)) == len(rows)


def _inverse(rows, q):
    """g^(-1) for an invertible g: the right half of the Gauss-Jordan form of [g | I]."""
    n = len(rows)
    return tuple(r[n:] for r in _gauss_jordan([tuple(r) + e for r, e in zip(rows, _identity(n))], q))


def _conjugate(g, X, q):
    """g X g^(-1)."""
    return _mat_mul(_mat_mul(g, X, q), _inverse(g, q), q)


def _block_of(lam, i):
    """The block of lam that holds position i, zero-based."""
    return next(b for b, end in enumerate(accumulate(lam)) if i < end)


def _in_p(lam, i, j):
    """Position (i, j), zero-based, lies in p_lam: block(i) <= block(j)."""
    return _block_of(lam, i) <= _block_of(lam, j)


def _in_n(lam, i, j):
    """Position (i, j), zero-based, lies in the nilradical n_lam: block(i) < block(j)."""
    return _block_of(lam, i) < _block_of(lam, j)


def _nilradical_contains(lam, rows):
    n = lam.n
    return all(rows[i][j] == 0 for i in range(n) for j in range(n) if not _in_n(lam, i, j))


def random_invertible(n, q, rng):
    """Uniform element of GL_n(F_q), as rows, by rejection sampling."""
    while True:
        rows = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n))
        if _invertible(rows, q):
            return rows


def random_nilpotent(n, q, rng):
    """Random nilpotent matrix, as rows: a random strictly upper triangular one, conjugated."""
    upper = tuple(tuple(rng.randrange(q) if j > i else 0 for j in range(n)) for i in range(n))
    return _conjugate(random_invertible(n, q, rng), upper, q)


def _reference_jumps(rows, q):
    """Kernel jumps from the Gauss-Jordan rank of X^k for k = 0..n, with X^k formed by _mat_mul."""
    ranks = [len(_gauss_jordan(_power(rows, k, q), q)) for k in range(len(rows) + 1)]
    return tuple(takewhile(lambda jump: jump > 0, (a - b for a, b in zip(ranks, ranks[1:]))))


class TestFqMatrix:
    """FqMatrix as a validated value, and the references the checks are compared against."""

    def test_prime_field_only(self):
        with pytest.raises(ValueError):
            FqMatrix(4, [[1]])
        with pytest.raises(ValueError):
            FqMatrix(6, [[1]])
        with pytest.raises(ValueError):
            FqMatrix(1, [[1]])

    def test_entries_reduced(self):
        m = FqMatrix(3, [[4, -1], [3, 5]])
        assert m.rows == ((1, 2), (0, 2))

    def test_shape_checked(self):
        for rows in ([], [[1, 2], [3]]):
            with pytest.raises(ValueError, match="nonempty and of equal length"):
                FqMatrix(3, rows)

    def test_immutable_hashable_and_printed(self):
        m = FqMatrix(3, [[4, -1], [3, 5]])
        with pytest.raises(AttributeError):
            m.q = 5
        assert len({m, FqMatrix(3, [[1, 2], [0, 2]]), FqMatrix(5, [[1, 2], [0, 2]])}) == 2
        assert repr(m) == "FqMatrix(q=3, rows=[[1, 2], [0, 2]])"

    def test_mul_identity(self):
        rng = random.Random(5)
        for q in (2, 3, 5):
            e = _identity(3)
            g = random_invertible(3, q, rng)
            assert _mat_mul(g, e, q) == g and _mat_mul(e, g, q) == g

    def test_inverse(self):
        rng = random.Random(6)
        for q in (2, 3, 5):
            for _ in range(20):
                g = random_invertible(3, q, rng)
                assert _mat_mul(g, _inverse(g, q), q) == _identity(3)
                assert _mat_mul(_inverse(g, q), g, q) == _identity(3)
        assert not _invertible(((0, 0), (0, 0)), 3)
        assert not _invertible(((1, 0, 0), (0, 1, 0), (1, 2, 0)), 3)  # rank 2, two unit pivots

    def test_det_multiplicative(self):
        # the product reference against the Leibniz determinant
        rng = random.Random(7)
        for _ in range(30):
            a = random_invertible(3, 5, rng)
            b = tuple(tuple(rng.randrange(5) for _ in range(3)) for _ in range(3))
            assert _leibniz_det(_mat_mul(a, b, 5), 5) == (_leibniz_det(a, 5) * _leibniz_det(b, 5)) % 5

    def test_invertible_iff_leibniz_det_nonzero(self):
        for n, q in ((2, 3), (3, 2)):
            for rows in iter_matrices(n, q):
                assert _invertible(rows, q) == (_leibniz_det(rows, q) != 0)
        rng = random.Random(8)
        for n in (4, 5):
            for q in (3, 5, 7):
                for _ in range(40):
                    rows = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n))
                    assert _invertible(rows, q) == (_leibniz_det(rows, q) != 0)

    def test_rref_against_gauss_jordan(self):
        for n, q in ((2, 3), (3, 2)):
            for rows in iter_matrices(n, q):
                assert _echelon(rows, ((0, n),), q) == _gauss_jordan(rows, q)
        rng = random.Random(9)
        for q in (2, 3, 5, 7):
            for _ in range(200):
                k, n = rng.randint(1, 6), rng.randint(1, 8)
                rows = [tuple(rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(n)) for _ in range(k)]
                assert _echelon(rows, ((0, k),), q) == _gauss_jordan(rows, q)

    def test_rank(self):
        for rows, rank in ((_identity(3), 3), (((0,) * 3,) * 3, 0), (((1, 1), (1, 1)), 1)):
            assert len(_gauss_jordan(rows, 2)) == len(_echelon(rows, ((0, len(rows)),), 2)) == rank

    def test_power_and_nilpotent(self):
        from germkit.oracle import _kernel_jumps

        a = build_A_lambda(P(1, 1, 1), 3).rows
        assert _power(a, 0, 3) == _identity(3)
        assert _power(a, 3, 3) == ((0,) * 3,) * 3
        assert sum(_kernel_jumps(a, 3)) == 3
        assert _kernel_jumps(_identity(2), 3) == ()


class TestParabolicShape:
    """The block predicates of the parabolic p_lam and its nilradical n_lam."""

    def test_block_predicates(self):
        lam = P(2, 1)
        assert _block_of(lam, 0) == 0 and _block_of(lam, 2) == 1
        assert _in_p(lam, 0, 1) and _in_p(lam, 1, 1) and not _in_p(lam, 2, 0)
        assert _in_n(lam, 0, 2) and not _in_n(lam, 1, 0) and not _in_n(lam, 0, 1)

    def test_nilradical_dim_is_d_of(self):
        # row i of n_mu has one free entry per column in a later block
        for n in range(1, 7):
            for mu in enumerate_partitions(n):
                assert sum(sum(_in_n(mu, i, j) for j in range(n)) for i in range(n)) == d_of(mu)

    def test_membership(self):
        lam = P(2, 1)
        assert _nilradical_contains(lam, ((0, 0, 1), (0, 0, 1), (0, 0, 0)))
        assert not _nilradical_contains(lam, ((0, 1, 0), (0, 0, 0), (0, 0, 0)))

    def test_a_lambda_lies_in_own_nilradical(self):
        for n in range(1, 6):
            for lam in enumerate_partitions(n):
                assert _nilradical_contains(lam, build_A_lambda(lam, 3).rows)


class TestOrders:
    def test_gl_orders(self):
        assert gl_order(2, 2) == 6
        assert gl_order(3, 2) == 168
        assert gl_order(2, 3) == 48
        assert gl_order(4, 3) == 24261120

    def test_parabolic_orders(self):
        assert parabolic_order(P(1, 1), 2) == 2
        assert parabolic_order(P(2, 1), 2) == 24
        assert parabolic_order(P(3), 2) == 168

    def test_orders_reject_out_of_range_ints(self):
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            gl_order(-1, 2)
        with pytest.raises(ValueError, match="q must be >= 2, got 1"):
            gl_order(2, 1)
        with pytest.raises(ValueError, match="q must be >= 2, got 0"):
            centralizer_order(P(1, 1), 0)
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            nilpotent_census(-1, 2)
        assert gl_order(0, 2) == 1

    def test_gl_equals_full_parabolic(self):
        for n in range(1, 5):
            for q in (2, 3):
                assert parabolic_order(Partition([n]), q) == gl_order(n, q)


class TestJordanTypes:
    def test_a_lambda_entries(self):
        assert build_A_lambda(P(3), 2) == FqMatrix(2, [[0] * 3] * 3)
        assert build_A_lambda(P(1, 1), 2).rows == ((0, 1), (0, 0))
        assert build_A_lambda(P(2, 1), 2).rows == ((0, 0, 1), (0, 0, 0), (0, 0, 0))

    def test_zero_matrix_has_full_block_type(self):
        for n in range(1, 5):
            assert nilpotent_partition(FqMatrix(2, [[0] * n] * n)) == Partition([n])

    def test_single_jordan_block(self):
        # the shift of shape (1,...,1) is one Jordan block of size n
        for n in range(2, 6):
            assert nilpotent_partition(build_A_lambda(Partition([1] * n), 3)) == Partition([1] * n)

    def test_a_lambda_round_trip(self):
        for n in range(1, 6):
            for q in (2, 3):
                for lam in enumerate_partitions(n):
                    assert nilpotent_partition(build_A_lambda(lam, q)) == lam

    def test_non_nilpotent_rejected(self):
        with pytest.raises(ValueError):
            nilpotent_partition(FqMatrix(2, _identity(3)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="must be square"):
            nilpotent_partition(FqMatrix(2, [[0, 1, 0], [0, 0, 0]]))

    def test_conjugation_invariance(self):
        rng = random.Random(99)
        for n in (2, 3, 4):
            for q in (2, 3, 5):
                for lam in enumerate_partitions(n):
                    g = random_invertible(n, q, rng)
                    conj = _conjugate(g, build_A_lambda(lam, q).rows, q)
                    assert nilpotent_partition(FqMatrix(q, conj)) == lam

    def test_kernel_jumps_equal_power_reference(self):
        from germkit.oracle import _kernel_jumps

        for n, q in ((3, 2), (2, 5)):
            for rows in iter_matrices(n, q):
                assert _kernel_jumps(rows, q) == _reference_jumps(rows, q)
        rng = random.Random(4242)
        for n in range(1, 7):
            for q in (2, 3, 5, 7):
                for _ in range(10):
                    dense = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n))
                    sparse = tuple(
                        tuple(rng.randrange(q) if rng.random() < 0.2 else 0 for _ in range(n)) for _ in range(n)
                    )
                    nilpotent = random_nilpotent(n, q, rng)
                    invertible = random_invertible(n, q, rng)
                    for rows in (dense, sparse, nilpotent, invertible):
                        assert _kernel_jumps(rows, q) == _reference_jumps(rows, q)

    def test_jump_census_equals_per_matrix_census(self):
        from germkit.oracle import _jump_census, _kernel_jumps

        rng = random.Random(77)
        for n, q in ((1, 5), (2, 3), (3, 2), (3, 3), (4, 2), (3, 5), (4, 3)):
            every_row = list(product(range(q), repeat=n))
            width = min(6, len(every_row))
            grids = [[rng.sample(every_row, rng.randint(1, width)) for _ in range(n)] for _ in range(5)]
            # last rows over all of F_q^n are counted at once off each span of n - 1
            # independent rows; q^n last rows with one repeated are not all of F_q^n
            for last in (every_row, every_row[1:] + every_row[-1:]):
                grids.append(grids[4][:-1] + [rng.sample(last, len(last))])
            if q ** (n * n) <= 512:
                grids.append([every_row] * n)
            for choices in grids:
                expected = Counter(_kernel_jumps(rows, q) for rows in product(*choices))
                assert _jump_census(choices, q) == expected

    def test_scalar_class_census_equals_plain_census(self):
        # every nilradical grid, and every full grid with q^(n^2) <= 65536 (the plain walk streams them all)
        from germkit.oracle import _class_census, _jump_census

        for n in (1, 2, 3, 4):
            for q in (2, 3, 5):
                grids = []
                for mu in enumerate_partitions(n):
                    grids.append([sum(_in_n(mu, i, j) for j in range(n)) for i in range(n)])
                if q ** (n * n) <= 65536:
                    grids.append([n] * n)
                for tails in grids:
                    rows = [[(0,) * (n - m) + t for t in product(range(q), repeat=m)] for m in tails]
                    assert _class_census(tails, q) == _jump_census(rows, q)

    def test_random_nilpotents_give_valid_partitions(self):
        rng = random.Random(31337)
        for n in (2, 3, 4):
            for q in (2, 3, 5):
                for _ in range(1000):
                    X = random_nilpotent(n, q, rng)
                    lam = nilpotent_partition(FqMatrix(q, X))  # constructor enforces weak decrease
                    assert lam.n == n
                    g = random_invertible(n, q, rng)
                    assert nilpotent_partition(FqMatrix(q, _conjugate(g, X, q))) == lam


class TestCosetCounts:
    def test_examples(self):
        assert count_parabolic_cosets(P(1, 1), 2, 2) == 3
        assert count_parabolic_cosets(P(1, 1, 1), 3, 2) == 21
        assert count_parabolic_cosets(P(2, 1), 3, 2) == 7

    def test_full_partition(self):
        for n in (1, 2, 3, 4):
            assert count_parabolic_cosets(Partition([n]), n, 3) == 1

    def test_report_routes_agree(self):
        grid = [(n, 2) for n in range(1, 6)] + [(n, 3) for n in range(1, 5)]
        grid += [(n, q) for n in range(1, 4) for q in (5, 7)]
        for n, q in grid:
            for lam in enumerate_partitions(n):
                assert count_parabolic_cosets(lam, n, q) == gl_order(n, q) // parabolic_order(lam, q)

    def test_column_ops_are_right_multiplication_by_the_generators(self):
        from germkit.oracle import _column_ops, _primitive_root

        rng = random.Random(2024)
        for n in (1, 2, 3, 4):
            for q in (2, 3, 5):
                g = _primitive_root(q)
                c = tuple(tuple(int(j == (i + 1) % n) for j in range(n)) for i in range(n))
                t = tuple(tuple(int(i == j or (i, j) == (0, 1)) for j in range(n)) for i in range(n))
                d = tuple(tuple((g if i == 0 else 1) * int(i == j) for j in range(n)) for i in range(n))
                gens = {"d": d} if n == 1 else {"c": c, "t": t, "d": d}
                if q == 2:
                    del gens["d"]
                ops = _column_ops(n, q)
                assert ops.keys() == gens.keys()
                for _ in range(50):
                    sub = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randint(1, n)))
                    for name, op in ops.items():
                        assert tuple(op(row) for row in sub) == _mat_mul(sub, gens[name], q)

    def test_against_literal_group_stream(self):
        # third route: map every group element to its flag and count distinct images
        for n, q in ((2, 2), (2, 3), (3, 2), (3, 3)):
            for lam in enumerate_partitions(n):
                dims, acc = [], 0
                for part in lam.parts[:-1]:
                    acc += part
                    dims.append(acc)
                std = tuple(_identity(n)[:m] for m in dims)
                flags = set()
                for rows in iter_matrices(n, q):
                    if _invertible(rows, q):
                        flags.add(tuple(_gauss_jordan(_mat_mul(sub, rows, q), q) for sub in std))
                assert len(flags) == count_parabolic_cosets(lam, n, q)

    def test_wrong_n_rejected(self):
        with pytest.raises(ValueError):
            count_parabolic_cosets(P(2, 1), 4, 2)

    def test_cap(self):
        with pytest.raises(OracleBoundError, match="coset space"):
            count_parabolic_cosets(P(1, 1, 1), 3, 2, cap=5)
        with pytest.raises(OracleBoundError, match="flag orbit"):
            flag_orbit_count(P(1, 1, 1), 3, cap=5)
        assert flag_orbit_count(P(1, 1, 1), 3, cap=52) == 52  # (1+3)(1+3+9) flags: a cap equal to the orbit passes

    def test_direct_search_is_charged_before_its_first_flag(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("a flag was searched")

        for step in ("_column_ops", "_echelon", "_reduce_lead_row"):
            monkeypatch.setattr(f"germkit.oracle.{step}", no_search)
        # the (1^6) orbit over F_2 has 615,195 flags
        with pytest.raises(OracleBoundError, match="has 615195 elements, above the cap 200000"):
            flag_orbit_count(Partition([1] * 6), 2, cap=200_000)

    def test_non_canonical_keys_are_an_invariant_violation(self, monkeypatch):
        keys = iter(range(10**6))
        monkeypatch.setattr("germkit.oracle._pack", lambda form, q: next(keys))  # every image looks new
        with pytest.raises(OracleConsistencyError, match="found more than the 7 flags"):
            flag_orbit_count(P(2, 1), 2)


@st.composite
def _shape_over_small_prime(draw):
    """(lam, q, seed): a partition of n <= 5 and a prime q <= 7."""
    lam = draw(st.sampled_from(enumerate_partitions(draw(st.integers(1, 5)))))
    return lam, draw(st.sampled_from((2, 3, 5, 7))), draw(st.integers(0, 2**32))


class TestFlagFormProperties:
    @settings(max_examples=300, deadline=None, database=None)
    @given(_shape_over_small_prime())
    def test_packed_key_is_a_complete_flag_invariant(self, case):
        from germkit.oracle import _pack

        lam, q, seed = case
        rng = random.Random(seed)
        ends = list(accumulate(lam.parts[:-1]))
        blocks = list(zip([0] + ends, ends))
        m = sum(lam.parts[:-1])
        rows = random_invertible(lam.n, q, rng)[:m]
        form = _echelon(rows, blocks, q)
        key = _pack(form, q)
        assert _echelon(form, blocks, q) == form
        # an element of P_lam on the basis rows: invertible blocks on the diagonal, anything below them
        mix = [[0] * m for _ in range(m)]
        for a, b in blocks:
            diag = random_invertible(b - a, q, rng)
            for i in range(a, b):
                mix[i][:b] = [rng.randrange(q) for _ in range(a)] + list(diag[i - a])
        assert _pack(_echelon(_mat_mul(mix, rows, q), blocks, q), q) == key
        other = random_invertible(lam.n, q, rng)[:m]
        same_flag = all(_gauss_jordan(rows[:e], q) == _gauss_jordan(other[:e], q) for e in ends)
        assert (_pack(_echelon(other, blocks, q), q) == key) == same_flag

    @settings(max_examples=300, deadline=None, database=None)
    @given(_shape_over_small_prime())
    def test_one_row_t_and_d_images_equal_the_literal_images(self, case):
        from germkit.oracle import _primitive_root, _reduce_lead_row

        lam, q, seed = case
        n, rng = lam.n, random.Random(seed)
        ends = list(accumulate(lam.parts[:-1]))
        blocks = list(zip([0] + ends, ends))
        stops = [b for a, b in blocks for _ in range(a, b)]
        form = _echelon(random_invertible(n, q, rng)[: sum(lam.parts[:-1])], blocks, q)
        g = _primitive_root(q)
        gens = [tuple(tuple((g if i == 0 else 1) * int(i == j) for j in range(n)) for i in range(n))]
        if n > 1:
            gens.append(tuple(tuple(int(i == j or (i, j) == (0, 1)) for j in range(n)) for i in range(n)))
        lead = [i for i, row in enumerate(form) if row[0]]
        assert len(lead) <= 1
        for G in gens:
            literal = _echelon(_mat_mul(form, G, q), blocks, q)
            if lead:
                (i,) = lead
                assert _reduce_lead_row(form, i, stops[i], _mat_mul(form[i : i + 1], G, q)[0], q) == literal
            else:
                assert literal == form


class TestXiMultiplicities:
    def test_diagonal_is_one(self):
        for n in (2, 3):
            for q in (2, 3):
                for lam in enumerate_partitions(n):
                    assert xi_multiplicity(lam, lam, n, q) == 1

    def test_vanishing_off_dominance(self):
        for n in (2, 3):
            for q in (2, 3):
                for lam in enumerate_partitions(n):
                    for mu in enumerate_partitions(n):
                        if not dominance_leq(mu, lam):
                            assert xi_multiplicity(lam, mu, n, q) == 0

    def test_zero_shape_counts_all_cosets(self):
        # A_(3) = 0 makes the condition vacuous, so the count is the full coset number
        assert xi_multiplicity(P(3), P(1, 1, 1), 3, 2) == 21
        assert xi_multiplicity(P(3), P(2, 1), 3, 2) == 7

    def test_matrix_n2_q2_frozen(self):
        M = multiplicity_matrix(2, 2)
        assert M[P(2)][P(2)] == 1
        assert M[P(2)][P(1, 1)] == 3
        assert M[P(1, 1)][P(2)] == 0
        assert M[P(1, 1)][P(1, 1)] == 1

    def test_matrix_unitriangular(self):
        for n in (2, 3):
            for q in (2, 3):
                M = multiplicity_matrix(n, q)
                for lam in enumerate_partitions(n):
                    assert M[lam][lam] == 1
                    for mu in enumerate_partitions(n):
                        if not dominance_leq(mu, lam):
                            assert M[lam][mu] == 0

    def test_cap(self):
        # n_(1^8) has 2^28 elements, above the default cap; n_(4) = {0} streams one
        with pytest.raises(OracleBoundError, match=r"for mu = \(1,1,1,1,1,1,1,1\) needs 268435456 elements"):
            xi_multiplicity(P(2, 2, 2, 2), Partition([1] * 8), 8, 2)
        assert 2**28 > DEFAULT_CAP
        assert xi_multiplicity(P(2, 2), P(4), 4, 3) == 0

    def test_matrix_cap_counts_every_nilradical_before_streaming(self):
        # n = 3, q = 2 streams 1 + 4 + 8 = 13 nilradical elements in all
        with pytest.raises(OracleBoundError):
            multiplicity_matrix(3, 2, cap=12)
        assert multiplicity_matrix(3, 2, cap=13) == multiplicity_matrix(3, 2)

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            xi_multiplicity(P(2), P(2, 1), 2, 2)


def _gl_reference_matrix(n, q):
    """M[lam][mu] by the defining count over all of GL_n(F_q), for small n and q."""
    parts = enumerate_partitions(n)
    a_rows = {lam: build_A_lambda(lam, q).rows for lam in parts}
    hits = {(lam, mu): 0 for lam in parts for mu in parts}
    for k in iter_matrices(n, q):
        if not _invertible(k, q):
            continue
        for lam in parts:
            conj = _conjugate(k, a_rows[lam], q)
            for mu in parts:
                if _nilradical_contains(mu, conj):
                    hits[lam, mu] += 1
    out = {}
    for (lam, mu), h in hits.items():
        assert h % parabolic_order(mu, q) == 0
        out.setdefault(lam, {})[mu] = h // parabolic_order(mu, q)
    return out


class TestMultiplicityRoutes:
    @pytest.mark.parametrize("n,q", [(1, 2), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)])
    def test_nilradical_route_equals_group_enumeration(self, n, q):
        assert multiplicity_matrix(n, q) == _gl_reference_matrix(n, q)

    @pytest.mark.parametrize(
        "n,q", sorted({(n, q) for n in (1, 2, 3, 4) for q in (2, 3, 5)} | {(5, 3), (5, 2), (3, 7), (6, 2)})
    )
    def test_nilradical_route_equals_closed_form(self, n, q):
        assert multiplicity_matrix(n, q) == closed_form_multiplicity_matrix(n, q)

    def test_xi_multiplicity_is_a_matrix_entry(self):
        M = multiplicity_matrix(4, 2)
        for lam in enumerate_partitions(4):
            for mu in enumerate_partitions(4):
                assert xi_multiplicity(lam, mu, 4, 2) == M[lam][mu]

    def test_centralizer_orders(self):
        for n in range(1, 6):
            for q in (2, 3, 5):
                # A_(n) = 0 is centralized by everything
                assert centralizer_order(Partition([n]), q) == gl_order(n, q)
                # the orbits of the A_lam partition the q^(n^2 - n) nilpotents
                orbits = 0
                for lam in enumerate_partitions(n):
                    assert gl_order(n, q) % centralizer_order(lam, q) == 0
                    orbits += gl_order(n, q) // centralizer_order(lam, q)
                assert orbits == q ** (n * n - n)
        # one Jordan block: the centralizer is F_q[A]^x, of order q^(n-1) (q - 1)
        assert centralizer_order(Partition([1] * 4), 3) == 3**3 * 2


class TestCensus:
    def test_nilpotent_count_closed_form(self):
        for n in (1, 2, 3):
            for q in (2, 3):
                assert nilpotent_census(n, q) == q ** (n * n - n)
        assert nilpotent_census(4, 2) == 2**12
        assert nilpotent_census(1, 7) == nilpotent_census(0, 7) == 1

    def test_cap(self):
        with pytest.raises(OracleBoundError) as census_error:
            nilpotent_census(4, 3)
        assert 3 ** 16 > DEFAULT_CAP
        with pytest.raises(OracleBoundError) as stream_error:
            next(iter_matrices(4, 3))
        assert str(census_error.value) == str(stream_error.value)


@st.composite
def _rows_over_small_prime(draw):
    """(rows, q): up to 6 rows of length n <= 6 over prime q <= 7, with many zero entries."""
    q = draw(st.sampled_from((2, 3, 5, 7)))
    entry = st.one_of(st.just(0), st.integers(0, q - 1))
    return draw(st.lists(st.tuples(*[entry] * draw(st.integers(1, 6))), max_size=6)), q


class TestEliminationKernelProperties:
    @settings(max_examples=300, deadline=None, database=None)
    @given(_rows_over_small_prime())
    def test_extend_basis_is_normalised_and_has_the_rank(self, case):
        from germkit.oracle import _extend

        rows, q = case
        basis = []
        for row in rows:
            prev, snapshot = basis, list(basis)
            basis = _extend(prev, row, q)
            assert prev == snapshot and basis[: len(prev)] == prev  # a prefix's basis is shared, never changed
        for k, (p, b) in enumerate(basis):
            # forward elimination only: each row is cleared at the pivots before it, not after
            assert b[p] == 1 and not any(b[:p]) and not any(b[e] for e, _ in basis[:k])
        assert len(basis) == len(_gauss_jordan(rows, q))
        assert _gauss_jordan([b for _, b in basis], q) == _gauss_jordan(rows, q)


@st.composite
def _square_over_small_prime(draw):
    """(rows, q, seed): a square X over prime q <= 7 with n <= 5, strictly upper triangular half the time."""
    n = draw(st.integers(1, 5))
    q = draw(st.sampled_from((2, 3, 5, 7)))
    strict = draw(st.booleans())
    entry = st.integers(0, q - 1)
    rows = tuple(tuple(0 if strict and j <= i else draw(entry) for j in range(n)) for i in range(n))
    return rows, q, draw(st.integers(0, 2**32))


class TestKernelJumpProperties:
    @settings(max_examples=300, deadline=None, database=None)
    @given(_square_over_small_prime())
    def test_jump_laws(self, case):
        from germkit.oracle import _kernel_jumps

        rows, q, seed = case
        n = len(rows)
        jumps = _kernel_jumps(rows, q)
        assert all(a >= b > 0 for a, b in zip(jumps, jumps[1:] + (1,)))
        assert (sum(jumps) == n) == (_power(rows, n, q) == ((0,) * n,) * n)
        g = random_invertible(n, q, random.Random(seed))
        assert _kernel_jumps(_conjugate(g, rows, q), q) == jumps
