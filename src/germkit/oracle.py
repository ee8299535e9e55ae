"""Brute-force verification substrate over prime fields F_q.

Everything here is exhaustive or closed-form over a finite field, with
two independent routes per quantity so the closed forms elsewhere in the
package are checked against raw enumeration:

* coset counts: the orbit of the standard flag of shape lam under
  GL_n(F_q) is enumerated exhaustively (every coset touched exactly
  once) and compared with the group-order quotient |GL_n| / |P_lam|.
  The search uses three generators, the n-cycle c, t = I + E_12 and
  d = diag(g, 1, ..., 1) for a primitive root g, which generate GL_n(F_q)
  because commutators of the c^k t c^-k = I + E_(i,i+1 mod n) give every
  elementary transvection (so SL_n(F_q), q prime) and d every
  determinant.  Each acts as a column operation on one basis per flag,
  kept in nested echelon form, and the seen-set stores each form packed
  into one int of base-q digits.  Only c needs a full Gauss-Jordan pass:
  t and d change only the row with its pivot in column 1, so that one
  row is re-reduced;

* Jordan types: the partition of a nilpotent matrix is read off the
  kernel-dimension jumps rank X^(i-1) - rank X^i.  A stream of matrices
  (the census of M_n(F_q), a nilradical) is walked row by row, each
  prefix's echelon basis shared by its completions, and the ranks come
  from rowspace(X^(i+1)) = rowspace(X^i) X without forming powers.  X and
  cX have equal jumps, so one matrix per scalar class {cX : c in F_q^x}
  is walked and weighted by q - 1.  In the census, the q^n - q^(n-1) last
  rows that complete n - 1 independent rows to an invertible X are
  counted at once; every singular X is still walked;

* depth-one character multiplicities: for partitions lam, mu of n, the
  multiplicity m(lam, mu) of the depth-one congruence character
  attached to the block-shift matrix A_lam in the functions on the
  P_mu-cosets equals

      #{k in GL_n(F_q) : k A_lam k^(-1) in n_mu(F_q)} / |P_mu(F_q)|,

  where n_mu is the strictly upper block-triangular algebra of shape mu.
  Derivation: over a local division algebra with uniformizer p and
  residue field F_q, the character 1+x -> psi(trd(A_lam p^(1-2j) x)) of
  the j-th congruence subgroup is trivial on k^(-1)(1 + p_mu(P^(2j-1)))k
  exactly when the reduced trace pairs A_lam against the conjugate of
  p_mu(O) into the maximal ideal, which only depends on the residue
  matrices and says that k A_lam k^(-1) is trace-orthogonal to
  p_mu(F_q), i.e. lies in n_mu(F_q).  At depth j = 1 the exponents
  2j-1 and j coincide, so this residue condition is the full triviality
  condition, not just a necessary one; the set of such k is stable
  under left multiplication by P_mu(F_q) (which normalizes n_mu), so
  the division is exact.  The additive character psi never needs to be
  constructed.  Verification at depths j >= 2 would require matrix
  groups over O/P^j and is out of scope.

  The group is never enumerated.  Each X in the orbit of A_lam equals
  k A_lam k^(-1) for exactly |Z_GL(A_lam)| elements k, so the count
  above is #(n_mu(F_q) & orbit(A_lam)) * |Z_GL(A_lam)|.  The oracle
  streams the q^(d_mu) elements of n_mu(F_q) once per mu through that
  row-by-row walk, buckets them by kernel-jump partition (the orbit of
  A_lam is the bucket lam), and multiplies by the centralizer order

      |Z_GL(A_lam)| = q^(sum_i lam_i^2 - sum_k m_k (m_k + 1) / 2)
                      * prod_k prod_{i=1..m_k} (q^i - 1),

  where m_k = lam_k - lam_(k+1) is the number of Jordan blocks of size
  k, i.e. the multiplicity of k in dual(lam).  The independent
  cross-check is the Kostka-Foulkes closed form
  `germ.closed_form_multiplicity_matrix`, which `germkit oracle --check
  ximatrix` compares entry by entry.

The oracle works over prime q only, so all arithmetic is plain modular
integer arithmetic.  Every elimination goes through one kernel,
`_clear`, which clears a row at a basis's pivots, in order, and scales
its leading entry to 1: `_extend` (the census and nilradical walk),
`_echelon` (the flag forms) and `_reduce_lead_row` (t and d) call it.
Every enumeration is bounded by an element cap
(default 10**7) counting the items a call streams.  One function,
`_charge`, charges a stream's whole size before its first element and
raises the one `OracleBoundError`: q^(n^2) matrices for the nilpotent
census, the sum of q^(d_mu) over the nilradicals a multiplicity call
streams, and the orbit size |GL_n(F_q)| / |P_lam(F_q)| for a flag
search, a direct `flag_orbit_count` call included.  Its one-line
message prints a size of up to 20 digits in full and a longer one as a
power of q: q^e when it is one, else "more than q^e".  The flag search
then never needs the cap again: finding more flags than the quotient
means a flag key is not canonical, an `OracleConsistencyError`.
"""

from __future__ import annotations

import math
from bisect import insort
from itertools import accumulate, chain, islice, pairwise, product
from typing import Iterable, Iterator

from .cosets import require_prime
from .partitions import Partition, d_of, enumerate_partitions, require_at_least, require_int

DEFAULT_CAP = 10**7


class OracleBoundError(ValueError):
    """The requested enumeration exceeds the element cap."""


class OracleConsistencyError(RuntimeError):
    """Two independent routes disagreed; this signals a bug, not bad input."""


# ---------------------------------------------------------------------------
# raw matrix kernels (rows are tuples of ints reduced mod q)


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _clear(row, basis, q):
    """(pivot, row): row cleared at the pivots of basis, in order, then scaled to a leading 1; None if it clears to 0.

    The one row-reduction kernel of the oracle.  basis is (pivot, row)
    pairs, each row 1 at its pivot; the caller keeps each zero at the
    pivots before it, so one pass in order zeroes row at all of them.
    """
    for p, b in basis:
        if x := row[p]:
            row = [(a - x * c) % q for a, c in zip(row, b)]
    if x := next(filter(None, row), 0):
        if x != 1:
            inv = pow(x, -1, q)
            row = [a * inv % q for a in row]
        return row.index(1), row
    return None


def _extend(basis, row, q):
    """One forward-elimination step: a new list, basis plus the `_clear`ed row, or basis if row is in its span.

    Entries are (pivot, row) pairs, each row normalised and zero at the
    earlier pivots, as `_clear` needs.  basis is never mutated, so
    prefixes of rows can share theirs.
    """
    lead = _clear(row, basis, q)
    return basis + [lead] if lead else basis


def _echelon(rows, blocks, q):
    """Nested echelon form of rows cut into blocks (start, stop): one Gauss-Jordan pass, zero rows dropped.

    Each row, as it arrives, is `_clear`ed at the pivots so far, in order,
    so the earlier blocks come first; its pivot is then cleared out of
    the rows of its own block only, by `_clear` too, and it is put among
    them in pivot order.  So block i is, in RREF, the vectors of the span
    of blocks 0..i that vanish at the pivots of the earlier blocks, and
    the earlier blocks keep their entries at its pivots.  The form is a
    complete invariant of the flag that the blocks span.  rows may be an
    iterator.
    """
    rows, form = iter(rows), []
    for start, stop in blocks:
        first = len(form)
        for row in islice(rows, stop - start):
            if lead := _clear(row, form, q):
                p = lead[0]
                for i in range(first, len(form)):
                    if form[i][1][p]:
                        form[i] = _clear(form[i][1], [lead], q)
                insort(form, lead, first)  # pivots are distinct, so only they are compared
    return tuple([tuple(b) for _, b in form])


def _jump_census(choices, q):
    """{kernel jumps: count} over every square X whose row i runs over choices[i].

    The kernel jumps rank X^(k-1) - rank X^k, while positive, are weakly
    decreasing and sum to n exactly when X is nilpotent.  The rows are
    walked depth first, each prefix's echelon basis shared by its
    completions.  No power of X is formed: rowspace(X^(k+1)) =
    rowspace(X^k) X, so each step multiplies the basis by X and re-reduces,
    until the rank stops falling.

    When the last row runs over all of F_q^n, then below each prefix of
    n - 1 independent rows the q^n - q^(n-1) last rows off its span each
    make X invertible, with no jumps, and are counted at once; only the
    q^(n-1) rows in the span are walked.
    """
    n, X, census = len(choices), [None] * len(choices), {}
    complete = n > 0 and len(choices[-1]) == q**n == len(set(choices[-1]))

    def walk(i, basis):
        if i < n:
            if complete and i == n - 1 == len(basis):
                census[()] = census.get((), 0) + q**n - q**i
                for row in _span(basis, n, q):
                    X[i] = row
                    walk(n, basis)
                return
            for row in choices[i]:
                X[i] = row
                walk(i + 1, _extend(basis, row, q))
            return
        jumps, prev = (), n
        while len(basis) < prev:
            jumps, prev, image = jumps + (prev - len(basis),), len(basis), []
            for _, b in basis:
                v = None
                for x, r in zip(b, X):
                    if x:
                        v = [x * c for c in r] if v is None else [a + x * c for a, c in zip(v, r)]
                image = _extend(image, [a % q for a in v], q)
            basis = image
        census[jumps] = census.get(jumps, 0) + 1

    walk(0, [])
    return census


def _span(basis, n, q):
    """Every row of F_q^n in the span of the basis rows of `_extend`."""
    span = [[0] * n]
    for _, b in basis:
        span = [[(a + c * x) % q for a, x in zip(v, b)] for v in span for c in range(q)]
    return span


def _class_census(tails, q):
    """`_jump_census` over the n x n X zero but for the last tails[i] entries of each row i, one X per scalar class.

    X and cX, c in F_q^x, have equal kernel jumps, and each row set is a
    subspace, so it is closed under scaling.  The zero matrix is counted
    once.  Every other X is cX' for exactly q - 1 scalars c and one X'
    whose first nonzero row k has first nonzero entry 1.  So for each k
    the rows before k are zero, row k runs over those normalised rows and
    the rows after it are free, and each X' counts q - 1 times.  When the
    last row is free in all n columns, `_jump_census` counts the
    invertible completions at once.
    """
    n = len(tails)
    free = {m: [(0,) * (n - m) + t for t in product(range(q), repeat=m)] for m in set(tails[1:])}
    census = {(n,) if n else (): 1}
    for k, m in enumerate(tails):
        lead = [(0,) * (n - m + a) + (1,) + t for a in range(m) for t in product(range(q), repeat=m - a - 1)]
        if lead:
            choices = [[(0,) * n]] * k + [lead] + [free[rest] for rest in tails[k + 1 :]]
            for jumps, count in _jump_census(choices, q).items():
                census[jumps] = census.get(jumps, 0) + (q - 1) * count
    return census


def _kernel_jumps(rows, q):
    """The kernel jumps rank X^(k-1) - rank X^k of one square matrix, while positive."""
    (jumps,) = _jump_census([[r] for r in rows], q)
    return jumps


# ---------------------------------------------------------------------------
# public matrix type


class FqMatrix:
    """A dense matrix over the prime field F_q, entries reduced mod q: a validated, immutable value.

    `build_A_lambda` returns one and `nilpotent_partition` reads one.  It
    has no arithmetic; the routes work on its row tuples.
    """

    __slots__ = ("q", "rows")

    def __init__(self, q: int, rows: Iterable[Iterable[int]]):
        require_prime(q, "the oracle's q")
        rows = tuple(tuple(require_int(x, "a matrix entry") % q for x in row) for row in rows)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("matrix rows must be nonempty and of equal length")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("FqMatrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def __eq__(self, other) -> bool:
        return isinstance(other, FqMatrix) and self.q == other.q and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.q, self.rows))

    def __repr__(self) -> str:
        return f"FqMatrix(q={self.q}, rows={[list(r) for r in self.rows]})"


# ---------------------------------------------------------------------------
# group orders


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)| = prod_{i=0}^{n-1} (q^n - q^i)."""
    require_at_least(n, 0, "n")
    require_at_least(q, 2, "q")
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def parabolic_order(lam: Partition, q: int) -> int:
    """|P_lam(F_q)| = q^(d_lam) * prod_i |GL_{lam_i}(F_q)|."""
    out = require_at_least(q, 2, "q") ** d_of(lam)
    for part in lam:
        out *= gl_order(part, q)
    return out


def centralizer_order(lam: Partition, q: int) -> int:
    """|Z_GL(A_lam)(F_q)| for the block-shift matrix of kernel-jump partition lam.

    q^(sum_i lam_i^2 - sum_k m_k (m_k + 1) / 2) * prod_k prod_{i=1..m_k} (q^i - 1),
    with m_k = lam_k - lam_(k+1) the number of Jordan blocks of size k
    (lam_i counts the blocks of size >= i).
    """
    require_at_least(q, 2, "q")
    mults = [a - b for a, b in pairwise(lam.parts + (0,)) if a > b]
    out = q ** (sum(p * p for p in lam) - sum(m * (m + 1) // 2 for m in mults))
    for m in mults:
        for i in range(1, m + 1):
            out *= q**i - 1
    return out


# ---------------------------------------------------------------------------
# Jordan types


def build_A_lambda(lam: Partition, q: int) -> FqMatrix:
    """The 0/1 block-shift matrix of shape lam.

    It kills the first lam_1 basis vectors and maps each later block
    onto the previous one (e_{lam_1+...+lam_{i-1}+j} to
    e_{lam_1+...+lam_{i-2}+j}), so the kernel of its i-th power is
    spanned by the first lam_1+...+lam_i basis vectors and its Jordan
    type is exactly lam.
    """
    n = lam.n
    rows = [[0] * n for _ in range(n)]
    starts = [0]
    for part in lam:
        starts.append(starts[-1] + part)
    for i in range(1, len(lam)):
        for j in range(lam[i]):
            rows[starts[i - 1] + j][starts[i] + j] = 1
    return FqMatrix(q, rows)


def nilpotent_partition(X: FqMatrix) -> Partition:
    """Jordan type of a nilpotent matrix via kernel-dimension jumps.

    lam_i = dim Ker X^i - dim Ker X^(i-1) = rank X^(i-1) - rank X^i.
    Raises on non-nilpotent input.
    """
    if X.nrows != X.ncols:
        raise ValueError("a nilpotent matrix must be square")
    jumps = _kernel_jumps(X.rows, X.q)
    if sum(jumps) != X.nrows:
        raise ValueError("matrix is not nilpotent (X^n != 0)")
    return Partition(jumps)


# ---------------------------------------------------------------------------
# exhaustive enumeration


def _primitive_root(q: int) -> int:
    """The least g whose powers run over all of F_q^x (g = 1 at q = 2)."""
    return next(g for g in range(1, q) if len({pow(g, k, q) for k in range(q - 1)}) == q - 1)


def _column_ops(n: int, q: int) -> dict:
    """{name: row -> row * G} for the generators c, t, d of `flag_orbit_count`."""
    ops = {}
    if n > 1:
        ops["c"] = lambda row: row[-1:] + row[:-1]
        ops["t"] = lambda row: (row[0], (row[0] + row[1]) % q) + row[2:]
    g = _primitive_root(q)
    if g != 1:
        ops["d"] = lambda row: ((g * row[0]) % q,) + row[1:]
    return ops


def _charge(stream: str, size: int, q: int, cap: int) -> int:
    """size, the whole of a stream over F_q, if it is within the cap; else the oracle's one `OracleBoundError`.

    It reads "<stream> <size> elements, above the cap <cap>", stream
    ending in its verb and size printed as the module docstring says.
    """
    require_int(cap, "cap")
    if size > cap:
        text = size
        if size >= 10**20:
            e = int(math.log(size, q)) - 1  # the float log may be one too high
            while q ** (e + 1) <= size:
                e += 1
            text = f"{q}^{e}" if q**e == size else f"more than {q}^{e}"
        raise OracleBoundError(f"{stream} {text} elements, above the cap {cap}")
    return size


def _check_matrix_cap(n: int, q: int, cap: int) -> None:
    require_at_least(n, 0, "n")
    require_prime(q, "the oracle's q")
    _charge(f"enumerating M_{n}(F_{q}) needs", q ** (n * n), q, cap)


def iter_matrices(n: int, q: int, cap: int = DEFAULT_CAP) -> Iterator[tuple]:
    """Stream all of M_n(F_q) as row tuples; q^(n^2) items checked against the cap."""
    _check_matrix_cap(n, q, cap)
    for flat in product(range(q), repeat=n * n):
        yield tuple(flat[i * n : (i + 1) * n] for i in range(n))


def _pack(form, q):
    """The entries of the form as the base-q digits of one int."""
    key = 0
    for x in chain.from_iterable(form):
        key = key * q + x
    return key


def _reduce_lead_row(form, i, stop, row, q):
    """The form after form[i], the row with its pivot in column 1, becomes row = form[i] G for G = t or d.

    Every other row of the form is zero in column 1, so G leaves it as it
    is, and the pivots do not move.  Only the new row is re-reduced, by
    `_clear`: at the pivots of the earlier blocks and of the rest of its
    own block, form[:i] and form[i+1:stop] (it comes first in its block).
    A normalised row's pivot is its first 1.
    """
    _, row = _clear(row, [(b.index(1), b) for b in chain(form[:i], form[i + 1 : stop])], q)
    return form[:i] + (tuple(row),) + form[i + 1 :]


def flag_orbit_count(lam: Partition, q: int, cap: int = DEFAULT_CAP) -> int:
    """Exhaustive count of flags of shape lam in F_q^n.

    Breadth-first closure of the standard flag under the n-cycle c (ones
    at (i, i+1 mod n)), t = I + E_12 and d = diag(g, 1, ..., 1) for a
    primitive root g; d is dropped at q = 2, c and t at n = 1.  They
    generate GL_n(F_q): commutators of the c^k t c^-k = I + E_(i,i+1 mod n)
    give every elementary transvection, hence SL_n(F_q) for prime q, and
    d adds every determinant.  Each acts on a flag's basis rows in nested
    echelon form (`_echelon`) as a column operation (rotate right,
    column 2 += column 1, scale column 1 by g) and the form is restored:
    by a full pass after c, and after t and d by re-reducing the one row
    with its pivot in column 1 (`_reduce_lead_row`).  That row has a 1 in
    column 1 and every other row a 0; a flag with no such row is fixed by
    t and d.  The seen-set holds each form packed into one int, so every
    coset of the flag stabilizer is seen exactly once.  The whole orbit
    (`flag_orbit_size`) is charged against the cap before the first flag.
    """
    size = flag_orbit_size(lam, lam.n, q, cap)
    blocks = tuple(pairwise(accumulate(lam.parts[:-1], initial=0)))
    stops = [stop for start, stop in blocks for _ in range(start, stop)]
    ops = _column_ops(lam.n, q)
    rotate = ops.pop("c", None)
    std = _identity(lam.n)[: lam.n - lam.parts[-1]]
    seen, frontier = {_pack(std, q)}, [std]
    while frontier:
        fresh = []
        for flag in frontier:
            images = [_echelon(map(rotate, flag), blocks, q)] if rotate else []
            column = [row[0] for row in flag]
            if 1 in column:
                i = column.index(1)
                images += [_reduce_lead_row(flag, i, stops[i], op(flag[i]), q) for op in ops.values()]
            for img in images:
                if (key := _pack(img, q)) not in seen:
                    seen.add(key)
                    if len(seen) > size:
                        raise OracleConsistencyError(
                            f"the flag search for {lam} over F_{q} found more than the {size} flags of the orbit"
                        )
                    fresh.append(img)
        frontier = fresh
    return len(seen)


def flag_orbit_size(lam: Partition, n: int, q: int, cap: int = DEFAULT_CAP) -> int:
    """|GL_n(F_q)| / |P_lam(F_q)|, the number of flags of shape lam in F_q^n, charged against the cap."""
    if lam.n != n:
        raise ValueError(f"{lam} is not a partition of n = {n}")
    require_prime(q, "the oracle's q")
    order_g = gl_order(n, q)
    order_p = parabolic_order(lam, q)
    if order_g % order_p != 0:
        raise OracleConsistencyError(f"|GL_{n}(F_{q})| not divisible by |P_{lam}(F_{q})|")
    return _charge(f"flag orbit: coset space for {lam} over F_{q} has", order_g // order_p, q, cap)


def count_parabolic_cosets(lam: Partition, n: int, q: int, cap: int = DEFAULT_CAP) -> int:
    """|P_lam(F_q) \\ GL_n(F_q)|, exhaustively counted and order-checked."""
    quotient = flag_orbit_size(lam, n, q, cap)
    observed = flag_orbit_count(lam, q, cap)
    if observed != quotient:
        raise OracleConsistencyError(
            f"flag orbit count {observed} != order quotient {quotient} for {lam}, q={q}"
        )
    return observed


# ---------------------------------------------------------------------------
# depth-one character multiplicities


def _xi_column(mu: Partition, q: int) -> dict[Partition, int]:
    """{lam: m(lam, mu)} over the lam with a nonzero entry, from one pass over n_mu(F_q).

    A row of n_mu in a block that ends at column stop is free in the last
    n - stop columns.  `_class_census` streams one element per scalar
    class of the product of those row patterns through `_jump_census`,
    which shares each prefix's echelon basis and takes ranks from
    rowspace(X^(k+1)) = rowspace(X^k) X, and the elements are bucketed by
    kernel-jump partition.
    """
    n = mu.n
    census = _class_census([n - stop for part, stop in zip(mu, accumulate(mu)) for _ in range(part)], q)
    order_p = parabolic_order(mu, q)
    column = {}
    for jumps, count in census.items():
        lam = Partition(jumps)
        if lam.n != n:
            raise OracleConsistencyError(f"an element of n_{mu}(F_{q}) is not nilpotent")
        hits = count * centralizer_order(lam, q)
        if hits % order_p != 0:
            raise OracleConsistencyError(
                f"condition-set size {hits} not divisible by |P_{mu}(F_{q})| = {order_p}"
            )
        column[lam] = hits // order_p
    return column


def xi_multiplicity(lam: Partition, mu: Partition, n: int, q: int, cap: int = DEFAULT_CAP) -> int:
    """Multiplicity of the depth-one character of shape lam in the P_mu-coset functions.

    #{k in GL_n(F_q) : k A_lam k^(-1) in n_mu(F_q)} / |P_mu(F_q)|, with
    the numerator counted as #(n_mu(F_q) & orbit(A_lam)) * |Z_GL(A_lam)|
    over the q^(d_mu) elements of n_mu(F_q); the division is exact
    because the condition set is a union of left P_mu(F_q)-cosets.
    """
    if lam.n != n or mu.n != n:
        raise ValueError(f"{lam} and {mu} must both be partitions of n = {n}")
    require_prime(q, "the oracle's q")
    _charge(f"streaming the nilradical n_mu(F_{q}) for mu = {mu} needs", q ** d_of(mu), q, cap)
    return _xi_column(mu, q).get(lam, 0)


def multiplicity_matrix(n: int, q: int, cap: int = DEFAULT_CAP) -> dict[Partition, dict[Partition, int]]:
    """M[lam][mu] = xi_multiplicity(lam, mu), rows and columns in canonical order.

    Each nilradical is streamed once; the cap bounds the total,
    sum over mu of q^(d_mu), and is checked before streaming starts.
    """
    parts = enumerate_partitions(n)
    require_prime(q, "the oracle's q")
    total = sum(q ** d_of(mu) for mu in parts)
    _charge(f"streaming the nilradicals n_mu(F_{q}) for the {len(parts)} partitions of n = {n} needs", total, q, cap)
    columns = {mu: _xi_column(mu, q) for mu in parts}
    return {lam: {mu: columns[mu].get(lam, 0) for mu in parts} for lam in parts}


# ---------------------------------------------------------------------------
# nilpotent census


def nilpotent_census(n: int, q: int, cap: int = DEFAULT_CAP) -> int:
    """Number of nilpotent matrices in M_n(F_q); the closed form is q^(n^2 - n).

    `_class_census` walks one matrix per scalar class {cX : c in F_q^x}
    through `_jump_census`, every row over F_q^n: each prefix's echelon
    basis is shared by its completions, the invertible completions of
    n - 1 independent rows are counted at once, and ranks come from
    rowspace(X^(k+1)) = rowspace(X^k) X.  Every singular X is visited.
    The cap is charged for all q^(n^2) matrices.
    """
    _check_matrix_cap(n, q, cap)
    census = _class_census([n] * n, q)
    return sum(count for jumps, count in census.items() if sum(jumps) == n)
