"""Exact linear algebra kit: oracle checks and invariants.

The rank oracle below is written independently of the elimination code:
rank = size of the largest square submatrix with nonzero determinant,
determinants computed by cofactor expansion on exact integers mod p.
The elimination kernel is also checked row operation for row operation
against `reference_eliminate`, the same algorithm on whole numpy rows.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ainfbg.glin
from ainfbg.glin import (
    Bidegree,
    GradedVectorSpace,
    TruncationExceeded,
    back_substitute,
    echelon,
    greedy_extend,
    invert,
    is_prime,
    matmul_mod,
    rank_nullspace,
    row_reduce,
    solve,
)


# ---------------------------------------------------------------------------
# independent oracle
# ---------------------------------------------------------------------------

def det_mod(M, p):
    """Cofactor-expansion determinant mod p; no elimination involved."""
    n = M.shape[0]
    if n == 0:
        return 1
    if n == 1:
        return int(M[0, 0]) % p
    total = 0
    for j in range(n):
        if M[0, j] % p == 0:
            continue
        minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
        sign = -1 if j % 2 else 1
        total += sign * int(M[0, j]) * det_mod(minor, p)
    return total % p


def oracle_rank(M, p):
    """Largest k with some k x k submatrix of nonzero determinant."""
    M = np.asarray(M) % p
    rows, cols = M.shape
    for k in range(min(rows, cols), 0, -1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                if det_mod(M[np.ix_(ri, ci)], p) != 0:
                    return k
    return 0


def rows_of(A):
    """The nonzero entries of an int64 array as the kernel takes them, one
    {column: value} dict of Python ints per row."""
    return [dict(zip(np.flatnonzero(x).tolist(), x[x != 0].tolist()))
            for x in np.asarray(A)]


def reference_eliminate(rows, p, ncols, *, back=True):
    """`glin._eliminate` on whole numpy rows, eight or so array calls per
    pivot: the reference for the sparse-row kernel, which must leave the
    same rows and give the same pivots because it does the same row
    operations in the same order.  The rows come in and go out as the
    kernel takes them, one {column: value} dict per row, and without
    `back` only the rows below each pivot are cleared."""
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    width = max([ncols, *(j + 1 for row in rows for j in row)])
    R = np.zeros((len(rows), width), dtype=np.int64)
    for i, row in enumerate(rows):
        R[i, list(row)] = list(row.values())
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        R[r] = (R[r] * pow(R.item(r, c), p - 2, p)) % p
        other = np.nonzero(R[:, c])[0]
        other = other[other != r] if back else other[other > r]
        if other.size:
            R[other] = (R[other] - R[other, c][:, None] * R[r]) % p
        pivots.append(c)
        r += 1
    rows[:] = rows_of(R)
    return tuple(pivots)


def reference_nullspace(M, p):
    """The pivot columns of M over F_p and its nullspace basis in echelon
    form, read off `reference_eliminate`'s reduced rows: one basis row per
    free column f, with a 1 at f, zeros at the other free columns and
    minus column f of the reduced form on the pivot columns."""
    rows = rows_of(M)
    pivots = reference_eliminate(rows, p, M.shape[1], back=True)
    R = np.zeros(M.shape, dtype=np.int64)
    for i, row in enumerate(rows):
        R[i, list(row)] = list(row.values())
    free = [c for c in range(M.shape[1]) if c not in pivots]
    null = np.zeros((len(free), M.shape[1]), dtype=np.int64)
    null[np.arange(len(free)), free] = 1
    null[:, list(pivots)] = -R[:len(pivots)][:, free].T % p
    return pivots, null


def random_matrix(rng, p, rows, cols, kind):
    """A rows x cols matrix mod p: zero, rank 1, full rank (permuted upper
    triangular with a unit diagonal), about 5 % nonzero, or uniform."""
    if kind == "zero":
        return np.zeros((rows, cols), dtype=np.int64)
    if kind == "rank1":
        return np.outer(rng.integers(1, p, size=rows),
                        rng.integers(0, p, size=cols))
    if kind == "sparse":
        return rng.integers(1, p, size=(rows, cols)) * \
            (rng.random((rows, cols)) < 0.05)
    M = rng.integers(0, p, size=(rows, cols))
    if kind == "full":
        k = min(rows, cols)
        M[:k, :k] = np.triu(M[:k, :k], 1) + np.diag(rng.integers(1, p, size=k))
        M = M[rng.permutation(rows)]
    return M


def reference_greedy_extend(basis, candidates, p):
    """Incremental greedy extension, one candidate row at a time: the
    reference for the pivot-column `greedy_extend`.  Rows are kept
    mutually reduced, so reducing a candidate against them is one pass.
    """
    candidates = np.array(candidates, dtype=np.int64) % p
    n = candidates.shape[1]
    basis = np.array(basis, dtype=np.int64).reshape(-1, n) % p

    def lead(v):
        return int(np.argmax(v != 0))

    def reduce_against(rows, v):
        v = np.array(v, dtype=np.int64) % p
        for r in rows:
            if v[lead(r)]:
                v = (v - v[lead(r)] * r) % p
        return v

    def append_reduced(rows, v):
        v = (v * pow(int(v[lead(v)]), p - 2, p)) % p
        c = lead(v)
        for i, r in enumerate(rows):
            if r[c]:
                rows[i] = (r - r[c] * v) % p
        rows.append(v)

    rows = []
    for r in basis:
        v = reduce_against(rows, r)
        if np.any(v):
            append_reduced(rows, v)
    chosen = []
    for idx in range(candidates.shape[0]):
        if len(rows) == n:
            break
        v = reduce_against(rows, candidates[idx])
        if np.any(v):
            append_reduced(rows, v)
            chosen.append(idx)
    return chosen


# ---------------------------------------------------------------------------
# rank / nullspace / solve
# ---------------------------------------------------------------------------

def test_rank_matches_minor_oracle_random_6x6_f7():
    rng = np.random.default_rng(20260819)
    for _ in range(12):
        M = rng.integers(0, 7, size=(6, 6))
        rank, null, _ = rank_nullspace(M, 7)
        assert rank == oracle_rank(M, 7)
        assert len(null) == 6 - rank
        assert np.all((M @ null.T) % 7 == 0)


def test_rank_small_known_cases():
    assert rank_nullspace(np.zeros((3, 3), int), 5)[0] == 0
    assert rank_nullspace(np.eye(4, dtype=int), 5)[0] == 4
    # rows proportional mod 3
    M = np.array([[1, 2], [2, 4]])
    rank, null, _ = rank_nullspace(M, 3)
    assert rank == 1 and len(null) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 5, 7]),
       st.integers(1, 5), st.integers(1, 5))
def test_rank_nullspace_properties(seed, p, rows, cols):
    rng = np.random.default_rng(seed)
    M = rng.integers(0, p, size=(rows, cols))
    rank, null, _ = rank_nullspace(M, p)
    assert rank + len(null) == cols
    assert rank == rank_nullspace(M.T, p)[0]
    if len(null):
        assert np.all((M @ null.T) % p == 0)
        assert rank_nullspace(null, p)[0] == len(null)
    # transform certificate
    pd = row_reduce(M, p)
    assert np.all((pd.transform @ (M % p)) % p == pd.rref)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 5, 7, 11]),
       st.integers(1, 7), st.integers(1, 7),
       st.sampled_from(["zero", "rank1", "full", "random"]))
def test_pivot_columns_agree_with_the_cycle_complement(seed, p, rows, cols,
                                                       kind):
    """The pivot columns of M, read three ways, are one set: the third value
    of rank_nullspace, the pivots of row_reduce, and the unit vectors that
    greedily complete the nullspace (each nullspace row ends at its free
    column).  `contraction` takes its cycle complement from this."""
    M = random_matrix(np.random.default_rng(seed), p, rows, cols, kind)
    rank, null, pivots = rank_nullspace(M, p)
    if kind == "full":
        assert rank == min(rows, cols)
    assert pivots == row_reduce(M, p).pivot_cols
    assert greedy_extend(null, np.eye(cols, dtype=np.int64), p) == list(pivots)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 5, 7, 2**31 - 1]),
       st.integers(0, 12), st.integers(0, 12),
       st.sampled_from(["zero", "rank1", "full", "sparse", "random"]),
       st.sampled_from(["M", "M, first columns", "[M | I]", "M^T"]),
       st.booleans())
def test_eliminate_matches_the_numpy_reference(seed, p, rows, cols, kind,
                                               layout, back):
    """The sparse-row kernel leaves the reference's rows and gives its
    pivots: on M with every column a pivot candidate, on M pivoting in a
    prefix of its columns only, on [M | I] as `row_reduce` reduces it,
    where the transform's rows below the rank record the row operations
    themselves, not only the rref, and on a column-major M^T as
    `greedy_extend` reduces it; in both halves.  With back substitution on
    [M | I], `row_reduce` of M gives those rows as its rref and transform."""
    rng = np.random.default_rng(seed)
    A = random_matrix(rng, p, rows, cols, kind).astype(np.int64) % p
    ncols = cols
    if layout == "M, first columns":
        ncols = int(rng.integers(0, cols + 1))
    elif layout == "[M | I]":
        A = np.hstack([A, np.eye(rows, dtype=np.int64)])
    elif layout == "M^T":
        A, ncols = np.array(A.T), rows
    got, want = rows_of(A), rows_of(A)
    assert ainfbg.glin._eliminate(got, p, ncols, back=back) == \
        reference_eliminate(want, p, ncols, back=back)
    assert got == want
    if back and layout == "[M | I]":
        pd = row_reduce(A[:, :cols], p)
        assert pd.rref.dtype == pd.transform.dtype == np.int64
        assert rows_of(np.hstack([pd.rref, pd.transform])) == got


def split_matrix(rng, p, rows, extra, kind):
    """B[:, F reversed] as a split reduces it, rows x (rows + extra): row
    k holds two entries, at columns width - 1 - k and width - 2 - k (the
    boundaries of a chain of blocks, read right to left).  "deficient"
    replaces a row by a combination of two others, "wide" adds an entry
    per row at a random column."""
    width = rows + extra
    B = np.zeros((rows, width), dtype=np.int64)
    for k in range(rows):
        cols = [j for j in (width - 1 - k, width - 2 - k) if j >= 0]
        B[k, cols] = rng.integers(1, p, size=len(cols))
    if kind == "deficient" and rows >= 3:
        i, j, k = rng.choice(rows, size=3, replace=False)
        B[k] = (rng.integers(1, p) * B[i] + rng.integers(1, p) * B[j]) % p
    elif kind == "wide" and width:
        B[np.arange(rows), rng.integers(0, width, size=rows)] = \
            rng.integers(1, p, size=rows)
    return B


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 5, 7, 2**31 - 1]),
       st.integers(0, 110), st.integers(0, 12),
       st.sampled_from(["anti-bidiagonal", "deficient", "wide"]))
def test_eliminate_matches_the_numpy_reference_on_split_shapes(
        seed, p, rows, extra, kind):
    """On [B | I] as `dga`'s splits reduce it, with B of up to about 110
    anti-bidiagonal rows, rank-deficient or with more columns than rows,
    the kernel's back half, run after its forward half, leaves the rows
    of the reference, which clears each pivot's column both ways at once:
    the reduced rows, the pivots and the transform."""
    rng = np.random.default_rng(seed)
    B = split_matrix(rng, p, rows, extra, kind)
    A = np.hstack([B, np.eye(rows, dtype=np.int64)])
    got, want = rows_of(A), rows_of(A)
    pivots = ainfbg.glin._eliminate(got, p, B.shape[1], back=True)
    assert pivots == reference_eliminate(want, p, B.shape[1], back=True)
    assert got == want
    if kind == "deficient" and rows >= 3:
        assert len(pivots) < rows


def test_pivots_find_their_rows_without_a_scan():
    """On a 400-row anti-bidiagonal block the kernel looks up a column in
    a row only to read or update an entry it holds, so its lookups stay
    within a small multiple of the entries and rows; a kernel that scans
    the rows below each pivot for its column makes about rows^2 / 2."""
    lookups = [0]

    class CountingRow(dict):
        def get(self, *args):
            lookups[0] += 1
            return super().get(*args)

        def __contains__(self, key):
            lookups[0] += 1
            return super().__contains__(key)

        def __getitem__(self, key):
            lookups[0] += 1
            return super().__getitem__(key)

    rng = np.random.default_rng(7)
    B = split_matrix(rng, 7, 400, 0, "anti-bidiagonal")
    got = [CountingRow(row) for row in rows_of(B)]
    want = rows_of(B)
    pivots = ainfbg.glin._eliminate(got, 7, B.shape[1], back=True)
    assert pivots == reference_eliminate(want, 7, B.shape[1], back=True)
    assert got == want and len(pivots) == 400
    assert lookups[0] <= 4 * (np.count_nonzero(B) + len(B))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 7, 2**31 - 1]),
       st.integers(0, 14), st.integers(0, 14),
       st.sampled_from(["zero", "rank1", "full", "sparse", "random"]),
       st.integers(0, 2**32 - 1))
def test_forward_elimination_reads_the_nullspace_back(seed, p, rows, cols,
                                                      kind, pick):
    """`echelon` picks the pivot columns of the numpy reference's reduced
    echelon form and the pivot rows of its forward half, and
    `back_substitute` gives, for any subset of the free columns in any
    order, the matching rows of the nullspace basis read off that reduced
    form, which `rank_nullspace` gives whole: the pivot columns that
    `contraction` keeps of a block, and the representatives that `_split`
    reads back from a rerun of its elimination."""
    rng = np.random.default_rng(seed)
    M = random_matrix(rng, p, rows, cols, kind).astype(np.int64) % p
    pivots, null = reference_nullspace(M, p)
    rank = len(pivots)
    got_rank, got_null, got_pivots = rank_nullspace(M, p)
    assert (got_rank, got_pivots) == (rank, pivots)
    assert got_null.dtype == np.int64 and np.array_equal(got_null, null)
    got_pivots, pivot_rows = echelon(rows_of(M), p, cols)
    assert got_pivots == pivots and len(pivot_rows) == rank
    want = rows_of(M)
    assert reference_eliminate(want, p, cols, back=False) == pivots
    assert pivot_rows == want[:rank]
    free = [c for c in range(cols) if c not in set(pivots)]
    draw = np.random.default_rng(pick)
    chosen = draw.permutation(len(free))[:draw.integers(0, len(free) + 1)]
    reps = back_substitute(pivots, pivot_rows, [free[k] for k in chosen],
                           cols, p)
    assert reps.dtype == np.int64 and reps.shape == (len(chosen), cols)
    assert np.array_equal(reps, null[chosen].reshape(len(chosen), cols))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 5, 7]))
def test_solve_roundtrip(seed, p):
    rng = np.random.default_rng(seed)
    M = rng.integers(0, p, size=(4, 5))
    x0 = rng.integers(0, p, size=5)
    b = (M @ x0) % p
    pd = row_reduce(M, p)
    x = solve(pd, b)
    assert x is not None
    assert np.all((M @ x) % p == b)


def test_solve_detects_unsolvable():
    M = np.array([[1, 0], [2, 0]])
    pd = row_reduce(M, 5)
    assert solve(pd, np.array([0, 1])) is None


def test_invert_roundtrip_and_singular():
    rng = np.random.default_rng(7)
    for p in (3, 5, 7):
        while True:
            M = rng.integers(0, p, size=(5, 5))
            if oracle_rank(M, p) == 5:
                break
        Minv = invert(M, p)
        assert np.all((Minv @ M) % p == np.eye(5, dtype=np.int64))
        assert np.all((M @ Minv) % p == np.eye(5, dtype=np.int64))
    singular = np.array([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        invert(singular, 5)


def test_pivot_inverses_and_composite_modulus():
    """Each pivot is scaled by its inverse mod p; a composite modulus is
    refused by every kernel, also on a matrix with no pivot."""
    for p in (3, 5, 7, 2**31 - 1):
        for a in {1, 2, p - 2, p - 1}:
            pd = row_reduce([[a]], p)
            assert pd.rref.tolist() == [[1]]
            assert (a * int(pd.transform[0, 0])) % p == 1
    for kernel in (row_reduce, rank_nullspace, invert):
        with pytest.raises(ValueError, match="modulus must be prime"):
            kernel([[1]], 6)
    with pytest.raises(ValueError, match="modulus must be prime"):
        rank_nullspace([[0]], 6)
    with pytest.raises(ValueError, match="modulus must be prime"):
        greedy_extend(np.zeros((0, 1)), [[1]], 6)


def test_primality_is_checked_once_per_modulus():
    """Trial division at p = 2^31 - 1 costs milliseconds; repeated
    eliminations at one prime run it once.  A composite modulus is still
    refused on every call, cached or not."""
    p = 2**31 - 1
    is_prime.cache_clear()
    for _ in range(5):
        assert rank_nullspace([[1]], p)[0] == 1
    info = is_prime.cache_info()
    assert (info.misses, info.hits) == (1, 4)
    for _ in range(2):
        with pytest.raises(ValueError, match="modulus must be prime"):
            rank_nullspace([[1]], p - 2)      # 2^31 - 3 = 5 * 429496729
    assert is_prime.cache_info().misses == 2


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

# the largest prime below 2^25: inner * (P25 - 1)^2 < 2^53 up to inner 8
P25 = 33554393


def reference_matmul(A, B, p):
    """A @ B mod p on Python integers, which never overflow or round."""
    cols = list(zip(*B.tolist())) if B.size else [()] * B.shape[1]
    return [[sum(int(a) * int(b) for a, b in zip(row, col)) % p
             for col in cols] for row in A.tolist()]


@pytest.mark.parametrize("p", [3, 13, P25])
@pytest.mark.parametrize("inner", [0, 1, 7, 8, 9, 40])
def test_matmul_mod_matches_python_integers(p, inner):
    assert is_prime(P25)
    assert 8 * (P25 - 1) ** 2 < 2**53 < 9 * (P25 - 1) ** 2
    rng = np.random.default_rng(1000 * inner + p % 1000)
    for rows, cols in ((1, 1), (5, 6), (0, 3)):
        A = rng.integers(0, p, size=(rows, inner), dtype=np.int64)
        B = rng.integers(0, p, size=(inner, cols), dtype=np.int64)
        A[:, :2] = p - 1                   # the largest products
        got = matmul_mod(A, B, p)
        assert got.dtype == np.int64 and got.shape == (rows, cols)
        assert got.tolist() == reference_matmul(A, B, p)


def test_matmul_mod_leaves_float64_past_the_exactness_bound():
    """At inner dimension 9 and p = P25 the exact product below is odd and
    above 2^53, so float64 cannot hold it; the int64 path gets it right."""
    p = P25
    A = np.array([[p - 1] * 8 + [p - 2]], dtype=np.int64)
    B = A.T.copy()
    exact = 8 * (p - 1) ** 2 + (p - 2) ** 2
    assert exact > 2**53 and exact % 2 == 1
    in_float = int((A.astype(np.float64) @ B.astype(np.float64))[0, 0])
    assert in_float != exact
    assert matmul_mod(A, B, p).tolist() == [[exact % p]]
    # one term fewer stays under the bound, where float64 is exact
    assert matmul_mod(A[:, 1:], B[1:], p).tolist() == \
        [[(exact - (p - 1) ** 2) % p]]


# ---------------------------------------------------------------------------
# complements
# ---------------------------------------------------------------------------

def test_choose_complement_spans():
    """Standard basis vectors chosen by greedy_extend complete a span."""
    rng = np.random.default_rng(7)
    eye = np.eye(6, dtype=np.int64)
    for _ in range(10):
        p = 5
        W = rng.integers(0, p, size=(2, 6))
        wrank = rank_nullspace(W, p)[0]
        idx = greedy_extend(W, eye, p)
        assert len(idx) == 6 - wrank
        stacked = np.vstack([W % p, eye[idx]])
        assert rank_nullspace(stacked, p)[0] == 6


def test_choose_complement_deterministic_and_order_sensitive():
    W = np.array([[1, 1, 0]])
    eye = np.eye(3, dtype=np.int64)
    assert greedy_extend(W, eye, 5) == [0, 2]  # greedy takes e_0 first
    order = [2, 1, 0]
    assert [order[k] for k in greedy_extend(W, eye[order], 5)] == [2, 1]


def test_greedy_extend_respects_existing_basis():
    basis = np.array([[1, 0, 0]])
    cands = np.array([[1, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert greedy_extend(basis, cands, 3) == [2, 3]


def test_greedy_extend_edge_cases_match_reference():
    eye = np.eye(3, dtype=np.int64)
    cases = [
        (np.zeros((0, 3), dtype=np.int64), eye),            # empty basis
        (np.array([[0, 0, 0], [1, 2, 0], [2, 4, 0]]), eye),  # zero, dependent
        (eye, eye),                                           # already full
        (np.array([[1, 0, 0]]), np.vstack([eye, eye])),       # fills early
    ]
    for basis, cands in cases:
        assert greedy_extend(basis, cands, 5) == \
            reference_greedy_extend(basis, cands, 5)
    assert greedy_extend(np.zeros((0, 3)), eye, 5) == [0, 1, 2]
    assert greedy_extend(eye, eye, 5) == []


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 5, 7, 11]),
       st.integers(1, 6), st.integers(0, 4), st.integers(0, 8),
       st.integers(1, 6), st.booleans(), st.booleans())
def test_greedy_extend_matches_incremental_reference(seed, p, n, nb, nc,
                                                     cand_rank, degenerate,
                                                     fill):
    rng = np.random.default_rng(seed)
    basis = rng.integers(0, p, size=(nb, n))
    if degenerate and nb:
        # a zero row and a combination of the earlier rows
        combo = (rng.integers(0, p, size=nb) @ basis) % p
        basis = np.vstack([basis, np.zeros((1, n), dtype=np.int64), combo])
    r = min(cand_rank, n)
    cands = (rng.integers(0, p, size=(nc, r))
             @ rng.integers(0, p, size=(r, n))) % p
    if fill:
        # the span fills before the candidate list ends
        cands = np.vstack([cands, np.eye(n, dtype=np.int64),
                           rng.integers(0, p, size=(2, n))])
    assert greedy_extend(basis, cands, p) == \
        reference_greedy_extend(basis, cands, p)


# ---------------------------------------------------------------------------
# graded spaces
# ---------------------------------------------------------------------------

def _space():
    return GradedVectorSpace(
        prime=3,
        window=(-4, 0),
        blocks={
            Bidegree(0, 0): ["u"],
            Bidegree(-1, 2): ["a", "b"],
            Bidegree(-2, 2): ["c"],
        },
    )


def test_graded_space_basics():
    V = _space()
    assert V.dim((0, 0)) == 1
    assert V.dim((-3, 5)) == 0  # in window, absent: genuinely zero
    assert V.bidegree_of("b") == Bidegree(-1, 2)
    assert V.total_dim() == 4
    with pytest.raises(TruncationExceeded):
        V.dim((-5, 0))  # outside window: unknown


def test_graded_space_rejects_duplicates_and_out_of_window():
    with pytest.raises(ValueError):
        GradedVectorSpace(3, (-1, 0), {Bidegree(0, 0): ["u", "u"]})
    with pytest.raises(ValueError):
        GradedVectorSpace(3, (-1, 0), {Bidegree(1, 0): ["v"]})


def test_vector_converters_roundtrip():
    V = _space()
    arr = V.to_array((-1, 2), {"b": 2})
    assert list(arr) == [0, 2]
    assert V.to_dict((-1, 2), arr) == {"b": 2}
