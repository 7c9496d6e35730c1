"""Exact linear algebra kit: oracle checks and invariants.

The rank oracle below is written independently of the elimination code:
rank = size of the largest square submatrix with nonzero determinant,
determinants computed by cofactor expansion on exact integers mod p.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ainfbg.glin import (
    Bidegree,
    GradedVectorSpace,
    TruncationExceeded,
    greedy_extend,
    inverse_table,
    invert,
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


def reference_greedy_extend(basis, candidates, p):
    """Incremental greedy extension, one candidate row at a time: the
    reference for the pivot-column `greedy_extend`.  Rows are kept
    mutually reduced, so reducing a candidate against them is one pass.
    """
    inv = inverse_table(p)
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
        v = (v * inv[v[lead(v)]]) % p
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
    rng = np.random.default_rng(seed)
    if kind == "zero":
        M = np.zeros((rows, cols), dtype=np.int64)
    elif kind == "rank1":
        M = np.outer(rng.integers(1, p, size=rows), rng.integers(0, p, size=cols))
    elif kind == "full":
        k = min(rows, cols)
        M = rng.integers(0, p, size=(rows, cols))
        M[:k, :k] = np.triu(M[:k, :k], 1) + np.diag(rng.integers(1, p, size=k))
        M = M[rng.permutation(rows)]
    else:
        M = rng.integers(0, p, size=(rows, cols))
    rank, null, pivots = rank_nullspace(M, p)
    if kind == "full":
        assert rank == min(rows, cols)
    assert pivots == row_reduce(M, p).pivot_cols
    assert greedy_extend(null, np.eye(cols, dtype=np.int64), p) == list(pivots)


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


def test_inverse_table():
    for p in (3, 5, 7):
        inv = inverse_table(p)
        for a in range(1, p):
            assert (a * inv[a]) % p == 1
    with pytest.raises(ValueError):
        inverse_table(6)


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
