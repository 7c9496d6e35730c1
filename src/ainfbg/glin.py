"""Exact linear algebra over prime fields, organized by bidegree.

Everything downstream (cohomology of endomorphism complexes, homotopy
transfer, Massey powers) reduces to elimination on small, sparse blocks
indexed by a bidegree (homological degree, internal degree).  Matrices are
numpy int64 arrays with entries in [0, p); pivoting is greedy in the given
basis order, so every choice made here is deterministic and reproducible.

Conventions:
  * matrices act on column vectors: out = M @ v (shape target x source);
  * a basis is a 2-D array whose *rows* are the basis vectors;
  * differentials lower homological degree s by one and preserve the
    internal degree w.

All elimination runs through one kernel, `_eliminate`, which reduces a
matrix held as sparse rows ({column: value} dicts, as `_rows` reads them
off an int64 array) in place.  Its forward half, which skips back
substitution, gives every pivot set and nullspace: `echelon` runs it and
keeps the pivot rows, from which `back_substitute` reads the nullspace
rows asked for; `rank_nullspace` reads all of them and `greedy_extend`
the pivots alone.  The back half, run after the forward half, builds a
transform where [M | I] is reduced: `row_reduce` does so for `invert`
and `solve`, and `dga`'s splits on the sparse rows of [B | I] that they
read off d.  `dga.contraction` keeps only the pivot columns of d's
sparse rows; a split with homology reruns `echelon` for that pair.  Block
products run through `matmul_mod`: in float64 BLAS while every partial
sum is an integer below 2^53 (Dumas, Giorgi & Pernet, "Dense linear
algebra over word-size prime fields: the FFLAS and FFPACK packages", ACM
TOMS 35(3), 2008), in int64 past that bound.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from typing import Hashable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "ParameterError",
    "TruncationExceeded",
    "Bidegree",
    "GradedVectorSpace",
    "is_prime",
    "matmul_mod",
    "row_reduce",
    "rank_nullspace",
    "echelon",
    "back_substitute",
    "solve",
    "invert",
    "greedy_extend",
    "PivotData",
]


class ParameterError(ValueError):
    """Invalid user input: group parameters, window or arity (exit code 2)."""


class TruncationExceeded(Exception):
    """A computation left the degree window.

    Out-of-window values are unknown, never zero; the caller must enlarge
    the window instead of treating this as a vanishing result.
    """


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def is_prime(p: int) -> bool:
    """Trial division, once per modulus: every elimination asks again."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _as_matrix(M, p: int) -> np.ndarray:
    A = np.array(M, dtype=np.int64, copy=True)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={A.ndim}")
    return A % p


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p as int64 in [0, p), for int64 inputs in [0, p).

    While inner * (p - 1)^2 < 2^53 for the inner dimension, every partial
    sum is an integer that float64 holds exactly, so BLAS gives the exact
    product in any summation order.  Past that bound the product runs in
    int64; keeping inner * (p - 1)^2 below 2^63 there is the caller's
    guard.
    """
    if A.shape[1] * (p - 1) ** 2 < 2 ** 53:
        C = A.astype(np.float64) @ B.astype(np.float64)
        return C.astype(np.int64) % p
    return (A @ B) % p


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PivotData:
    """Row-reduction certificate: transform @ matrix == rref (mod p)."""

    rref: np.ndarray
    transform: np.ndarray
    pivot_cols: tuple[int, ...]
    prime: int

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)


def _eliminate(rows: list[dict[int, int]], p: int, ncols: int, *,
               back: bool) -> tuple[int, ...]:
    """Row-reduce a matrix in place on its first ncols columns; returns
    the pivot columns.

    The matrix is a list of rows, each a {column: value} dict of its
    nonzero entries, Python ints in [0, p): the blocks are small and
    sparse, so no pivot makes an array call.  Row operations act on whole
    rows, so columns past ncols are carried along without pivoting in
    them.  The pivot rule (first nonzero entry in the first unused column)
    is what keeps splittings deterministic.  Each pivot is inverted as
    a^(p-2).

    The forward half clears each pivot's column below it: the first rank
    rows end as those of a row echelon form, each with a 1 at its pivot
    and nothing to its left.  Before column c is pivoted at row r, no row
    at or below r holds a column left of c, since each pivot cleared its
    column below it and a pivot row holds nothing left of its pivot.  So
    the rows at or below r that hold c are those whose first column is c,
    and the forward half finds them in a bucket of row positions keyed by
    first column, without a scan: the smallest position in the bucket is
    the row a scan down from r would pick as pivot, every other row gets
    the subtraction it would get, which reads only the pivot row, and is
    filed again by its new first column; a row with none below ncols
    leaves the buckets.  With `back`, the back half then runs from
    the last pivot row up, clearing each row at the later pivot columns it
    holds with rows already reduced, so the rows end in reduced row
    echelon form.  The rows below the rank get only forward operations, as
    they would with each pivot clearing its column both ways, and the
    reduced pivot rows are unique, so the order of the halves changes no
    entry.
    """
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    pivots: list[int] = []
    first: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        if (m := min(row, default=ncols)) < ncols:
            first.setdefault(m, set()).add(i)
    r = 0
    for c in range(ncols):
        if not first:
            break
        if (bucket := first.pop(c, None)) is None:
            continue
        pr = min(bucket)
        bucket.remove(pr)
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            if (m := min(rows[pr], default=ncols)) < ncols:
                first[m].remove(r)
                first[m].add(pr)
        inv = pow(rows[r][c], p - 2, p)
        piv = rows[r] = {j: v * inv % p for j, v in rows[r].items()}
        for i in bucket:
            row = rows[i]
            _subtract(row, row[c], piv, p)
            if (m := min(row, default=ncols)) < ncols:
                first.setdefault(m, set()).add(i)
        pivots.append(c)
        r += 1
    if back:
        at = {c: k for k, c in enumerate(pivots)}
        for k in reversed(range(r)):
            row = rows[k]
            # the rows after k hold no pivot column but their own, so
            # clearing one later pivot column brings in no other
            for c in [j for j in row if at.get(j, k) > k]:
                _subtract(row, row[c], rows[at[c]], p)
    return tuple(pivots)


def _subtract(row: dict[int, int], f: int, piv: dict[int, int],
              p: int) -> None:
    """row -= f * piv over F_p, in place, keeping only nonzero entries."""
    for j, v in piv.items():
        # row[j] is present whenever this is zero: f v != 0
        if x := (row.get(j, 0) - f * v) % p:
            row[j] = x
        else:
            del row[j]


def _rows(A: np.ndarray) -> list[dict[int, int]]:
    """The nonzero entries of an int64 array as `_eliminate` takes them,
    one {column: value} dict of Python ints per row."""
    at, cols = np.nonzero(A)
    rows: list[dict[int, int]] = [{} for _ in range(A.shape[0])]
    for i, j, v in zip(at.tolist(), cols.tolist(), A[at, cols].tolist()):
        rows[i][j] = v
    return rows


def _array(rows: list[dict[int, int]], ncols: int) -> np.ndarray:
    """The int64 array of ncols columns whose nonzero entries are the
    rows, given as `_eliminate` takes them: the inverse of `_rows`."""
    A = np.zeros((len(rows), ncols), dtype=np.int64)
    A.flat[[i * ncols + j for i, row in enumerate(rows) for j in row]] = \
        [v for row in rows for v in row.values()]
    return A


def row_reduce(M, p: int) -> PivotData:
    """Reduced row echelon form with greedy left-to-right pivoting.

    Returns the rref R, an invertible transform T with T @ M == R mod p,
    and the pivot columns; T is read off the right half of [M | I].
    """
    A = _as_matrix(M, p)
    n, cols = A.shape
    rows = _rows(np.hstack([A, np.eye(n, dtype=np.int64)]))
    pivots = _eliminate(rows, p, cols, back=True)
    R = _array(rows, cols + n)
    return PivotData(rref=R[:, :cols], transform=R[:, cols:],
                     pivot_cols=pivots, prime=p)


def rank_nullspace(M, p: int) -> tuple[int, np.ndarray, tuple[int, ...]]:
    """Rank, nullspace basis and pivot columns of M over F_p.

    The nullspace basis rows are in the standard echelon form: one row per
    free column, with a 1 in that column and pivot-column entries filled in
    by back substitution, so each row ends at its free column.  The pivot
    columns are those of the echelon form of M.  Deterministic for a fixed
    input.
    """
    A = _as_matrix(M, p)
    n = A.shape[1]
    pivots, rows = echelon(_rows(A), p, n)
    free = sorted(set(range(n)).difference(pivots))
    return len(pivots), back_substitute(pivots, rows, free, n, p), pivots


def echelon(rows: list[dict[int, int]], p: int, ncols: int
            ) -> tuple[tuple[int, ...], list[dict[int, int]]]:
    """The forward half of the elimination on the rows of a matrix of
    ncols columns, given as for `_eliminate` and reduced in place: the
    pivot columns, and the pivot rows of a row echelon form, from which
    `back_substitute` reads nullspace rows."""
    pivots = _eliminate(rows, p, ncols, back=False)
    return pivots, rows[:len(pivots)]


def back_substitute(pivots: tuple[int, ...], rows: list[dict[int, int]],
                    free: list[int], n: int, p: int) -> np.ndarray:
    """The nullspace basis rows at the free columns `free`, from the pivot
    columns and rows that `echelon` gives for a matrix of n columns.

    The row at free column f has a 1 at f, zeros at the other free
    columns, and at each pivot column c < f the value that the pivot row
    of c leaves no choice for, found from the last such pivot back; the
    solution is unique, so it is the row that the reduced echelon form
    gives.
    """
    out = np.zeros((len(free), n), dtype=np.int64)
    for k, f in enumerate(free):
        x = {f: 1}
        for i in reversed(range(bisect.bisect(pivots, f))):
            if v := -sum(a * x[j] for j, a in rows[i].items() if j in x) % p:
                x[pivots[i]] = v
        out[k, list(x)] = list(x.values())
    return out


def solve(pd: PivotData, b) -> np.ndarray | None:
    """One solution of M x = b from row_reduce(M) data, or None."""
    p = pd.prime
    b = np.asarray(b, dtype=np.int64) % p
    y = (pd.transform @ b) % p
    rank = pd.rank
    if np.any(y[rank:] % p):
        return None
    x = np.zeros(pd.rref.shape[1], dtype=np.int64)
    for r, c in enumerate(pd.pivot_cols):
        x[c] = y[r] % p
    return x


def invert(M, p: int) -> np.ndarray:
    """Inverse of a square matrix over F_p; raises ValueError if singular."""
    A = _as_matrix(M, p)
    n, m = A.shape
    if n != m:
        raise ValueError(f"square matrix required, got {A.shape}")
    pd = row_reduce(A, p)
    if pd.rank != n:
        raise ValueError(f"matrix of rank {pd.rank} < {n} is not invertible")
    return pd.transform % p


def greedy_extend(basis: np.ndarray, candidates: np.ndarray, p: int) -> list[int]:
    """Indices of candidate rows that greedily extend basis to a larger span.

    Scans candidates in order and keeps each row that increases the rank,
    stopping once the combined span fills the ambient space.  Returns the
    kept candidate indices: the pivot columns of [basis; candidates]^T that
    fall on candidates.
    """
    candidates = _as_matrix(candidates, p)
    basis = np.array(basis, dtype=np.int64).reshape(-1, candidates.shape[1])
    A = _as_matrix(np.vstack([basis, candidates]).T, p)
    pivots = echelon(_rows(A), p, A.shape[1])[0]
    return [c - len(basis) for c in pivots if c >= len(basis)]


# ---------------------------------------------------------------------------
# bigraded spaces
# ---------------------------------------------------------------------------

class Bidegree(NamedTuple):
    """(homological degree s, internal degree w); differentials shift by (-1, 0)."""

    s: int
    w: int

    def __add__(self, other):  # type: ignore[override]
        return Bidegree(self.s + other[0], self.w + other[1])


@dataclass
class GradedVectorSpace:
    """Finite bigraded F_p vector space with ordered basis labels per bidegree.

    Labels are any hashables: strings, (i, d, a) maps, letter tuples.  The
    window gives inclusive bounds on the homological degree s.  Inside the
    window an absent bidegree means a zero space; outside it nothing is
    known.  Treated as immutable once built.
    """

    prime: int
    window: tuple[int, int]
    blocks: dict[Bidegree, list[Hashable]]
    _index: dict[Hashable, tuple[Bidegree, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not is_prime(self.prime):
            raise ValueError(f"prime required, got {self.prime}")
        lo, hi = self.window
        if lo > hi:
            raise ValueError(f"empty window {self.window}")
        clean: dict[Bidegree, list[Hashable]] = {}
        for bd, labels in self.blocks.items():
            bd = Bidegree(*bd)
            if not lo <= bd.s <= hi:
                raise ValueError(f"bidegree {bd} outside window {self.window}")
            if labels:
                clean[bd] = list(labels)
        self.blocks = clean
        self._index = {}
        for bd, labels in self.blocks.items():
            for i, lab in enumerate(labels):
                if lab in self._index:
                    raise ValueError(f"duplicate basis label {lab!r}")
                self._index[lab] = (bd, i)

    def in_window(self, s: int) -> bool:
        return self.window[0] <= s <= self.window[1]

    def require_in_window(self, s: int) -> None:
        if not self.in_window(s):
            raise TruncationExceeded(
                f"homological degree {s} outside window {self.window}")

    def dim(self, bd) -> int:
        return len(self.labels(bd))

    def labels(self, bd) -> list[Hashable]:
        self.require_in_window(bd[0])
        return self.blocks.get(bd, [])

    def bidegree_of(self, label: Hashable) -> Bidegree:
        return self._index[label][0]

    def has_label(self, label: Hashable) -> bool:
        return label in self._index

    def bidegrees(self) -> Iterator[Bidegree]:
        return iter(sorted(self.blocks))

    def total_dim(self) -> int:
        return sum(len(v) for v in self.blocks.values())

    # -- converters between sparse dict vectors and dense block arrays ----

    def to_array(self, bd, vec: dict[Hashable, int]) -> np.ndarray:
        arr = np.zeros(self.dim(bd), dtype=np.int64)
        for lab, c in vec.items():
            where, i = self._index[lab]
            if where != bd:
                raise ValueError(f"label {lab!r} not in bidegree {bd}")
            arr[i] = c % self.prime
        return arr

    def to_dict(self, bd, arr: np.ndarray) -> dict[Hashable, int]:
        labels = self.labels(bd)
        return {labels[i]: int(c % self.prime)
                for i, c in enumerate(arr) if c % self.prime}
