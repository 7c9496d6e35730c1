"""Exact linear algebra over prime fields, organized by bidegree.

Everything downstream (cohomology of endomorphism complexes, homotopy
transfer, Massey powers) reduces to dense elimination on small blocks
indexed by a bidegree (homological degree, internal degree).  Matrices are
numpy int64 arrays with entries in [0, p); pivoting is greedy in the given
basis order, so every choice made here is deterministic and reproducible.

Conventions:
  * matrices act on column vectors: out = M @ v (shape target x source);
  * a basis is a 2-D array whose *rows* are the basis vectors;
  * differentials lower homological degree s by one and preserve the
    internal degree w.

All elimination runs through one kernel, `_eliminate`.  Only `row_reduce`
builds a transform (it reduces [M | I]); `invert` and `solve` read that
transform, while `rank_nullspace` and `greedy_extend` reduce M alone and
need only its echelon form and pivot columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

__all__ = [
    "TruncationExceeded",
    "Bidegree",
    "GradedVectorSpace",
    "inverse_table",
    "is_prime",
    "row_reduce",
    "rank_nullspace",
    "solve",
    "invert",
    "greedy_extend",
    "PivotData",
]


class TruncationExceeded(Exception):
    """A computation left the degree window.

    Out-of-window values are unknown, never zero; the caller must enlarge
    the window instead of treating this as a vanishing result.
    """


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=None)
def inverse_table(p: int) -> np.ndarray:
    """Multiplicative inverses mod p as an int64 array; index 0 holds 0."""
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    inv = np.zeros(p, dtype=np.int64)
    for a in range(1, p):
        inv[a] = pow(a, p - 2, p)
    return inv


def _as_matrix(M, p: int) -> np.ndarray:
    A = np.array(M, dtype=np.int64, copy=True)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={A.ndim}")
    return A % p


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


def _eliminate(A: np.ndarray, p: int, ncols: int) -> tuple[int, ...]:
    """Reduce A in place to reduced row echelon form on its first ncols
    columns; returns the pivot columns.

    A holds int64 entries in [0, p).  Row operations act on whole rows, so
    columns past ncols are carried along without pivoting in them.  The
    pivot rule (first nonzero entry in the first unused column) is what
    keeps splittings deterministic.
    """
    rows = A.shape[0]
    inv = inverse_table(p)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        A[r] = (A[r] * inv[A[r, c]]) % p
        other = np.nonzero(A[:, c])[0]
        other = other[other != r]
        if other.size:
            A[other] = (A[other] - A[other, c][:, None] * A[r]) % p
        pivots.append(c)
        r += 1
    return tuple(pivots)


def row_reduce(M, p: int) -> PivotData:
    """Reduced row echelon form with greedy left-to-right pivoting.

    Returns the rref R, an invertible transform T with T @ M == R mod p,
    and the pivot columns; T is read off the right half of [M | I].
    """
    A = _as_matrix(M, p)
    rows, cols = A.shape
    A = np.hstack([A, np.eye(rows, dtype=np.int64)])
    pivots = _eliminate(A, p, cols)
    return PivotData(rref=A[:, :cols], transform=A[:, cols:],
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
    cols = A.shape[1]
    pivots = _eliminate(A, p, cols)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    if pivots:
        basis[:, pivots] = (-A[:len(pivots), free].T) % p
    return len(pivots), basis, pivots


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
    pivots = _eliminate(A, p, A.shape[1])
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

    The window gives inclusive bounds on the homological degree s.  Inside
    the window an absent bidegree means a zero space; outside it nothing is
    known.  Treated as immutable once built.
    """

    prime: int
    window: tuple[int, int]
    blocks: dict[Bidegree, list[str]]
    _index: dict[str, tuple[Bidegree, int]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not is_prime(self.prime):
            raise ValueError(f"prime required, got {self.prime}")
        lo, hi = self.window
        if lo > hi:
            raise ValueError(f"empty window {self.window}")
        clean: dict[Bidegree, list[str]] = {}
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
        bd = Bidegree(*bd)
        self.require_in_window(bd.s)
        return len(self.blocks.get(bd, ()))

    def labels(self, bd) -> list[str]:
        bd = Bidegree(*bd)
        self.require_in_window(bd.s)
        return self.blocks.get(bd, [])

    def bidegree_of(self, label: str) -> Bidegree:
        return self._index[label][0]

    def index_of(self, label: str) -> int:
        return self._index[label][1]

    def has_label(self, label: str) -> bool:
        return label in self._index

    def bidegrees(self) -> Iterator[Bidegree]:
        return iter(sorted(self.blocks))

    def total_dim(self) -> int:
        return sum(len(v) for v in self.blocks.values())

    def restricted(self, window: tuple[int, int]) -> "GradedVectorSpace":
        """The same space seen through a narrower window."""
        lo, hi = window
        if lo < self.window[0] or hi > self.window[1]:
            raise ValueError(f"window {window} not inside {self.window}")
        blocks = {bd: labs for bd, labs in self.blocks.items()
                  if lo <= bd.s <= hi}
        return GradedVectorSpace(prime=self.prime, window=window,
                                 blocks=blocks)

    # -- converters between sparse dict vectors and dense block arrays ----

    def to_array(self, bd, vec: dict[str, int]) -> np.ndarray:
        bd = Bidegree(*bd)
        arr = np.zeros(self.dim(bd), dtype=np.int64)
        for lab, c in vec.items():
            where, i = self._index[lab]
            if where != bd:
                raise ValueError(f"label {lab!r} not in bidegree {bd}")
            arr[i] = c % self.prime
        return arr

    def to_dict(self, bd, arr: np.ndarray) -> dict[str, int]:
        bd = Bidegree(*bd)
        labels = self.labels(bd)
        return {labels[i]: int(c % self.prime)
                for i, c in enumerate(arr) if c % self.prime}
