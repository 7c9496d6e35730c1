"""Differential graded algebras and homotopy-transfer data.

Three things live here:

  * DGAlgebra -- a bigraded associative algebra over F_p with a square-zero
    differential of bidegree (-1, 0), presented through basis-level
    callables so large complexes never materialize dense product tables;
  * Contraction -- a per-bidegree strong deformation retraction of such
    an algebra onto its homology, with d^2 = 0 checked exactly on every
    block and the retraction identities on each block's first read;
  * massey_power() and cobar() -- the two constructions that consume a
    contraction or a minimal model: iterated Massey powers of a single
    class, and the cobar algebra of a minimal structure.

All splittings are greedy in the stored basis order, so two runs over the
same data give byte-identical answers; reordering a basis is the supported
way to probe how much of an answer is an artifact of choices.

Products obey one composability rule: every label has a `source` and a
`target` key, and products(a, b) is {} and never raises unless
source(a) == target(b).  `mult` calls `products` only on such pairs, and
`validate_dga` certifies the rule on every pair it multiplies.  By
default every label has the same key, so every pair composes.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from typing import Callable, Hashable, NamedTuple

import numpy as np

from .ainf import AInfinityAlgebra
from .glin import (
    Bidegree,
    GradedVectorSpace,
    ParameterError,
    TruncationExceeded,
    _eliminate,
    back_substitute,
    echelon,
    matmul_mod,
)
# unused here, but the benchmark's tracer rebinds these names in this module
from .glin import (  # noqa: F401
    greedy_extend, invert, rank_nullspace, row_reduce, solve)

__all__ = [
    "CertificationError",
    "DGAlgebra",
    "ValidationReport",
    "validate_dga",
    "Contraction",
    "contraction",
    "MasseyReport",
    "massey_power",
    "cobar",
    "cobar_letters",
    "reorder_blocks",
]

# a vector by its nonzero coefficients on basis labels, any hashables
Vector = dict[Hashable, int]


class CertificationError(Exception):
    """An exact structure identity failed: the data cannot be trusted."""


# ---------------------------------------------------------------------------
# container
# ---------------------------------------------------------------------------

def _same_key(lab: Hashable) -> int:
    """The default composability key: every pair of labels composes."""
    return 0


@dataclass
class DGAlgebra:
    """Associative DGA over F_p given by basis-level structure callables.

    products(a, b) returns the basis expansion of a*b; diff(a) returns d(a).
    Both must be degree-homogeneous (product adds bidegrees, d shifts by
    (-1, 0)) and must raise TruncationExceeded whenever a nonzero part of
    the answer would leave the window -- returning {} means provably zero.
    Basis labels are any hashables, read only through these callables.

    source and target are label keys with the contract: products(a, b) is
    {} and never raises unless source(a) == target(b).  `mult` multiplies
    only those pairs, and `validate_dga` checks the contract.  The default
    keys are constant, so every pair composes.
    """

    space: GradedVectorSpace
    unit: Vector
    products: Callable[[Hashable, Hashable], Vector]
    diff: Callable[[Hashable], Vector]
    name: str = ""
    source: Callable[[Hashable], object] = _same_key
    target: Callable[[Hashable], object] = _same_key

    @property
    def prime(self) -> int:
        return self.space.prime

    def d(self, vec: Vector) -> Vector:
        p = self.prime
        out: Vector = {}
        for lab, c in vec.items():
            for olab, oc in self.diff(lab).items():
                out[olab] = (out.get(olab, 0) + c * oc) % p
        return {k: v for k, v in out.items() if v}

    def mult(self, u: Vector, v: Vector) -> Vector:
        p = self.prime
        by_target: dict[object, list[tuple[Hashable, int]]] = {}
        for lb, cb in v.items():
            by_target.setdefault(self.target(lb), []).append((lb, cb))
        out: Vector = {}
        for la, ca in u.items():
            for lb, cb in by_target.get(self.source(la), ()):
                for olab, oc in self.products(la, lb).items():
                    out[olab] = (out.get(olab, 0) + ca * cb * oc) % p
        return {k: v for k, v in out.items() if v}

    def diff_block(self, bd) -> SparseBlock:
        """Matrix of d on the block at bd, mapping into bd + (-1, 0), by
        its nonzero entries."""
        out = Bidegree(bd[0] - 1, bd[1])
        space = self.space
        labels = space.labels(bd)
        p, diff, index = self.prime, self.diff, space._index
        # each image is written into its column through the label index
        row: list[int] = []
        col: list[int] = []
        values: list[int] = []
        for j, lab in enumerate(labels):
            for olab, c in diff(lab).items():
                where, i = index[olab]
                if where != out:
                    raise ValueError(f"label {olab!r} not in bidegree {out}")
                if c := c % p:
                    row.append(i)
                    col.append(j)
                    values.append(c)
        return SparseBlock((space.dim(out), len(labels)), row, col, values)


class SparseBlock(NamedTuple):
    """A block matrix by its nonzero entries: entry k is values[k] at
    (row[k], col[k]).  The eliminations read its entries; a product reads
    an int64 array that `dense` builds for that read alone."""

    shape: tuple[int, int]
    row: list[int]
    col: list[int]
    values: list[int]

    def rows(self) -> list[dict[int, int]]:
        """One {column: value} dict per row, as `glin.echelon` takes them."""
        out: list[dict[int, int]] = [{} for _ in range(self.shape[0])]
        for i, j, v in zip(self.row, self.col, self.values):
            out[i][j] = v
        return out

    def kills(self, other: SparseBlock, cols: list[int], p: int) -> bool:
        """Whether self @ other[:, cols] = 0 over F_p, multiplied out on
        the nonzero entries alone."""
        by_col = defaultdict(list)
        for k, i, v in zip(self.row, self.col, self.values):
            by_col[i].append((k, v))
        want = set(cols)
        out: dict[tuple[int, int], int] = defaultdict(int)
        for i, j, w in zip(other.row, other.col, other.values):
            if j in want:
                for k, v in by_col.get(i, ()):
                    out[k, j] += v * w
        return not any(x % p for x in out.values())

    def dense(self) -> np.ndarray:
        M = np.zeros(self.shape, dtype=np.int64)
        M[self.row, self.col] = self.values
        return M


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    d_squared_checked: int = 0
    leibniz_checked: int = 0
    assoc_checked: int = 0
    unit_checked: int = 0


def validate_dga(dga: DGAlgebra, *, pair_sample: int | None = None,
                 triple_sample: int | None = None,
                 seed: int = 0) -> ValidationReport:
    """Check d^2 = 0, the Leibniz rule, associativity, and unitality.

    Exhaustive by default; pass sample sizes to spot-check large algebras.
    Every pair whose product is taken is also checked against the
    composability contract: when source(a) != target(b), a nonzero or
    raising products(a, b) fails certification.
    Degrees within two steps of the window floor are skipped for d^2 (the
    second differential is not representable there), and pairs or triples
    whose products leave the window are skipped as unknowable: a triple
    (a, b, c) is skipped iff ab, bc, some xc with x in ab, or some ay with
    y in bc raises TruncationExceeded.

    One call computes d of each label at most once, and remembers a label
    whose d leaves the window.  When the Leibniz or the associativity pass
    tries every pair or triple (a sample size of None, or at least n^2
    pairs or n^3 triples for n basis labels), the call first builds the
    product table, one `products` call per ordered pair of labels, and the
    Leibniz, associativity and unit passes read every product from it; a
    pair whose product leaves the window is kept as such, and a product
    naming a label outside the basis fails certification.  Read from the
    table, exhaustive Leibniz and associativity passes visit only the pairs
    and triples where some side of the identity can be nonzero or leave the
    window; every other pair or triple has all its sides zero and is
    counted without a visit.  The counts, the checked identities and the
    pair or triple a failure names are those of trying every pair and
    triple in product order, labels in basis order.
    Without the table each product is computed when a check asks for it,
    on composable pairs only, as `DGAlgebra.mult` does: drawn pairs and
    triples hardly repeat a product.  A sampled pass draws all its pairs
    or triples from the seeded generator in one batch, the same stream as
    one draw per pair or triple.
    """
    rep = ValidationReport()
    space = dga.space
    p = dga.prime
    lo, hi = space.window
    labels = [lab for bd in space.bidegrees() for lab in space.labels(bd)]
    n = len(labels)
    every_pair = pair_sample is None or pair_sample >= n ** 2
    every_triple = triple_sample is None or triple_sample >= n ** 3
    tabled = every_pair or every_triple
    source, target = dga.source, dga.target
    # d of a label, None where it leaves the window; if tabled, the nonzero
    # products and, as None, the pairs whose product leaves it, with their
    # neighbours: right[a] every b and left[b] every a of such a pair (a, b)
    diffs: dict[Hashable, Vector | None] = {}
    table: dict[tuple[Hashable, Hashable], Vector | None] = {}
    right: dict[Hashable, set] = defaultdict(set)
    left: dict[Hashable, set] = defaultdict(set)

    def d_label(lab: Hashable) -> Vector:
        if lab not in diffs:
            try:
                diffs[lab] = dga.d({lab: 1})
            except TruncationExceeded:
                diffs[lab] = None
        if (dl := diffs[lab]) is None:
            raise TruncationExceeded(f"d({lab!r}) leaves the window")
        return dl

    def d(vec: Vector) -> Vector:
        out: Vector = {}
        for x, cx in vec.items():
            for y, cy in d_label(x).items():
                out[y] = (out.get(y, 0) + cx * cy) % p
        return {k: c for k, c in out.items() if c} if out else out

    def product(a: Hashable, b: Hashable) -> Vector:
        """_product(dga, a, b), read from the table if there is one."""
        if not tabled:
            return _product(dga, a, b)
        ab = table.get((a, b), {})
        if ab is None:
            raise TruncationExceeded(f"{a!r}*{b!r} leaves the window")
        return ab

    def mult(u: Vector, v: Vector) -> Vector:
        """DGAlgebra.mult through `product`: composable pairs only."""
        out: Vector = {}
        for x, cx in u.items():
            sx = source(x)
            for y, cy in v.items():
                if sx != target(y):
                    continue
                for z, cz in product(x, y).items():
                    out[z] = (out.get(z, 0) + cx * cy * cz) % p
        return {k: c for k, c in out.items() if c} if out else out

    rng = np.random.default_rng(seed)

    def tuples(width: int, k: int):
        drawn = np.fromiter(labels, object, n)[rng.integers(0, n, (k, width))]
        return zip(*drawn.T)

    if tabled:
        for a, b in itertools.product(labels, repeat=2):
            try:
                if not (ab := _product(dga, a, b)):
                    continue
            except TruncationExceeded:
                ab = None
            table[a, b] = ab
            right[a].add(b)
            left[b].add(a)
        outside = {x for ab in table.values() if ab for x in ab} - set(labels)
        if outside:
            raise CertificationError(
                f"products name labels outside the basis: {sorted(outside)}")

    for lab in labels:
        if space.bidegree_of(lab).s < lo + 2:
            continue
        dd = d(d_label(lab))
        if dd:
            raise CertificationError(f"d^2 != 0 on {lab!r}: {dd}")
        rep.d_squared_checked += 1

    sign = {lab: -1 if space.bidegree_of(lab).s % 2 else 1 for lab in labels}
    if every_pair:
        pairs, rep.leibniz_checked = _leibniz_pairs(labels, right, left,
                                                    d_label)
    else:
        pairs = tuples(2, pair_sample)
    for a, b in pairs:
        try:
            lhs = d(product(a, b))
            rhs = _add(mult(d_label(a), {b: 1}),
                       _scale(mult({a: 1}, d_label(b)), sign[a], p), p)
        except TruncationExceeded:
            continue
        if lhs != rhs:
            raise CertificationError(f"Leibniz fails on ({a!r}, {b!r})")
        rep.leibniz_checked += 1

    if every_triple:
        rep.assoc_checked = _associative_triples(labels, table, right, left,
                                                 mult)
    else:
        for a, b, c in tuples(3, triple_sample):
            try:
                left = mult(product(a, b), {c: 1})
                right = mult({a: 1}, product(b, c))
            except TruncationExceeded:
                continue
            if left != right:
                raise CertificationError(
                    f"associativity fails on ({a!r},{b!r},{c!r})")
            rep.assoc_checked += 1

    # the unit's labels by key: a unit check multiplies only the part of
    # the unit that composes with the label, all that `mult` would use
    unit_by_source: dict[object, Vector] = {}
    unit_by_target: dict[object, Vector] = {}
    for e, c in dga.unit.items():
        unit_by_source.setdefault(source(e), {})[e] = c
        unit_by_target.setdefault(target(e), {})[e] = c
    for lab in labels:
        if mult(unit_by_source.get(target(lab), {}), {lab: 1}) != {lab: 1}:
            raise CertificationError(f"left unit on {lab!r}")
        if mult({lab: 1}, unit_by_target.get(source(lab), {})) != {lab: 1}:
            raise CertificationError(f"right unit on {lab!r}")
        rep.unit_checked += 1
    return rep


def _product(dga: DGAlgebra, a: Hashable, b: Hashable) -> Vector:
    """dga.products(a, b), failing certification if the pair breaks the
    composability contract."""
    if dga.source(a) == dga.target(b):
        return dga.products(a, b)
    try:
        ab = dga.products(a, b)
    except TruncationExceeded:
        raise CertificationError(
            f"non-composable pair ({a!r}, {b!r}) leaves the window") from None
    if ab:
        raise CertificationError(
            f"non-composable pair ({a!r}, {b!r}) has product {ab}")
    return ab


def _leibniz_pairs(labels: list, right: dict[Hashable, set],
                   left: dict[Hashable, set],
                   d_label: Callable[[Hashable], Vector]
                   ) -> tuple[list[tuple], int]:
    """The pairs of `labels` whose Leibniz identity can fail, in product
    order, and the number of the other checkable pairs.

    A pair is checkable when d of both its labels stays in the window
    (`d_label` raises TruncationExceeded where it leaves).  `right` and
    `left` are as for `_associative_triples`.  A checkable pair (a, b)
    outside the list has ab = 0, xb = 0 for every x in d(a) and ay = 0 for
    every y in d(b), none of them raising: all three sides are zero.
    """
    diffs: dict[Hashable, Vector] = {}
    for lab in labels:
        try:
            diffs[lab] = d_label(lab)
        except TruncationExceeded:
            pass
    # partners[a]: every b with ab, some xb or some ay nonzero or raising
    partners = {a: right[a].union(*(right[x] for x in da))
                for a, da in diffs.items()}
    for b, db in diffs.items():
        for a in partners.keys() & set().union(*(left[y] for y in db)):
            partners[a].add(b)
    pairs = [(a, b) for a, bs in partners.items()
             for b in labels if b in bs and b in diffs]
    return pairs, len(diffs) ** 2 - len(pairs)


def _associative_triples(labels: list,
                         table: dict[tuple, Vector | None],
                         right: dict[Hashable, set],
                         left: dict[Hashable, set],
                         mult: Callable[[Vector, Vector], Vector]) -> int:
    """Number of triples of `labels` whose associativity is checkable.

    Raises CertificationError on the first triple in product order where
    (ab)c != a(bc).  `table` holds the nonzero products and, as None, the
    pairs whose product leaves the window; a pair absent from it is a zero
    product.  right[x] holds every c with xc in the table, left[y] every a
    with ay in it.  `mult` reads the table and raises TruncationExceeded
    where a product leaves the window.
    """
    n = len(labels)
    out_left = Counter(b for (_, b), ab in table.items() if ab is None)
    out_right = Counter(a for (a, _), ab in table.items() if ab is None)
    count = 0
    failed: list[tuple] = []
    for b in labels:
        # Count every triple whose outer products stay in the window, then
        # take off those an inner product leaves it for.  Outside `visit`,
        # ab = 0 or xc = 0 for every x in ab, and bc = 0 or ay = 0 for
        # every y in bc, none of them raising: both sides are zero.
        count += (n - out_left[b]) * (n - out_right[b])
        visit: set[tuple] = set()
        for a in left[b]:
            if ab := table.get((a, b)):
                cs = right[b].union(*(right[x] for x in ab))
                visit.update((a, c) for c in cs)
        for c in right[b]:
            if bc := table.get((b, c)):
                visit.update((a, c) for a in set().union(
                    *(left[y] for y in bc)))
        for a, c in visit:
            ab, bc = table.get((a, b), {}), table.get((b, c), {})
            if ab is None or bc is None:
                continue
            try:
                lhs = mult(ab, {c: 1})
                rhs = mult({a: 1}, bc)
            except TruncationExceeded:
                count -= 1
                continue
            if lhs != rhs:
                failed.append((a, b, c))
    if failed:
        a, b, c = min(failed, key=lambda abc: [labels.index(x) for x in abc])
        raise CertificationError(
            f"associativity fails on ({a!r},{b!r},{c!r})")
    return count


def _add(u: Vector, v: Vector, p: int) -> Vector:
    out = dict(u)
    for k, c in v.items():
        out[k] = (out.get(k, 0) + c) % p
    return {k: c for k, c in out.items() if c % p}


def _scale(u: Vector, c: int, p: int) -> Vector:
    return {k: (v * c) % p for k, v in u.items() if (v * c) % p}


# ---------------------------------------------------------------------------
# contraction onto homology
# ---------------------------------------------------------------------------

@dataclass
class _BlockSplit:
    f1: np.ndarray            # dim A x dim H, columns are representatives
    pi: np.ndarray            # dim H x dim A
    g: np.ndarray             # dim A_{s+1} x dim A, zero off P_{s+1}


@dataclass
class Contraction:
    """Strong deformation retraction of a DGA onto its homology, built
    from the DGA alone.

    include/project/homotopy are the three structure maps (often written
    f1, pi, G).  They satisfy, exactly and per bidegree:

        pi f1 = id,   d G + G d = id - f1 pi,
        pi G = 0,     G f1 = 0,   G G = 0.

    The contracted range, the window of `homology`, sits one degree
    inside the DGA's window at the floor (where d is not representable)
    and one at the ceiling (where incoming boundaries are unknown).  Pass
    0, in the constructor, runs the forward half of the elimination
    (`glin.echelon`) on the sparse rows of d of every block of the range
    and of the ceiling + 1, which gives its pivot columns P_s; the
    columns d(e_j), j in P_{s+1}, span the boundaries, and each block
    checks on the nonzero entries of d that d kills them (d^2 = 0).  The
    homology of block s then has dimension n - |P_s| - |P_{s+1}|.  Of
    pass 0 it keeps d by its nonzero entries and each block's pivot
    columns, nothing per row and no dense array.

    The three maps read through `_block_map`, which refuses a block
    outside the range, or at its floor over a nonzero block (where d
    leaves the range and G d is unknown), with TruncationExceeded before
    any split.  Any other block is split, and its retraction identities
    certified, on its first read, with its neighbours s +- 1 in range
    split too, since the identities read them.  Only `_split` fills
    `splits`, the three block matrices of every block split so far, and
    only `_certified_split` fills `trusted`, the certified blocks: every
    block a value has left.  A block's labels are those of `dga.space`
    and its homology labels those of `homology`.  Every failure of
    certification raises CertificationError.

    The certification's products run through `matmul_mod` and a read's
    through int64 `@`.  Both assume n (p-1)^2 + 2p < 2^63 for the largest
    block n; a DGA past that bound is a ParameterError before pass 0.
    """

    dga: DGAlgebra
    homology: GradedVectorSpace = field(init=False)
    splits: dict[Bidegree, _BlockSplit] = field(default_factory=dict,
                                                init=False)
    trusted: set[Bidegree] = field(default_factory=set, init=False)
    # from pass 0: the d blocks and the pivot columns of each block
    _d: dict[Bidegree, SparseBlock] = field(init=False, repr=False)
    _pivots: dict[Bidegree, tuple[int, ...]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        space = self.dga.space
        p = self.dga.prime
        lo, hi = space.window[0] + 1, space.window[1] - 1
        largest = max(map(len, space.blocks.values()), default=0)
        if largest * (p - 1) ** 2 + 2 * p >= 2 ** 63:
            raise ParameterError(
                f"p = {p} with a block of dimension {largest} leaves int64: "
                f"contraction needs n*(p-1)^2 + 2p < 2^63 = {2 ** 63}")

        # at ceiling + 1 only the pivot columns are trustworthy, and they
        # are all the ceiling's homotopy needs
        blocks = [bd for bd in sorted(space.blocks) if lo <= bd.s <= hi]
        self._d, self._pivots = {}, {}
        for bd in blocks + sorted(bd for bd in space.blocks
                                  if bd.s == hi + 1):
            self._d[bd] = self.dga.diff_block(bd)
            self._pivots[bd] = echelon(self._d[bd].rows(), p,
                                       space.dim(bd))[0]

        hom_blocks: dict[Bidegree, list[str]] = {}
        for bd in blocks:
            above = Bidegree(bd.s + 1, bd.w)
            up = list(self._pivots.get(above, ()))
            if up and not self._d[bd].kills(self._d[above], up, p):
                raise CertificationError(
                    f"boundaries at {bd} are not cycles (d^2 != 0?)")
            nh = space.dim(bd) - len(self._pivots[bd]) - len(up)
            hom_blocks[bd] = [f"h{bd.s}_{bd.w}_{k}" for k in range(nh)]
        self.homology = GradedVectorSpace(prime=p, window=(lo, hi),
                                          blocks=hom_blocks)

    def include(self, hvec: Vector) -> Vector:
        return self._block_map("f1", self.homology, self.dga.space, hvec)

    def project(self, avec: Vector) -> Vector:
        return self._block_map("pi", self.dga.space, self.homology, avec)

    def homotopy(self, avec: Vector) -> Vector:
        return self._block_map("g", self.dga.space, self.dga.space, avec,
                               shift=1)

    def _block_map(self, name: str, source: GradedVectorSpace,
                   target: GradedVectorSpace, vec: Vector, *,
                   shift: int = 0) -> Vector:
        """The block matrix `name` applied to a homogeneous vector of
        `source`, landing `shift` degrees up in `target`; the product is
        int64 `@`, exact under the bound that pass 0 checks."""
        if not vec:
            return {}
        bd = source.bidegree_of(next(iter(vec)))
        lo, hi = self.homology.window
        floor = bd.s == lo and self.dga.space.dim(Bidegree(lo - 1, bd.w))
        if floor or not lo <= bd.s <= hi:
            raise TruncationExceeded(
                f"bidegree {bd} {'at the floor of' if floor else 'outside'} "
                f"contracted range {(lo, hi)}")
        arr = source.to_array(bd, vec)
        split = self._certified_split(bd)
        out = (getattr(split, name) @ arr) % self.dga.prime
        return target.to_dict(Bidegree(bd.s + shift, bd.w), out)

    def _split(self, bd: Bidegree) -> _BlockSplit | None:
        """The splitting A = B + H + C of block bd and its homotopy, made
        on the first call; None where no block of the range sits.

        The forward elimination of d: A_s -> A_{s-1} in pass 0 gave
        the pivot columns P_s.  The cycles Z are the nullspace basis rows
        that `echelon` and `back_substitute` give, one per free column
        with Z[:, F] = I on the free columns F; every cycle row ends at its
        free column, so the unit vectors e_j, j in P_s, span the
        complement C of Z that a greedy scan of the unit vectors would
        pick.  The columns d(e_j), j in P_{s+1}, are a basis B of the
        boundaries, and B = B[:, F] Z.  One elimination of [B[:, F] | I],
        B's rows read off the entries of d above at the columns P_{s+1} and
        F scanned right to left, splits F into its pivot columns T and the
        rest S: a greedy scan of Z extends B by exactly the rows on S,
        which are the homology representatives H.  Only where S is
        nonempty does the split rerun the forward elimination of d, which
        is deterministic, and back-substitute those rows through its pivot
        rows.  The transform X is B[:, T]^-1, T in pivot order, so a
        vector v has B coordinates X^T v[T] and H coordinates
        v[S] - R[:, S]^T v[T] for the reduced rows R.  pi reads the H
        coordinates; the homotopy is G(d e_j) = e_j for j in P_{s+1} and
        zero on H + C, so G is X^T on the rows P_{s+1} and the columns T.
        Both are filled by one flat-index assignment each, straight from
        the entries of the reduced rows.
        """
        if (sp := self.splits.get(bd)) is not None or bd not in self._d \
                or bd.s > self.homology.window[1]:
            return sp
        space = self.dga.space
        p = self.dga.prime
        n = space.dim(bd)
        above = Bidegree(bd.s + 1, bd.w)
        up = self._pivots.get(above, ())
        pivot_set = set(self._pivots[bd])
        free = [c for c in range(n) if c not in pivot_set]
        nb, nz = len(up), len(free)
        # row k: row k of I, then d(e_j), j = up[k], on F reversed
        rows = [{nz + k: 1} for k in range(nb)]
        if up:
            at = {j: k for k, j in enumerate(up)}
            rev = {c: nz - 1 - k for k, c in enumerate(free)}
            d_up = self._d[above]
            for i, j, v in zip(d_up.row, d_up.col, d_up.values):
                if j in at and i in rev:
                    rows[at[j]][rev[i]] = v
        t_rev = _eliminate(rows, p, nz, back=True)
        if len(t_rev) < nb:
            raise CertificationError(
                f"splitting basis at {bd}: boundaries of rank {len(t_rev)} "
                f"< {nb} on the free columns are not invertible")
        # column c of the rows is free[nz - 1 - c]; S ascending in `free`
        t_set = set(t_rev)
        s_rev = [c for c in reversed(range(nz)) if c not in t_set]
        s_cols = [free[nz - 1 - c] for c in s_rev]
        h_of = {c: h for h, c in enumerate(s_rev)}
        g_at: list[int] = []
        g_val: list[int] = []
        pi_at = [h * n + j for h, j in enumerate(s_cols)]
        pi_val = [1] * len(s_cols)
        for row, c in zip(rows, t_rev):
            col = free[nz - 1 - c]
            for j, v in row.items():
                if j >= nz:
                    g_at.append(up[j - nz] * n + col)
                    g_val.append(v)
                elif j != c:
                    pi_at.append(h_of[j] * n + col)
                    pi_val.append(-v % p)
        g = np.zeros((space.dim(above), n), dtype=np.int64)
        g.flat[g_at] = g_val
        pi = np.zeros((len(s_cols), n), dtype=np.int64)
        pi.flat[pi_at] = pi_val
        f1 = back_substitute(*echelon(self._d[bd].rows(), p, n), s_cols,
                             n, p) if s_cols else np.zeros((0, n), np.int64)
        sp = self.splits[bd] = _BlockSplit(f1=f1.T.copy(), pi=pi, g=g)
        return sp

    def _certified_split(self, bd: Bidegree) -> _BlockSplit:
        """The split of block bd, its retraction identities checked exactly
        on the first call; a failure raises CertificationError, and the
        block stays unread.

        pi f1 = id, G f1 = 0 and d G + G d = id - f1 pi hold on every
        block it certifies, pi G = 0 and G G = 0 where the block above is
        in range.  Its products run through `matmul_mod`, and products
        with G read only its rows P_{s+1}, where it can be nonzero.
        """
        if bd in self.trusted:
            return self.splits[bd]
        p = self.dga.prime
        below, above = Bidegree(bd.s - 1, bd.w), Bidegree(bd.s + 1, bd.w)
        sp = self._split(bd)
        sp_dn, sp_up = self._split(below), self._split(above)

        def rows(s: int) -> list[int]:
            return list(self._pivots.get(Bidegree(s, bd.w), ()))

        nh, n = sp.pi.shape
        up = rows(bd.s + 1)
        g_up = sp.g[up]
        if np.any(matmul_mod(sp.pi, sp.f1, p) != np.eye(nh, dtype=np.int64)):
            raise CertificationError(f"pi f1 != id at {bd}")
        if np.any(matmul_mod(g_up, sp.f1, p)):
            raise CertificationError(f"G f1 != 0 at {bd}")
        if sp_up is not None:
            if np.any(matmul_mod(sp_up.pi[:, up], g_up, p)):
                raise CertificationError(f"pi G != 0 at {bd}")
            if np.any(matmul_mod(sp_up.g[np.ix_(rows(bd.s + 2), up)],
                                 g_up, p)):
                raise CertificationError(f"G G != 0 at {bd}")
        ident = matmul_mod(sp.f1, sp.pi, p)
        if sp_dn is not None:
            here = rows(bd.s)
            ident[here] += matmul_mod(sp_dn.g[here], self._d[bd].dense(), p)
        if up:
            ident += matmul_mod(self._d[above].dense()[:, up], g_up, p)
        if np.any(ident % p != np.eye(n, dtype=np.int64)):
            raise CertificationError(f"homotopy identity fails at {bd}")
        self.trusted.add(bd)
        return sp


def contraction(dga: DGAlgebra) -> Contraction:
    """The certified retraction of `dga` (see `Contraction`)."""
    return Contraction(dga)


# ---------------------------------------------------------------------------
# Massey powers
# ---------------------------------------------------------------------------

# Pinned orientation of the defining-system recursion: staircase terms
# use bar(a) = (-1)^(1+|a|) a, corrections come in through +G, and the
# final staircase sum is projected with the overall orientation
# -(-1)^(n(n-1)/2).  The n-dependent half lines the n-fold power up with
# the transferred arity-n operation so that their ratio on a diagonal
# power is -epsilon(n); it cannot be absorbed into the constant signs,
# because for odd n a flip of the bar offset leaves every diagonal
# staircase value unchanged (stage m picks up (-1)^(m+1), which cancels
# in pairs) and a flip of the homotopy's sign scales each stage by
# (-1)^(m-1), an n-independent global sign on the output.  The constant
# output sign -1 is the gauge partner of the transfer's eta = +1:
# flipping both together changes nothing observable.


@dataclass
class MasseyReport:
    """Outcome of an n-fold Massey power computation on the canonical
    defining system.

    powers[m] is the homology-basis expansion of the m-fold power
    <cls, ..., cls> for every stage m >= 2 the staircase reached; it stops
    at nfold, or at the first nonzero power below nfold, which obstructs
    every higher one.
    """

    nfold: int
    powers: dict[int, Vector]

    @property
    def defined(self) -> bool:
        return self.nfold in self.powers

    @property
    def value(self) -> Vector:
        return self.powers.get(self.nfold, {})


def massey_power(con: Contraction, cls: str, nfold: int) -> MasseyReport:
    """Iterated n-fold Massey power of a homology class.

    Uses the canonical defining system: alpha_1 is the chosen cycle
    representative, each staircase sum z_m = sum bar(alpha_k) alpha_{m-k}
    must project to zero in homology, and alpha_m = G(z_m) is the greedy
    bounding cochain.  The m-fold power is the oriented pi(z_m).
    """
    if nfold < 2:
        raise ValueError("Massey powers need nfold >= 2")
    dga = con.dga
    p = dga.prime
    # alpha_k has degree k(s+1) - 1: bar(alpha_k) = (-1)^(k(s+1)) alpha_k
    s = con.homology.bidegree_of(cls).s
    alphas: dict[int, Vector] = {1: con.include({cls: 1})}
    powers: dict[int, Vector] = {}
    for m in range(2, nfold + 1):
        z: Vector = {}
        for k in range(1, m):
            left = _scale(alphas[k], (-1) ** (k * (s + 1) % 2), p)
            z = _add(z, dga.mult(left, alphas[m - k]), p)
        if z and dga.d(z):
            raise CertificationError(
                f"staircase sum at stage {m} is not a cycle")
        orientation = -(-1) ** (m * (m - 1) // 2 % 2)
        powers[m] = _scale(con.project(z), orientation, p)
        if powers[m] or m == nfold:
            break
        alphas[m] = con.homotopy(z)
    return MasseyReport(nfold=nfold, powers=powers)


# ---------------------------------------------------------------------------
# cobar construction
# ---------------------------------------------------------------------------

def cobar_letters(model, s_bound: int) -> tuple[dict[str, Bidegree], int]:
    """The letters of the cobar algebra of `model`, its non-unit labels
    whatever they spell, with their bidegrees, and the sign of their
    degrees; raises the ValueError of any input that `cobar` rejects."""
    if not isinstance(model, AInfinityAlgebra):
        raise TypeError(f"cobar needs an AInfinityAlgebra, got {type(model)}")
    space = model.space
    letters: dict[str, Bidegree] = {}
    for bd in space.bidegrees():
        for lab in space.labels(bd):
            if lab == model.unit:
                continue
            lbd = Bidegree(-bd.s - 1, bd.w)
            if lbd.s == 0:
                raise ValueError(
                    f"letter from {lab!r} in degree 0: the word space "
                    "would be infinite per degree")
            letters[lab] = lbd
    signs = {1 if lbd.s > 0 else -1 for lbd in letters.values()}
    if len(signs) != 1:
        raise ValueError("letters on both sides of degree 0: the word space "
                         "would be infinite per degree" if signs else
                         "no letters: the model holds only its unit")
    (direction,) = signs
    if direction * s_bound <= 0:
        raise ValueError(f"word bound {s_bound} on the wrong side for "
                         f"letters of sign {direction}")
    return letters, direction


def cobar(model, s_bound: int, *, name: str = "cobar") -> DGAlgebra:
    """Cobar algebra of a minimal structure, up to word degree s_bound.

    Letters are the non-unit basis labels of the model, which are strings;
    the letter of a basis element in bidegree (s, w) sits in (-s - 1, w).
    A word is the tuple of its letters, the empty word () the unit, and
    each block lists its words in the order of their letters joined by
    "|".  A model concentrated in degrees s <= -2 yields a connected
    algebra in non-negative degrees, enumerated up to degree s_bound > 0;
    a model concentrated in degrees s >= 2 yields one in non-positive
    degrees, enumerated down to s_bound < 0.  A letter in degree 0 (from a
    model class in degree -1) would allow arbitrarily long words of
    bounded degree, which no finite window can hold, so mixed or
    degree-zero letters are rejected.  Words multiply by concatenation;
    the differential is the derivation extension of the operation tables,
    with one summand per table entry.
    """
    letters, direction = cobar_letters(model, s_bound)
    space = model.space
    p = space.prime

    # differential on letters: one term per operation-table entry
    parity = {lab: lbd.s % 2 for lab, lbd in letters.items()}
    letter_d: dict[str, Vector] = {lab: {} for lab in letters}
    for arity, table in model.ops.items():
        for word, vec in table.items():
            if any(w == model.unit for w in word):
                continue
            sigmas = [parity[w] for w in word]
            exp = sum(sigmas)
            for j in range(len(sigmas)):
                for k in range(j + 1, len(sigmas)):
                    exp += sigmas[j] * (1 + sigmas[k])
            sign = -((-1) ** (exp % 2))
            for out, c in vec.items():
                if out == model.unit:
                    continue
                target = letter_d[out]
                target[word] = (target.get(word, 0) + sign * c) % p
    letter_d = {lab: {k: v for k, v in vec.items() if v}
                for lab, vec in letter_d.items()}

    # enumerate all words between degree 0 and s_bound inclusive, on the
    # plain integers (direction * s, w); letters come in increasing
    # direction * s, so each scan stops at the first letter past the bound
    bound = direction * s_bound
    steps = sorted((direction * lbd.s, lbd.w, lab)
                   for lab, lbd in letters.items())
    found: dict[tuple[int, int], list[tuple[str, ...]]] = {(0, 0): [()]}

    def grow(prefix: tuple[str, ...], s: int, w: int) -> None:
        for ds, dw, lab in steps:
            if s + ds > bound:
                break
            word = prefix + (lab,)
            found.setdefault((s + ds, w + dw), []).append(word)
            grow(word, s + ds, w + dw)

    grow((), 0, 0)
    blocks = {Bidegree(direction * s, w): sorted(words, key="|".join)
              for (s, w), words in found.items()}
    window = (-1, s_bound) if direction > 0 else (s_bound, 1)
    wspace = GradedVectorSpace(prime=p, window=window, blocks=blocks)

    def products(u: tuple, v: tuple) -> Vector:
        bd = wspace.bidegree_of(u) + wspace.bidegree_of(v)
        if direction * bd.s > direction * s_bound:
            raise TruncationExceeded(
                f"concatenation of degree {bd.s} exceeds window {s_bound}")
        return {u + v: 1}

    def diff(word: tuple) -> Vector:
        out: dict[tuple, int] = {}
        sign = 1
        for j, lab in enumerate(word):
            head, tail = word[:j], word[j + 1:]
            for repl, c in letter_d[lab].items():
                new = head + repl + tail
                out[new] = (out.get(new, 0) + sign * c) % p
            if parity[lab]:
                sign = -sign
        return {k: v for k, v in out.items() if v}

    return DGAlgebra(space=wspace, unit={(): 1}, products=products,
                     diff=diff, name=name)


# ---------------------------------------------------------------------------
# basis reordering (for determinism / indeterminacy probes)
# ---------------------------------------------------------------------------

def reorder_blocks(dga: DGAlgebra,
                   key: Callable[[Bidegree, list], list]) -> DGAlgebra:
    """Same algebra, new basis order inside each bidegree block.

    The structure callables are label-based, so only the stored order (and
    with it every greedy choice downstream) changes.
    """
    blocks = {bd: key(bd, list(labs)) for bd, labs in dga.space.blocks.items()}
    for bd, labs in blocks.items():
        if sorted(labs) != sorted(dga.space.blocks[bd]):
            raise ValueError(f"reordering at {bd} is not a permutation")
    space = GradedVectorSpace(prime=dga.prime, window=dga.space.window,
                              blocks=blocks)
    return replace(dga, space=space, unit=dict(dga.unit))
