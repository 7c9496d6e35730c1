"""Differential graded algebras and homotopy-transfer data.

Three things live here:

  * DGAlgebra -- a bigraded associative algebra over F_p with a square-zero
    differential of bidegree (-1, 0), presented through basis-level
    callables so large complexes never materialize dense product tables;
  * contraction() -- a per-bidegree strong deformation retraction of such
    an algebra onto its homology, with every identity checked exactly;
  * massey_power() and cobar() -- the two constructions that consume a
    contraction or a minimal model: iterated Massey powers of a single
    class, and the cobar algebra of a minimal structure.

All splittings are greedy in the stored basis order, so two runs over the
same data give byte-identical answers; reordering a basis is the supported
way to probe how much of an answer is an artifact of choices.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .glin import (
    Bidegree,
    GradedVectorSpace,
    TruncationExceeded,
    greedy_extend,
    invert,
    rank_nullspace,
)
# unused here, but the benchmark's tracer rebinds these names in this module
from .glin import row_reduce, solve  # noqa: F401

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
    "reorder_blocks",
]

Vector = dict[str, int]


class CertificationError(Exception):
    """An exact structure identity failed: the data cannot be trusted."""


# ---------------------------------------------------------------------------
# container
# ---------------------------------------------------------------------------

@dataclass
class DGAlgebra:
    """Associative DGA over F_p given by basis-level structure callables.

    products(a, b) returns the basis expansion of a*b; diff(a) returns d(a).
    Both must be degree-homogeneous (product adds bidegrees, d shifts by
    (-1, 0)) and must raise TruncationExceeded whenever a nonzero part of
    the answer would leave the window -- returning {} means provably zero.
    """

    space: GradedVectorSpace
    unit: Vector
    products: Callable[[str, str], Vector]
    diff: Callable[[str], Vector]
    name: str = ""

    @property
    def prime(self) -> int:
        return self.space.prime

    def d(self, vec: Vector) -> Vector:
        p = self.prime
        out: dict[str, int] = {}
        for lab, c in vec.items():
            for olab, oc in self.diff(lab).items():
                out[olab] = (out.get(olab, 0) + c * oc) % p
        return {k: v for k, v in out.items() if v}

    def mult(self, u: Vector, v: Vector) -> Vector:
        p = self.prime
        out: dict[str, int] = {}
        for la, ca in u.items():
            for lb, cb in v.items():
                for olab, oc in self.products(la, lb).items():
                    out[olab] = (out.get(olab, 0) + ca * cb * oc) % p
        return {k: v for k, v in out.items() if v}

    def bidegree_of(self, vec: Vector) -> Bidegree:
        bds = {self.space.bidegree_of(lab) for lab in vec}
        if len(bds) != 1:
            raise ValueError(f"vector is not homogeneous: bidegrees {bds}")
        return bds.pop()

    def diff_block(self, bd) -> np.ndarray:
        """Matrix of d on the block at bd, mapping into bd + (-1, 0)."""
        bd = Bidegree(*bd)
        out = bd + (-1, 0)
        rows = self.space.dim(out)
        labels = self.space.labels(bd)
        M = np.zeros((rows, len(labels)), dtype=np.int64)
        for j, lab in enumerate(labels):
            img = self.diff(lab)
            if img:
                M[:, j] = self.space.to_array(out, img)
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


def _parity(space: GradedVectorSpace, lab: str) -> int:
    return space.bidegree_of(lab).s % 2


def validate_dga(dga: DGAlgebra, *, d2_min_s: int | None = None,
                 pair_sample: int | None = None,
                 triple_sample: int | None = None,
                 seed: int = 0) -> ValidationReport:
    """Check d^2 = 0, the Leibniz rule, associativity, and unitality.

    Exhaustive by default; pass sample sizes to spot-check large algebras.
    Degrees within two steps of the window floor are skipped for d^2 (the
    second differential is not representable there), and pairs or triples
    whose products leave the window are skipped as unknowable: a triple
    (a, b, c) is skipped iff ab, bc, some xc with x in ab, or some ay with
    y in bc raises TruncationExceeded.

    Exhaustive associativity (triple_sample None or at least n^3) reads
    every product from a sparse table built with one `products` call per
    ordered pair of basis labels.  It compares (ab)c with a(bc) only on
    the triples where some side can be nonzero or leave the window; every
    other triple has both sides zero and is counted without a visit.  The
    count and the checked identity are those of trying every triple, and a
    product naming a label outside the basis fails certification.
    The sampled mode does not use the table: it draws its triples from the
    seeded generator and checks each one with `mult`.
    """
    rep = ValidationReport()
    space = dga.space
    p = dga.prime
    lo, hi = space.window
    if d2_min_s is None:
        d2_min_s = lo + 2
    labels = [lab for bd in space.bidegrees() for lab in space.labels(bd)]

    for lab in labels:
        if space.bidegree_of(lab).s < d2_min_s:
            continue
        dd = dga.d(dga.d({lab: 1}))
        if dd:
            raise CertificationError(f"d^2 != 0 on {lab!r}: {dd}")
        rep.d_squared_checked += 1

    rng = np.random.default_rng(seed)

    def tuples(width: int, k: int | None):
        n = len(labels)
        if k is None or k >= n ** width:
            yield from itertools.product(labels, repeat=width)
        else:
            for _ in range(k):
                yield tuple(labels[int(i)]
                            for i in rng.integers(0, n, size=width))

    for a, b in tuples(2, pair_sample):
        try:
            ab = dga.products(a, b)
            lhs = dga.d(ab)
            sign = -1 if _parity(space, a) else 1
            rhs = _add(dga.mult(dga.d({a: 1}), {b: 1}),
                       _scale(dga.mult({a: 1}, dga.d({b: 1})), sign, p), p)
        except TruncationExceeded:
            continue
        if lhs != rhs:
            raise CertificationError(f"Leibniz fails on ({a!r}, {b!r})")
        rep.leibniz_checked += 1

    if triple_sample is None or triple_sample >= len(labels) ** 3:
        rep.assoc_checked = _associative_triples(dga, labels)
    else:
        for a, b, c in tuples(3, triple_sample):
            try:
                left = dga.mult(dga.products(a, b), {c: 1})
                right = dga.mult({a: 1}, dga.products(b, c))
            except TruncationExceeded:
                continue
            if left != right:
                raise CertificationError(
                    f"associativity fails on ({a!r},{b!r},{c!r})")
            rep.assoc_checked += 1

    for lab in labels:
        if dga.mult(dga.unit, {lab: 1}) != {lab: 1}:
            raise CertificationError(f"left unit on {lab!r}")
        if dga.mult({lab: 1}, dga.unit) != {lab: 1}:
            raise CertificationError(f"right unit on {lab!r}")
        rep.unit_checked += 1
    return rep


def _associative_triples(dga: DGAlgebra, labels: list[str]) -> int:
    """Number of triples of `labels` whose associativity is checkable.

    Raises CertificationError on a triple where (ab)c != a(bc).
    Only the nonzero products and the pairs whose product leaves the
    window are stored; a pair absent from both is a zero product.
    """
    p = dga.prime
    n = len(labels)
    nonzero: dict[tuple[str, str], Vector] = {}
    raised: set[tuple[str, str]] = set()
    # right[x]: every c with xc nonzero or out of the window;
    # left[y]: every a with ay nonzero or out of the window
    right: dict[str, set[str]] = {lab: set() for lab in labels}
    left: dict[str, set[str]] = {lab: set() for lab in labels}
    for a in labels:
        for b in labels:
            try:
                ab = dga.products(a, b)
            except TruncationExceeded:
                raised.add((a, b))
            else:
                if not ab:
                    continue
                nonzero[a, b] = ab
            right[a].add(b)
            left[b].add(a)
    outside = {x for ab in nonzero.values() for x in ab} - right.keys()
    if outside:
        raise CertificationError(
            f"products name labels outside the basis: {sorted(outside)}")

    def table_mult(u: Vector, v: Vector) -> Vector | None:
        """DGAlgebra.mult read from the table; None if a product raises."""
        out: dict[str, int] = {}
        for x, cx in u.items():
            for y, cy in v.items():
                if (x, y) in raised:
                    return None
                for z, cz in nonzero.get((x, y), {}).items():
                    out[z] = (out.get(z, 0) + cx * cy * cz) % p
        return {k: c for k, c in out.items() if c}

    out_left = Counter(b for _, b in raised)
    out_right = Counter(b for b, _ in raised)
    count = 0
    for b in labels:
        # Count every triple whose outer products stay in the window, then
        # take off those an inner product leaves it for.  Outside `visit`,
        # ab = 0 or xc = 0 for every x in ab, and bc = 0 or ay = 0 for
        # every y in bc, none of them raising: both sides are zero.
        count += (n - out_left[b]) * (n - out_right[b])
        visit: set[tuple[str, str]] = set()
        for a in left[b]:
            if ab := nonzero.get((a, b)):
                cs = right[b].union(*(right[x] for x in ab))
                visit.update((a, c) for c in cs)
        for c in right[b]:
            if bc := nonzero.get((b, c)):
                visit.update((a, c) for a in set().union(
                    *(left[y] for y in bc)))
        for a, c in sorted(visit):
            if (a, b) in raised or (b, c) in raised:
                continue
            lhs = table_mult(nonzero.get((a, b), {}), {c: 1})
            rhs = table_mult({a: 1}, nonzero.get((b, c), {}))
            if lhs is None or rhs is None:
                count -= 1
            elif lhs != rhs:
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
    labels: list[str]
    h_labels: list[str]
    f1: np.ndarray            # dim A x dim H, columns are representatives
    pi: np.ndarray            # dim H x dim A
    g: np.ndarray | None = None   # dim A_{s+1} x dim A


@dataclass
class Contraction:
    """Strong deformation retraction of a DGA onto its homology.

    include/project/homotopy are the three structure maps (often written
    f1, pi, G).  They satisfy, exactly and per bidegree:

        pi f1 = id,   d G + G d = id - f1 pi,
        pi G = 0,     G f1 = 0,   G G = 0.

    The homotopy identity is certified on `trusted` bidegrees (everything
    except the two degrees nearest each window edge).
    """

    dga: DGAlgebra
    homology: GradedVectorSpace
    splits: dict[Bidegree, _BlockSplit]
    s_range: tuple[int, int]
    trusted: set[Bidegree] = field(default_factory=set)

    def _check_range(self, bd: Bidegree) -> None:
        lo, hi = self.s_range
        if not lo <= bd.s <= hi:
            raise TruncationExceeded(
                f"bidegree {bd} outside contracted range {self.s_range}")

    def include(self, hvec: Vector) -> Vector:
        if not hvec:
            return {}
        bd = self.homology.bidegree_of(next(iter(hvec)))
        self._check_range(bd)
        sp = self.splits[bd]
        arr = self.homology.to_array(bd, hvec)
        return self.dga.space.to_dict(bd, (sp.f1 @ arr) % self.dga.prime)

    def project(self, avec: Vector) -> Vector:
        if not avec:
            return {}
        bd = self.dga.bidegree_of(avec)
        self._check_range(bd)
        sp = self.splits.get(bd)
        if sp is None:
            return {}
        arr = self.dga.space.to_array(bd, avec)
        return self.homology.to_dict(bd, (sp.pi @ arr) % self.dga.prime)

    def homotopy(self, avec: Vector) -> Vector:
        if not avec:
            return {}
        bd = self.dga.bidegree_of(avec)
        self._check_range(bd)
        sp = self.splits.get(bd)
        if sp is None:
            return {}
        if sp.g is None:
            raise TruncationExceeded(f"no homotopy data at {bd}")
        arr = self.dga.space.to_array(bd, avec)
        out = Bidegree(bd.s + 1, bd.w)
        return self.dga.space.to_dict(out, (sp.g @ arr) % self.dga.prime)

    def renamed(self, mapping: dict[str, str]) -> "Contraction":
        """Same retraction with homology basis labels renamed bijectively."""
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("renaming must be injective")
        blocks = {bd: [mapping.get(lab, lab) for lab in labs]
                  for bd, labs in self.homology.blocks.items()}
        hom = GradedVectorSpace(prime=self.homology.prime,
                                window=self.homology.window, blocks=blocks)
        splits = {bd: replace(sp, h_labels=[mapping.get(l, l)
                                            for l in sp.h_labels])
                  for bd, sp in self.splits.items()}
        return Contraction(dga=self.dga, homology=hom, splits=splits,
                           s_range=self.s_range, trusted=set(self.trusted))


def contraction(dga: DGAlgebra, *,
                s_range: tuple[int, int] | None = None) -> Contraction:
    """Split the complex per bidegree and assemble the retraction maps.

    The usable range defaults to one degree inside the window at the floor
    (where d is not representable) and one at the ceiling (where incoming
    boundaries are unknown).  Every structure identity that is checkable in
    range is verified exactly before returning; a failure raises
    CertificationError.

    Each block A_s takes three eliminations.  `rank_nullspace` of
    d: A_s -> A_{s-1} gives the cycles Z and the pivot columns P_s of its
    echelon form.  Every nullspace row ends at its free column, so the
    unit vectors e_j, j in P_s, span the complement C of Z that a greedy
    scan of the unit vectors would pick.  The columns d(e_j), j in
    P_{s+1}, are a basis B of the boundaries; `greedy_extend(B, Z)` picks
    the homology representatives H, and `invert([B; H; C])` gives the
    coordinates that pi reads.  The homotopy is G(d e_j) = e_j for j in
    P_{s+1} and zero on H + C, so G scatters the B coordinates onto the
    rows P_{s+1}.  Every block product assumes n (p-1)^2 + 2p < 2^63 for
    the largest block n; a DGA past that bound is a ValueError.
    """
    space = dga.space
    p = dga.prime
    lo_w, hi_w = space.window
    if s_range is None:
        s_range = (lo_w + 1, hi_w - 1)
    lo, hi = s_range
    if lo <= lo_w or hi >= hi_w:
        raise ValueError(f"usable range {s_range} must sit strictly inside "
                         f"the window {space.window}")
    largest = max(map(len, space.blocks.values()), default=0)
    if largest * (p - 1) ** 2 + 2 * p >= 2 ** 63:
        raise ValueError(
            f"p = {p} with a block of dimension {largest} leaves int64: "
            f"contraction needs n*(p-1)^2 + 2p < 2^63 = {2 ** 63}")

    # each differential block is built once per call and dropped with it
    d_blocks: dict[Bidegree, np.ndarray] = {}

    def diff_block(bd: Bidegree) -> np.ndarray:
        if bd not in d_blocks:
            d_blocks[bd] = dga.diff_block(bd)
        return d_blocks[bd]

    # pass 0: one elimination of d per block gives cycles and pivot columns
    blocks = [bd for bd in sorted(space.blocks) if lo <= bd.s <= hi + 1]
    cycles: dict[Bidegree, np.ndarray] = {}
    pivots: dict[Bidegree, tuple[int, ...]] = {}
    for bd in blocks:
        _, cycles[bd], pivots[bd] = rank_nullspace(diff_block(bd), p)

    # pass 1: splittings A = B + H + C and the homotopies
    splits: dict[Bidegree, _BlockSplit] = {}
    for bd in blocks:
        labels = space.labels(bd)
        n = len(labels)
        z_rows = cycles.pop(bd)
        if bd.s > hi:
            # ceiling + 1: only the pivot columns are trustworthy here, and
            # they are all the degree below needs to build its homotopy.
            splits[bd] = _BlockSplit(
                labels=labels, h_labels=[],
                f1=np.zeros((n, 0), dtype=np.int64),
                pi=np.zeros((0, n), dtype=np.int64))
            continue

        above = Bidegree(bd.s + 1, bd.w)
        up = list(pivots.get(above, ()))
        b_rows = diff_block(above)[:, up].T if up else \
            np.zeros((0, n), dtype=np.int64)
        if np.any((diff_block(bd) @ b_rows.T) % p):
            raise CertificationError(
                f"boundaries at {bd} are not cycles (d^2 != 0?)")
        h_rows = z_rows[greedy_extend(b_rows, z_rows, p)]
        c_rows = np.eye(n, dtype=np.int64)[list(pivots[bd])]
        nb, nh, nc = len(b_rows), len(h_rows), len(c_rows)
        if nb + nh != len(z_rows) or nb + nh + nc != n:
            raise CertificationError(f"splitting dimensions disagree at {bd}")

        try:
            coords = invert(np.vstack([b_rows, h_rows, c_rows]), p).T
        except ValueError as exc:
            raise CertificationError(
                f"splitting basis at {bd}: {exc}") from exc
        g = np.zeros((space.dim(above), n), dtype=np.int64)
        g[up] = coords[:nb]
        splits[bd] = _BlockSplit(
            labels=labels,
            h_labels=[f"h{bd.s}_{bd.w}_{k}" for k in range(nh)],
            f1=h_rows.T.copy(), pi=coords[nb:nb + nh].copy(), g=g)

    # homology space over the usable range
    hom_blocks = {bd: sp.h_labels for bd, sp in splits.items()
                  if sp.h_labels and lo <= bd.s <= hi}
    hom = GradedVectorSpace(prime=p, window=(lo, hi), blocks=hom_blocks)

    con = Contraction(dga=dga, homology=hom, splits=splits, s_range=(lo, hi))

    # exact certification of the retraction identities
    eye = np.eye
    for bd, sp in splits.items():
        if bd.s > hi:
            continue
        n = len(sp.labels)
        nh = len(sp.h_labels)
        if np.any((sp.pi @ sp.f1) % p != eye(nh, dtype=np.int64)):
            raise CertificationError(f"pi f1 != id at {bd}")
        if np.any((sp.g @ sp.f1) % p):
            raise CertificationError(f"G f1 != 0 at {bd}")
        sp_up = splits.get(Bidegree(bd.s + 1, bd.w))
        if sp_up is not None:
            if sp_up.pi.shape[0] and np.any((sp_up.pi @ sp.g) % p):
                raise CertificationError(f"pi G != 0 at {bd}")
            if sp_up.g is not None and np.any((sp_up.g @ sp.g) % p):
                raise CertificationError(f"G G != 0 at {bd}")
        below = Bidegree(bd.s - 1, bd.w)
        sp_dn = splits.get(below)
        if bd.s - 1 < lo or (space.dim(below) and sp_dn is None):
            continue
        d_out = diff_block(bd)
        gd = (sp_dn.g @ d_out) % p if sp_dn is not None else 0
        d_up = diff_block(Bidegree(bd.s + 1, bd.w)) if sp.g is not None \
            and sp.g.shape[0] else np.zeros((n, sp.g.shape[0]), dtype=np.int64)
        dg = (d_up @ sp.g) % p
        ident = (dg + gd + sp.f1 @ sp.pi) % p
        if np.any(ident != eye(n, dtype=np.int64)):
            raise CertificationError(f"homotopy identity fails at {bd}")
        con.trusted.add(bd)
    return con


# ---------------------------------------------------------------------------
# Massey powers
# ---------------------------------------------------------------------------

# Pinned orientation of the defining-system recursion: staircase terms
# use bar(a) = (-1)^(1+|a|) a, corrections come in through +G, and the
# final staircase sum is projected with the overall orientation
# MASSEY_OUT_SIGN * (-1)^(n(n-1)/2).  The n-dependent half lines the
# n-fold power up with the transferred arity-n operation so that their
# ratio on a diagonal power is -epsilon(n); it cannot be absorbed into
# the three constants, because for odd n a bar-offset flip leaves every
# diagonal staircase value unchanged (stage m picks up (-1)^(m+1), which
# cancels in pairs) and a homotopy-sign flip scales each stage by
# (-1)^(m-1), an n-independent global sign on the output.  The constant
# output sign is the gauge partner of the transfer's eta = +1: flipping
# both together changes nothing observable.
MASSEY_BAR_OFFSET = 1
MASSEY_G_SIGN = 1
MASSEY_OUT_SIGN = -1


@dataclass
class MasseyReport:
    """Outcome of an n-fold Massey power computation.

    value is the homology-basis expansion of <cls, ..., cls> (n copies);
    obstruction_stage m records that the stage-m staircase sum failed to
    bound, in which case value is meaningless and defined is False.
    """

    nfold: int
    cls: str
    value: Vector
    bidegree: Bidegree | None
    defined: bool
    obstruction_stage: int | None = None
    obstruction: Vector | None = None


def massey_power(con: Contraction, cls: str, nfold: int) -> MasseyReport:
    """Iterated n-fold Massey power of a homology class.

    Uses the canonical defining system: alpha_1 is the chosen cycle
    representative, each staircase sum z_m = sum bar(alpha_k) alpha_{m-k}
    must project to zero in homology, and alpha_m = G(z_m) is the greedy
    bounding cochain.  The returned value is pi(z_n).
    """
    if nfold < 2:
        raise ValueError("Massey powers need nfold >= 2")
    dga = con.dga
    p = dga.prime

    def bar(vec: Vector) -> Vector:
        if not vec:
            return {}
        s = dga.bidegree_of(vec).s
        return _scale(vec, (-1) ** ((MASSEY_BAR_OFFSET + s) % 2), p)

    alphas: dict[int, Vector] = {1: con.include({cls: 1})}
    for m in range(2, nfold + 1):
        z: Vector = {}
        for k in range(1, m):
            z = _add(z, dga.mult(bar(alphas[k]), alphas[m - k]), p)
        if z and dga.d(z):
            raise CertificationError(
                f"staircase sum at stage {m} is not a cycle")
        if m == nfold:
            orientation = MASSEY_OUT_SIGN * (-1) ** (nfold * (nfold - 1) // 2 % 2)
            value = _scale(con.project(z), orientation, p)
            bd = dga.bidegree_of(z) if z else None
            return MasseyReport(nfold=nfold, cls=cls, value=value,
                                bidegree=bd, defined=True)
        obstruction = con.project(z)
        if obstruction:
            return MasseyReport(nfold=nfold, cls=cls, value={}, bidegree=None,
                                defined=False, obstruction_stage=m,
                                obstruction=obstruction)
        alphas[m] = _scale(con.homotopy(z), MASSEY_G_SIGN, p)
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# cobar construction
# ---------------------------------------------------------------------------

EMPTY_WORD = "()"


def _letter_parity(model_space: GradedVectorSpace, lab: str) -> int:
    # parity of the desuspended letter [lab]
    return (model_space.bidegree_of(lab).s + 1) % 2


def cobar(model, s_bound: int, *, name: str = "cobar") -> DGAlgebra:
    """Cobar algebra of a minimal structure, up to word degree s_bound.

    Letters are the non-unit basis labels of the model; the letter of a
    basis element in bidegree (s, w) sits in (-s - 1, w).  A model
    concentrated in degrees s <= -2 yields a connected algebra in
    non-negative degrees, enumerated up to degree s_bound > 0; a model
    concentrated in degrees s >= 2 yields one in non-positive degrees,
    enumerated down to s_bound < 0.  A letter in degree 0 (from a model
    class in degree -1) would allow arbitrarily long words of bounded
    degree, which no finite window can hold, so mixed or degree-zero
    letters are rejected.  Words multiply by concatenation; the
    differential is the derivation extension of the operation tables,
    with one summand per table entry.
    """
    from .ainf import AInfinityAlgebra  # deferred: avoid import cycle

    if not isinstance(model, AInfinityAlgebra):
        raise TypeError(f"cobar needs an AInfinityAlgebra, got {type(model)}")
    space = model.space
    p = space.prime
    if model.unit is None:
        raise ValueError("cobar needs a unital model")

    letters: dict[str, Bidegree] = {}
    for bd in space.bidegrees():
        for lab in space.labels(bd):
            if lab == model.unit:
                continue
            if "|" in lab or lab == EMPTY_WORD:
                raise ValueError(f"label {lab!r} clashes with word syntax")
            lbd = Bidegree(-bd.s - 1, bd.w)
            if lbd.s == 0:
                raise ValueError(
                    f"letter from {lab!r} in degree 0: the word space "
                    "would be infinite per degree")
            letters[lab] = lbd
    signs = {1 if lbd.s > 0 else -1 for lbd in letters.values()}
    if len(signs) != 1:
        raise ValueError("letters on both sides of degree 0: the word "
                         "space would be infinite per degree")
    (direction,) = signs
    if direction * s_bound <= 0:
        raise ValueError(f"word bound {s_bound} on the wrong side for "
                         f"letters of sign {direction}")

    # differential on letters: one term per operation-table entry
    parity = {lab: _letter_parity(space, lab) for lab in letters}
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
                key = "|".join(word)
                target[key] = (target.get(key, 0) + sign * c) % p
    letter_d = {lab: {k: v for k, v in vec.items() if v}
                for lab, vec in letter_d.items()}

    # enumerate all words between degree 0 and s_bound inclusive
    blocks: dict[Bidegree, list[str]] = {Bidegree(0, 0): [EMPTY_WORD]}
    ordered = sorted(letters, key=lambda l: (letters[l], l))

    def grow(prefix: list[str], bd: Bidegree) -> None:
        for lab in ordered:
            nbd = bd + letters[lab]
            if direction * nbd.s > direction * s_bound:
                continue
            word = prefix + [lab]
            blocks.setdefault(nbd, []).append("|".join(word))
            grow(word, nbd)

    grow([], Bidegree(0, 0))
    for labs in blocks.values():
        labs.sort()
    window = (-1, s_bound) if direction > 0 else (s_bound, 1)
    wspace = GradedVectorSpace(prime=p, window=window, blocks=blocks)

    word_bd: dict[str, Bidegree] = {}
    for bd, labs in blocks.items():
        for lab in labs:
            word_bd[lab] = bd

    def products(u: str, v: str) -> Vector:
        if u == EMPTY_WORD:
            return {v: 1}
        if v == EMPTY_WORD:
            return {u: 1}
        bd = word_bd[u] + word_bd[v]
        if direction * bd.s > direction * s_bound:
            raise TruncationExceeded(
                f"concatenation of degree {bd.s} exceeds window {s_bound}")
        return {f"{u}|{v}": 1}

    def diff(word: str) -> Vector:
        if word == EMPTY_WORD:
            return {}
        parts = word.split("|")
        out: dict[str, int] = {}
        sign = 1
        for j, lab in enumerate(parts):
            for repl, c in letter_d[lab].items():
                new = "|".join(parts[:j] + [repl] + parts[j + 1:])
                out[new] = (out.get(new, 0) + sign * c) % p
            if parity[lab]:
                sign = -sign
        return {k: v for k, v in out.items() if v}

    return DGAlgebra(space=wspace, unit={EMPTY_WORD: 1}, products=products,
                     diff=diff, name=name)


# ---------------------------------------------------------------------------
# basis reordering (for determinism / indeterminacy probes)
# ---------------------------------------------------------------------------

def reorder_blocks(dga: DGAlgebra,
                   key: Callable[[Bidegree, list[str]], list[str]]) -> DGAlgebra:
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
    return DGAlgebra(space=space, unit=dict(dga.unit), products=dga.products,
                     diff=dga.diff, name=dga.name)
