"""Homotopy transfer of the multiplication along a retraction.

Given a retraction (include f1, project pi, homotopy G) of a DGA onto
its homology, the minimal structure on homology is computed by the
rooted-tree recursion

    ghat[a]           = eta * f1(a)                      (single letter)
    ghat[a_1 .. a_k]  = G(lam[a_1 .. a_k])               (k >= 2)
    lam[a_1 .. a_n]   = sum over s + t = n, s,t >= 1 of
        sign(s, t) * (-1)^((t-1) * (|a_1| + .. + |a_s|))
        * ghat[a_1 .. a_s] * ghat[a_{s+1} .. a_n]
    m_n = pi o lam                                        (n >= 2)

with eta = 1 and sign(s, t) = (-1)^(s(t+1)), the one splitting sign
pinned below; the second factor's operator degree t - 1 moving past the
first s inputs is the Koszul factor written out.  Evaluations are
memoized per contiguous subword, so sweeping all words of a given arity
shares almost all work.

The module also houses the pipeline both sides share: retraction ->
pattern gate and canonical renaming -> transfer, its
cochain-side entry point (the endomorphism DGA), and the comparison
helpers the verification commands and tests are built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from .ainf import (
    AInfinityAlgebra,
    HypothesisParams,
    MultiOp,
    NormalizedModel,
    enumerate_words,
    epsilon_sign,
    normalize_generators,
)
from .dga import (
    CertificationError,
    Contraction,
    DGAlgebra,
    MasseyReport,
    Vector,
    contraction,
    massey_power,
    reorder_blocks,
)
from .glin import GradedVectorSpace, TruncationExceeded
from .grp import GroupParams, build_end_dga, expected_minimal_model

__all__ = [
    "split_sign",
    "MerkulovTransfer",
    "PatternMismatch",
    "check_pattern",
    "Computation",
    "transfer_pipeline",
    "group_minimal_model",
    "compare_models",
    "MasseyComparison",
    "massey_versus_transfer",
]

# The split sign (-1)^(st+s), together with the operator-degree factor
# (-1)^((t-1)|prefix|) applied when the suffix map crosses the prefix
# inputs, is what the sign-free coassociative recursion on the suspended
# tensor coalgebra becomes after unsuspension; it matches the identity
# convention sum (-1)^(r+st) m(1^r x m_s x 1^t) = 0 used in `ainf`.
#
# Probing pins it only up to a class of three.  Write the eight candidate
# signs as (-1)^e for e in 0, s, s+1, t, st, s(t+1), (s+1)t, st+s+t; on
# the default and the reversed chain bases every one passes the identity
# sweeps.  An md5-scrambled basis order inside each bidegree (a different
# but equally valid retraction) breaks the sweeps for 0, st and st+s+t
# (at arity 4 for (3,1,q), 6 for (5,1,2)).  s and t keep them green but
# negate the product, so no rescaling reaches the exact monomial tables.
# s+1, (s+1)t and s(t+1) keep every sweep green and normalize to the
# closed form on all three orders of (3,1,1), (3,1,2) and (5,1,2).  The
# unsuspension argument above is what picks s(t+1) among those three.
def split_sign(s: int, t: int) -> int:
    """sign(s, t) of the splitting s + t = n in the recursion."""
    return -1 if s * (t + 1) % 2 else 1


class MerkulovTransfer:
    """Memoized evaluator for the transferred operations of one retraction.

    `closed_form` gives the shape of the model read off: its space is the
    part of the homology whose operation tables are published, its arity
    bound, unit and internal scale are the model's.  That space must be
    gated (see `check_pattern`): an absent block inside its window is a
    zero space, so the tables only evaluate words whose output bidegree
    carries a block.  On the cochain side the retraction should extend
    arity_bound - 2 degrees below it so every inner evaluation of a
    published word stays in the range the retraction reads, above its
    floor (unit letters spend arity without spending degree); loop
    classes sit in degrees >= 0, so there no inner value climbs above
    its word's output.  An evaluation that leaves the contracted range
    raises TruncationExceeded; nothing here reads it as zero.  Each block
    the evaluations read is split and certified by the retraction on its
    first read, so the tables cost the blocks they touch, not the whole
    range.

    lam(word) sums sign(s, t) ghat(word[:s]) * ghat(word[s:]) over the
    splits, one `DGAlgebra.mult` each, carrying the degree parity of the
    prefix from one split to the next.  Every ghat value is homogeneous,
    so each right factor lies in one block of the end-DGA and `mult`
    finds its partners in that block's kept target index.  Both memos
    keep every value they compute.
    """

    def __init__(self, con: Contraction, closed_form: AInfinityAlgebra) -> None:
        self.con = con
        self.dga = con.dga
        self.closed_form = closed_form
        self._targets = set(closed_form.space.blocks)
        self._lam: dict[tuple[str, ...], Vector] = {}
        self._ghat: dict[tuple[str, ...], Vector] = {}

    def ghat(self, word: tuple[str, ...]) -> Vector:
        hit = self._ghat.get(word)
        if hit is not None:
            return hit
        if len(word) == 1:
            val = self.con.include({word[0]: 1})
        else:
            val = self.con.homotopy(self.lam(word))
        self._ghat[word] = val
        return val

    def lam(self, word: tuple[str, ...]) -> Vector:
        hit = self._lam.get(word)
        if hit is not None:
            return hit
        p = self.dga.prime
        bidegree_of = self.con.homology.bidegree_of
        total: Vector = {}
        n = len(word)
        parity = 0      # of |a_1| + .. + |a_s|
        for s in range(1, n):
            parity ^= bidegree_of(word[s - 1]).s & 1
            left = self.ghat(word[:s])
            if not left:
                continue
            right = self.ghat(word[s:])
            if not right:
                continue
            t = n - s
            sign = split_sign(s, t)
            if parity and (t - 1) % 2:
                sign = -sign
            prod = self.dga.mult(left, right)
            for lab, c in prod.items():
                total[lab] = (total.get(lab, 0) + sign * c) % p
        total = {k: v for k, v in total.items() if v}
        self._lam[word] = total
        return total

    def op(self, word: tuple[str, ...]) -> Vector:
        """m_n evaluated on a word of two or more homology basis labels."""
        return self.con.project(self.lam(word))

    def table(self, n: int) -> MultiOp:
        """The sparse table of the arity-n published words whose output
        bidegree carries a published block (every other word is zero by
        grading); the memo is shared across arities."""
        out: MultiOp = {}
        for word in enumerate_words(self.closed_form, n, level="operation",
                                    targets=self._targets):
            val = self.op(word)
            if val:
                out[word] = val
        return out

    def minimal_model(self) -> AInfinityAlgebra:
        """Assemble m_2 .. m_arity_bound into a minimal structure of the
        closed form's shape."""
        ops: dict[int, MultiOp] = {}
        for n in range(2, self.closed_form.arity_bound + 1):
            tab = self.table(n)
            if tab:
                ops[n] = tab
        return replace(self.closed_form, ops=ops)


# ---------------------------------------------------------------------------
# pattern gate
# ---------------------------------------------------------------------------

class PatternMismatch(Exception):
    """Computed homology does not match the expected bigraded pattern."""


def check_pattern(hom: GradedVectorSpace,
                  expected: GradedVectorSpace) -> GradedVectorSpace:
    """Require dim-by-dim equality of two bigraded spaces on expected's
    window, which must lie in hom's (else TruncationExceeded), and return
    hom with its classes there renamed to expected's labels: bidegree by
    bidegree, in basis order, so bijectively.  Elsewhere hom keeps its own
    labels.

    This is the gate between the truncated computation and everything
    downstream: inside the compared range the computed homology must be
    exactly the predicted pattern, so that renaming classes to monomials
    is meaningful and absent blocks really mean zero.  Only a closed form
    whose space is gated here may be handed to `MerkulovTransfer`, which
    skips every word whose output lands on an absent block.
    """
    lo, hi = expected.window
    if not hom.window[0] <= lo <= hi <= hom.window[1]:
        raise TruncationExceeded(f"published window {expected.window} leaves "
                                 f"the contracted range {hom.window}")
    bds = {bd for bd in hom.blocks if lo <= bd.s <= hi}
    bds |= {bd for bd in expected.blocks if lo <= bd.s <= hi}
    problems = [f"at {tuple(bd)}: dim {hom.dim(bd)}, expected "
                f"{expected.dim(bd)}" for bd in sorted(bds)
                if hom.dim(bd) != expected.dim(bd)]
    if problems:
        raise PatternMismatch("; ".join(problems))
    return GradedVectorSpace(
        prime=hom.prime, window=hom.window,
        blocks={bd: expected.blocks[bd] if lo <= bd.s <= hi else labs
                for bd, labs in hom.blocks.items()})


# ---------------------------------------------------------------------------
# the pipeline shared by both sides
# ---------------------------------------------------------------------------

@dataclass
class Computation:
    """Everything produced on the way to a transferred minimal model."""

    params: GroupParams
    hp: HypothesisParams        # the shape the model is normalized to
    # its retraction `con` has its classes renamed to monomials
    transfer: MerkulovTransfer
    # monomial labels, machine coefficients
    model: AInfinityAlgebra = field(init=False)
    # words lost per arity: always empty, since a lost word raises
    # TruncationExceeded instead; kept for the benchmark's counters
    truncated: dict[int, list] = field(default_factory=dict, init=False)
    _normalized: NormalizedModel | None = field(default=None, init=False,
                                                compare=False, repr=False)

    def __post_init__(self) -> None:
        self.model = self.transfer.minimal_model()

    @property
    def con(self) -> Contraction:
        return self.transfer.con

    def monomial(self, j: int, eps: int) -> str:
        """The label of P^j E^eps, P the polynomial and E the exterior
        generator of shape hp: the closed form's name, which the gate gave
        the one class at its bidegree."""
        (label,) = self.model.space.labels(
            self.hp.monomial_bidegree(j, eps, self.model.internal_scale))
        return label

    def normalized(self) -> NormalizedModel:
        """The model normalized once, on the first call, and shared by
        every later caller; they only read it."""
        if self._normalized is None:
            self._normalized = normalize_generators(self.model, self.hp)
        return self._normalized

    def expected(self) -> AInfinityAlgebra:
        """Closed-form model over the same published window."""
        return self.transfer.closed_form


def transfer_pipeline(params: GroupParams, dga: DGAlgebra,
                      expected: AInfinityAlgebra, hp: HypothesisParams, *,
                      reorder: Callable | None = None) -> Computation:
    """Retraction -> pattern gate and renaming -> transferred minimal
    model.

    Precondition: `expected` is the closed-form model over the published
    window and arity bound of a run that `GroupParams.cochain_run` or
    `loop_run` resolved, which has already refused every window missing
    1, x, t or x^h of shape hp; so its arity bound reaches the family
    arity hp.ell and its tables can state the family.  The homology of
    `dga` must match the expected pattern on the published window, where
    the operation tables are read off up to `expected.arity_bound`; the
    gate reads only homology dimensions, so the retraction splits only
    the blocks the unit check and the transfer read.  It hands back the
    homology with its published classes renamed to the expected
    monomials, which the pipeline sets on its one retraction: this is
    the one place a computed model gets its generator names, which
    `Computation.monomial` reads back.  The caller's chain window must
    leave enough slack around the published one that no published word
    reads the retraction's floor or leaves its range; a word that does
    raises TruncationExceeded (enlarge the window).
    """
    space = expected.space
    if reorder is not None:
        dga = reorder_blocks(dga, reorder)
    con = contraction(dga)
    con.homology = check_pattern(con.homology, space)
    if con.include({expected.unit: 1}) != dga.unit:
        raise PatternMismatch(
            "the class at bidegree (0, 0) is not represented by the strict "
            f"unit of {dga.name}")
    return Computation(params=params, hp=hp,
                       transfer=MerkulovTransfer(con, expected))


def group_minimal_model(params: GroupParams, *,
                        window: tuple[int, int] | None = None,
                        arity_bound: int | None = None,
                        reorder: Callable | None = None) -> Computation:
    """End-DGA -> retraction -> gate -> transferred minimal model.

    The published window (where operation tables are read off and the
    homology pattern is gated against the closed-form answer) sits
    arity_bound - 1 degrees above the chain-level window floor
    (`GroupParams.cochain_run`): inner evaluations of a published word
    reach at most arity_bound - 2 degrees below it, so everything they
    touch lies in the range the retraction reads.  Below the published
    floor the homology may contain truncation junk; it is never renamed,
    enumerated, or read.
    """
    window, pub, arity_bound = params.cochain_run(window, arity_bound)
    expected = expected_minimal_model(params, window=pub,
                                      arity_bound=arity_bound)
    return transfer_pipeline(params, build_end_dga(params, window=window),
                             expected, params.hp, reorder=reorder)


# ---------------------------------------------------------------------------
# comparison and the Massey cross-check
# ---------------------------------------------------------------------------

def compare_models(got: AInfinityAlgebra,
                   want: AInfinityAlgebra) -> list[str]:
    """Human-readable list of differences between two structures."""
    problems: list[str] = []
    if got.space.blocks != want.space.blocks:
        seen = set(got.space.blocks) | set(want.space.blocks)
        for bd in sorted(seen):
            g = got.space.blocks.get(bd, [])
            w = want.space.blocks.get(bd, [])
            if g != w:
                problems.append(f"basis at {tuple(bd)}: {g} != {w}")
    for n in sorted(set(got.ops) | set(want.ops)):
        g, w = got.ops.get(n, {}), want.ops.get(n, {})
        for word in sorted(set(g) | set(w)):
            if g.get(word, {}) != w.get(word, {}):
                problems.append(
                    f"m_{n}{word}: {g.get(word, {})} != {w.get(word, {})}")
    return problems


@dataclass
class MasseyComparison:
    """The ell-fold Massey power against the arity-ell coefficient.

    Both numbers are read in the same machine basis, so their ratio is
    independent of every splitting and rescaling choice; the content is
    massey == -epsilon(ell) * transfer, coefficient-wise on x^h.
    """

    report: MasseyReport
    c_massey: int
    c_transfer: int
    expected_ratio: int
    holds: bool


def massey_versus_transfer(comp: Computation) -> MasseyComparison:
    """The ell-fold Massey power of the exterior generator against the
    transferred coefficient on the target monomial, for the family arity
    ell.  In the exceptional loop-side case ell = 2 the 2-fold power is
    the plain square and the relation still holds with epsilon(2) = -1."""
    p, ell = comp.params.p, comp.hp.ell
    cls, target = comp.monomial(0, 1), comp.monomial(comp.hp.h, 0)

    report = massey_power(comp.con, cls, ell)
    c_massey = report.value.get(target, 0) if report.defined else 0
    extra = set(report.value) - {target}
    if extra:
        raise CertificationError(
            f"Massey power has parts off the {comp.monomial(1, 0)}-line: "
            f"{extra}")

    word = (cls,) * ell
    c_transfer = comp.model.op_value(ell, word).get(target, 0)
    expected_ratio = (-epsilon_sign(ell)) % p
    holds = (report.defined and c_transfer != 0
             and c_massey == (expected_ratio * c_transfer) % p)
    return MasseyComparison(report=report, c_massey=c_massey,
                            c_transfer=c_transfer,
                            expected_ratio=expected_ratio, holds=holds)
