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

The module also houses the pipeline both sides share: statement gate ->
retraction -> pattern gate and canonical renaming -> transfer, its
cochain-side entry point (the endomorphism DGA), and the comparison
helpers the verification commands and tests are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .ainf import (
    AInfinityAlgebra,
    HypothesisParams,
    MultiOp,
    NormalizedModel,
    enumerate_words,
    epsilon_sign,
    monomial_label,
    normalize_generators,
)
from .dga import (
    CertificationError,
    Contraction,
    DGAlgebra,
    MasseyReport,
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

Vector = dict[str, int]

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

    `publish` is the part of the homology whose operation tables are read
    off, and it must be gated (see `check_pattern`): an absent block
    inside its window is a zero space, so the tables only evaluate words
    whose output bidegree carries a block.  The retraction itself should
    extend at least arity_bound - 2 degrees below it so every inner
    evaluation of a published word stays in the trusted range (unit
    letters spend arity without spending degree, which is what makes the
    worst case that deep).  An evaluation that leaves that range raises
    TruncationExceeded; nothing here reads it as zero.
    """

    def __init__(self, con: Contraction, arity_bound: int,
                 publish: GradedVectorSpace) -> None:
        self.con = con
        self.dga = con.dga
        self.arity_bound = arity_bound
        self.publish = publish
        self._targets = set(publish.blocks)
        self._lam: dict[tuple[str, ...], Vector] = {}
        self._ghat: dict[tuple[str, ...], Vector] = {}

    def _degree(self, h_label: str) -> int:
        return self.con.homology.bidegree_of(h_label).s

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
        if len(word) < 2:
            raise ValueError("lam needs at least two inputs")
        hit = self._lam.get(word)
        if hit is not None:
            return hit
        p = self.dga.prime
        total: Vector = {}
        n = len(word)
        for s in range(1, n):
            t = n - s
            left = self.ghat(word[:s])
            if not left:
                continue
            right = self.ghat(word[s:])
            if not right:
                continue
            sign = split_sign(s, t)
            if (t - 1) % 2 and sum(self._degree(a) for a in word[:s]) % 2:
                sign = -sign
            prod = self.dga.mult(left, right)
            for lab, c in prod.items():
                total[lab] = (total.get(lab, 0) + sign * c) % p
        total = {k: v for k, v in total.items() if v}
        self._lam[word] = total
        return total

    def op(self, word: tuple[str, ...]) -> Vector:
        """m_n evaluated on a word of homology basis labels."""
        if len(word) > self.arity_bound:
            raise ValueError(f"arity {len(word)} beyond bound {self.arity_bound}")
        return self.con.project(self.lam(word))

    def table(self, n: int) -> MultiOp:
        """The sparse table of the arity-n published words whose output
        bidegree carries a published block (every other word is zero by
        grading); the memo is shared across arities."""
        skeleton = AInfinityAlgebra(space=self.publish, ops={},
                                    arity_bound=self.arity_bound)
        out: MultiOp = {}
        for word in enumerate_words(skeleton, n, level="operation",
                                    targets=self._targets):
            val = self.op(word)
            if val:
                out[word] = val
        return out

    def minimal_model(self, *, unit: str | None = None,
                      internal_scale: int = 1) -> AInfinityAlgebra:
        """Assemble m_2 .. m_arity_bound into a minimal structure."""
        ops: dict[int, MultiOp] = {}
        for n in range(2, self.arity_bound + 1):
            tab = self.table(n)
            if tab:
                ops[n] = tab
        return AInfinityAlgebra(space=self.publish, ops=ops,
                                arity_bound=self.arity_bound, unit=unit,
                                internal_scale=internal_scale)


# ---------------------------------------------------------------------------
# pattern gate
# ---------------------------------------------------------------------------

class PatternMismatch(Exception):
    """Computed homology does not match the expected bigraded pattern."""


def check_pattern(hom: GradedVectorSpace,
                  expected: GradedVectorSpace) -> dict[str, str]:
    """Require dim-by-dim equality of two bigraded spaces on the range
    their windows share, and return the renaming of hom's labels onto
    expected's there: bidegree by bidegree, in basis order, so bijective.

    This is the gate between the truncated computation and everything
    downstream: inside the compared range the computed homology must be
    exactly the predicted pattern, so that renaming classes to monomials
    is meaningful and absent blocks really mean zero.  Only a space gated
    here may be handed to `MerkulovTransfer` as `publish`, which skips
    every word whose output lands on an absent block.
    """
    lo = max(hom.window[0], expected.window[0])
    hi = min(hom.window[1], expected.window[1])
    problems = []
    mapping: dict[str, str] = {}
    bds = {bd for bd in hom.blocks if lo <= bd.s <= hi}
    bds |= {bd for bd in expected.blocks if lo <= bd.s <= hi}
    for bd in sorted(bds):
        got = hom.blocks.get(bd, [])
        want = expected.blocks.get(bd, [])
        if len(got) != len(want):
            problems.append(
                f"at {tuple(bd)}: dim {len(got)}, expected {len(want)}")
        mapping.update(zip(got, want))
    if problems:
        raise PatternMismatch("; ".join(problems))
    return mapping


# ---------------------------------------------------------------------------
# the pipeline shared by both sides
# ---------------------------------------------------------------------------

@dataclass
class Computation:
    """Everything produced on the way to a transferred minimal model."""

    params: GroupParams
    hp: HypothesisParams        # the shape the model is normalized to
    names: tuple[str, str]      # polynomial and exterior generator names
    con: Contraction            # homology labels renamed to monomials
    transfer: MerkulovTransfer
    model: AInfinityAlgebra     # monomial labels, machine coefficients
    closed_form: AInfinityAlgebra  # the gate's closed-form model
    # words lost per arity: always empty, since a lost word raises
    # TruncationExceeded instead; kept for the benchmark's counters
    truncated: dict[int, list]

    def normalized(self) -> NormalizedModel:
        return normalize_generators(self.model, self.hp, names=self.names)

    def expected(self) -> AInfinityAlgebra:
        """Closed-form model over the same published window."""
        return self.closed_form


def transfer_pipeline(params: GroupParams, dga: DGAlgebra,
                      expected: AInfinityAlgebra, hp: HypothesisParams,
                      names: tuple[str, str], *,
                      reorder: Callable | None = None) -> Computation:
    """Statement gate -> retraction -> pattern gate and renaming ->
    transferred minimal model.

    `expected` is the closed-form model over the published window.  No
    table can state the family unless that window holds x, t and x^h
    (under `names`; tau, xi and tau^(p^n) on the loop side) and
    `expected.arity_bound` reaches the family arity hp.ell, so the gate
    raises TruncationExceeded or ValueError before any work.  The
    homology of `dga` must then match the expected pattern on the
    published window, where its classes are renamed to the expected
    monomials and the operation tables are read off up to
    `expected.arity_bound`.  The caller's chain window must leave enough
    slack around the published one that no published word leaves the
    retraction's trusted range; a word that does raises
    TruncationExceeded (enlarge the window).
    """
    space = expected.space
    if expected.arity_bound < hp.ell:
        raise ValueError(f"arity bound {expected.arity_bound} is below the "
                         f"family arity {hp.ell}")
    # x^h is x itself when h = 1
    missing = [lab for lab in dict.fromkeys((monomial_label(1, 0, names),
                                             monomial_label(0, 1, names),
                                             monomial_label(hp.h, 0, names)))
               if not space.has_label(lab)]
    if missing:
        raise TruncationExceeded(
            f"published window {space.window} misses {', '.join(missing)}; "
            "enlarge the window")
    if reorder is not None:
        dga = reorder_blocks(dga, reorder)
    con = contraction(dga)
    con = con.renamed(check_pattern(con.homology, space))
    if con.include({expected.unit: 1}) != dga.unit:
        raise PatternMismatch(
            "the class at bidegree (0, 0) is not represented by the strict "
            f"unit of {dga.name}")
    transfer = MerkulovTransfer(con, expected.arity_bound,
                                publish=con.homology.restricted(space.window))
    model = transfer.minimal_model(unit=expected.unit,
                                   internal_scale=expected.internal_scale)
    return Computation(params=params, hp=hp, names=names, con=con,
                       transfer=transfer, model=model, closed_form=expected,
                       truncated={})


def group_minimal_model(params: GroupParams, *,
                        window: tuple[int, int] | None = None,
                        arity_bound: int | None = None,
                        reorder: Callable | None = None) -> Computation:
    """End-DGA -> retraction -> gate -> transferred minimal model.

    The published window (where operation tables are read off and the
    homology pattern is gated against the closed-form answer) sits
    arity_bound - 1 degrees above the chain-level window floor: inner
    evaluations of a published word reach at most arity_bound - 2 degrees
    below it, so everything they touch is in the retraction's trusted
    range.  Below the published floor the homology may contain truncation
    junk; it is never renamed, enumerated, or read.
    """
    if arity_bound is None:
        arity_bound = params.default_arity_bound()
    window = window or params.cochain_window(arity_bound)
    pub = (window[0] + (arity_bound - 1), window[1] - 1)
    if pub[0] > pub[1]:
        raise ValueError(f"window {window} too small for arity {arity_bound}")
    expected = expected_minimal_model(params, window=pub,
                                      arity_bound=arity_bound)
    return transfer_pipeline(params, build_end_dga(params, window=window),
                             expected, params.hp, ("x", "t"),
                             reorder=reorder)


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
    cls = monomial_label(0, 1, comp.names)
    target = monomial_label(comp.hp.h, 0, comp.names)

    report = massey_power(comp.con, cls, ell)
    c_massey = report.value.get(target, 0) if report.defined else 0
    extra = set(report.value) - {target}
    if extra:
        raise CertificationError(
            f"Massey power has parts off the {comp.names[0]}-line: {extra}")

    word = (cls,) * ell
    c_transfer = comp.model.op_value(ell, word).get(target, 0)
    expected_ratio = (-epsilon_sign(ell)) % p
    holds = (report.defined and c_transfer != 0
             and c_massey == (expected_ratio * c_transfer) % p)
    return MasseyComparison(report=report, c_massey=c_massey,
                            c_transfer=c_transfer,
                            expected_ratio=expected_ratio, holds=holds)
