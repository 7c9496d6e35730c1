"""Loop-space homology as the Koszul dual of the cochain model.

The cochain-side minimal model is k[x] (x) Lambda(t) with finitely many
higher operations; its cobar construction is an honest DGA whose homology
carries the loop-side structure.  There the roles of the two generators
exchange: the class tau dual to t is polynomial, the class xi dual to x
is exterior, and the degree parameters h and p^n trade places, so the
loop model satisfies the same bigraded hypothesis with the roles of the
generators reversed (the dual parameters again obey h'a' - l'b' = 1).

The pipeline is the cochain side's (`transfer.transfer_pipeline`) run
on the cobar algebra: retraction -> pattern gate against the closed-form
ring -> homotopy transfer -> normalization.
Generically the result is k[tau] (x) Lambda(xi) with one arity-h family
m_h(xi, ..., xi) = epsilon(h) tau^(p^n); in the single exceptional case
h = 2 the family lands in the product itself and the ring is
k[tau, xi] / (xi^2 + tau^3) with no higher operations at all.

Word counts grow quickly with the degree window, so the default cobar
input is the closed-form cochain model over a window just deep enough to
supply every letter; pass the transferred model explicitly to run the
pipeline end to end (its window must reach the same depth).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ainf import AInfinityAlgebra
from .dga import cobar, contraction
# unused here, but the benchmark's tracer rebinds these names in this module
from .ainf import normalize_generators  # noqa: F401
from .dga import massey_power  # noqa: F401
from .grp import (
    LOOP_GENERATORS,
    GroupParams,
    expected_loop_model,
    expected_minimal_model,
)
from .transfer import (
    Computation,
    TransferConventions,
    check_pattern,
    massey_versus_transfer,
    transfer_pipeline,
)

__all__ = [
    "cochain_window_for_loops",
    "loop_word_count",
    "loop_minimal_model",
    "massey_versus_loop_transfer",
    "RoundTrip",
    "poincare_roundtrip",
]

# the loop side's Massey cross-check is the shared one
massey_versus_loop_transfer = massey_versus_transfer


def cochain_window_for_loops(params: GroupParams, s_hi: int) -> tuple[int, int]:
    """Cochain-model window deep enough to supply every letter of the
    loop-side word space up to degree s_hi."""
    return (-(s_hi + 1), 0)


def loop_word_count(params: GroupParams, window: tuple[int, int] | None = None) -> int:
    """Size of the cobar word basis for the loop computation.

    Cheap to enumerate (no differentials or retractions are built), so a
    caller can budget the much more expensive contraction: the word count
    is roughly exponential in the window ceiling divided by the smallest
    letter degree, and the dense block elimination downstream is cubic in
    the largest block.
    """
    if params.q == 1:
        raise ValueError("the loop pipeline needs q >= 2")
    s_hi = (window or params.loop_window())[1]
    cochain = expected_minimal_model(
        params, window=cochain_window_for_loops(params, s_hi))
    dga = cobar(cochain, s_hi)
    return sum(len(dga.space.labels(bd)) for bd in dga.space.bidegrees())


def loop_minimal_model(params: GroupParams, *,
                       cochain: AInfinityAlgebra | None = None,
                       window: tuple[int, int] | None = None,
                       arity_bound: int | None = None,
                       reorder=None,
                       conventions: TransferConventions | None = None
                       ) -> Computation:
    """Cobar of the cochain model -> retraction -> gate -> loop model.

    The published window (0, s_hi - arity_bound + 1) sits arity_bound - 1
    degrees below the word-space ceiling, the mirror image of the cochain
    side: operation outputs climb up to arity_bound - 2 degrees above
    their inputs and one homotopy application reaches one further.  Above
    the published ceiling the homology may contain truncation junk; it is
    never renamed, enumerated, or read.
    """
    if params.q == 1:
        raise ValueError(
            "the loop pipeline needs q >= 2: with q = 1 the cochain model "
            "has a class one degree below the unit, so cobar words of "
            "bounded degree would be arbitrarily long")
    if arity_bound is None:
        arity_bound = params.loop_arity_bound()
    lo, s_hi = window or params.loop_window()
    if lo != 0:
        raise ValueError(f"loop window must start at 0, got {window}")
    pub_hi = s_hi - (arity_bound - 1)
    if pub_hi < 0:
        raise ValueError(f"window (0, {s_hi}) too small for arity "
                         f"{arity_bound}")
    if cochain is None:
        cochain = expected_minimal_model(
            params, window=cochain_window_for_loops(params, s_hi))
    elif cochain.space.window[0] > -(s_hi + 1):
        raise ValueError(
            f"cochain model window {cochain.space.window} too shallow for "
            f"loop degree {s_hi}; its floor must reach {-(s_hi + 1)}")
    dga = cobar(cochain, s_hi, name=f"cobar({params.label()})")
    expected = expected_loop_model(params, window=(0, pub_hi),
                                   arity_bound=arity_bound)
    return transfer_pipeline(params, dga, expected, params.hp.loop_dual(),
                             LOOP_GENERATORS, reorder=reorder,
                             conventions=conventions)


@dataclass
class RoundTrip:
    """Outcome of the double-dual dimension check."""

    window: tuple[int, int]
    blocks_checked: int


def poincare_roundtrip(comp: Computation) -> RoundTrip:
    """Cobar the normalized loop model back down and gate its homology
    against the cochain monomial pattern, dimension by dimension.

    This tests duality as an involution at the level of bigraded
    dimensions: letters of the second cobar land exactly on the cochain
    generators' bidegrees, so its homology must reproduce the monomial
    pattern of k[x] (x) Lambda(t) on the window the loop model supports.
    """
    params = comp.params
    norm = comp.normalized().model
    s_lo = -(norm.space.window[1] + 1)
    back = cobar(norm, s_lo, name=f"cobar^2({params.label()})")
    con = contraction(back)
    pub = (s_lo + 1, 0)
    expected = expected_minimal_model(params, window=pub)
    check_pattern(con.homology, expected.space, s_range=pub)
    blocks = sum(1 for bd in expected.space.blocks if pub[0] <= bd.s <= pub[1])
    return RoundTrip(window=pub, blocks_checked=blocks)
