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

Word counts grow quickly with the degree window, so the cobar input is
the closed-form cochain model over a window just deep enough to supply
every letter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dga import cobar, cobar_letters, contraction
# unused here, but the benchmark's tracer rebinds these names in this module
from .ainf import normalize_generators  # noqa: F401
from .dga import massey_power  # noqa: F401
from .grp import GroupParams, expected_loop_model, expected_minimal_model
from .transfer import (
    Computation,
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


def loop_word_count(params: GroupParams) -> int:
    """Size of the cobar word basis for the loop computation.

    Counted from the letter degrees alone, without building the cobar
    algebra: with ways[0] = 1 for the empty word and ways[s] the sum of
    ways[s - deg] over the letters, the count is the sum of ways[s] up to
    the window ceiling.  So a caller can budget the much more expensive
    contraction: the word count is roughly exponential in the window
    ceiling divided by the smallest letter degree, and the sparse block
    eliminations downstream grow with it.  Raises the ParameterError of
    `GroupParams.loop_run` on q = 1.
    """
    s_hi = params.loop_run()[0][1]
    cochain = expected_minimal_model(
        params, window=cochain_window_for_loops(params, s_hi))
    letters, direction = cobar_letters(cochain, s_hi)
    bound = direction * s_hi
    degrees = [direction * bd.s for bd in letters.values()]
    ways = [1] + [0] * bound
    for s in range(1, bound + 1):
        ways[s] = sum(ways[s - d] for d in degrees if d <= s)
    return sum(ways)


def loop_minimal_model(params: GroupParams, *,
                       window: tuple[int, int] | None = None,
                       arity_bound: int | None = None,
                       reorder=None) -> Computation:
    """Cobar of the cochain model -> retraction -> gate -> loop model.

    The published window (0, s_hi - 1) sits one degree below the
    word-space ceiling s_hi (`GroupParams.loop_run`), whatever the arity
    bound: loop classes sit in degrees >= 0, so no inner evaluation of a
    published word climbs above its output degree, and degree s_hi holds
    only the pivots that split the published ceiling.  A read outside
    the contracted range raises TruncationExceeded.
    """
    (_, s_hi), pub, arity_bound = params.loop_run(window, arity_bound)
    cochain = expected_minimal_model(
        params, window=cochain_window_for_loops(params, s_hi))
    dga = cobar(cochain, s_hi, name=f"cobar({params.label()})")
    expected = expected_loop_model(params, window=pub,
                                   arity_bound=arity_bound)
    return transfer_pipeline(params, dga, expected, params.hp.loop_dual(),
                             reorder=reorder)


@dataclass
class RoundTrip:
    """Outcome of the double-dual dimension check."""

    blocks_checked: int


def poincare_roundtrip(comp: Computation) -> RoundTrip:
    """Cobar the normalized loop model back down and gate its homology
    against the cochain monomial pattern, dimension by dimension.

    This tests duality as an involution at the level of bigraded
    dimensions: letters of the second cobar land exactly on the cochain
    generators' bidegrees, so its homology must reproduce the monomial
    pattern of k[x] (x) Lambda(t) on the window the loop model supports.
    Those dimensions come from the eliminations of d, on which the
    contraction certifies d^2 = 0; no block is read, so none is split.
    """
    params = comp.params
    norm = comp.normalized().model
    s_lo = -(norm.space.window[1] + 1)
    back = cobar(norm, s_lo, name=f"cobar^2({params.label()})")
    con = contraction(back)
    expected = expected_minimal_model(params, window=con.homology.window)
    check_pattern(con.homology, expected.space)
    return RoundTrip(blocks_checked=len(expected.space.blocks))
