"""Loop-space homology via the cobar construction.

The pipeline under test: cochain minimal model -> cobar DG-algebra ->
retraction onto its homology -> pattern gate -> homotopy transfer ->
normalization.  The closed-form answer (polynomial on tau tensor exterior
on xi, with one family of higher operations hitting the p-power of tau, or
the fiber-square ring in the exceptional case) is the oracle, the chain
level Massey power cross-checks the transferred family coefficient, and
cobaring the result once more recovers the cochain pattern.
"""

import hashlib

import pytest

from ainfbg import cli
from ainfbg.ainf import (
    AInfinityAlgebra,
    epsilon_sign,
    monomial_label,
    stasheff_sweep,
)
from ainfbg.dga import Contraction, cobar, contraction
from ainfbg.glin import Bidegree, GradedVectorSpace, TruncationExceeded
from ainfbg.grp import (
    LOOP_GENERATORS,
    GroupParams,
    expected_loop_model,
    expected_minimal_model,
)
from ainfbg.koszul import (
    cochain_window_for_loops,
    loop_minimal_model,
    loop_word_count,
    massey_versus_loop_transfer,
    poincare_roundtrip,
)
from ainfbg.transfer import (
    compare_models,
    group_minimal_model,
    transfer_pipeline,
)

CASES = [(3, 1, 2), (5, 1, 2)]


@pytest.fixture(scope="module")
def computations():
    return {pnq: loop_minimal_model(GroupParams(*pnq)) for pnq in CASES}


# ---------------------------------------------------------------------------
# the transferred loop model agrees with the closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pnq", CASES)
def test_loop_model_matches_closed_form(computations, pnq):
    comp = computations[pnq]
    assert comp.truncated == {}
    assert compare_models(comp.normalized().model, comp.expected()) == []


@pytest.mark.parametrize("pnq", CASES)
def test_generator_bidegrees(computations, pnq):
    # tau is dual to the polynomial cochain generator, xi to the exterior
    # one; homological degrees rise by one under cobar and the internal
    # weights are exchanged (T-degree h for tau, p^n for xi).
    comp = computations[pnq]
    params = comp.params
    space = comp.normalized().model.space
    q, h, pn = params.q, params.hp.h, params.pn
    assert space.bidegree_of("tau") == Bidegree(2 * q - 2, q * h)
    assert space.bidegree_of("xi") == Bidegree(2 * q - 1, q * pn)


@pytest.mark.parametrize("pnq, want", [
    ((3, 1, 2), ("1", "tau", "xi", "tau*xi", "tau^3")),
    ((5, 1, 2), ("1", "tau", "xi", "tau*xi", "tau^5"))])
def test_a_loop_computation_reads_its_monomials_off_its_model(
        computations, pnq, want):
    """On the loop side tau is polynomial, xi exterior, and the family
    target is tau^(p^n), also in the exceptional ring of (3, 1, 2), where
    xi * xi lands on it; the normalized model keeps the transferred one's
    space."""
    comp = computations[pnq]
    got = tuple(comp.monomial(j, eps)
                for j, eps in [(0, 0), (1, 0), (0, 1), (1, 1), (comp.hp.h, 0)])
    assert got == want
    assert comp.hp.h == comp.params.pn
    assert comp.normalized().model.space is comp.model.space


def test_exceptional_square(computations):
    # p^n = 3, q = 2 is the one case where the exterior generator's square
    # is forced to be nonzero: the loop ring is k[tau, xi]/(xi^2 + tau^3)
    # and there is no room for any higher operation.
    model = computations[(3, 1, 2)].normalized().model
    tau_cubed = monomial_label(3, 0, LOOP_GENERATORS)
    assert model.ops[2][("xi", "xi")] == {tau_cubed: (-1) % 3}
    for n, table in model.ops.items():
        if n <= 2:
            continue
        live = {w: out for w, out in table.items()
                if any(c % 3 for c in out.values())}
        assert live == {}, f"unexpected arity-{n} operations"


def test_generic_family(computations):
    # for p^n = 5, q = 2 the dual family arity is h = 3 and the single
    # higher operation is m_3(xi, xi, xi) = epsilon(3) tau^5 = -tau^5
    model = computations[(5, 1, 2)].normalized().model
    tau_p = monomial_label(5, 0, LOOP_GENERATORS)
    word = ("xi",) * 3
    assert epsilon_sign(3) == -1
    assert model.ops[3][word] == {tau_p: (-1) % 5}


@pytest.mark.parametrize("pnq", CASES)
def test_loop_identities_hold(computations, pnq):
    comp = computations[pnq]
    checked = 0
    for n, rep in stasheff_sweep(comp.model).items():
        assert rep.ok(), (n, rep.nonzero)
        checked += rep.checked
    assert checked > 0


# ---------------------------------------------------------------------------
# Massey powers of xi against the transferred coefficient
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pnq", CASES)
def test_massey_power_of_xi_matches_transfer(computations, pnq):
    comp = computations[pnq]
    result = massey_versus_loop_transfer(comp)
    assert result.report.defined
    assert result.holds, (result.c_massey, result.c_transfer,
                          result.expected_ratio)


# ---------------------------------------------------------------------------
# double dual: cobar of the loop model recovers the cochain pattern
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pnq", CASES)
def test_poincare_roundtrip(computations, pnq, monkeypatch):
    """The double cobar is contracted once, up to degree 0, and its
    homology pattern is checked on some block."""
    import ainfbg.koszul

    made = []

    def recorded(dga):
        made.append(contraction(dga))
        return made[-1]

    monkeypatch.setattr(ainfbg.koszul, "contraction", recorded)
    trip = poincare_roundtrip(computations[pnq])
    assert [con.homology.window[1] for con in made] == [0]
    assert trip.blocks_checked > 0


def test_a_computation_is_normalized_once(monkeypatch):
    """`verify` and the benchmark normalize the loop model, then the round
    trip cobars the normalized model: one normalization serves all of
    them."""
    import ainfbg.transfer

    normalize = ainfbg.transfer.normalize_generators
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return normalize(*args, **kwargs)

    monkeypatch.setattr(ainfbg.transfer, "normalize_generators", counted)
    comp = loop_minimal_model(GroupParams(3, 1, 2))
    assert comp._normalized is None
    norm = comp.normalized()
    assert comp.normalized() is norm
    assert poincare_roundtrip(comp).blocks_checked
    assert len(calls) == 1
    assert compare_models(norm.model, comp.expected()) == []
    assert "_normalized" not in repr(comp)


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------

def test_q_equal_one_is_rejected():
    with pytest.raises(ValueError, match="q >= 2"):
        loop_minimal_model(GroupParams(3, 1, 1))


def test_q_equal_one_has_no_word_count():
    with pytest.raises(ValueError, match="q >= 2"):
        loop_word_count(GroupParams(3, 1, 1))


@pytest.mark.parametrize("pnq", [(3, 1, 2), (5, 1, 2), (5, 1, 4), (7, 1, 2)])
def test_word_count_is_the_cobar_dimension(pnq):
    params = GroupParams(*pnq)
    s_hi = params.loop_window_hi()
    cochain = expected_minimal_model(
        params, window=cochain_window_for_loops(params, s_hi))
    assert loop_word_count(params) == cobar(cochain, s_hi).space.total_dim()


def test_word_counts_over_the_verify_budget():
    # the dimensions of the cobar algebras that the default loop runs
    # build: VERIFY_LOOP_WORD_BUDGET covers (3, 2, 2) and (11, 1, 2), and
    # not (13, 1, 2)
    assert loop_word_count(GroupParams(3, 2, 2)) == 18_560
    assert loop_word_count(GroupParams(11, 1, 2)) == 85_626
    assert loop_word_count(GroupParams(13, 1, 2)) == 395_033
    assert loop_word_count(GroupParams(11, 1, 2)) <= \
        cli.VERIFY_LOOP_WORD_BUDGET < loop_word_count(GroupParams(13, 1, 2))


def test_cochain_window_reaches_every_letter():
    params = GroupParams(5, 1, 2)
    s_hi = params.loop_window_hi()
    lo, hi = cochain_window_for_loops(params, s_hi)
    assert hi == 0
    # a letter of word degree d comes from a cochain class in degree -d - 1
    assert lo == -(s_hi + 1)


# ---------------------------------------------------------------------------
# the word window ends one degree above the published ceiling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pnq", [(3, 1, 2), (5, 1, 2), (7, 1, 3)])
def test_the_loop_stage_reads_no_block_above_the_published_ceiling(
        monkeypatch, pnq):
    """Every include, project and homotopy of the transfer and of the
    Massey cross-check reads a block inside the published window, so the
    cobar's one degree above it holds only the pivots of the ceiling."""
    reads = []
    block_map = Contraction._block_map

    def recorded(self, name, source, target, vec, **kwargs):
        if vec:
            reads.append(source.bidegree_of(next(iter(vec))).s)
        return block_map(self, name, source, target, vec, **kwargs)

    monkeypatch.setattr(Contraction, "_block_map", recorded)
    comp = loop_minimal_model(GroupParams(*pnq))
    assert massey_versus_loop_transfer(comp).holds
    (_, s_hi), (_, pub_hi), _ = comp.params.loop_run()
    assert pub_hi == s_hi - 1
    assert reads and max(reads) <= pub_hi


@pytest.mark.parametrize("pnq", [(3, 1, 2), (5, 1, 2), (7, 1, 3)])
def test_a_word_ceiling_at_the_published_ceiling_is_refused(pnq):
    """Without the degree above it, the published ceiling is outside the
    contracted range: the pipeline raises rather than answering, also
    where no published block sits at the ceiling, as at (7, 1, 3)."""
    params = GroupParams(*pnq)
    _, pub, arity = params.loop_run()
    cochain = expected_minimal_model(
        params, window=cochain_window_for_loops(params, pub[1]))
    expected = expected_loop_model(params, window=pub, arity_bound=arity)
    with pytest.raises(TruncationExceeded):
        transfer_pipeline(params, cobar(cochain, pub[1]), expected,
                          params.hp.loop_dual())


# ---------------------------------------------------------------------------
# the pipeline composes with the cochain transfer and ignores basis order
# ---------------------------------------------------------------------------

def test_transferred_cochain_model_feeds_the_loop_pipeline(computations):
    # the loop pipeline consumes the closed-form cochain model; the cobar
    # of the model transferred from the endomorphism algebra instead (over
    # a window deep enough for every cobar letter) gives the same answer
    params = GroupParams(3, 1, 2)
    default = computations[(3, 1, 2)]
    s_hi = params.loop_window_hi()
    floor = -(s_hi + 1)
    bound = params.default_arity_bound()
    cochain = group_minimal_model(
        params, window=(floor - (bound - 1), 1))
    assert cochain.model.space.window[0] <= floor
    comp = transfer_pipeline(params, cobar(cochain.model, s_hi),
                             default.expected(), default.hp)
    assert compare_models(comp.normalized().model, comp.expected()) == []


def test_basis_reordering_leaves_the_loop_model_fixed(computations):
    def scrambled_labels(bd, labs):
        return sorted(labs, key=lambda lab: hashlib.md5(
            "|".join(lab).encode()).hexdigest())

    params = GroupParams(3, 1, 2)
    scrambled = loop_minimal_model(params, reorder=scrambled_labels)
    default = computations[(3, 1, 2)]
    assert scrambled.normalized().model.ops == default.normalized().model.ops


# ---------------------------------------------------------------------------
# classical cobar sanity on one-generator algebras
# ---------------------------------------------------------------------------

def _one_generator_model(p, s_gen, w_gen, window, nilpotent):
    """Polynomial (or, with nilpotent=True, exterior) algebra on one
    generator, truncated to the window."""
    lo, hi = window
    blocks = {Bidegree(0, 0): ["1"]}
    powers = {0: "1"}
    j = 1
    while j * s_gen >= lo and (not nilpotent or j < 2):
        lab = "g" if j == 1 else f"g^{j}"
        powers[j] = lab
        blocks[Bidegree(j * s_gen, j * w_gen)] = [lab]
        j += 1
    space = GradedVectorSpace(prime=p, window=window, blocks=blocks)
    table = {}
    for a, la in powers.items():
        for b, lb in powers.items():
            if a + b in powers:
                table[(la, lb)] = {powers[a + b]: 1}
    return AInfinityAlgebra(space=space, ops={2: table}, arity_bound=2,
                            unit="1")


def _homology_dims(space):
    dims = {}
    for bd in space.bidegrees():
        n = len(space.labels(bd))
        if n:
            dims[bd.s] = dims.get(bd.s, 0) + n
    return dims


def test_cobar_of_exterior_is_polynomial():
    # one exterior generator in degree -3: the cobar differential vanishes
    # and the homology is polynomial on a single degree-2 class
    model = _one_generator_model(3, -3, 1, (-4, 0), nilpotent=True)
    con = contraction(cobar(model, 8))
    dims = {s: d for s, d in _homology_dims(con.homology).items() if s <= 7}
    assert dims == {0: 1, 2: 1, 4: 1, 6: 1}


def test_cobar_of_polynomial_is_exterior():
    # one polynomial generator in degree -2: everything above the exterior
    # class in degree 1 cancels (junk can survive only at the truncation
    # ceiling, outside the degrees checked here)
    model = _one_generator_model(3, -2, 1, (-7, 0), nilpotent=False)
    con = contraction(cobar(model, 6))
    dims = {s: d for s, d in _homology_dims(con.homology).items() if s <= 4}
    assert dims == {0: 1, 1: 1}
