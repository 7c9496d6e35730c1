"""Transferred minimal models on the cochain side.

The pipeline under test: endomorphism algebra of the periodic resolution
-> retraction onto cohomology -> pattern gate -> homotopy transfer ->
normalization.  The closed-form model (polynomial times exterior with one
family of higher operations) is the oracle throughout, and the Massey
power computed directly on the chain level cross-checks the transferred
coefficient through a ratio that no basis or scaling choice can move.
"""

import pytest

from ainfbg.ainf import stasheff_defect
from ainfbg.dga import contraction
from ainfbg.grp import GroupParams, build_end_dga, expected_minimal_model
from ainfbg.transfer import (
    RECURSION_SIGNS,
    MerkulovTransfer,
    PatternMismatch,
    TransferConventions,
    check_pattern,
    compare_models,
    group_minimal_model,
    massey_versus_transfer,
    pattern_renaming,
)

CASES = [(3, 1, 2), (5, 1, 2), (3, 1, 1)]


@pytest.fixture(scope="module")
def computations():
    return {pnq: group_minimal_model(GroupParams(*pnq)) for pnq in CASES}


# ---------------------------------------------------------------------------
# the transferred model agrees with the closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pnq", CASES)
def test_normalized_model_matches_closed_form(computations, pnq):
    comp = computations[pnq]
    norm = comp.normalized()
    assert compare_models(norm.model, comp.expected()) == []


@pytest.mark.parametrize("pnq", CASES)
def test_no_words_lost_to_truncation(computations, pnq):
    assert computations[pnq].truncated == {}


def test_transfer_evaluates_only_words_on_published_blocks(computations):
    """The tables skip words that grading sends to an absent published
    block; sweeping every in-window word fills the memo with 25,355
    entries at (5,1,2), against 145 here."""
    transfer = computations[(5, 1, 2)].transfer
    assert len(transfer._lam) + len(transfer._ghat) < 1000


@pytest.mark.parametrize("pnq", CASES)
def test_minimality_between_product_and_family(computations, pnq):
    """Every arity strictly between 2 and p^n carries no operation."""
    comp = computations[pnq]
    ell = comp.params.pn
    for n in range(3, ell):
        assert n not in comp.model.ops
    assert ell in comp.model.ops
    assert ell + 1 not in comp.model.ops


@pytest.mark.parametrize("pnq", CASES)
def test_structure_identities_hold(computations, pnq):
    comp = computations[pnq]
    for n in range(3, comp.model.arity_bound + 1):
        rep = stasheff_defect(comp.model, n)
        assert rep.checked > 0
        assert rep.ok(), rep.nonzero


def test_normalization_records_a_valid_rescaling_certificate(computations):
    """The recorded generator scales actually solve the rescaling
    equation that turns the raw arity-ell coefficient into epsilon(ell)."""
    comp = computations[(3, 1, 2)]
    norm = comp.normalized()
    p = comp.params.p
    assert not norm.formal
    c = norm.raw_coefficient % p
    assert c != 0
    lhs = (c * pow(norm.t_scale, 3, p)
           * pow(norm.x_scale, -2, p)) % p
    assert lhs == (-1) % p  # epsilon(3)


# ---------------------------------------------------------------------------
# Massey power against the transferred coefficient
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pnq", CASES)
def test_massey_power_matches_transfer(computations, pnq):
    mc = massey_versus_transfer(computations[pnq])
    assert mc.report.defined
    assert mc.c_transfer != 0
    assert mc.holds


def test_massey_powers_below_the_order_vanish(computations):
    comp = computations[(5, 1, 2)]
    for k in range(2, 5):
        mc = massey_versus_transfer(comp, nfold=k)
        assert mc.report.defined
        assert mc.c_massey == 0


# ---------------------------------------------------------------------------
# determinism under basis reordering
# ---------------------------------------------------------------------------

def test_transfer_independent_of_chain_basis_order(computations):
    import hashlib

    def reversed_labels(bd, labs):
        return labs[::-1]

    def scrambled_labels(bd, labs):
        return sorted(labs, key=lambda lab: hashlib.md5(lab.encode()).hexdigest())

    base = computations[(3, 1, 2)].normalized()
    for key in (reversed_labels, scrambled_labels):
        comp = group_minimal_model(GroupParams(3, 1, 2), reorder=key)
        norm = comp.normalized()
        assert norm.model.ops == base.model.ops
        assert norm.model.space.blocks == base.model.space.blocks


# ---------------------------------------------------------------------------
# conventions: the probed alternatives behave as recorded
# ---------------------------------------------------------------------------

def test_all_splitting_signs_give_consistent_structures():
    """On the default chain basis an identity sweep alone does not pin the
    splitting sign; every candidate yields some A-infinity structure."""
    for name in RECURSION_SIGNS:
        conv = TransferConventions(recursion=name)
        comp = group_minimal_model(GroupParams(3, 1, 1), conventions=conv)
        for n in range(3, comp.model.arity_bound + 1):
            rep = stasheff_defect(comp.model, n)
            assert rep.ok(), (name, n, rep.nonzero)


def test_scrambled_basis_separates_the_splitting_signs():
    """The default-basis degeneracy above is an accident: on a scrambled
    retraction only the pinned rule still transfers an A-infinity
    structure, and a representative wrong rule produces a genuine
    identity defect."""
    import hashlib

    def scrambled_labels(bd, labs):
        return sorted(labs, key=lambda lab: hashlib.md5(lab.encode()).hexdigest())

    comp = group_minimal_model(GroupParams(3, 1, 1), reorder=scrambled_labels)
    for n in range(3, comp.model.arity_bound + 1):
        assert stasheff_defect(comp.model, n).ok(), n

    wrong = group_minimal_model(GroupParams(3, 1, 1), reorder=scrambled_labels,
                                conventions=TransferConventions(recursion="plus"))
    defects = [n for n in range(3, wrong.model.arity_bound + 1)
               if not stasheff_defect(wrong.model, n).ok()]
    assert defects == [4]


def test_wrong_product_sign_fails_the_exact_table():
    """Splitting signs with sign(1,1) = -1 negate the product and cannot
    normalize to the coefficient-one monomial ring."""
    conv = TransferConventions(recursion="s")
    comp = group_minimal_model(GroupParams(3, 1, 1), conventions=conv)
    norm = comp.normalized()
    assert compare_models(norm.model, comp.expected()) != []


def test_eta_is_a_gauge_choice_for_the_ratio():
    conv = TransferConventions(eta=-1)
    comp = group_minimal_model(GroupParams(3, 1, 1), conventions=conv)
    mc = massey_versus_transfer(comp)
    assert not mc.holds
    assert mc.c_massey == (-mc.expected_ratio * mc.c_transfer) % 3


# ---------------------------------------------------------------------------
# pattern gate
# ---------------------------------------------------------------------------

def test_check_pattern_flags_dimension_mismatch():
    comp = group_minimal_model(GroupParams(3, 1, 1))
    check_pattern(comp.con.homology, comp.expected().space)
    other = expected_minimal_model(GroupParams(5, 1, 1),
                                   window=comp.model.space.window)
    with pytest.raises(PatternMismatch):
        check_pattern(comp.con.homology, other.space)


def test_pattern_renaming_is_bidegreewise_bijective():
    comp = group_minimal_model(GroupParams(3, 1, 1))
    pub = comp.model.space
    mapping = pattern_renaming(pub, comp.expected().space)
    assert sorted(mapping) == sorted(mapping.values())
    assert all(k == v for k, v in mapping.items())


def test_window_too_small_for_arity_bound_is_rejected():
    with pytest.raises(ValueError):
        group_minimal_model(GroupParams(3, 1, 1), window=(-2, 1))


def test_publishing_the_whole_window_loses_words():
    """Without the slack between published and chain windows, words at
    the floor are unknowable and must be reported, not read as zero."""
    params = GroupParams(3, 1, 1)
    dga = build_end_dga(params)
    con = contraction(dga)
    transfer = MerkulovTransfer(con, 4)
    _, lost = transfer.minimal_model(unit=None)
    assert lost
