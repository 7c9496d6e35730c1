"""Transferred minimal models on the cochain side.

The pipeline under test: endomorphism algebra of the periodic resolution
-> retraction onto cohomology -> pattern gate -> homotopy transfer ->
normalization.  The closed-form model (polynomial times exterior with one
family of higher operations) is the oracle throughout, and the Massey
power computed directly on the chain level cross-checks the transferred
coefficient through a ratio that no basis or scaling choice can move.
"""

import hashlib

import pytest

import ainfbg.transfer
from ainfbg.ainf import stasheff_defect
from ainfbg.cli import main
from ainfbg.dga import Contraction, massey_power
from ainfbg.glin import TruncationExceeded
from ainfbg.grp import GroupParams, expected_minimal_model
from ainfbg.transfer import (
    MerkulovTransfer,
    PatternMismatch,
    check_pattern,
    compare_models,
    group_minimal_model,
    massey_versus_transfer,
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
        rep = massey_power(comp.con, "t", k)
        assert rep.defined
        assert rep.value == {}


# ---------------------------------------------------------------------------
# determinism under basis reordering
# ---------------------------------------------------------------------------

def reversed_labels(bd, labs):
    return labs[::-1]


def scrambled_labels(bd, labs):
    return sorted(labs, key=lambda lab: hashlib.md5(lab.encode()).hexdigest())


def test_transfer_independent_of_chain_basis_order(computations):
    base = computations[(3, 1, 2)].normalized()
    for key in (reversed_labels, scrambled_labels):
        comp = group_minimal_model(GroupParams(3, 1, 2), reorder=key)
        norm = comp.normalized()
        assert norm.model.ops == base.model.ops
        assert norm.model.space.blocks == base.model.space.blocks


# ---------------------------------------------------------------------------
# the pinned split sign against the alternatives it was probed with
# ---------------------------------------------------------------------------

# sign(s, t) = (-1)^e for the eight candidate exponents e; the pipeline's
# `split_sign` is "s(t+1)"
SPLIT_SIGNS = {
    "plus": lambda s, t: 1,
    "s": lambda s, t: (-1) ** (s % 2),
    "s+1": lambda s, t: (-1) ** ((s + 1) % 2),
    "t": lambda s, t: (-1) ** (t % 2),
    "st": lambda s, t: (-1) ** ((s * t) % 2),
    "s(t+1)": lambda s, t: (-1) ** ((s * (t + 1)) % 2),
    "(s+1)t": lambda s, t: (-1) ** (((s + 1) * t) % 2),
    "st+s+t": lambda s, t: (-1) ** ((s * t + s + t) % 2),
}


def model_with_sign(monkeypatch, name, reorder=None):
    """The (3,1,1) pipeline with the split sign replaced by a candidate."""
    monkeypatch.setattr(ainfbg.transfer, "split_sign", SPLIT_SIGNS[name])
    return group_minimal_model(GroupParams(3, 1, 1), reorder=reorder)


def identity_defects(comp):
    return [n for n in range(3, comp.model.arity_bound + 1)
            if not stasheff_defect(comp.model, n).ok()]


def test_split_sign_is_the_pinned_candidate():
    for s in range(1, 8):
        for t in range(1, 8):
            assert ainfbg.transfer.split_sign(s, t) == \
                SPLIT_SIGNS["s(t+1)"](s, t), (s, t)


def test_all_splitting_signs_give_consistent_structures(monkeypatch):
    """On the default chain basis an identity sweep alone does not pin the
    splitting sign; every candidate yields some A-infinity structure."""
    for name in SPLIT_SIGNS:
        comp = model_with_sign(monkeypatch, name)
        for n in range(3, comp.model.arity_bound + 1):
            rep = stasheff_defect(comp.model, n)
            assert rep.ok(), (name, n, rep.nonzero)


def test_scrambled_basis_separates_the_splitting_signs(monkeypatch):
    """The default-basis degeneracy above is an accident of that basis: on
    a scrambled retraction the pinned rule still transfers an A-infinity
    structure, while a representative wrong rule produces a genuine
    identity defect."""
    comp = group_minimal_model(GroupParams(3, 1, 1), reorder=scrambled_labels)
    for n in range(3, comp.model.arity_bound + 1):
        assert stasheff_defect(comp.model, n).ok(), n

    wrong = model_with_sign(monkeypatch, "plus", reorder=scrambled_labels)
    assert identity_defects(wrong) == [4]


def test_scrambled_basis_pins_the_sign_up_to_three_candidates(monkeypatch):
    """On the scrambled basis the eight candidates fall into three classes:
    the identity sweeps break for three, the exact table fails for two
    that negate the product, and three keep every sweep green and
    normalize to the closed form.  Probing cannot separate those three;
    the unsuspension argument in `transfer` picks "s(t+1)"."""
    broken, negated, kept = set(), set(), set()
    for name in SPLIT_SIGNS:
        comp = model_with_sign(monkeypatch, name, reorder=scrambled_labels)
        if identity_defects(comp):
            broken.add(name)
        elif compare_models(comp.normalized().model, comp.expected()):
            negated.add(name)
        else:
            kept.add(name)
    assert broken == {"plus", "st", "st+s+t"}
    assert negated == {"s", "t"}
    assert kept == {"s+1", "(s+1)t", "s(t+1)"}


def test_wrong_product_sign_fails_the_exact_table(monkeypatch):
    """Splitting signs with sign(1,1) = -1 negate the product and cannot
    normalize to the coefficient-one monomial ring."""
    comp = model_with_sign(monkeypatch, "s")
    norm = comp.normalized()
    assert compare_models(norm.model, comp.expected()) != []


def test_eta_is_a_gauge_choice_for_the_ratio(monkeypatch):
    """Including the classes as -f1 (eta = -1) instead of f1 flips the
    sign of the Massey relation."""
    ghat = MerkulovTransfer.ghat

    def negated_letters(self, word):
        val = ghat(self, word)
        if len(word) > 1:
            return val
        return {k: -v % self.dga.prime for k, v in val.items()}

    monkeypatch.setattr(MerkulovTransfer, "ghat", negated_letters)
    comp = group_minimal_model(GroupParams(3, 1, 1))
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
    mapping = check_pattern(pub, comp.expected().space)
    assert sorted(mapping) == sorted(lab for bd in pub.bidegrees()
                                     for lab in pub.labels(bd))
    assert sorted(mapping) == sorted(mapping.values())
    assert all(k == v for k, v in mapping.items())


def test_window_too_small_for_arity_bound_is_rejected():
    with pytest.raises(ValueError):
        group_minimal_model(GroupParams(3, 1, 1), window=(-2, 1))


def test_a_lost_word_is_never_read_as_zero(monkeypatch, capsys):
    """A homotopy that leaves the window at one bidegree makes every word
    through it unknowable: the pipeline raises and the CLI exits 3,
    instead of dropping the word or reading it as zero."""
    homotopy = Contraction.homotopy
    lost = []

    def truncated_at_one_bidegree(self, avec):
        if avec and self.dga.bidegree_of(avec) == (-6, 8):
            lost.append(avec)
            raise TruncationExceeded("homotopy leaves the window")
        return homotopy(self, avec)

    monkeypatch.setattr(Contraction, "homotopy", truncated_at_one_bidegree)
    with pytest.raises(TruncationExceeded):
        group_minimal_model(GroupParams(3, 1, 2))
    assert lost
    assert main(["transfer", "3", "1", "2", "--no-cache"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "truncation-window error" in captured.err
