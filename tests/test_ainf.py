"""A-infinity kit: sign conventions, identity sweeps, classification.

The model used throughout is built by hand: the bigraded shape
k[x] (x) Lambda(t) with |x| = (-4, 6), |t| = (-3, 4) (internal degrees in
half units), the monomial product, and the arity-3 family
m_3(x^{j1} t, x^{j2} t, x^{j3} t) = -x^(2 + j1+j2+j3).  The classification
oracle enumerates raw bidegree arithmetic and nothing else.
"""

import functools
import itertools
import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ainfbg.ainf import (
    AdmissibleOp,
    AInfinityAlgebra,
    HypothesisParams,
    ShapeMismatch,
    admissible_shapes,
    classify_admissible,
    enumerate_words,
    epsilon_sign,
    monomial_label,
    monomials,
    _q_leaves_window,
    normalize_generators,
    stasheff_defect,
    stasheff_sweep,
    stasheff_word_defect,
    strict_unitality_defects,
)
from ainfbg.glin import Bidegree, GradedVectorSpace, TruncationExceeded
from ainfbg.grp import GroupParams, expected_loop_model, expected_minimal_model
from ainfbg.koszul import loop_minimal_model
from ainfbg.transfer import group_minimal_model

from toymodels import HP, SCALE, WINDOW, build_toy_model, toy_monomials


# ---------------------------------------------------------------------------
# epsilon
# ---------------------------------------------------------------------------

def test_epsilon_values():
    assert [epsilon_sign(s) for s in range(1, 9)] == [1, -1, -1, 1, 1, -1, -1, 1]
    assert epsilon_sign(3) == -1
    assert epsilon_sign(5) == 1
    assert epsilon_sign(7) == -1
    assert epsilon_sign(9) == 1


def test_epsilon_involution():
    for s in range(0, 40):
        assert epsilon_sign(s) * epsilon_sign(s + 2) == -1


# ---------------------------------------------------------------------------
# hand-built minimal model (the p^n = 3, q = 2 shape), from toymodels.py
# ---------------------------------------------------------------------------

def test_toy_model_shape():
    model = build_toy_model()
    assert model.space.dim(Bidegree(-4, 6)) == 1   # x
    assert model.space.dim(Bidegree(-3, 4)) == 1   # t
    assert model.op_value(2, ("t", "t")) == {}
    assert model.op_value(3, ("t", "t", "t")) == {"x^2": 2}


def test_koszul_apply_signs():
    model = build_toy_model()
    # inner m_3 (odd degree) moved past one odd-degree input flips the sign:
    # m_2(t, m_3(t,t,t)) evaluates to -(t * -x^2) = +x^2 t
    val = koszul_apply(model, 1, 3, 0, ("t", "t", "t", "t"))
    assert val == {"x^2*t": 1}
    # no slots to the left: sign +1
    val = koszul_apply(model, 0, 3, 1, ("t", "t", "t", "t"))
    assert val == {"x^2*t": 2}


def test_stasheff_sweep_clean():
    model = build_toy_model()
    for n, report in stasheff_sweep(model).items():
        assert report.ok(), (n, dict(list(report.nonzero.items())[:3]))
        assert report.checked > 0


def test_global_sign_flip_is_consistent():
    # Negating the whole arity-3 family is the isomorphic structure t -> -t,
    # so the identities cannot detect it; only Massey powers pin that sign.
    model = build_toy_model(m3_sign=+1)
    for report in stasheff_sweep(model).values():
        assert report.ok()


def test_stasheff_detects_single_mutation():
    model = build_toy_model()
    word = (monomial_label(0, 1),) * 3
    model.ops[3][word] = {"x^2": 1}  # was 2
    assert not stasheff_sweep(model)[4].ok()


def test_word_defect_on_specific_word():
    model = build_toy_model()
    assert stasheff_word_defect(model, ("t", "t", "t", "x")) == {}
    assert stasheff_word_defect(model, ("x", "t", "t", "t")) == {}


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def oracle_admissible(hp, max_arity, max_power):
    """Brute force: scan all tuples and all candidate targets, compare raw
    bidegrees componentwise."""
    found = []
    for i in range(3, max_arity + 1):
        for eps in itertools.product((0, 1), repeat=i):
            for powers in itertools.product(range(max_power + 1), repeat=i):
                s_in = sum(-2 * hp.a * j - (2 * hp.b + 1) * e
                           for j, e in zip(powers, eps))
                w_in = sum(j * hp.ell + e * hp.h
                           for j, e in zip(powers, eps))
                for e_t in (0, 1):
                    num = w_in - e_t * hp.h
                    if num < 0 or num % hp.ell:
                        continue
                    j_t = num // hp.ell
                    if -2 * hp.a * j_t - (2 * hp.b + 1) * e_t == s_in + i - 2:
                        found.append((i, powers, eps, j_t, e_t))
    return sorted(found)


def as_tuples(records):
    return sorted((r.arity, r.powers, r.exponents, r.target_power,
                   r.target_exponent) for r in records)


def test_classify_group_shape_exact():
    recs = classify_admissible(HP, max_arity=6, max_power=2)
    assert recs, "arity-3 families must be admissible"
    for r in recs:
        assert r.arity == HP.ell
        assert all(e == 1 for e in r.exponents)
        assert r.target_exponent == 0
        assert r.target_power == HP.h + sum(r.powers)
    assert as_tuples(recs) == oracle_admissible(HP, 6, 2)


def test_classify_matches_oracle_random(seed_params=None):
    import random

    rng = random.Random(20260819)
    for _ in range(20):
        while True:
            ell = rng.randint(3, 8)
            h = rng.randint(1, 12)
            if math.gcd(h, ell) == 1:
                break
        a0 = pow(h, -1, ell)
        a = a0 + rng.randint(-2, 2) * ell
        b = (h * a - 1) // ell
        hp = HypothesisParams(a=a, b=b, h=h, ell=ell)
        got = as_tuples(classify_admissible(hp, max_arity=6, max_power=2))
        assert got == oracle_admissible(hp, 6, 2), hp


def test_classify_loop_dual_params():
    dual = HP.loop_dual()
    assert (dual.a, dual.b, dual.h, dual.ell) == (-1, -2, 3, 2)
    assert dual.h * dual.a - dual.ell * dual.b == 1
    # ell = 2 on the dual side of the smallest case: classification refuses
    with pytest.raises(ValueError):
        classify_admissible(dual, 4, 1)


@pytest.mark.parametrize("pnq", [(3, 1, 2), (5, 1, 2), (5, 1, 4), (7, 1, 2),
                                 (7, 1, 3), (7, 1, 6), (3, 2, 2), (11, 1, 2)])
def test_shapes_are_the_shapes_of_the_expanded_rows(pnq):
    params = GroupParams(*pnq)
    for max_arity in (params.pn + 1, params.pn + 2):
        shapes = admissible_shapes(params.hp, max_arity)
        rows = classify_admissible(params.hp, max_arity, 1)
        assert shapes
        assert ({(sh.arity, sh.exponents, sh.target_exponent) for sh in shapes}
                == {(r.arity, r.exponents, r.target_exponent) for r in rows})
        # every shape admits every power tuple
        assert len(rows) == sum(2 ** sh.arity for sh in shapes)


def test_hypothesis_params_validation():
    with pytest.raises(ValueError):
        HypothesisParams(a=1, b=1, h=1, ell=1)
    hp = HypothesisParams(a=1, b=0, h=1, ell=3)  # the q = 1 shape
    assert hp.ell == 3


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def scaled_machine_model(x_scale, t_scale, coeff):
    """The toy model after an opaque change of basis: monomial x^j t^e is
    represented by machine label scaled by x_scale^j t_scale^e, and the
    arity-3 coefficient is coeff in that basis."""
    base = build_toy_model()
    p = 3
    labels = {}
    factors = {}
    for j, eps, bd in toy_monomials():
        lab = f"h{bd.s}_{bd.w}"
        labels[(j, eps)] = lab
        factors[(j, eps)] = (pow(x_scale, j, p) * pow(t_scale, eps, p)) % p

    def conv(table, arity, overall=1):
        out = {}
        for word, vec in table.items():
            key = []
            num = overall
            for lab in word:
                j, eps = parse(lab)
                key.append(labels[(j, eps)])
                num = num * factors[(j, eps)] % p
            ((olab, c),) = vec.items()
            j, eps = parse(olab)
            den = factors[(j, eps)]
            out[tuple(key)] = {labels[(j, eps)]: num * c * pow(den, p - 2, p) % p}
        return out

    def parse(lab):
        for j, eps, _ in toy_monomials():
            if monomial_label(j, eps) == lab:
                return j, eps
        raise KeyError(lab)

    blocks = {}
    for (j, eps), lab in labels.items():
        blocks.setdefault(HP.monomial_bidegree(j, eps, SCALE), []).append(lab)
    space = GradedVectorSpace(prime=3, window=WINDOW, blocks=blocks)
    ops = {2: conv(base.ops[2], 2)}
    # overwrite the arity-3 coefficient (in the machine basis) to coeff
    m3 = conv(base.ops[3], 3)
    m3 = {w: {l: coeff % p for l in v} for w, v in m3.items()}
    ops[3] = m3
    return AInfinityAlgebra(space=space, ops=ops, arity_bound=7,
                            unit=labels[(0, 0)], internal_scale=SCALE)


def test_normalize_is_identity_on_canonical():
    model = build_toy_model()
    norm = normalize_generators(model, HP)
    assert not norm.formal
    assert norm.raw_coefficient == 2
    assert norm.model.ops == model.ops
    assert norm.model.unit == "1"


def test_normalize_recovers_canonical_from_scaled():
    """Normalization rescales the tables to the canonical coefficients
    and keeps the labels: the machine model's own, one per monomial."""
    canonical = build_toy_model()
    machine_label = {monomial_label(j, eps): f"h{bd.s}_{bd.w}"
                     for j, eps, bd in toy_monomials()}
    want = {n: {tuple(map(machine_label.get, word)):
                {machine_label[lab]: c for lab, c in vec.items()}
                for word, vec in table.items()}
            for n, table in canonical.ops.items()}
    for xs, ts, c in [(2, 1, 1), (1, 2, 2), (2, 2, 1)]:
        machine = scaled_machine_model(xs, ts, c)
        norm = normalize_generators(machine, HP)
        assert not norm.formal
        assert norm.model.ops == want, (xs, ts, c)
        assert norm.model.space is machine.space
        assert norm.model.unit == machine.unit == machine_label["1"]


def test_normalize_formal_model():
    model = build_toy_model()
    del model.ops[3]
    norm = normalize_generators(model, HP)
    assert norm.formal and norm.raw_coefficient == 0
    assert 3 not in norm.model.ops


def test_normalize_raises_when_the_window_misses_the_family_target():
    # the window (-7, 0) holds x and x*t but not x^2, where m_3(t, t, t)
    # lands: its coefficient is unknown there, not zero
    gp = GroupParams(3, 1, 2)
    model = expected_minimal_model(gp, window=(-7, 0), arity_bound=4)
    with pytest.raises(TruncationExceeded):
        normalize_generators(model, gp.hp)


def test_monomials_match_a_scan_over_j():
    assert monomials(HP, SCALE, WINDOW) == toy_monomials()
    gp = GroupParams(5, 1, 2)
    for hp, (lo, hi) in [(gp.hp, gp.cochain_run()[1]),
                         (gp.hp.loop_dual(), gp.loop_run()[1])]:
        scan = [(j, eps, hp.monomial_bidegree(j, eps, gp.internal_scale))
                for j in range(hi - lo + 1) for eps in (0, 1)
                if lo <= hp.monomial_bidegree(j, eps).s <= hi]
        assert monomials(hp, gp.internal_scale, (lo, hi)) == scan


def test_normalize_rejects_wrong_shape():
    model = build_toy_model()
    del model.ops[2][("x", "x")]  # x^2 unreachable as a product
    with pytest.raises(ShapeMismatch):
        normalize_generators(model, HP)


def test_monomial_labels():
    assert monomial_label(0, 0) == "1"
    assert monomial_label(0, 1) == "t"
    assert monomial_label(1, 0) == "x"
    assert monomial_label(2, 1) == "x^2*t"


def test_strict_unitality_defects():
    model = build_toy_model()
    assert strict_unitality_defects(model) == []

    # a higher operation eating the unit is flagged
    model.ops[3][("1", "t", "t")] = {"t": 1}
    assert any("unit input" in d for d in strict_unitality_defects(model))

    # ... and so is a wrong unit product
    broken = build_toy_model()
    broken.ops[2][("1", "x")] = {"x": 2}
    assert any("m_2" in d for d in strict_unitality_defects(broken))


def test_unit_free_sweep_agrees_with_full_sweep():
    # on a strictly unital model the identity defect over unit-free words
    # detects exactly what the full sweep detects
    from ainfbg.ainf import enumerate_words

    model = build_toy_model()
    full = stasheff_sweep(model)[3]
    free = stasheff_defect(model, 3,
                           words=enumerate_words(model, 3, exclude=("1",)))
    assert full.ok() and free.ok()
    assert free.checked < full.checked

    wrong = build_toy_model()
    wrong.ops[3][("t", "t", "t")] = {"x^2": 1}  # breaks the family pattern
    full_w = stasheff_sweep(wrong)[4]
    free_w = stasheff_defect(wrong, 4,
                             words=enumerate_words(wrong, 4, exclude=("1",)))
    assert (not full_w.ok()) == (not free_w.ok())


# ---------------------------------------------------------------------------
# the grading-aware word enumerator
# ---------------------------------------------------------------------------

PUBLISHED = [(3, 1, 2), (5, 1, 2)]
LEVEL_SHIFT = {"identity": 3, "operation": 2}


def s_only_words(model, n, exclude=(), level="identity"):
    """Oracle: the enumerator that prunes prefixes on the degree s alone,
    by the extreme letter degrees, and filters complete words by window."""
    shift = n - LEVEL_SHIFT[level]
    lo, hi = model.space.window
    letters = sorted(((lab, bd.s) for bd in model.space.bidegrees()
                      for lab in model.space.labels(bd) if lab not in exclude),
                     key=lambda ls: (-ls[1], ls[0]))
    if not letters:
        return []
    smin = min(s for _, s in letters)
    smax = max(s for _, s in letters)
    out = []

    def rec(prefix, ssum):
        rest = n - len(prefix)
        if rest == 0:
            if lo <= ssum + shift <= hi:
                out.append(tuple(prefix))
            return
        for lab, s in letters:
            if (ssum + s + (rest - 1) * smax + shift < lo
                    or ssum + s + (rest - 1) * smin + shift > hi):
                continue
            rec(prefix + [lab], ssum + s)

    rec([], 0)
    return out


@functools.cache
def published_model(pnq):
    """The closed-form model on the published window of the pipeline,
    which is what the pattern gate pins the published homology to."""
    params = GroupParams(*pnq)
    return expected_minimal_model(params, window=params.model_window(),
                                  arity_bound=params.default_arity_bound())


@functools.cache
def default_words(pnq, n, level):
    return list(enumerate_words(published_model(pnq), n, level=level))


def output_bidegree(model, word, level):
    shift = len(word) - LEVEL_SHIFT[level]
    bds = [model.space.bidegree_of(lab) for lab in word]
    return Bidegree(sum(bd.s for bd in bds) + shift, sum(bd.w for bd in bds))


@pytest.mark.parametrize("pnq", PUBLISHED)
@pytest.mark.parametrize("level", ["identity", "operation"])
def test_default_enumeration_matches_the_s_only_oracle(pnq, level):
    model = published_model(pnq)
    for n in range(2, model.arity_bound + 1):
        assert default_words(pnq, n, level) == s_only_words(model, n,
                                                            level=level)
        assert (list(enumerate_words(model, n, exclude=("1",), level=level))
                == s_only_words(model, n, exclude=("1",), level=level))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_targets_filter_the_default_enumeration(data):
    pnq = data.draw(st.sampled_from(PUBLISHED))
    level = data.draw(st.sampled_from(["identity", "operation"]))
    model = published_model(pnq)
    n = data.draw(st.integers(2, model.arity_bound))
    words = default_words(pnq, n, level)
    lo, hi = model.space.window
    # every bidegree a word lands on, the published blocks, and two
    # bidegrees outside the window (which the enumerator must ignore)
    candidates = sorted({output_bidegree(model, w, level) for w in words}
                        | set(model.space.blocks)
                        | {Bidegree(lo - 1, 0), Bidegree(hi + 1, 0)})
    targets = data.draw(st.sets(st.sampled_from(candidates)))
    got = list(enumerate_words(model, n, level=level, targets=targets))
    assert got == [w for w in words
                   if output_bidegree(model, w, level) in targets]


# ---------------------------------------------------------------------------
# identity sweeps: the grading shortcut and the counted sweep
# ---------------------------------------------------------------------------

def koszul_apply(model: AInfinityAlgebra, r: int, s: int, t: int,
                 word: tuple[str, ...]) -> dict[str, int]:
    """Evaluate m_(r+1+t) (id^r (x) m_s (x) id^t) on a word, Koszul signs in.

    The inner operation has degree s-2; moving it past the first r inputs
    costs (-1)^((s-2) * (sum of their degrees)).  The Stasheff prefactor
    (-1)^(r+st) is left to the caller.
    """
    n = r + s + t
    if len(word) != n:
        raise ValueError(f"word length {len(word)} != {n}")
    p = model.prime
    inner = model.op_value(s, word[r:r + s])
    if not inner:
        return {}
    passed = sum(model.space.bidegree_of(l).s for l in word[:r])
    sign = -1 if (s * passed) % 2 else 1  # (s-2)*passed has the parity of s*passed
    out: dict[str, int] = {}
    for lab, c in inner.items():
        outer_word = word[:r] + (lab,) + word[r + s:]
        for out_lab, d in model.op_value(r + 1 + t, outer_word).items():
            out[out_lab] = (out.get(out_lab, 0) + sign * c * d) % p
    return {k: v for k, v in out.items() if v}


def reference_word_defect(model, word):
    """Oracle: the arity-n identity on one word, every term evaluated
    through koszul_apply, with no shortcut by grading."""
    n = len(word)
    if n > model.arity_bound:
        raise ValueError(f"arity {n} beyond bound {model.arity_bound}")
    p = model.prime
    total = {}
    for s in range(1, n + 1):
        for r in range(0, n - s + 1):
            t = n - s - r
            term = koszul_apply(model, r, s, t, word)
            if not term:
                continue
            sign = -1 if (r + s * t) % 2 else 1
            for lab, c in term.items():
                total[lab] = (total.get(lab, 0) + sign * c) % p
    return {k: v for k, v in total.items() if v}


def mutated(model):
    """A copy of the model with one entry of its highest nonzero table
    doubled, so that some identities fail."""
    ops = {n: {w: dict(v) for w, v in table.items()}
           for n, table in model.ops.items()}
    top = max(n for n, table in ops.items() if table)
    word = min(w for w in ops[top] if model.unit not in w)
    ops[top][word] = {lab: 2 * c for lab, c in ops[top][word].items()}
    return AInfinityAlgebra(space=model.space, ops=ops,
                            arity_bound=model.arity_bound, unit=model.unit,
                            internal_scale=model.internal_scale)


def outcome(evaluate, model, word):
    try:
        return evaluate(model, word)
    except TruncationExceeded:
        return "truncated"


@functools.cache
def closed_form_models():
    """Models whose words hit every case of the shortcut: outputs in and
    out of the window, with and without a block, inner operations that
    leave the window (the loop side), the unit, and nonzero defects."""
    broken = build_toy_model()
    broken.ops[2][("x", "x")] = {"x^2": 2}   # x^2 * t != x * (x * t)
    models = [build_toy_model(), mutated(build_toy_model()), broken]
    for pnq in PUBLISHED:
        params = GroupParams(*pnq)
        models += [published_model(pnq), expected_loop_model(params)]
    models.append(mutated(expected_loop_model(GroupParams(5, 1, 2))))
    return models


@functools.cache
def sample_words(i, kind):
    """Words of model i whose identity output is in the window, those
    whose output carries a block, or those the reference finds defective."""
    model = closed_form_models()[i]
    targets = None if kind == "in window" else set(model.space.blocks)
    words = [w for n in range(1, model.arity_bound + 1)
             for w in enumerate_words(model, n, targets=targets)]
    if kind == "defective":
        words = [w for w in words
                 if outcome(reference_word_defect, model, w)
                 not in ({}, "truncated")]
    return words


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_word_defect_matches_the_reference(data):
    i = data.draw(st.integers(0, len(closed_form_models()) - 1))
    model = closed_form_models()[i]
    kind = data.draw(st.sampled_from(
        ["any", "in window", "targeted", "defective"]))
    if kind != "any" and sample_words(i, kind):
        word = data.draw(st.sampled_from(sample_words(i, kind)))
    else:
        labels = sorted(lab for bd in model.space.bidegrees()
                        for lab in model.space.labels(bd))
        word = tuple(data.draw(st.lists(st.sampled_from(labels), min_size=1,
                                        max_size=model.arity_bound)))
    assert (outcome(stasheff_word_defect, model, word)
            == outcome(reference_word_defect, model, word))


def full_sweep(model, n, exclude):
    """Oracle: every enumerated word evaluated term by term."""
    checked = truncated = 0
    bad = []
    for word in enumerate_words(model, n, exclude=exclude):
        value = outcome(reference_word_defect, model, word)
        if value == "truncated":
            truncated += 1
            continue
        checked += 1
        if value:
            bad.append((word, value))
    return checked, truncated, bad


ACCEPTANCE_MODELS = ([("cochain", pnq) for pnq in [(3, 1, 2), (5, 1, 2),
                                                   (5, 1, 4), (7, 1, 2),
                                                   (7, 1, 3), (7, 1, 6)]]
                     + [("loop", pnq) for pnq in [(3, 1, 2), (5, 1, 2),
                                                  (5, 1, 4)]])


@pytest.mark.parametrize("side,pnq", ACCEPTANCE_MODELS)
def test_counted_sweep_matches_the_full_enumeration(side, pnq):
    params = GroupParams(*pnq)
    pipeline = group_minimal_model if side == "cochain" else loop_minimal_model
    model = pipeline(params).model
    mutant = mutated(model)
    # the mutant has the model's space, so the same words and counts, and
    # some nonzero defects for the targeted evaluation to find
    defective = 0
    for m, exclude, top in ((model, (), min(5, model.arity_bound)),
                            (mutant, (model.unit,), model.arity_bound)):
        sweep = stasheff_sweep(replace(m, arity_bound=top), exclude=exclude)
        for n, rep in sweep.items():
            assert ((rep.checked, rep.truncated, list(rep.nonzero.items()))
                    == full_sweep(m, n, exclude)), (n, exclude)
            defective += len(rep.nonzero)
    assert defective > 0


# the shallowest passing chain windows
FLOORS = [((3, 1, 1), (-5, 1)), ((3, 1, 2), (-11, 1)), ((5, 1, 2), (-17, 1))]


@functools.cache
def floor_model(pnq, window):
    return group_minimal_model(GroupParams(*pnq), window=window).model


@pytest.mark.parametrize("pnq,window", FLOORS)
def test_counted_sweep_matches_the_full_enumeration_at_the_floor(pnq, window):
    """At the shallowest passing chain window most words of a sweep are
    truncated, and whole arities check none, so the count's truncation
    rule and the evaluation's decide the most words here.  The mutated
    entry may then sit on no checked word, so no defect is required."""
    model = floor_model(pnq, window)
    for m in (model, mutated(model)):
        for exclude in ((), (model.unit,)):
            for n, rep in stasheff_sweep(m, exclude=exclude).items():
                assert ((rep.checked, rep.truncated, list(rep.nonzero.items()))
                        == full_sweep(m, n, exclude)), (n, exclude)


def test_sweep_beyond_the_arity_bound_is_refused():
    model = build_toy_model()
    n = model.arity_bound + 1
    with pytest.raises(ValueError):
        stasheff_defect(model, n, [("t",) * n])


def reference_count_sweep(model, n, exclude):
    """(checked, truncated) of the arity-n sweep from a dynamic program of
    its own n steps over (Q, min Q, max Q) of the prefixes that stay
    inside, plus Q of those that already left: the per-arity count that
    the one pass of stasheff_sweep replaced."""
    window = model.space.window
    lo, hi = window
    steps = Counter(bd.s + 1 for bd in model.space.bidegrees()
                    for lab in model.space.labels(bd) if lab not in exclude)
    inside = Counter({(0, 0, 0): 1})
    left = Counter()
    for _ in range(n):
        nxt_inside = Counter()
        nxt_left = Counter()
        for q, c in left.items():
            for step, k in steps.items():
                nxt_left[q + step] += c * k
        for (q, qmin, qmax), c in inside.items():
            for step, k in steps.items():
                q2 = q + step
                if _q_leaves_window(window, q2, qmin, qmax):
                    nxt_left[q2] += c * k
                else:
                    nxt_inside[q2, min(qmin, q2), max(qmax, q2)] += c * k
        inside, left = nxt_inside, nxt_left
    checked = sum(c for (q, _, _), c in inside.items() if lo <= q - 3 <= hi)
    truncated = sum(c for q, c in left.items() if lo <= q - 3 <= hi)
    return checked, truncated


@pytest.mark.parametrize("pnq,window", [((5, 2, 2), None), ((3, 2, 2), None),
                                        *FLOORS])
def test_one_pass_counts_every_arity_like_the_per_arity_program(pnq, window):
    """The counts read only the space, so the closed forms at their
    published windows stand in for the transferred (5,2,2) (arity bound
    26) and (3,2,2); the floor windows are the transferred models.  With
    the unit in the alphabet the per-arity reference at (5,2,2) takes
    about 5 s up to arity 26, so that case stops at arity 12."""
    model = (expected_minimal_model(GroupParams(*pnq)) if window is None
             else floor_model(pnq, window))
    for exclude, top in (((model.unit,), model.arity_bound),
                         ((), min(model.arity_bound, 12))):
        m = replace(model, arity_bound=top)
        sweep = stasheff_sweep(m, exclude=exclude)
        assert list(sweep) == list(range(3, top + 1))
        for n, rep in sweep.items():
            assert ((rep.checked, rep.truncated)
                    == reference_count_sweep(m, n, exclude)), (n, exclude)
