"""Group-side constructions: parameters, algebra facts, resolution, End-DGA.

The filtered generator U is certified from the group basis; resolution
exactness by independent rank arithmetic on the multiplication matrices
that `stage_weight` and `diff_exponent` describe; the End-DGA differential
against the Hom differential composed from those same matrices; the
expected minimal models by the identity sweeps from the A-infinity kit.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from ainfbg.ainf import epsilon_sign, monomial_label, stasheff_sweep
from ainfbg.dga import validate_dga
from ainfbg.glin import Bidegree, TruncationExceeded, is_prime, rank_nullspace
from ainfbg.grp import (
    LOOP_GENERATORS,
    GroupParams,
    build_end_dga,
    default_gamma,
    diff_exponent,
    expected_loop_model,
    expected_minimal_model,
    stage_weight,
)


def model_end_dga(gp):
    """The end-DGA one degree outside the model window on either side."""
    lo, hi = gp.model_window()
    return build_end_dga(gp, window=(lo - 1, hi + 1))


CASES = [
    # (p, n, q) -> (h, default gamma)
    ((3, 1, 2), (2, 2)),
    ((5, 1, 2), (3, 4)),
    ((5, 1, 4), (4, 2)),
    ((7, 1, 2), (4, 6)),
    ((7, 1, 3), (5, 2)),
    ((7, 1, 6), (6, 3)),
    ((3, 2, 2), (5, 8)),
    ((3, 1, 1), (1, 1)),
]


def test_parameter_table():
    for (p, n, q), (h, gamma) in CASES:
        gp = GroupParams(p, n, q)
        assert gp.h == h, (p, n, q)
        assert gp.gamma == gamma, (p, n, q)
        assert gp.hp.h * gp.hp.a - gp.hp.ell * gp.hp.b == 1
        assert gp.internal_scale == q
        assert gp.hp.ell == p ** n


def multiplicative_order(x, m):
    """The length of the orbit of x under multiplication mod m."""
    if math.gcd(x, m) != 1:
        raise ValueError(f"{x} is not a unit mod {m}")
    k, y = 1, x % m
    while y != 1:
        y = y * x % m
        k += 1
    return k


def walked_gamma(p, n, q):
    """The reference for `default_gamma`: walk the units below p^n in
    order and return the first whose orbit has length q."""
    if q == 1:
        return 1
    m = p ** n
    for g in range(2, m):
        if math.gcd(g, m) == 1 and multiplicative_order(g, m) == q:
            return g
    raise ValueError(f"no element of order {q} mod {m}")


def test_gamma_orders():
    assert multiplicative_order(2, 9) == 6
    assert multiplicative_order(8, 9) == 2
    # 2 has order 3 mod 7, and 3 is the first primitive root
    assert default_gamma(7, 1, 6) == walked_gamma(7, 1, 6) == 3
    with pytest.raises(ValueError):
        multiplicative_order(3, 9)


def test_gamma_is_the_walked_unit_below_a_thousand():
    """The order test picks the unit the walk picks, for every valid
    (p, n, q) with p^n < 1000."""
    checked = 0
    for p in filter(is_prime, range(3, 1000, 2)):
        for n in itertools.takewhile(lambda n: p ** n < 1000,
                                     itertools.count(1)):
            for q in (q for q in range(1, p) if (p - 1) % q == 0):
                assert GroupParams(p, n, q).gamma == walked_gamma(p, n, q), (
                    p, n, q)
                checked += 1
    assert checked == 1869


def test_parameter_validation():
    with pytest.raises(ValueError):
        GroupParams(2, 1, 1)      # p must be odd
    with pytest.raises(ValueError):
        GroupParams(9, 1, 2)      # not prime
    with pytest.raises(ValueError):
        GroupParams(5, 1, 3)      # 3 does not divide 4


# ---------------------------------------------------------------------------
# certificates for the presentation the End-DGA is built from
# ---------------------------------------------------------------------------

def convolve(u, v, p):
    """Product in k[Z/m] in the group basis g^0..g^(m-1)."""
    out = np.zeros(len(u), dtype=np.int64)
    for i in np.nonzero(u)[0]:
        out = (out + u[i] * np.roll(v, i)) % p
    return out


def act(u, gamma, p):
    """The order-q automorphism g -> g^gamma on coefficient vectors."""
    m = len(u)
    out = np.zeros(m, dtype=np.int64)
    for i in range(m):
        out[i * gamma % m] = (out[i * gamma % m] + u[i]) % p
    return out


def filtered_generator(gp):
    """U in the group basis: the character average of g - 1, certified
    nilpotent of index exactly m, with its powers a basis on which the
    action is diagonal, sigma(U^a) = gamma^a U^a."""
    p, m, q, gamma = gp.p, gp.pn, gp.q, gp.gamma
    # (1/q) sum_r gamma^{-r} sigma^r (g - 1) is a gamma-eigenvector and
    # still generates the radical (mod J^2 it is g - 1)
    acc = np.zeros(m, dtype=np.int64)
    acc[0], acc[1] = p - 1, 1
    U = np.zeros(m, dtype=np.int64)
    for r in range(q):
        U = (U + pow(pow(gamma, r, p), -1, p) * acc) % p
        acc = act(acc, gamma, p)
    U = U * pow(q, -1, p) % p

    powers = [np.eye(m, dtype=np.int64)[0]]
    for _ in range(m):
        powers.append(convolve(powers[-1], U, p))
    assert not np.any(powers[m]), "U^m != 0"
    assert np.any(powers[m - 1]), "U^(m-1) == 0"
    assert rank_nullspace(np.stack(powers[:m], axis=1), p)[0] == m
    for a in range(m):
        assert np.array_equal(act(powers[a], gamma, p),
                              pow(gamma, a, p) * powers[a] % p), a
    return U


def shift(k, m):
    """Multiplication by U^k in the U-power basis U^0..U^(m-1)."""
    return np.eye(m, k=-k, dtype=np.int64)


def test_group_algebra_facts():
    for pnq in [(3, 1, 2), (5, 1, 4), (3, 2, 2)]:
        gp = GroupParams(*pnq)
        U = filtered_generator(gp)
        m, p = gp.pn, gp.p
        # U has no p-divisible group elements and augmentation zero
        assert all(U[j] == 0 for j in range(0, m, p))
        assert int(U.sum()) % p == 0
        # the action is an algebra automorphism
        rng = np.random.default_rng(11)
        for _ in range(5):
            u = rng.integers(0, p, size=m)
            v = rng.integers(0, p, size=m)
            lhs = act(convolve(u, v, p), gp.gamma, p)
            rhs = convolve(act(u, gp.gamma, p), act(v, gp.gamma, p), p)
            assert np.array_equal(lhs, rhs)


def test_resolution_weights_and_exactness():
    """Stage i maps to stage i - 1 by U^diff_exponent(i); the weights make
    that equivariant and the complex is exact above stage 0."""
    for (pnq, _) in CASES:
        gp = GroupParams(*pnq)
        top = 15
        pn, q = gp.pn, gp.q
        weights = [stage_weight(i, pn) for i in range(top + 1)]
        assert weights[0] == 0
        for i in range(1, top + 1):
            # equivariance: stage weights climb by the differential exponent
            assert weights[i] == weights[i - 1] + diff_exponent(i, pn)
        assert weights[2 * q] == q * pn          # the class of x
        assert weights[2 * q - 1] == q * gp.h    # the class of t

        d = {i: shift(diff_exponent(i, pn), pn) for i in range(1, top + 1)}
        assert rank_nullspace(d[1], gp.p)[0] == pn - 1  # cokernel = k
        for i in range(1, top):
            assert not np.any((d[i] @ d[i + 1]) % gp.p)
            rank_i = rank_nullspace(d[i], gp.p)[0]
            rank_next = rank_nullspace(d[i + 1], gp.p)[0]
            assert rank_next == pn - rank_i, f"not exact at stage {i}"


def hom_differential(lab, pn, p, top):
    """D(f) = d o f - (-1)^d f o d for f = (i, d, a) (e_{i+d} -> U^a e_i)
    on the resolution truncated at stage `top`, composed from the shift
    matrices and read back as labels."""
    i, d, a = lab
    terms = []   # (target stage, source stage, block matrix)
    if i >= 1:
        terms.append((i - 1, i + d, shift(diff_exponent(i, pn), pn)
                      @ shift(a, pn)))
    if i + d + 1 <= top:
        terms.append((i, i + d + 1, -(-1) ** (d % 2) * shift(a, pn)
                      @ shift(diff_exponent(i + d + 1, pn), pn)))
    out = {}
    for tgt, src, block in terms:
        block %= p
        # a module map is determined by the image of e_src: column 0
        assert np.array_equal(
            block, sum(c * shift(k, pn) for k, c in enumerate(block[:, 0])) % p)
        for k, c in enumerate(block[:, 0]):
            if c:
                key = (tgt, src - tgt, k)
                out[key] = (out.get(key, 0) + int(c)) % p
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("pnq, checked", [((3, 1, 2), 429), ((5, 1, 4), 1719),
                                          ((3, 2, 2), 2847), ((7, 1, 3), 2685)])
def test_end_dga_differential_is_the_hom_differential(pnq, checked):
    """The End-DGA the pipeline contracts has the differential of the
    endomorphisms of the certified resolution, on every basis map whose
    differential stays in the window."""
    gp = GroupParams(*pnq)
    dga = model_end_dga(gp)
    lo, _ = dga.space.window
    top = -lo + 6
    count = 0
    for bd in dga.space.bidegrees():
        if bd.s - 1 < lo:
            continue
        for lab in dga.space.labels(bd):
            got = dga.diff(lab)
            assert got == hom_differential(lab, gp.pn, gp.p, top), lab
            for out in got:
                assert dga.space.bidegree_of(out) == Bidegree(bd.s - 1, bd.w)
            count += 1
    assert count == checked


def test_stage_weight_closed_form():
    for pn in (3, 5, 7, 9):
        for j in range(5):
            assert stage_weight(2 * j, pn) == j * pn
            assert stage_weight(2 * j + 1, pn) == j * pn + 1


def scanned_end_dga_blocks(gp, window):
    """The labels of `build_end_dga` by a scan of every (target, source)
    stage pair and every power a < p^n, keeping the maps of a degree in the
    window and of a weight w >= 0 in q Z: the reference for the ranges it
    runs over."""
    pn, q = gp.pn, gp.q
    lo, hi = window
    L = -lo + 6
    blocks = {}
    for i in range(L + 1):
        for src in range(L + 1):
            d = src - i
            s = -d
            if not lo <= s <= hi:
                continue
            wdiff = stage_weight(src, pn) - stage_weight(i, pn)
            for a in range(pn):
                w = wdiff - a
                if w < 0 or w % q:
                    continue
                blocks.setdefault((s, w), []).append((i, d, a))
    return blocks


def test_end_dga_labels_are_those_of_the_scan():
    """Block by block and in the same order, on every group with
    p^n <= 49 at two windows, one of them with maps that raise the stage."""
    groups = [GroupParams(p, n, q) for p in range(3, 48) if is_prime(p)
              for n in range(1, 4) if p ** n <= 49
              for q in range(1, p) if (p - 1) % q == 0]
    assert len(groups) == 88
    for gp in groups:
        for window in ((-7, 1), (-10, 3)):
            space = build_end_dga(gp, window=window).space
            want = scanned_end_dga_blocks(gp, window)
            assert list(space.blocks) == list(want), (gp, window)
            assert space.blocks == want, (gp, window)


def test_end_dga_small_exhaustive():
    gp = GroupParams(3, 1, 2)
    dga = build_end_dga(gp, window=(-8, 1))
    labels = [lab for bd in dga.space.bidegrees()
              for lab in dga.space.labels(bd)]
    assert labels
    for lab in labels:
        i, d, a = lab
        w = stage_weight(i + d, 3) - stage_weight(i, 3) - a
        assert w >= 0 and w % 2 == 0
        assert dga.space.bidegree_of(lab) == Bidegree(-d, w)
    assert dga.mult(dga.unit, dga.unit) == dga.unit
    rep = validate_dga(dga, triple_sample=4000)
    assert rep.d_squared_checked > 0
    assert rep.leibniz_checked > 0
    assert rep.assoc_checked > 0


def test_end_dga_default_sampled():
    gp = GroupParams(3, 1, 2)
    dga = model_end_dga(gp)
    rep = validate_dga(dga, pair_sample=2500, triple_sample=2500, seed=3)
    assert rep.d_squared_checked == sum(
        1 for bd in dga.space.bidegrees()
        for _ in dga.space.labels(bd)
        if bd.s >= dga.space.window[0] + 2)


def test_end_dga_known_bidegrees():
    gp = GroupParams(3, 1, 2)
    dga = model_end_dga(gp)
    # cocycles representing x and t live at stage-lowering degrees 2q, 2q-1
    assert dga.space.has_label((0, 4, 0))
    assert dga.space.bidegree_of((0, 4, 0)) == Bidegree(-4, 6)
    assert dga.space.has_label((0, 3, 0))
    assert dga.space.bidegree_of((0, 3, 0)) == Bidegree(-3, 4)
    # the weight filter keeps only invariant maps
    for bd in dga.space.bidegrees():
        assert bd.w % gp.q == 0 and bd.w >= 0


def test_end_dga_truncation_raises():
    gp = GroupParams(3, 1, 2)
    dga = build_end_dga(gp, window=(-6, 1))
    lab = next(lab for bd in dga.space.bidegrees() if bd.s == -6
               for lab in dga.space.labels(bd))
    with pytest.raises(TruncationExceeded):
        dga.diff(lab)
    deep = [lab for bd in dga.space.bidegrees() if bd.s <= -4
            for lab in dga.space.labels(bd)]
    with pytest.raises(TruncationExceeded):
        for la in deep:
            for lb in deep:
                dga.products(la, lb)


def test_expected_models_satisfy_identities():
    for pnq in [(3, 1, 2), (5, 1, 2), (3, 1, 1), (7, 1, 3)]:
        gp = GroupParams(*pnq)
        model = expected_minimal_model(gp)
        top = min(gp.default_arity_bound(), 7)
        sweep = stasheff_sweep(replace(model, arity_bound=top))
        for arity, rep in sweep.items():
            assert rep.ok(), (pnq, arity, list(rep.nonzero)[:3])


def test_expected_model_family_values():
    gp = GroupParams(3, 1, 2)
    model = expected_minimal_model(gp)
    assert model.op_value(3, ("t", "t", "t")) == {"x^2": 2}      # -x^2
    gp5 = GroupParams(5, 1, 2)
    model5 = expected_minimal_model(gp5)
    assert model5.op_value(5, ("t",) * 5) == {"x^3": 1}          # +x^3
    gp9 = GroupParams(3, 2, 2)
    model9 = expected_minimal_model(gp9)
    assert model9.op_value(9, ("t",) * 9) == {"x^5": 1}          # +x^5


def test_expected_loop_models():
    gp = GroupParams(3, 1, 2)
    loop = expected_loop_model(gp)
    assert loop.ops.keys() == {2}           # exotic ring, no higher ops
    assert loop.op_value(2, ("xi", "xi")) == {"tau^3": 2}        # -tau^3
    assert loop.space.bidegree_of("tau") == Bidegree(2, 4)
    assert loop.space.bidegree_of("xi") == Bidegree(3, 6)
    for rep in stasheff_sweep(loop).values():
        assert rep.ok()

    gp5 = GroupParams(5, 1, 2)
    loop5 = expected_loop_model(gp5)
    assert loop5.op_value(2, ("xi", "xi")) == {}
    assert loop5.op_value(3, ("xi",) * 3) == {"tau^5": 4}        # -tau^5
    assert loop5.space.bidegree_of("tau") == Bidegree(2, 6)
    assert loop5.space.bidegree_of("xi") == Bidegree(3, 10)
    for rep in stasheff_sweep(replace(loop5, arity_bound=4)).values():
        assert rep.ok()

    gp7 = GroupParams(7, 1, 3)
    loop7 = expected_loop_model(gp7)
    assert loop7.op_value(5, ("xi",) * 5) == {"tau^7": 1}        # +tau^7


@pytest.mark.parametrize("side, pnq", [
    ("cochain", (3, 1, 2)), ("cochain", (5, 1, 2)), ("cochain", (7, 1, 3)),
    ("cochain", (3, 2, 2)), ("loop", (5, 1, 2)), ("loop", (7, 1, 3))])
def test_closed_form_family_table_matches_a_listing(side, pnq):
    """The whole family table at the published window against every power
    tuple with sum at most the budget whose letters lie in the window."""
    gp = GroupParams(*pnq)
    if side == "cochain":
        _, (lo, hi), arity = gp.cochain_run()
        model = expected_minimal_model(gp, window=(lo, hi), arity_bound=arity)
        hp, names = gp.hp, ("x", "t")
    else:
        _, (lo, hi), arity = gp.loop_run()
        model = expected_loop_model(gp, window=(lo, hi), arity_bound=arity)
        hp, names = gp.hp.loop_dual(), LOOP_GENERATORS

    def in_window(j, eps):
        return lo <= hp.monomial_bidegree(j, eps).s <= hi

    budget = max(j for j in range(hi - lo + 1) if in_window(j, 0)) - hp.h
    want = {}
    for powers in itertools.product(range(budget + 1), repeat=hp.ell):
        if sum(powers) <= budget and all(in_window(j, 1) for j in powers):
            word = tuple(monomial_label(j, 1, names) for j in powers)
            target = monomial_label(hp.h + sum(powers), 0, names)
            want[word] = {target: epsilon_sign(hp.ell) % gp.p}
    assert len(want) > 1
    assert model.ops[hp.ell] == want


def test_loop_model_rejects_q1():
    with pytest.raises(ValueError):
        expected_loop_model(GroupParams(3, 1, 1))
