"""Retraction, Massey power, and cobar machinery.

Oracles: the Euler characteristic (independent of any splitting) for the
contraction of random complexes; the classical p-fold Massey power of the
degree-one exterior class for cyclic groups (equals minus the polynomial
class); exhaustive d^2 = 0 for the cobar differential's sign rule; the
one-triple-at-a-time loop for exhaustive associativity.
"""

import ast
import functools
import itertools
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

import ainfbg
from ainfbg.dga import (
    CertificationError,
    DGAlgebra,
    cobar,
    contraction,
    massey_power,
    reorder_blocks,
    validate_dga,
)
from ainfbg.glin import (
    Bidegree,
    GradedVectorSpace,
    TruncationExceeded,
    greedy_extend,
    invert,
    rank_nullspace,
    row_reduce,
    solve,
)
from ainfbg.grp import GroupParams, build_end_dga, expected_minimal_model
from ainfbg.koszul import cochain_window_for_loops

from toymodels import build_toy_model


# ---------------------------------------------------------------------------
# random complexes
# ---------------------------------------------------------------------------

def random_complex(seed, p, dims):
    """Zero-product DGA on a random complex with d^2 = 0 by construction."""
    rng = np.random.default_rng(seed)
    n = len(dims)
    blocks = {Bidegree(s, 0): [f"a{s}_{i}" for i in range(dims[s])]
              for s in range(n) if dims[s]}
    space = GradedVectorSpace(prime=p, window=(-1, n), blocks=blocks)
    mats = {}
    prev = None  # differential out of degree s - 1
    for s in range(1, n):
        if prev is None:
            M = rng.integers(0, p, size=(dims[s - 1], dims[s]))
        else:
            # columns must be cycles of the previous differential
            _, null, _ = rank_nullspace(prev, p)
            coeff = rng.integers(0, p, size=(null.shape[0], dims[s]))
            M = (null.T @ coeff) % p
        mats[s] = M
        prev = M

    def diff(lab):
        s, i = lab[1:].split("_")
        s, i = int(s), int(i)
        if s == 0 or s not in mats:
            return {}
        out = Bidegree(s - 1, 0)
        return space.to_dict(out, mats[s][:, i])

    return DGAlgebra(space=space, unit={}, products=lambda a, b: {},
                     diff=diff, name="random"), mats


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_contraction_random_complexes(seed):
    p = [3, 5, 7][seed % 3]
    dims = [3, 5, 4, 6, 3, 2]
    dga, mats = random_complex(seed, p, dims)
    con = contraction(dga, s_range=(0, len(dims) - 1))
    # identities are asserted inside; check the Euler characteristic here
    euler_a = sum((-1) ** s * d for s, d in enumerate(dims))
    euler_h = sum((-1) ** bd.s * len(labs)
                  for bd, labs in con.homology.blocks.items())
    assert euler_a == euler_h
    # project o include is the identity on every homology class
    for bd, labs in con.homology.blocks.items():
        for lab in labs:
            v = con.include({lab: 1})
            assert con.project(v) == {lab: 1}
    # homotopy contracts what projection kills: dG(v) + Gd(v) = v - f1 pi v
    for bd in list(dga.space.blocks):
        if not 1 <= bd.s <= len(dims) - 2:
            continue
        for lab in dga.space.labels(bd):
            v = {lab: 1}
            lhs = _vadd(dga.d(con.homotopy(v)), con.homotopy(dga.d(v)), p)
            rhs = _vsub(v, con.include(con.project(v)), p)
            assert lhs == rhs


def _vadd(u, v, p):
    out = dict(u)
    for k, c in v.items():
        out[k] = (out.get(k, 0) + c) % p
    return {k: c for k, c in out.items() if c % p}


def _vsub(u, v, p):
    return _vadd(u, {k: -c for k, c in v.items()}, p)


def test_contraction_out_of_range_raises():
    dga, _ = random_complex(0, 3, [3, 5, 4, 6, 3, 2])
    con = contraction(dga, s_range=(1, 3))
    top = {next(iter(dga.space.labels(Bidegree(5, 0)))): 1}
    with pytest.raises(TruncationExceeded):
        con.project(top)
    with pytest.raises(TruncationExceeded):
        con.homotopy(top)


_CORRUPTED_DIFFERENTIAL = textwrap.dedent("""
    import sys
    from ainfbg.dga import CertificationError, DGAlgebra, contraction, validate_dga
    from ainfbg.glin import Bidegree, GradedVectorSpace

    if not sys.flags.optimize:
        sys.exit("not running under -O")
    # a2 -> a1 -> a0, so d^2(a2) = a0 != 0
    space = GradedVectorSpace(prime=3, window=(-1, 3), blocks={
        Bidegree(s, 0): [f"a{s}"] for s in range(3)})
    diff = {"a2": {"a1": 1}, "a1": {"a0": 1}, "a0": {}}
    dga = DGAlgebra(space=space, unit={}, products=lambda a, b: {},
                    diff=lambda lab: diff[lab], name="corrupted")
    for check in (validate_dga, contraction):
        try:
            check(dga)
        except CertificationError as exc:
            print(f"{check.__name__}: {exc}")
        else:
            sys.exit(f"{check.__name__} accepted d^2 != 0")
""")


def test_certification_survives_python_optimize():
    """A corrupted differential fails certification even under -O, where
    assert statements are stripped."""
    src = str(Path(ainfbg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", _CORRUPTED_DIFFERENTIAL],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr or run.stdout
    assert "validate_dga: d^2 != 0 on 'a2'" in run.stdout
    assert "contraction: boundaries at" in run.stdout


def test_contraction_rejects_bad_range():
    dga, _ = random_complex(0, 3, [3, 5, 4, 6, 3, 2])
    with pytest.raises(ValueError):
        contraction(dga, s_range=(-1, 3))


def test_contraction_reordered_same_dims():
    dga, _ = random_complex(3, 5, [3, 5, 4, 6, 3, 2])
    con = contraction(dga, s_range=(0, 5))
    dga_r = reorder_blocks(dga, lambda bd, labs: list(reversed(labs)))
    con_r = contraction(dga_r, s_range=(0, 5))
    dims = {bd: len(v) for bd, v in con.homology.blocks.items()}
    dims_r = {bd: len(v) for bd, v in con_r.homology.blocks.items()}
    assert dims == dims_r


# ---------------------------------------------------------------------------
# the three-elimination splitting against the seven-elimination one
# ---------------------------------------------------------------------------

@dataclass
class _RefSplit:
    labels: list
    h_labels: list
    f1: np.ndarray
    pi: np.ndarray
    p_b: np.ndarray
    b_rows: np.ndarray
    c_rows: np.ndarray
    g: np.ndarray | None = None


def reference_contraction(dga, s_range=None):
    """Splittings and homotopies the long way, per block: the rref of the
    incoming d for B, greedy complements of B in Z and of Z in the unit
    vectors, and G from solving for boundary coordinates.  The reference
    for `contraction`; returns (splits, trusted)."""
    space = dga.space
    p = dga.prime
    lo_w, hi_w = space.window
    lo, hi = s_range or (lo_w + 1, hi_w - 1)
    splits = {}
    for bd in sorted(space.blocks):
        if not lo <= bd.s <= hi + 1:
            continue
        labels = space.labels(bd)
        n = len(labels)
        d_out = dga.diff_block(bd)
        _, z_rows, _ = rank_nullspace(d_out, p)
        above = Bidegree(bd.s + 1, bd.w)
        if bd.s <= hi and space.in_window(above.s) and space.dim(above):
            d_in = dga.diff_block(above)
        else:
            d_in = np.zeros((n, 0), dtype=np.int64)
        pd_in = row_reduce(d_in.T, p)
        b_rows = pd_in.rref[:pd_in.rank].reshape(pd_in.rank, n)
        if np.any((d_out @ b_rows.T) % p):
            raise CertificationError(f"boundaries at {bd} are not cycles")
        c_idx = greedy_extend(z_rows, np.eye(n, dtype=np.int64), p)
        c_rows = np.eye(n, dtype=np.int64)[c_idx]
        if bd.s > hi:
            splits[bd] = _RefSplit(
                labels=labels, h_labels=[],
                f1=np.zeros((n, 0), dtype=np.int64),
                pi=np.zeros((0, n), dtype=np.int64),
                p_b=np.zeros((0, n), dtype=np.int64),
                b_rows=np.zeros((0, n), dtype=np.int64), c_rows=c_rows)
            continue
        h_rows = z_rows[greedy_extend(b_rows, z_rows, p)]
        nb, nh = len(b_rows), len(h_rows)
        assert nb + nh == len(z_rows) and nb + nh + len(c_rows) == n
        coords = invert(np.vstack([b_rows, h_rows, c_rows]), p).T
        splits[bd] = _RefSplit(
            labels=labels,
            h_labels=[f"h{bd.s}_{bd.w}_{k}" for k in range(nh)],
            f1=h_rows.T.copy(), pi=coords[nb:nb + nh].copy(),
            p_b=coords[:nb].copy(), b_rows=b_rows, c_rows=c_rows)

    for bd, sp in splits.items():
        if bd.s > hi:
            continue
        above = Bidegree(bd.s + 1, bd.w)
        n = len(sp.labels)
        nb = sp.b_rows.shape[0]
        sp_up = splits.get(above)
        n_up = len(sp_up.labels) if sp_up else 0
        if nb == 0 or sp_up is None:
            sp.g = np.zeros((n_up, n), dtype=np.int64)
            continue
        dc = (dga.diff_block(above) @ sp_up.c_rows.T) % p
        assert dc.shape[1] == nb
        pd_b = row_reduce(sp.b_rows.T, p)
        x = np.zeros((nb, nb), dtype=np.int64)
        for j in range(nb):
            col = solve(pd_b, dc[:, j])
            assert col is not None
            x[:, j] = col
        sp.g = (sp_up.c_rows.T @ invert(x, p) @ sp.p_b) % p

    trusted = set()
    for bd, sp in splits.items():
        if bd.s > hi:
            continue
        n = len(sp.labels)
        nh = len(sp.h_labels)
        assert np.all((sp.pi @ sp.f1) % p == np.eye(nh, dtype=np.int64))
        assert not np.any((sp.g @ sp.f1) % p)
        sp_up = splits.get(Bidegree(bd.s + 1, bd.w))
        if sp_up is not None:
            assert not np.any((sp_up.pi @ sp.g) % p)
            if sp_up.g is not None:
                assert not np.any((sp_up.g @ sp.g) % p)
        below = Bidegree(bd.s - 1, bd.w)
        sp_dn = splits.get(below)
        if bd.s - 1 < lo or (space.dim(below) and sp_dn is None):
            continue
        gd = (sp_dn.g @ dga.diff_block(bd)) % p if sp_dn is not None else 0
        d_up = dga.diff_block(Bidegree(bd.s + 1, bd.w)) if sp.g.shape[0] \
            else np.zeros((n, 0), dtype=np.int64)
        ident = (((d_up @ sp.g) % p) + gd + sp.f1 @ sp.pi) % p
        assert np.all(ident == np.eye(n, dtype=np.int64))
        trusted.add(bd)
    return splits, trusted


def assert_matches_reference(dga):
    con = contraction(dga)
    splits, trusted = reference_contraction(dga)
    assert list(con.splits) == list(splits)
    for bd, ref in splits.items():
        sp = con.splits[bd]
        assert sp.labels == ref.labels and sp.h_labels == ref.h_labels, bd
        for name in ("f1", "pi", "g"):
            got, want = getattr(sp, name), getattr(ref, name)
            if want is None:
                assert got is None, (bd, name)
            else:
                assert got.shape == want.shape, (bd, name)
                assert np.array_equal(got, want), (bd, name)
    assert con.trusted == trusted


def shuffled_blocks(dga, seed):
    """A seeded shuffle inside each bidegree block."""
    def key(bd, labels):
        out = list(labels)
        random.Random(f"{seed}/{bd.s}/{bd.w}").shuffle(out)
        return out
    return reorder_blocks(dga, key)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 5, 7, 11]),
       st.lists(st.integers(0, 7), min_size=4, max_size=7),
       st.integers(1, 2**16))
def test_contraction_matches_the_reference_on_random_complexes(seed, p, dims,
                                                               order_seed):
    dga, _ = random_complex(seed, p, dims)
    assert_matches_reference(dga)
    assert_matches_reference(shuffled_blocks(dga, order_seed))


def _loop_cobar(pnq):
    gp = GroupParams(*pnq)
    _, s_hi = gp.loop_window()
    cochain = expected_minimal_model(
        gp, window=cochain_window_for_loops(gp, s_hi))
    return cobar(cochain, s_hi)


@pytest.mark.parametrize("order_seed", [0, 1])
@pytest.mark.parametrize("build", [lambda: build_end_dga(GroupParams(3, 1, 2)),
                                   lambda: _loop_cobar((3, 1, 2))],
                         ids=["end(3,1,2)", "cobar(3,1,2)"])
def test_contraction_matches_the_reference_on_the_pipeline_algebras(
        build, order_seed):
    dga = build()
    if order_seed:
        dga = shuffled_blocks(dga, order_seed)
    assert_matches_reference(dga)


def test_int64_headroom_is_checked_before_any_elimination(monkeypatch):
    """At p = 2^31 - 1 a block of three already overflows int64 products;
    the guard must fire before glin builds its O(p) table of inverses."""
    import ainfbg.glin

    def no_table(p):
        raise AssertionError(f"inverse_table({p}) reached")

    monkeypatch.setattr(ainfbg.glin, "inverse_table", no_table)
    p = 2**31 - 1
    space = GradedVectorSpace(prime=p, window=(-1, 1), blocks={
        Bidegree(0, 0): ["a", "b", "c"]})
    dga = DGAlgebra(space=space, unit={}, products=lambda a, b: {},
                    diff=lambda lab: {}, name="wide prime")
    with pytest.raises(ValueError, match=r"p = 2147483647 with a block of "
                       r"dimension 3 .* < 2\^63 = 9223372036854775808"):
        contraction(dga)


# ---------------------------------------------------------------------------
# the End-DGA contracts onto the expected cohomology (pattern gate)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pnq", [(3, 1, 1), (3, 1, 2), (5, 1, 2)])
def test_end_contraction_matches_monomial_pattern(pnq):
    gp = GroupParams(*pnq)
    dga = build_end_dga(gp)
    con = contraction(dga)
    expected = expected_minimal_model(gp)
    got = {bd: len(labs) for bd, labs in con.homology.blocks.items()}
    want = {bd: len(labs) for bd, labs in expected.space.blocks.items()}
    assert got == want
    # every trusted-range block was certified by the homotopy identity
    lo, hi = con.s_range
    for bd in con.splits:
        if lo + 1 <= bd.s <= hi - 1 and bd.s > lo:
            assert bd in con.trusted or bd.s in (lo, hi)


def test_unit_class_is_the_algebra_unit():
    gp = GroupParams(3, 1, 2)
    dga = build_end_dga(gp)
    con = contraction(dga)
    (ulab,) = con.homology.labels(Bidegree(0, 0))
    assert con.include({ulab: 1}) == dga.unit


# ---------------------------------------------------------------------------
# Massey powers: the classical cyclic-group values
# ---------------------------------------------------------------------------

def _h_label_at(con, bd):
    labs = con.homology.labels(Bidegree(*bd))
    assert len(labs) == 1, (bd, labs)
    return labs[0]


def massey_setup(pnq):
    gp = GroupParams(*pnq)
    dga = build_end_dga(gp)
    con = contraction(dga)
    t = _h_label_at(con, (-(2 * gp.q - 1), gp.q * gp.h))
    x = _h_label_at(con, (-2 * gp.q, gp.q * gp.pn))
    return gp, con, t, x


# The raw coefficient of an n-fold power against a greedily chosen
# representative is a unit that moves under rescaling of either generator,
# so these tests assert the invariant content only: the power is defined
# (all staircase obstructions vanish) and lands on the polynomial line.
# The basis-independent sign statement is the ratio against the
# transferred operation coefficient, checked in the acceptance suite.

def test_massey_cube_for_z3():
    gp, con, t, x = massey_setup((3, 1, 1))
    rep = massey_power(con, t, 3)
    assert rep.defined
    assert set(rep.value) == {x} and rep.value[x] != 0
    assert rep.bidegree == Bidegree(-2, 3)
    # the plain square vanishes
    rep2 = massey_power(con, t, 2)
    assert rep2.defined and rep2.value == {}


def test_massey_fifth_power_for_z5():
    gp, con, t, x = massey_setup((5, 1, 1))
    for m in (2, 3, 4):
        rep = massey_power(con, t, m)
        assert rep.defined and rep.value == {}, m
    rep = massey_power(con, t, 5)
    assert rep.defined
    assert set(rep.value) == {x} and rep.value[x] != 0


def test_massey_reversal_still_lands_on_x():
    gp = GroupParams(3, 1, 1)
    dga = build_end_dga(gp)
    dga_r = reorder_blocks(dga, lambda bd, labs: list(reversed(labs)))
    con_r = contraction(dga_r)
    t = _h_label_at(con_r, (-1, 1))
    x = _h_label_at(con_r, (-2, 3))
    rep = massey_power(con_r, t, 3)
    assert rep.defined
    assert set(rep.value) == {x} and rep.value[x] != 0


# ---------------------------------------------------------------------------
# cobar
# ---------------------------------------------------------------------------

def test_cobar_letters_and_unit():
    model = build_toy_model()
    cb = cobar(model, 12)
    sp = cb.space
    assert sp.bidegree_of("t") == Bidegree(2, 4)    # was (-3, 4)
    assert sp.bidegree_of("x") == Bidegree(3, 6)    # was (-4, 6)
    assert sp.bidegree_of("t|t") == Bidegree(4, 8)
    assert not sp.has_label("1")                     # the unit is not a letter
    assert cb.mult({"t|x": 1}, {"t": 1}) == {"t|x|t": 1}
    assert cb.mult(cb.unit, {"t|x": 1}) == {"t|x": 1}


def test_cobar_differential_squares_to_zero_everywhere():
    model = build_toy_model()
    cb = cobar(model, 12)
    count = 0
    for bd in cb.space.bidegrees():
        for lab in cb.space.labels(bd):
            assert cb.d(cb.d({lab: 1})) == {}, lab
            count += 1
    assert count > 50


def test_cobar_differential_of_generators():
    model = build_toy_model()
    cb = cobar(model, 12)
    # d[x] picks up every way x arises in an operation: from m_2 as
    # t * (x t)-type words nothing lands on x itself; the family hits x^2
    dx2 = cb.d({"x^2": 1})
    assert ("t|t|t" in dx2), "the arity-3 family must appear in d of x^2"
    # m_2 pieces: x^2 = x * x
    assert ("x|x" in dx2)


def test_cobar_leibniz_sampled():
    model = build_toy_model()
    cb = cobar(model, 10)
    rep = validate_dga(cb, d2_min_s=1, pair_sample=300, triple_sample=300,
                       seed=5)
    assert rep.leibniz_checked > 0 and rep.assoc_checked > 0


def test_cobar_rejects_degree_zero_letters():
    gp = GroupParams(3, 1, 1)  # t sits in s = -1, letter degree 0
    model = expected_minimal_model(gp)
    with pytest.raises(ValueError):
        cobar(model, 8)


# ---------------------------------------------------------------------------
# exhaustive associativity: the product table against the triple loop
# ---------------------------------------------------------------------------

def _labels(dga):
    space = dga.space
    return [lab for bd in space.bidegrees() for lab in space.labels(bd)]


def reference_triple_check(dga, triples=None):
    """Associativity tried one triple at a time, over every (a, b, c) or
    over `triples`: the reference for the product-table engine behind
    exhaustive `validate_dga`.  Returns the number of triples checked; a
    triple is skipped when a product it needs leaves the window."""
    if triples is None:
        triples = itertools.product(_labels(dga), repeat=3)
    checked = 0
    for a, b, c in triples:
        try:
            left = dga.mult(dga.products(a, b), {c: 1})
            right = dga.mult({a: 1}, dga.products(b, c))
        except TruncationExceeded:
            continue
        if left != right:
            raise CertificationError(
                f"associativity fails on ({a!r},{b!r},{c!r})")
        checked += 1
    return checked


@pytest.mark.parametrize("window, counts", [
    ((-3, 1), (23, 935, 70392, 42)),
    ((-8, 1), (113, 15373, 2630926, 139)),
])
def test_exhaustive_validation_counts_are_pinned(window, counts):
    dga = build_end_dga(GroupParams(3, 1, 2), window=window)
    rep = validate_dga(dga)
    assert (rep.d_squared_checked, rep.leibniz_checked, rep.assoc_checked,
            rep.unit_checked) == counts


SMALL_ALGEBRAS = [("end", -2), ("end", -3), ("end", -4),
                  ("toy cobar", 8), ("toy cobar", 10), ("(3,1,2) cobar", 8)]


@functools.cache
def small_algebra(kind, bound):
    """A (3,1,2) end-DGA on the window (bound, 1), or a cobar algebra up to
    word degree bound; with its non-unit labels and the pairs of them whose
    product is nonzero."""
    if kind == "end":
        dga = build_end_dga(GroupParams(3, 1, 2), window=(bound, 1))
    else:
        model = build_toy_model() if kind == "toy cobar" else \
            expected_minimal_model(GroupParams(3, 1, 2))
        dga = cobar(model, bound)
    free = [lab for lab in _labels(dga) if lab not in dga.unit]
    nonzero = []
    for a, b in itertools.product(free, repeat=2):
        try:
            if dga.products(a, b):
                nonzero.append((a, b))
        except TruncationExceeded:
            pass
    return dga, free, nonzero


def with_product(dga, pair, product):
    """The same algebra with products(*pair) replaced by product(*pair)."""
    def products(a, b):
        return product(a, b) if (a, b) == pair else dga.products(a, b)
    return DGAlgebra(space=dga.space, unit=dga.unit, products=products,
                     diff=dga.diff, name=dga.name)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_table_engine_matches_the_triple_loop(data):
    """Exhaustive associativity gives the reference's count, or both
    reject the algebra and the triple the table engine names fails under
    the reference.  Mutations touch no unit label, so the unit check (and,
    with no Leibniz pairs drawn, every other check) passes either way."""
    algebra = data.draw(st.sampled_from(SMALL_ALGEBRAS))
    dga, free, nonzero = small_algebra(*algebra)
    p = dga.prime
    kind = data.draw(st.sampled_from(["none", "scale", "redirect", "inner"]))
    if kind != "none":
        a, b = data.draw(st.sampled_from(nonzero))
        ab = dga.products(a, b)
    if kind == "scale":
        dga = with_product(dga, (a, b), lambda *_: {
            lab: 2 * c % p for lab, c in ab.items()})
    elif kind == "redirect":
        target = data.draw(st.sampled_from(
            [lab for lab in _labels(dga) if lab not in ab]))
        dga = with_product(dga, (a, b), lambda *_: {target: 1})
    elif kind == "inner":
        # (ab)c leaves the window while ab and bc stay in it
        x = data.draw(st.sampled_from(sorted(ab)))
        in_window = []
        for c in free:
            try:
                dga.products(b, c)
            except TruncationExceeded:
                continue
            in_window.append(c)
        assume(x in free and in_window)
        c = data.draw(st.sampled_from(in_window))

        def leaves(*_):
            raise TruncationExceeded("made to leave the window")

        dga = with_product(dga, (x, c), leaves)
        assert reference_triple_check(dga, [(a, b, c)]) == 0

    try:
        want = reference_triple_check(dga)
    except CertificationError:
        want = None
    event(f"{kind} mutation, {'rejected' if want is None else 'accepted'}")
    try:
        got = validate_dga(dga, pair_sample=0).assoc_checked
    except CertificationError as exc:
        assert want is None, exc
        named = ast.literal_eval(
            str(exc).removeprefix("associativity fails on "))
        with pytest.raises(CertificationError):
            reference_triple_check(dga, [named])
    else:
        assert got == want


def test_product_outside_the_basis_fails_certification():
    dga, _, nonzero = small_algebra("end", -2)
    dga = with_product(dga, nonzero[0], lambda *_: {"nowhere": 1})
    with pytest.raises(CertificationError, match="outside the basis"):
        validate_dga(dga, pair_sample=0)
