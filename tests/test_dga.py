"""Retraction, Massey power, and cobar machinery.

Oracles: the Euler characteristic (independent of any splitting) for the
contraction of random complexes; the classical p-fold Massey power of the
degree-one exterior class for cyclic groups (equals minus the polynomial
class); exhaustive d^2 = 0 for the cobar differential's sign rule; the
one-triple-at-a-time loop for exhaustive associativity.
"""

import functools
import gc
import itertools
import os
import random
import re
import subprocess
import sys
import textwrap
import types
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

import ainfbg
from ainfbg.ainf import NormalizedModel
from ainfbg.dga import (
    CertificationError,
    Contraction,
    DGAlgebra,
    _add,
    _scale,
    cobar,
    cobar_letters,
    contraction,
    massey_power,
    reorder_blocks,
    validate_dga,
)
from ainfbg.glin import (
    Bidegree,
    GradedVectorSpace,
    ParameterError,
    TruncationExceeded,
    echelon,
    greedy_extend,
    invert,
    rank_nullspace,
    row_reduce,
    solve,
)
from ainfbg.grp import (
    GroupParams,
    build_end_dga,
    expected_loop_model,
    expected_minimal_model,
)
from ainfbg.koszul import (
    cochain_window_for_loops,
    loop_minimal_model,
    massey_versus_loop_transfer,
    poincare_roundtrip,
)
from ainfbg.transfer import (
    Computation,
    group_minimal_model,
    massey_versus_transfer,
)

from test_glin import reference_eliminate, rows_of
from test_grp import model_end_dga
from toymodels import build_toy_model


def bidegree_of(dga, vec):
    """The one bidegree of a nonzero homogeneous vector of `dga`."""
    bds = {dga.space.bidegree_of(lab) for lab in vec}
    if len(bds) != 1:
        raise ValueError(f"vector is not homogeneous: bidegrees {bds}")
    return bds.pop()


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
    con = contraction(dga)
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
    """The retraction maps refuse the degrees at the window edges, where
    d (at the floor) or the incoming boundaries (at the ceiling) are
    unknown."""
    dga = build_end_dga(GroupParams(3, 1, 2), window=(-6, 0))
    con = contraction(dga)
    assert con.homology.window == (-5, -1)
    for s in (-6, 0):
        edge = {next(lab for bd in dga.space.bidegrees() if bd.s == s
                     for lab in dga.space.labels(bd)): 1}
        with pytest.raises(TruncationExceeded):
            con.project(edge)
        with pytest.raises(TruncationExceeded):
            con.homotopy(edge)


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


def test_contraction_reordered_same_dims():
    dga, _ = random_complex(3, 5, [3, 5, 4, 6, 3, 2])
    con = contraction(dga)
    dga_r = reorder_blocks(dga, lambda bd, labs: list(reversed(labs)))
    con_r = contraction(dga_r)
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


def reference_contraction(dga):
    """Splittings and homotopies the long way, per block: the rref of the
    incoming d for B, greedy complements of B in Z and of Z in the unit
    vectors, and G from solving for boundary coordinates.  The reference
    for `contraction`; returns (splits, trusted)."""
    space = dga.space
    p = dga.prime
    lo_w, hi_w = space.window
    lo, hi = lo_w + 1, hi_w - 1
    splits = {}
    for bd in sorted(space.blocks):
        if not lo <= bd.s <= hi + 1:
            continue
        labels = space.labels(bd)
        n = len(labels)
        d_out = dga.diff_block(bd).dense()
        _, z_rows, _ = rank_nullspace(d_out, p)
        above = Bidegree(bd.s + 1, bd.w)
        if bd.s <= hi and space.in_window(above.s) and space.dim(above):
            d_in = dga.diff_block(above).dense()
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
        dc = (dga.diff_block(above).dense() @ sp_up.c_rows.T) % p
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
        if space.dim(below) and (bd.s - 1 < lo or sp_dn is None):
            continue
        gd = (sp_dn.g @ dga.diff_block(bd).dense()) % p \
            if sp_dn is not None else 0
        d_up = dga.diff_block(Bidegree(bd.s + 1, bd.w)).dense() \
            if sp.g.shape[0] else np.zeros((n, 0), dtype=np.int64)
        ident = (((d_up @ sp.g) % p) + gd + sp.f1 @ sp.pi) % p
        assert np.all(ident == np.eye(n, dtype=np.int64))
        trusted.add(bd)
    return splits, trusted


def read_every_block(con):
    """Put every block of the contracted range through the split and
    certification that its first read runs, and split the floor blocks
    whose block below is nonzero, which no read reaches; returns con."""
    lo, hi = con.homology.window
    for bd in sorted(con.dga.space.blocks):
        if bd.s == lo and con.dga.space.dim(Bidegree(lo - 1, bd.w)):
            con._split(bd)
        elif lo <= bd.s <= hi:
            con._certified_split(bd)
    return con


def assert_matches_reference(dga):
    con = read_every_block(contraction(dga))
    splits, trusted = reference_contraction(dga)
    # the reference keeps a placeholder at ceiling + 1 for its G computation;
    # the contraction splits only the contracted range
    hi = con.homology.window[1]
    splits = {bd: ref for bd, ref in splits.items() if bd.s <= hi}
    assert sorted(con.splits) == list(splits)
    for bd, ref in splits.items():
        sp = con.splits[bd]
        assert con.dga.space.labels(bd) == ref.labels, bd
        assert con.homology.blocks.get(bd, []) == ref.h_labels, bd
        for name in ("f1", "pi", "g"):
            got, want = getattr(sp, name), getattr(ref, name)
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


def _loop_cobar_input(pnq):
    """The cochain model and word bound that the loop pipeline cobars."""
    gp = GroupParams(*pnq)
    s_hi = gp.loop_window_hi()
    return expected_minimal_model(
        gp, window=cochain_window_for_loops(gp, s_hi)), s_hi


def _loop_cobar(pnq):
    return cobar(*_loop_cobar_input(pnq))


@pytest.mark.parametrize("order_seed", [0, 1])
@pytest.mark.parametrize("build", [lambda: model_end_dga(GroupParams(3, 1, 2)),
                                   lambda: _loop_cobar((3, 1, 2))],
                         ids=["end(3,1,2)", "cobar(3,1,2)"])
def test_contraction_matches_the_reference_on_the_pipeline_algebras(
        build, order_seed):
    dga = build()
    if order_seed:
        dga = shuffled_blocks(dga, order_seed)
    assert_matches_reference(dga)


@pytest.mark.parametrize("build", [
    lambda: random_complex(3, 5, [3, 5, 4, 6, 3, 2])[0],
    lambda: cobar(build_toy_model(), 12),
    lambda: model_end_dga(GroupParams(3, 1, 2)),
    lambda: _loop_cobar((3, 1, 2))],
    ids=["random complex", "toy cobar", "end(3,1,2)", "cobar(3,1,2)"])
def test_diff_block_is_d_on_its_block(build):
    """On every block below which d is defined, the dense matrix of
    `diff_block` has d of label j as its column j, `rows` are its rows,
    and `kills` says what the dense product says: of d on the block above,
    and of that d with one entry changed where the product must show it,
    on all of its columns and on a random subset."""
    dga = build()
    space, p = dga.space, dga.prime
    rng = np.random.default_rng(0)
    refuted = 0
    for bd in sorted(space.blocks):
        if bd.s == space.window[0]:
            continue
        out, above = Bidegree(bd.s - 1, bd.w), Bidegree(bd.s + 1, bd.w)
        block = dga.diff_block(bd)
        M = block.dense()
        assert M.dtype == np.int64
        assert M.shape == (space.dim(out), space.dim(bd))
        for j, lab in enumerate(space.labels(bd)):
            assert np.array_equal(M[:, j], space.to_array(out, dga.diff(lab)))
        assert block.rows() == rows_of(M)
        if not space.in_window(above.s) or not space.dim(above):
            continue
        up = dga.diff_block(above)
        others = [up]
        # an entry in a row i of d above, with column i of M nonzero
        seen = [k for k, i in enumerate(up.row) if M[:, i].any()]
        if seen:
            k = seen[int(rng.integers(len(seen)))]
            others.append(up._replace(values=[
                v % (p - 1) + 1 if i == k else v
                for i, v in enumerate(up.values)]))
        for other in others:
            N = other.dense()
            width = N.shape[1]
            subset = sorted(rng.choice(width, int(rng.integers(width + 1)),
                                       replace=False).tolist())
            for cols in (list(range(width)), subset):
                want = not np.any((M @ N[:, cols]) % p)
                assert block.kills(other, cols, p) == want
                refuted += not want
    assert refuted


@pytest.mark.parametrize("pnq, shared", [((5, 1, 2), 19), ((3, 2, 2), 55)])
def test_a_split_depends_only_on_d_and_d_above(pnq, shared):
    """Blocks whose d and d on the block above are byte-equal get equal
    f1, pi and G, so one split can serve every block of such a group."""
    gp = GroupParams(*pnq)
    dga = build_end_dga(gp, window=gp.cochain_run()[0])
    con = read_every_block(contraction(dga))
    groups = {}
    for bd in con.splits:
        key = tuple((m.shape, m.tobytes()) for m in (
            dga.diff_block(bd).dense(),
            dga.diff_block(Bidegree(bd.s + 1, bd.w)).dense()))
        groups.setdefault(key, []).append(bd)
    groups = [bds for bds in groups.values() if len(bds) > 1]
    assert len(groups) == shared
    for first, *rest in groups:
        for bd in rest:
            for name in ("f1", "pi", "g"):
                assert np.array_equal(getattr(con.splits[bd], name),
                                      getattr(con.splits[first], name)), \
                    (first, bd, name)


@pytest.mark.parametrize("order_seed", [1, 2])
@pytest.mark.parametrize("build", [lambda: model_end_dga(GroupParams(5, 1, 2)),
                                   lambda: _loop_cobar((3, 1, 2))],
                         ids=["end(5,1,2)", "cobar(3,1,2)"])
def test_the_splits_are_those_of_the_numpy_elimination(build, order_seed,
                                                       monkeypatch):
    """With the elimination kernel replaced by its numpy reference, a
    contraction in a shuffled basis has array-equal f1, pi and G, the same
    homology blocks and the same trusted set."""
    import ainfbg.glin

    dga = shuffled_blocks(build(), order_seed)
    con = read_every_block(contraction(dga))
    monkeypatch.setattr(ainfbg.glin, "_eliminate", reference_eliminate)
    ref = read_every_block(contraction(dga))
    assert con.splits and sorted(con.splits) == sorted(ref.splits)
    for bd, sp in con.splits.items():
        for name in ("f1", "pi", "g"):
            got, want = getattr(sp, name), getattr(ref.splits[bd], name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), (bd, name)
    assert con.homology == ref.homology
    assert con.trusted == ref.trusted


def reachable_arrays(root, skip):
    """The numpy arrays reachable from `root` through its fields and
    containers, not entering the objects in `skip`, nor types, modules or
    functions."""
    seen = {id(obj) for obj in skip}
    arrays, todo = [], [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        else:
            todo.extend(gc.get_referents(obj))
    return arrays


@pytest.mark.parametrize("build", [
    lambda: build_end_dga(GroupParams(5, 1, 2),
                          window=GroupParams(5, 1, 2).cochain_run()[0]),
    lambda: _loop_cobar((3, 2, 2))], ids=["end(5,1,2)", "cobar(3,2,2)"])
def test_a_contraction_keeps_no_dense_array_but_its_splits(build):
    """Pass 0 keeps d sparse and each block's pivot columns, nothing else
    per block: right after `contraction` no array is reachable from it
    outside its DGA, and after every block is read the only arrays are
    the f1, pi and G of its splits."""
    dga = build()
    con = contraction(dga)
    assert {f.name for f in fields(con)} == {
        "dga", "homology", "splits", "trusted", "_d", "_pivots"}
    assert con._d and set(con._d) == set(con._pivots)
    assert not con.splits and not con.trusted
    assert reachable_arrays(con, [dga]) == []
    read_every_block(con)
    held = {id(a) for a in reachable_arrays(con, [dga])}
    assert held == {id(getattr(sp, name)) for sp in con.splits.values()
                    for name in ("f1", "pi", "g")}


def test_no_constructor_takes_derived_state():
    """A contraction runs pass 0 on its own DGA and serves only the
    blocks it split and certified itself, a space builds its own label
    index, a computation reads its retraction and model off its transfer,
    and a normalized model its formality off its raw coefficient: none of
    them is a constructor argument."""
    con = contraction(_loop_cobar((3, 1, 2)))
    assert [f.name for f in fields(Contraction) if f.init] == ["dga"]
    for name in ("homology", "splits", "trusted", "_d", "_pivots"):
        with pytest.raises(TypeError, match=name):
            Contraction(con.dga, **{name: getattr(con, name)})
    space = con.homology
    with pytest.raises(TypeError, match="_index"):
        GradedVectorSpace(space.prime, space.window, space.blocks, _index={})
    args = dict.fromkeys(["params", "hp", "transfer"])
    assert [f.name for f in fields(Computation) if f.init] == list(args)
    for name in ("con", "model", "truncated", "_normalized"):
        with pytest.raises(TypeError, match=name):
            Computation(**args, **{name: None})
    with pytest.raises(TypeError, match="formal"):
        NormalizedModel(model=None, raw_coefficient=0, x_scale=1, t_scale=1,
                        formal=True)
    # rebuilt from its DGA, it starts from nothing and certifies every
    # block it serves itself; on another DGA it eliminates that one's d
    rebuilt = Contraction(con.dga)
    assert not rebuilt.splits and not rebuilt.trusted
    assert read_every_block(rebuilt).trusted == read_every_block(con).trusted
    other = reorder_blocks(con.dga, lambda bd, labs: labs[::-1])
    moved = replace(con, dga=other)
    assert moved._d == contraction(other)._d != con._d
    assert not moved.splits and moved.homology == con.homology


@pytest.mark.parametrize("build", [
    lambda: build_end_dga(GroupParams(5, 1, 2),
                          window=GroupParams(5, 1, 2).cochain_run()[0]),
    lambda: _loop_cobar((3, 1, 2))], ids=["end(5,1,2)", "cobar(3,1,2)"])
def test_a_split_eliminates_only_where_it_has_homology(build, monkeypatch):
    """Pass 0 runs one forward elimination per block; a split reruns its
    block's only to back-substitute homology representatives, so reading
    every block adds one per split block of nonzero homology."""
    import ainfbg.dga
    calls = []

    def counted(rows, p, ncols):
        calls.append(ncols)
        return echelon(rows, p, ncols)

    monkeypatch.setattr(ainfbg.dga, "echelon", counted)
    con = contraction(build())
    assert len(calls) == len(con._d)
    read_every_block(con)
    with_h = [bd for bd in con.splits if con.homology.dim(bd)]
    assert with_h and len(with_h) < len(con.splits)
    assert len(calls) == len(con._d) + len(with_h)


def test_int64_headroom_is_checked_before_any_elimination(monkeypatch):
    """At p = 2^31 - 1 a block of three already overflows int64 products;
    the guard must fire before any elimination runs."""
    import ainfbg.glin

    def no_elimination(rows, p, ncols, *, back=True):
        raise AssertionError(f"_eliminate reached at p = {p}")

    monkeypatch.setattr(ainfbg.glin, "_eliminate", no_elimination)
    p = 2**31 - 1
    space = GradedVectorSpace(prime=p, window=(-1, 1), blocks={
        Bidegree(0, 0): ["a", "b", "c"]})
    dga = DGAlgebra(space=space, unit={}, products=lambda a, b: {},
                    diff=lambda lab: {}, name="wide prime")
    with pytest.raises(ParameterError, match=r"p = 2147483647 with a block of "
                       r"dimension 3 .* < 2\^63 = 9223372036854775808"):
        contraction(dga)


# ---------------------------------------------------------------------------
# blocks are split and certified on their first read
# ---------------------------------------------------------------------------

def _run_cochain_stage(pnq):
    comp = group_minimal_model(GroupParams(*pnq))
    assert massey_versus_transfer(comp).holds


def _run_loop_stage(pnq):
    comp = loop_minimal_model(GroupParams(*pnq))
    assert massey_versus_loop_transfer(comp).holds
    assert poincare_roundtrip(comp).blocks_checked


@pytest.mark.parametrize("stage, pnq", [
    (_run_loop_stage, (3, 1, 2)), (_run_loop_stage, (5, 1, 2)),
    (_run_cochain_stage, (5, 1, 2))], ids=["loops(3,1,2)", "loops(5,1,2)",
                                           "cochain(5,1,2)"])
def test_the_blocks_split_are_those_read_and_their_neighbours(
        monkeypatch, stage, pnq):
    """After a pipeline, its Massey check and (on the loop side) the round
    trip, each contraction has split exactly the blocks read and their
    neighbours s +- 1 in the contracted range; the round trip reads no
    block, so it splits none."""
    import ainfbg.koszul
    import ainfbg.transfer

    made = []
    reads = {}  # id of a contraction's shared splits -> bidegrees read

    def recorded_contraction(dga):
        con = contraction(dga)
        made.append(con)
        return con

    block_map = Contraction._block_map

    def recorded(self, name, source, target, vec, **kwargs):
        if vec:
            reads.setdefault(id(self.splits), set()).add(
                source.bidegree_of(next(iter(vec))))
        return block_map(self, name, source, target, vec, **kwargs)

    for module in (ainfbg.transfer, ainfbg.koszul):
        monkeypatch.setattr(module, "contraction", recorded_contraction)
    monkeypatch.setattr(Contraction, "_block_map", recorded)
    stage(pnq)
    assert len(made) == (2 if stage is _run_loop_stage else 1)
    for con in made:
        lo, hi = con.homology.window
        read = reads.get(id(con.splits), set())
        near = {Bidegree(bd.s + k, bd.w) for bd in read for k in (-1, 0, 1)}
        assert set(con.splits) == {bd for bd in near if lo <= bd.s <= hi
                                   and con.dga.space.dim(bd)}
    assert reads.get(id(made[0].splits))
    if stage is _run_loop_stage:
        assert not made[1].splits


def recorded_splits(monkeypatch):
    """The bidegrees that `Contraction._split` is called on, from now."""
    calls = []
    split = Contraction._split

    def recorded(self, bd):
        calls.append(bd)
        return split(self, bd)

    monkeypatch.setattr(Contraction, "_split", recorded)
    return calls


def test_the_round_trip_runs_no_split(monkeypatch):
    """The round trip gates homology dimensions only, and those come from
    the eliminations of d: its contraction splits no block, while a read
    of the unit class of the same cobar does."""
    comp = loop_minimal_model(GroupParams(3, 1, 2))
    calls = recorded_splits(monkeypatch)
    assert poincare_roundtrip(comp).blocks_checked
    assert calls == []
    con = contraction(comp.con.dga)
    assert con.include({con.homology.labels(Bidegree(0, 0))[0]: 1})
    assert Bidegree(0, 0) in calls


def _chain(p, blocks, diff):
    """Zero-product DGA on the given blocks and differential on labels."""
    space = GradedVectorSpace(prime=p, window=(-1, 5), blocks=blocks)
    return DGAlgebra(space=space, unit={}, products=lambda a, b: {},
                     diff=lambda lab: diff.get(lab, {}), name="chain")


def test_d_squared_is_certified_on_blocks_never_read(monkeypatch):
    """d^2 != 0 at internal degree 1 fails `contraction` itself, before
    any block is read or split; without the fault, a read splits."""
    calls = recorded_splits(monkeypatch)
    blocks = {Bidegree(s, w): [f"a{s}_{w}"] for s in range(4) for w in (0, 1)}
    diff = {"a2_0": {"a1_0": 1}, "a3_1": {"a2_1": 1}, "a2_1": {"a1_1": 2}}
    with pytest.raises(CertificationError,
                       match=r"boundaries at Bidegree\(s=2, w=1\)"):
        contraction(_chain(5, blocks, diff))
    assert calls == []
    del diff["a2_1"]
    assert contraction(_chain(5, blocks, diff)).homotopy({"a1_0": 1})
    assert Bidegree(1, 0) in calls


def test_a_corrupted_split_never_leaves_its_block(monkeypatch):
    """With every boundary transform doubled, only block s = 2 has a
    boundary to split: its first read, and every later one, raises
    CertificationError, while the blocks below it still answer."""
    import ainfbg.dga

    eliminate = ainfbg.dga._eliminate

    def doubled(rows, p, ncols, *, back):
        # the split reduces [B | I]: the transform is past column ncols
        pivots = eliminate(rows, p, ncols, back=back)
        for row in rows:
            row.update({j: v * 2 % p for j, v in row.items() if j >= ncols})
        return pivots

    monkeypatch.setattr(ainfbg.dga, "_eliminate", doubled)
    blocks = {Bidegree(s, 0): [f"a{s}", f"b{s}"] for s in range(5)}
    con = contraction(_chain(5, blocks, {"a3": {"a2": 1}}))
    for _ in range(2):
        with pytest.raises(CertificationError, match="homotopy identity"):
            con.homotopy({"a2": 1})
    assert Bidegree(2, 0) not in con.trusted
    assert con.homotopy({"b1": 1}) == {}
    assert con.project({"a0": 1}) and con.project({"b1": 1})
    assert con.trusted == {Bidegree(0, 0), Bidegree(1, 0)}


def _split_chain():
    """Blocks (a_s, b_s, c_s), s = 0..5, with d(a_s) = b_(s-1): block 1
    has a class c_1, G of block 1 sends b_1 to a_2, and G of block 2
    reaches a_3."""
    blocks = {Bidegree(s, 0): [f"a{s}", f"b{s}", f"c{s}"] for s in range(6)}
    diff = {f"a{s}": {f"b{s - 1}": 1} for s in range(1, 6)}
    return contraction(_chain(5, blocks, diff))


def _break_identity(named, here, above):
    """Break the retraction identity `named` at a block of `_split_chain`
    by editing its own split or the split above, which the identity reads;
    every identity certified before it still holds.  Index 0 is a, the
    one pivot of each block, so it is the row of G and the column of the
    block above that the identities read."""
    if named == "pi f1 != id":
        here.f1[:] = 2 * here.f1
    elif named == "G f1 != 0":
        here.g[0] += here.pi[0]
    elif named == "pi G != 0":
        above.pi[:, 0] += 1
    else:
        above.g[0, 0] += 1


@pytest.mark.parametrize("named", ["pi f1 != id", "G f1 != 0", "pi G != 0",
                                   "G G != 0"])
def test_each_retraction_identity_failure_is_named(named):
    """A split made without certification, then broken in one identity,
    fails its first read and every later one by that identity's name."""
    con = _split_chain()
    bd = Bidegree(1, 0)
    _break_identity(named, con._split(bd), con._split(Bidegree(2, 0)))
    for _ in range(2):
        with pytest.raises(CertificationError,
                           match=re.escape(f"{named} at {bd}")):
            con.project({"c1": 1})
    assert bd not in con.trusted


# ---------------------------------------------------------------------------
# the End-DGA contracts onto the expected cohomology (pattern gate)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pnq", [(3, 1, 1), (3, 1, 2), (5, 1, 2)])
def test_end_contraction_matches_monomial_pattern(pnq):
    gp = GroupParams(*pnq)
    dga = model_end_dga(gp)
    con = read_every_block(contraction(dga))
    expected = expected_minimal_model(gp)
    got = {bd: len(labs) for bd, labs in con.homology.blocks.items()}
    want = {bd: len(labs) for bd, labs in expected.space.blocks.items()}
    assert got == want
    # every trusted-range block was certified by the homotopy identity
    lo, hi = con.homology.window
    assert con.splits
    for bd in con.splits:
        if lo + 1 <= bd.s <= hi - 1 and bd.s > lo:
            assert bd in con.trusted or bd.s in (lo, hi)


def test_unit_class_is_the_algebra_unit():
    gp = GroupParams(3, 1, 2)
    dga = model_end_dga(gp)
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
    dga = model_end_dga(gp)
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
    dga = model_end_dga(gp)
    dga_r = reorder_blocks(dga, lambda bd, labs: list(reversed(labs)))
    con_r = contraction(dga_r)
    t = _h_label_at(con_r, (-1, 1))
    x = _h_label_at(con_r, (-2, 3))
    rep = massey_power(con_r, t, 3)
    assert rep.defined
    assert set(rep.value) == {x} and rep.value[x] != 0


@dataclass
class ReferenceMassey:
    nfold: int
    cls: str
    value: dict
    bidegree: Bidegree | None
    defined: bool
    obstruction_stage: int | None = None
    obstruction: dict | None = None


def reference_massey_power(con, cls, nfold):
    """One staircase per call, each term's bar sign read off its
    bidegree: the reference for `massey_power`, which reads every stage
    below nfold off one defining system."""
    if nfold < 2:
        raise ValueError("Massey powers need nfold >= 2")
    dga = con.dga
    p = dga.prime

    def bar(vec):
        if not vec:
            return {}
        s = bidegree_of(dga, vec).s
        return _scale(vec, (-1) ** ((1 + s) % 2), p)

    alphas = {1: con.include({cls: 1})}
    for m in range(2, nfold + 1):
        z = {}
        for k in range(1, m):
            z = _add(z, dga.mult(bar(alphas[k]), alphas[m - k]), p)
        if z and dga.d(z):
            raise CertificationError(
                f"staircase sum at stage {m} is not a cycle")
        if m == nfold:
            orientation = -(-1) ** (nfold * (nfold - 1) // 2 % 2)
            value = _scale(con.project(z), orientation, p)
            bd = bidegree_of(dga, z) if z else None
            return ReferenceMassey(nfold=nfold, cls=cls, value=value,
                                   bidegree=bd, defined=True)
        obstruction = con.project(z)
        if obstruction:
            return ReferenceMassey(nfold=nfold, cls=cls, value={},
                                   bidegree=None, defined=False,
                                   obstruction_stage=m,
                                   obstruction=obstruction)
        alphas[m] = con.homotopy(z)
    raise AssertionError("unreachable")


@functools.lru_cache(maxsize=None)
def _transferred(pnq):
    return group_minimal_model(GroupParams(*pnq))


def _massey_outcome(power, con, cls, nfold):
    try:
        return power(con, cls, nfold)
    except TruncationExceeded:
        return "truncated"


@pytest.mark.parametrize("cls", ["t", "x", "x*t"])
@pytest.mark.parametrize("pnq", [(3, 1, 1), (3, 1, 2), (5, 1, 2), (7, 1, 3)])
def test_massey_power_matches_the_reference(pnq, cls):
    """Every stage the one defining system reaches is the power the
    reference computes on its own staircase, an obstructed power stops at
    the reference's obstruction stage, and both run out of the window on
    the same inputs."""
    comp = _transferred(pnq)
    con = comp.con
    for nfold in range(2, comp.hp.ell + 3):
        rep = _massey_outcome(massey_power, con, cls, nfold)
        ref = _massey_outcome(reference_massey_power, con, cls, nfold)
        if ref == "truncated" or rep == "truncated":
            assert rep == ref, (nfold, rep, ref)
            continue
        assert (rep.defined, rep.value) == (ref.defined, ref.value), nfold
        if not rep.defined:
            assert max(rep.powers) == ref.obstruction_stage, nfold
        assert list(rep.powers) == list(range(2, max(rep.powers) + 1))
        for i, power in rep.powers.items():
            assert power == reference_massey_power(con, cls, i).value, (
                nfold, i)


def test_a_staircase_sum_that_is_no_cycle_fails_certification():
    """One composable pair of the representative of t, its product moved
    by a label with nonzero d, makes the stage-2 sum a non-cycle."""
    _, con, t, _ = massey_setup((3, 1, 2))
    dga = con.dga
    alpha = con.include({t: 1})
    a, b = next((a, b) for a in alpha for b in alpha
                if dga.source(a) == dga.target(b))
    ab = dga.products(a, b)
    bd = bidegree_of(dga, ab)
    lab = next(lab for lab in dga.space.labels(bd) if dga.d({lab: 1}))
    broken = with_product(dga, (a, b),
                          lambda *_: _add(ab, {lab: 1}, dga.prime))
    with pytest.raises(CertificationError,
                       match="staircase sum at stage 2 is not a cycle"):
        massey_power(replace(con, dga=broken), t, 3)


# ---------------------------------------------------------------------------
# cobar
# ---------------------------------------------------------------------------

def test_cobar_letters_and_unit():
    model = build_toy_model()
    cb = cobar(model, 12)
    sp = cb.space
    assert sp.bidegree_of(("t",)) == Bidegree(2, 4)    # was (-3, 4)
    assert sp.bidegree_of(("x",)) == Bidegree(3, 6)    # was (-4, 6)
    assert sp.bidegree_of(("t", "t")) == Bidegree(4, 8)
    assert not sp.has_label(("1",))                     # the unit is not a letter
    assert cb.mult({("t", "x"): 1}, {("t",): 1}) == {("t", "x", "t"): 1}
    assert cb.mult(cb.unit, {("t", "x"): 1}) == {("t", "x"): 1}


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
    dx2 = cb.d({("x^2",): 1})
    assert ("t", "t", "t") in dx2, "the arity-3 family must appear in d of x^2"
    # m_2 pieces: x^2 = x * x
    assert ("x", "x") in dx2


def test_cobar_leibniz_sampled():
    model = build_toy_model()
    cb = cobar(model, 10)
    rep = validate_dga(cb, pair_sample=300, triple_sample=300, seed=5)
    assert rep.leibniz_checked > 0 and rep.assoc_checked > 0


def reference_cobar_blocks(model, s_bound):
    """The word basis enumerated on Bidegree sums, every letter tried at
    every step: the oracle for the integer enumeration inside `cobar`."""
    letters, direction = cobar_letters(model, s_bound)
    blocks = {Bidegree(0, 0): ["()"]}
    ordered = sorted(letters, key=lambda l: (letters[l], l))

    def grow(prefix, bd):
        for lab in ordered:
            nbd = bd + letters[lab]
            if direction * nbd.s > direction * s_bound:
                continue
            word = prefix + [lab]
            blocks.setdefault(nbd, []).append("|".join(word))
            grow(word, nbd)

    grow([], Bidegree(0, 0))
    return {bd: sorted(labs) for bd, labs in blocks.items()}


def spelled_blocks(blocks):
    """Word blocks spelled as `reference_cobar_blocks` spells them."""
    return {bd: ["|".join(word) or "()" for word in words]
            for bd, words in blocks.items()}


def _poincare_cobar_input(pnq):
    """The loop model and word bound that `poincare_roundtrip` cobars."""
    gp = GroupParams(*pnq)
    _, (_, pub_hi), arity = gp.loop_run()
    model = expected_loop_model(gp, window=(0, pub_hi), arity_bound=arity)
    return model, -(pub_hi + 1)


@pytest.mark.parametrize("build, pnq", [
    (_loop_cobar_input, (3, 1, 2)), (_loop_cobar_input, (5, 1, 2)),
    (_loop_cobar_input, (5, 1, 4)), (_poincare_cobar_input, (3, 1, 2))],
    ids=["loops(3,1,2)", "loops(5,1,2)", "loops(5,1,4)", "poincare(3,1,2)"])
def test_cobar_word_basis_matches_the_bidegree_enumeration(build, pnq):
    model, s_bound = build(pnq)
    want = reference_cobar_blocks(model, s_bound)
    got = cobar(model, s_bound).space.blocks
    assert spelled_blocks(got) == want
    assert sum(map(len, got.values())) > 50
    assert (min if s_bound < 0 else max)(bd.s for bd in got) == s_bound


def relabeled(model, names):
    """The same model with its labels renamed by the dict `names`."""
    def name(lab):
        return names.get(lab, lab)
    space = GradedVectorSpace(prime=model.space.prime,
                              window=model.space.window, blocks={
                                  bd: [name(lab) for lab in labs]
                                  for bd, labs in model.space.blocks.items()})
    ops = {n: {tuple(map(name, word)): {name(lab): c for lab, c in vec.items()}
               for word, vec in table.items()}
           for n, table in model.ops.items()}
    return replace(model, space=space, ops=ops, unit=name(model.unit))


def test_cobar_takes_letters_that_spell_like_words():
    """A word is the tuple of its letters, so a letter may contain "|" or
    be "()": the word basis is the bidegree enumeration's, and renaming
    the letters renames every word and its differential."""
    names = {"t": "t|t", "x": "()"}
    model = relabeled(build_toy_model(), names)
    cb, plain = cobar(model, 12), cobar(build_toy_model(), 12)
    assert spelled_blocks(cb.space.blocks) == reference_cobar_blocks(model, 12)
    assert cb.space.bidegree_of(("()",)) == Bidegree(3, 6)
    assert cb.space.bidegree_of(("t|t", "()")) == Bidegree(5, 10)

    def rename(word):
        return tuple(names.get(x, x) for x in word)

    for bd, words in plain.space.blocks.items():
        assert sorted(cb.space.blocks[bd]) == sorted(map(rename, words))
        for word in words:
            assert cb.d({rename(word): 1}) == {
                rename(w): c for w, c in plain.d({word: 1}).items()}


def test_cobar_rejects_degree_zero_letters():
    gp = GroupParams(3, 1, 1)  # t sits in s = -1, letter degree 0
    model = expected_minimal_model(gp)
    with pytest.raises(ValueError):
        cobar(model, 8)


def test_cobar_of_the_unit_alone_says_it_has_no_letters():
    # the window (-2, 0) holds neither x (s = -4) nor t (s = -3)
    model = expected_minimal_model(GroupParams(3, 1, 2), window=(-2, 0))
    assert model.space.total_dim() == 1
    with pytest.raises(ValueError, match="no letters"):
        cobar(model, 1)


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
    triple is skipped when a product it needs leaves the window.

    `dga.products` is asked once for every pair of labels, composable or
    not (None when the product leaves the window), and each triple's
    (ab)c and a(bc) are summed from those answers."""
    labels = _labels(dga)
    table = {}
    for a, b in itertools.product(labels, repeat=2):
        try:
            table[a, b] = dga.products(a, b)
        except TruncationExceeded:
            table[a, b] = None
    p = dga.prime

    def combine(terms):
        """The sum of e * xy over (e, xy) in terms, or None when some xy
        left the window."""
        out = {}
        for e, xy in terms:
            if xy is None:
                return None
            for lab, f in xy.items():
                out[lab] = (out.get(lab, 0) + e * f) % p
        return {lab: f for lab, f in out.items() if f}

    if triples is None:
        triples = itertools.product(labels, repeat=3)
    checked = 0
    for a, b, c in triples:
        ab, bc = table[a, b], table[b, c]
        if ab is None or bc is None:
            continue
        if ab or bc:
            left = combine([(e, table[x, c]) for x, e in ab.items()])
            right = combine([(e, table[a, y]) for y, e in bc.items()])
            if left is None or right is None:
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
    reject the algebra at the same triple (the reference's first failure
    in product order).  Mutations touch no unit label, so the unit check
    (and, with no Leibniz pairs drawn, every other check) passes either
    way."""
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
    except CertificationError as exc:
        want = str(exc)
    event(f"{kind} mutation, "
          f"{'rejected' if isinstance(want, str) else 'accepted'}")
    try:
        got = validate_dga(dga, pair_sample=0).assoc_checked
    except CertificationError as exc:
        got = str(exc)
    assert got == want


def test_associativity_names_the_first_failure_in_product_order():
    """Scaling one product breaks associativity on several triples; the
    exhaustive pass names the first of them in product order, not the
    first of its own walk."""
    dga, _, _ = small_algebra("end", -3)
    ab = dga.products((2, 1, 1), (3, 1, 0))
    dga = with_product(dga, ((2, 1, 1), (3, 1, 0)), lambda *_: {
        lab: 2 * c % dga.prime for lab, c in ab.items()})
    named = "associativity fails on ((2, 1, 1),(3, 1, 0),(4, 1, 1))"
    with pytest.raises(CertificationError) as want:
        reference_triple_check(dga)
    assert str(want.value) == named
    with pytest.raises(CertificationError) as got:
        validate_dga(dga, pair_sample=0)
    assert str(got.value) == named


def test_product_outside_the_basis_fails_certification():
    dga, _, nonzero = small_algebra("end", -2)
    dga = with_product(dga, nonzero[0], lambda *_: {"nowhere": 1})
    with pytest.raises(CertificationError, match="outside the basis"):
        validate_dga(dga, pair_sample=0)


def _truncated_polynomial():
    """k[u]/(u^3) over F_3 on one bidegree: labels 1, u, v = u^2, d = 0."""
    space = GradedVectorSpace(prime=3, window=(-1, 1),
                              blocks={Bidegree(0, 0): ["1", "u", "v"]})
    table = {("u", "u"): {"v": 1}}

    def products(a, b):
        if a == "1" or b == "1":
            return {b if a == "1" else a: 1}
        return table.get((a, b), {})
    return DGAlgebra(space=space, unit={"1": 1}, products=products,
                     diff=lambda lab: {}, name="u^3 = 0")


def test_a_sampled_associativity_failure_is_named():
    """With v * u = u, four of the 27 triples fail; a sample of 26 draws
    (one short of exhaustive) names the first one it meets."""
    dga = _truncated_polynomial()
    assert validate_dga(dga).assoc_checked == 27
    broken = with_product(dga, ("v", "u"), lambda *_: {"u": 1})
    with pytest.raises(CertificationError, match="associativity fails on"):
        validate_dga(broken, pair_sample=0, triple_sample=26)


@pytest.mark.parametrize("side, pair", [("left", ("1", "u")),
                                        ("right", ("u", "1"))])
def test_a_unit_failure_is_named(side, pair):
    """1 * u = 2u (or u * 1 = 2u) fails the unit pass on u; with no pair
    or triple drawn, no earlier pass sees the mutation."""
    broken = with_product(_truncated_polynomial(), pair,
                          lambda *_: {"u": 2})
    with pytest.raises(CertificationError, match=f"{side} unit on 'u'"):
        validate_dga(broken, pair_sample=0, triple_sample=0)


# ---------------------------------------------------------------------------
# composability: mult against the all-pairs product
# ---------------------------------------------------------------------------

def reference_mult(dga, u, v):
    """DGAlgebra.mult with `products` called on every label pair: the
    oracle for the composable-pairs product."""
    p = dga.prime
    out = {}
    for la, ca in u.items():
        for lb, cb in v.items():
            for olab, oc in dga.products(la, lb).items():
                out[olab] = (out.get(olab, 0) + ca * cb * oc) % p
    return {k: v for k, v in out.items() if v}


def _shuffled_blocks(seed):
    """A seeded shuffle inside each bidegree block (the benchmark's basis
    order for a nonzero seed)."""
    def key(bd, labels):
        rng = random.Random(f"{seed}/{bd.s}/{bd.w}")
        out = list(labels)
        rng.shuffle(out)
        return out
    return key


@functools.cache
def mult_algebra(kind, order_seed=0):
    if kind == "toy cobar":
        return cobar(build_toy_model(), 8)
    if kind == "(3,1,2) loop cobar":
        return _loop_cobar((3, 1, 2))
    gp = GroupParams(*kind)
    dga = build_end_dga(gp, window=gp.cochain_run()[0])
    return reorder_blocks(dga, _shuffled_blocks(order_seed)) if order_seed \
        else dga


MULT_ALGEBRAS = [(pnq, seed) for pnq in [(3, 1, 2), (5, 1, 2), (5, 1, 4)]
                 for seed in (0, 1)] + [("(3,1,2) loop cobar", 0),
                                         ("toy cobar", 0)]


def _homogeneous_vector(data, dga):
    space = dga.space
    bd = data.draw(st.sampled_from(sorted(space.blocks)))
    labels = space.labels(bd)
    support = data.draw(st.sampled_from(["single", "dense", "subset"]))
    if support == "single":
        labels = [data.draw(st.sampled_from(labels))]
    elif support == "subset":
        labels = data.draw(st.lists(st.sampled_from(labels), min_size=1,
                                    unique=True))
    return {lab: data.draw(st.integers(1, dga.prime - 1)) for lab in labels}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mult_matches_the_all_pairs_product(data):
    dga = mult_algebra(*data.draw(st.sampled_from(MULT_ALGEBRAS)))
    u = _homogeneous_vector(data, dga)
    v = _homogeneous_vector(data, dga)
    try:
        want = reference_mult(dga, u, v)
    except TruncationExceeded:
        event("leaves the window")
        with pytest.raises(TruncationExceeded):
            dga.mult(u, v)
        return
    event("nonzero" if want else "zero")
    assert dga.mult(u, v) == want


def test_mult_calls_products_only_on_composable_pairs():
    dga = mult_algebra((3, 1, 2))
    calls = []

    def products(a, b):
        calls.append((a, b))
        return dga.products(a, b)

    recorded = replace(dga, products=products)
    labels = [lab for lab in _labels(dga) if dga.space.bidegree_of(lab).s > -4]
    vec = dict.fromkeys(labels, 1)
    assert recorded.mult(vec, vec) == reference_mult(dga, vec, vec) != {}
    composable = [(a, b) for a in labels for b in labels
                  if dga.source(a) == dga.target(b)]
    assert calls == composable
    assert len(composable) < len(labels) ** 2 // 4


def test_reorder_keeps_the_composability_keys():
    dga = mult_algebra((3, 1, 2))
    reordered = reorder_blocks(dga, _shuffled_blocks(1))
    assert reordered.space.blocks != dga.space.blocks
    assert reordered.source is dga.source and reordered.target is dga.target


@pytest.mark.parametrize("key", ["source", "target"])
def test_one_wrong_key_fails_exhaustive_validation(key):
    dga, free, _ = small_algebra("end", -2)
    wrong = free[len(free) // 2]
    right = getattr(dga, key)
    mutated = replace(dga, **{key: lambda lab: right(lab) + (lab == wrong)})
    validate_dga(dga)
    with pytest.raises(CertificationError, match="non-composable pair"):
        validate_dga(mutated)


def _leaves(*_):
    raise TruncationExceeded("made to leave the window")


@pytest.mark.parametrize("product", [lambda *_: {(0, 0, 0): 1}, _leaves],
                         ids=["nonzero", "raises"])
def test_non_composable_product_fails_certification(product):
    dga, free, _ = small_algebra("end", -2)
    pair = next((a, b) for a in free for b in free
                if dga.source(a) != dga.target(b))
    mutated = replace(dga, products=lambda a, b: product() if (a, b) == pair
                      else dga.products(a, b))
    named = re.escape(f"non-composable pair {pair!r}")
    with pytest.raises(CertificationError, match=named):
        validate_dga(mutated)
    # with sampled triples the Leibniz loop's pairs catch it (all drawn)
    with pytest.raises(CertificationError, match=named):
        validate_dga(mutated, pair_sample=len(_labels(dga)) ** 2,
                     triple_sample=1)


# ---------------------------------------------------------------------------
# the Leibniz pass read from the product table, and the batched draws
# ---------------------------------------------------------------------------

def reference_d_squared(dga, labels=None):
    """d^2 = 0 tried one label at a time with `dga.d`, over every label at
    least two degrees above the window floor or over `labels`.  Returns the
    number of labels checked."""
    floor = dga.space.window[0]
    if labels is None:
        labels = [lab for lab in _labels(dga)
                  if dga.space.bidegree_of(lab).s >= floor + 2]
    for lab in labels:
        if dd := dga.d(dga.d({lab: 1})):
            raise CertificationError(f"d^2 != 0 on {lab!r}: {dd}")
    return len(labels)


def reference_leibniz(dga, pairs=None):
    """The Leibniz rule tried one pair at a time with `dga.d`, `dga.mult`
    and `dga.products`, over every (a, b) or over `pairs`: the reference
    for the Leibniz pass that reads the product table.  Returns the number
    of pairs checked; a pair is skipped when a product or a differential
    it needs leaves the window."""
    p = dga.prime
    if pairs is None:
        pairs = itertools.product(_labels(dga), repeat=2)
    checked = 0
    for a, b in pairs:
        try:
            lhs = dga.d(dga.products(a, b))
            da_b = dga.mult(dga.d({a: 1}), {b: 1})
            a_db = dga.mult({a: 1}, dga.d({b: 1}))
        except TruncationExceeded:
            continue
        sign = -1 if dga.space.bidegree_of(a).s % 2 else 1
        rhs = {lab: (da_b.get(lab, 0) + sign * a_db.get(lab, 0)) % p
               for lab in da_b.keys() | a_db.keys()}
        if lhs != {lab: c for lab, c in rhs.items() if c}:
            raise CertificationError(f"Leibniz fails on ({a!r}, {b!r})")
        checked += 1
    return checked


@functools.cache
def _labels_with_d(kind, bound):
    dga, _, _ = small_algebra(kind, bound)
    out = []
    for lab in _labels(dga):
        try:
            if dga.diff(lab):
                out.append(lab)
        except TruncationExceeded:
            pass
    return out


def _named(exc):
    """What a d^2 or Leibniz rejection names: its label or its pair."""
    return re.match(r"d\^2 != 0 on .*?(?=: \{)|Leibniz fails on \(.*\)",
                    str(exc))[0]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_leibniz_from_the_table_matches_the_pair_loop(data):
    """With every pair tried, the Leibniz pass reads its products from the
    table and gives the reference's count, or both reject the algebra at
    the same label or pair (the reference's first failure in product
    order), or both find d leaving the window in the d^2 pass.

    Mutations change d on one label (scale a term, redirect it to another
    label of the same bidegree, or make it leave the window), or one
    product of two non-unit labels (the same three ways).  The "beside"
    mutation makes d leave the window on a label x in d(a), where a is one
    degree above the floor (so the d^2 pass never reads d(x)), and adds a
    label to the product xb, which is zero or leaves the window: only the
    x in d(a) route reaches (a, b)."""
    algebra = data.draw(st.sampled_from(SMALL_ALGEBRAS))
    dga, free, nonzero = small_algebra(*algebra)
    space, p = dga.space, dga.prime
    kind = data.draw(st.sampled_from(
        ["none", "scale", "redirect", "leaves", "product scale",
         "product redirect", "product leaves", "beside"]))
    if kind == "leaves":
        lab = data.draw(st.sampled_from(_labels(dga)))
    elif kind in ("scale", "redirect"):
        lab = data.draw(st.sampled_from(_labels_with_d(*algebra)))
        dlab = dga.diff(lab)
        term = data.draw(st.sampled_from(sorted(dlab)))
    elif kind.startswith("product"):
        pair = data.draw(st.sampled_from(nonzero))
        ab = dga.products(*pair)
    if kind == "scale":
        factor = data.draw(st.integers(2, p - 1))
        new = {**dlab, term: dlab[term] * factor % p}
    elif kind == "redirect":
        others = [x for x in space.labels(space.bidegree_of(term))
                  if x not in dlab]
        assume(others)
        new = dict(dlab)
        new[data.draw(st.sampled_from(others))] = new.pop(term)
    elif kind == "product scale":
        factor = data.draw(st.integers(2, p - 1))
        new = {x: c * factor % p for x, c in ab.items()}
    elif kind == "product redirect":
        term = data.draw(st.sampled_from(sorted(ab)))
        others = [x for x in space.labels(space.bidegree_of(term))
                  if x not in ab]
        assume(others)
        new = dict(ab)
        new[data.draw(st.sampled_from(others))] = new.pop(term)
    elif kind == "beside":
        floor = space.window[0]
        above = [a for a in _labels_with_d(*algebra)
                 if space.bidegree_of(a).s == floor + 1]
        assume(above)
        lab = data.draw(st.sampled_from(sorted(dga.diff(
            data.draw(st.sampled_from(above))))))
        b = data.draw(st.sampled_from(free))
        term = data.draw(st.sampled_from(_labels(dga)))
        try:
            xb = dga.products(lab, b)
        except TruncationExceeded:
            xb = {}
        pair, new = (lab, b), _vadd(xb, {term: 1}, p)
    if kind.startswith("product") or kind == "beside":
        dga = with_product(dga, pair, _leaves if kind == "product leaves"
                           else lambda *_: new)
    if kind in ("scale", "redirect", "leaves", "beside"):
        def diff(x, right=dga.diff):
            if x != lab:
                return right(x)
            if kind in ("leaves", "beside"):
                raise TruncationExceeded("made to leave the window")
            return new

        dga = replace(dga, diff=diff)

    try:
        want = (reference_d_squared(dga), reference_leibniz(dga))
    except CertificationError as exc:
        want = _named(exc)
        event(f"{kind} mutation: rejected, {want.split()[0]}")
    except TruncationExceeded:
        want = TruncationExceeded
        event(f"{kind} mutation: d leaves the window in the d^2 pass")
    else:
        event(f"{kind} mutation: accepted")
    try:
        rep = validate_dga(dga, triple_sample=0)
    except TruncationExceeded:
        assert want is TruncationExceeded
    except CertificationError as exc:
        assert _named(exc) == want
    else:
        assert (rep.d_squared_checked, rep.leibniz_checked) == want


@pytest.mark.parametrize("algebra", SMALL_ALGEBRAS + [("end", -8)])
def test_a_pair_sample_of_n_squared_is_exhaustive(algebra):
    """A pair sample of at least n^2 tries every pair, as no sample does."""
    dga = small_algebra(*algebra)[0]
    n = len(_labels(dga))
    assert validate_dga(dga, pair_sample=n * n) == validate_dga(dga)


def reference_sampled_counts(dga, pair_sample, triple_sample, seed):
    """The counts of a sampled `validate_dga` call with one
    `rng.integers(0, n, size=width)` per pair or triple: the reference for
    the batched draws.  A pair or triple counts unless one of its products
    or differentials leaves the window; nothing is compared."""
    space = dga.space
    labels = _labels(dga)
    n = len(labels)
    rng = np.random.default_rng(seed)
    d_squared = sum(space.bidegree_of(lab).s >= space.window[0] + 2
                    for lab in labels)
    pairs = triples = 0
    for _ in range(pair_sample):
        a, b = (labels[i] for i in rng.integers(0, n, size=2))
        try:
            dga.d(dga.products(a, b))
            dga.mult(dga.d({a: 1}), {b: 1})
            dga.mult({a: 1}, dga.d({b: 1}))
        except TruncationExceeded:
            continue
        pairs += 1
    for _ in range(triple_sample):
        a, b, c = (labels[i] for i in rng.integers(0, n, size=3))
        try:
            dga.mult(dga.products(a, b), {c: 1})
            dga.mult({a: 1}, dga.products(b, c))
        except TruncationExceeded:
            continue
        triples += 1
    return d_squared, pairs, triples, n


@pytest.mark.parametrize("samples", [(600, 300), (0, 300)])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", [(5, 1, 2), "(3,1,2) loop cobar"])
def test_batched_draws_give_the_counts_of_one_draw_each(kind, seed, samples):
    """One `rng.integers(0, n, size=(k, width))` per pass draws what k
    calls of size=width draw, an empty pair batch included: the bit
    generator keeps its 32-bit buffer across calls."""
    dga = mult_algebra(kind)
    rep = validate_dga(dga, pair_sample=samples[0], triple_sample=samples[1],
                       seed=seed)
    assert (rep.d_squared_checked, rep.leibniz_checked, rep.assoc_checked,
            rep.unit_checked) == reference_sampled_counts(dga, *samples,
                                                          seed)


def exponent_algebra():
    """k[u, v, w] with d = 0 and every generator in bidegree (-2, 1), cut
    at the window floor -8: its labels are the exponent triples."""
    blocks = {}
    for abc in itertools.product(range(5), repeat=3):
        if sum(abc) <= 4:
            blocks.setdefault(Bidegree(-2 * sum(abc), sum(abc)), []).append(abc)

    def products(x, y):
        xy = tuple(i + j for i, j in zip(x, y))
        if sum(xy) > 4:
            raise TruncationExceeded(f"{x} * {y} leaves the window")
        return {xy: 1}

    return DGAlgebra(space=GradedVectorSpace(prime=3, window=(-8, 0),
                                             blocks=blocks),
                     unit={(0, 0, 0): 1}, products=products,
                     diff=lambda lab: {}, name="k[u,v,w]")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_draws_of_tuple_labels_are_labels(seed):
    """Labels that are tuples of one length are drawn whole, as any other
    label: the draws stay one label per entry."""
    dga = exponent_algebra()
    assert len(_labels(dga)) == 35
    rep = validate_dga(dga, pair_sample=600, triple_sample=300, seed=seed)
    assert (rep.d_squared_checked, rep.leibniz_checked, rep.assoc_checked,
            rep.unit_checked) == reference_sampled_counts(dga, 600, 300,
                                                          seed)
