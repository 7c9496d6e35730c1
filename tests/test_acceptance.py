"""Acceptance gate: one test (and one pass/fail line under ``pytest -v``)
per acceptance criterion.

Every comparison is exact equality over F_p; there are no tolerances.
The expensive pipelines are built once in module-scoped fixtures and
shared by the criteria that read them.

Criteria covered, in order:

1. Transferred minimal models on the cohomology side match the closed
   form for all six parameter tuples (plus the larger p^n = 9 stretch
   case, and p^n = 25 and 27 on (5, 2, 2), (5, 2, 4) and (3, 3, 2)):
   m_i(t, ..., t) = 0 for 2 < i < p^n, m_{p^n}(t, ..., t) is a
   nonzero multiple of x^h, and the normalized table equals the expected
   model entry for entry.
2. Massey powers cross-check the transfer: lower powers vanish and the
   p^n-fold power equals -x^h in the normalized basis.
3. Loop-space models: the exceptional truncated ring for (3, 1, 2) with
   no higher operations, and for (5, 1, 2) / (7, 1, 3) the free graded
   ring with the single arity-h family epsilon(h) tau^{p^n} plus the
   matching Massey powers.
4. The bigrading classification of admissible higher operations matches
   an independent brute-force enumeration of the two degree equations,
   on the six group tuples and on twenty seeded random parameter tuples.
5. Property suites: d^2 = 0, Leibniz, associativity, unitality, the
   retraction side conditions, Stasheff identity sweeps on oracle and
   transferred models, the (n-2, 0) bidegree shift of every operation
   entry, the sign involution, and detection of injected mutations.
6. Determinism: three different deterministic basis orderings produce
   byte-identical normalized model documents.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time

import pytest

from ainfbg import cli
from ainfbg.ainf import (
    AInfinityAlgebra,
    AdmissibleOp,
    HypothesisParams,
    classify_admissible,
    enumerate_words,
    epsilon_sign,
    monomial_label,
    stasheff_defect,
    stasheff_sweep,
    strict_unitality_defects,
)
from ainfbg.dga import massey_power, validate_dga
from ainfbg.glin import Bidegree, TruncationExceeded
from ainfbg.grp import GroupParams, expected_minimal_model
from ainfbg.koszul import loop_minimal_model, massey_versus_loop_transfer
from ainfbg.transfer import (
    compare_models,
    group_minimal_model,
    massey_versus_transfer,
)

ACCEPTANCE_TUPLES = [(3, 1, 2), (5, 1, 2), (5, 1, 4),
                     (7, 1, 2), (7, 1, 3), (7, 1, 6)]
STRETCH_TUPLE = (3, 2, 2)
LARGER_TUPLES = [(5, 2, 2), (5, 2, 4), (3, 3, 2)]     # p^n = 25, 25, 27
LOOP_TUPLES = [(3, 1, 2), (5, 1, 2), (7, 1, 3)]
MASSEY_TUPLES = [(3, 1, 2), (5, 1, 2)]

COCHAIN_TIME_BUDGET = 60.0       # seconds per regular tuple
STRETCH_TIME_BUDGET = 600.0      # seconds for the p^n = 9 case


@pytest.fixture(scope="module")
def cochain_runs():
    """The six transferred cohomology models, with wall-clock seconds."""
    runs = {}
    for pnq in ACCEPTANCE_TUPLES:
        start = time.perf_counter()
        comp = group_minimal_model(GroupParams(*pnq))
        runs[pnq] = (comp, time.perf_counter() - start)
    return runs


@pytest.fixture(scope="module")
def loop_runs():
    """The three transferred loop models, with wall-clock seconds."""
    runs = {}
    for pnq in LOOP_TUPLES:
        start = time.perf_counter()
        comp = loop_minimal_model(GroupParams(*pnq))
        runs[pnq] = (comp, time.perf_counter() - start)
    return runs


def _check_cochain_case(comp) -> tuple[int, int]:
    """The criterion-1 content for one tuple; returns (p^n coefficient,
    number of table entries compared against the closed form)."""
    params = comp.params
    p, pn, h = params.p, params.pn, params.h
    assert comp.truncated == {}, f"incomplete operation tables: {comp.truncated}"

    t = monomial_label(0, 1)
    target = monomial_label(h, 0)
    for i in range(3, pn):
        assert comp.model.op_value(i, (t,) * i) == {}, \
            f"m_{i}(t, ..., t) nonzero for {params.label()}"
    top = comp.model.op_value(pn, (t,) * pn)
    assert set(top) == {target}, \
        f"m_{pn}(t, ..., t) = {top}, expected a multiple of {target}"
    coefficient = top[target] % p
    assert coefficient != 0

    norm = comp.normalized()
    assert not norm.formal
    oracle = comp.expected()
    problems = compare_models(norm.model, oracle)
    assert problems == [], "\n".join(problems)
    entries = sum(len(table) for table in oracle.ops.values())
    return coefficient, entries


def test_criterion_1_cohomology_minimal_models(cochain_runs):
    for pnq in ACCEPTANCE_TUPLES:
        comp, seconds = cochain_runs[pnq]
        coefficient, entries = _check_cochain_case(comp)
        assert seconds < COCHAIN_TIME_BUDGET, \
            f"{pnq} took {seconds:.1f}s (budget {COCHAIN_TIME_BUDGET:.0f}s)"
        print(f"criterion 1 {pnq}: PASS  m_{comp.params.pn}(t,...,t) = "
              f"{coefficient}*x^{comp.params.h}, {entries} oracle entries "
              f"matched, {seconds:.1f}s")


def test_criterion_1_stretch_prime_power_nine():
    start = time.perf_counter()
    comp = group_minimal_model(GroupParams(*STRETCH_TUPLE))
    seconds = time.perf_counter() - start
    coefficient, entries = _check_cochain_case(comp)
    assert seconds < STRETCH_TIME_BUDGET, \
        f"{STRETCH_TUPLE} took {seconds:.1f}s (budget {STRETCH_TIME_BUDGET:.0f}s)"
    print(f"criterion 1 stretch {STRETCH_TUPLE}: PASS  m_9(t,...,t) = "
          f"{coefficient}*x^5, {entries} oracle entries matched, {seconds:.1f}s")


@pytest.mark.parametrize("pnq", LARGER_TUPLES)
def test_criterion_1_prime_powers_25_and_27(pnq):
    start = time.perf_counter()
    comp = group_minimal_model(GroupParams(*pnq))
    seconds = time.perf_counter() - start
    coefficient, entries = _check_cochain_case(comp)
    assert seconds < COCHAIN_TIME_BUDGET, \
        f"{pnq} took {seconds:.1f}s (budget {COCHAIN_TIME_BUDGET:.0f}s)"
    print(f"criterion 1 {pnq}: PASS  m_{comp.params.pn}(t,...,t) = "
          f"{coefficient}*x^{comp.params.h}, {entries} oracle entries "
          f"matched, {seconds:.1f}s")


def test_criterion_2_massey_powers_cross_check(cochain_runs):
    for pnq in MASSEY_TUPLES:
        comp, _ = cochain_runs[pnq]
        p, pn = comp.params.p, comp.params.pn
        t = monomial_label(0, 1)

        for i in range(3, pn):
            report = massey_power(comp.con, t, i)
            assert report.defined, f"<t>^{i} undefined for {pnq}"
            assert report.value == {}, \
                f"<t>^{i} = {report.value} for {pnq}, expected 0"

        comparison = massey_versus_transfer(comp)
        assert comparison.report.defined
        assert comparison.c_transfer != 0
        assert comparison.holds, \
            (f"<t>^{pn} = {comparison.c_massey} but transfer gives "
             f"{comparison.c_transfer} for {pnq}")
        # Transport to the normalized basis, where the arity-p^n family is
        # epsilon(p^n) x^h: the Massey power becomes exactly -x^h.
        normalized = (comparison.c_massey
                      * pow(comparison.c_transfer, -1, p)
                      * epsilon_sign(pn)) % p
        assert normalized == (-1) % p, \
            f"normalized <t>^{pn} = {normalized}*x^h for {pnq}, expected -x^h"
        print(f"criterion 2 {pnq}: PASS  <t>^i = 0 for 2 < i < {pn}, "
              f"<t>^{pn} = -x^{comp.params.h} in the normalized basis")


def test_criterion_3_loop_space_models(loop_runs):
    xi = "xi"

    # Exceptional case: k[tau, xi] / (xi^2 + tau^3, tau^4, tau^3 xi), with
    # no higher operations at all up to the arity bound.
    comp, seconds = loop_runs[(3, 1, 2)]
    params = comp.params
    assert comp.truncated == {}
    norm = comp.normalized()
    model = norm.model
    assert model.internal_scale == params.q == 2
    # Stored bidegrees (2, 4) and (3, 6) are (2, 2) and (3, 3) in abstract
    # internal units.
    assert model.space.bidegree_of("tau") == Bidegree(2, 4)
    assert model.space.bidegree_of(xi) == Bidegree(3, 6)
    assert model.ops[2][(xi, xi)] == {"tau^3": (-1) % 3}
    for n, table in model.ops.items():
        if n <= 2:
            continue
        for word, vec in table.items():
            live = {lab: c % 3 for lab, c in vec.items() if c % 3}
            assert live == {}, f"unexpected m_{n}{word} = {live}"
    problems = compare_models(model, comp.expected())
    assert problems == [], "\n".join(problems)
    print(f"criterion 3 (3, 1, 2): PASS  xi^2 = -tau^3, no higher "
          f"operations up to arity {comp.model.arity_bound}, {seconds:.1f}s")

    # Generic cases: k[tau] tensor Lambda(xi) with the arity-h family
    # m_h(xi, ..., xi) = epsilon(h) tau^{p^n}, and the matching Massey
    # powers <xi>^i = 0 for 2 < i < h, <xi>^h = -tau^{p^n} (normalized).
    for pnq in [(5, 1, 2), (7, 1, 3)]:
        comp, seconds = loop_runs[pnq]
        params = comp.params
        p, pn, h, q = params.p, params.pn, params.h, params.q
        assert comp.truncated == {}
        norm = comp.normalized()
        model = norm.model
        assert not norm.formal
        assert model.internal_scale == q
        assert model.space.bidegree_of("tau") == Bidegree(2 * q - 2, q * h)
        assert model.space.bidegree_of(xi) == Bidegree(2 * q - 1, q * pn)
        assert model.op_value(2, (xi, xi)) == {}

        family = model.ops[h][(xi,) * h]
        assert family == {f"tau^{pn}": epsilon_sign(h) % p}, \
            f"m_{h}(xi, ..., xi) = {family} for {pnq}"
        problems = compare_models(model, comp.expected())
        assert problems == [], "\n".join(problems)

        for i in range(3, h):
            report = massey_power(comp.con, xi, i)
            assert report.defined and report.value == {}, \
                f"<xi>^{i} = {report.value} for {pnq}, expected 0"
        comparison = massey_versus_loop_transfer(comp)
        assert comparison.report.defined and comparison.c_transfer != 0
        assert comparison.holds
        normalized = (comparison.c_massey
                      * pow(comparison.c_transfer, -1, p)
                      * epsilon_sign(h)) % p
        assert normalized == (-1) % p, \
            f"normalized <xi>^{h} = {normalized}*tau^{pn} for {pnq}"
        sign = "+" if epsilon_sign(h) == 1 else "-"
        print(f"criterion 3 {pnq}: PASS  m_{h}(xi,...,xi) = {sign}tau^{pn}, "
              f"<xi>^{h} = -tau^{pn}, {seconds:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: classification against a brute-force oracle
# ---------------------------------------------------------------------------

def _brute_force_admissible(hp: HypothesisParams, max_arity: int,
                            max_power: int) -> list[AdmissibleOp]:
    """Independent enumeration of the two degree equations.

    For every input tuple (x^{j_1} t^{e_1}, ..., x^{j_i} t^{e_i}) and every
    candidate target exponent e, the internal degree of the target is
    forced, so the target power j is the unique solution of
    j*ell + e*h = sum of input internal degrees, when that solution is a
    nonnegative integer; the tuple is admissible when the target's
    homological degree also sits at (sum of inputs) + i - 2.  Nothing here
    shares code with classify_admissible beyond the bidegree table itself.
    """
    found = []
    for i in range(3, max_arity + 1):
        for powers in itertools.product(range(max_power + 1), repeat=i):
            for exps in itertools.product((0, 1), repeat=i):
                s_in = 0
                w_in = 0
                for j, e in zip(powers, exps):
                    bd = hp.monomial_bidegree(j, e)
                    s_in += bd.s
                    w_in += bd.w
                for e_t in (0, 1):
                    remainder = w_in - e_t * hp.h
                    if remainder % hp.ell or remainder < 0:
                        continue
                    j_t = remainder // hp.ell
                    if hp.monomial_bidegree(j_t, e_t).s == s_in + i - 2:
                        found.append(AdmissibleOp(i, powers, exps, j_t, e_t))
    return sorted(found, key=lambda op: (op.arity, op.powers, op.exponents,
                                         op.target_power, op.target_exponent))


def _expected_all_t(hp: HypothesisParams, max_power: int) -> list[AdmissibleOp]:
    """The classification's claim: only arity ell, all inputs carrying t,
    target x^{h + sum of powers}."""
    return sorted(
        (AdmissibleOp(hp.ell, powers, (1,) * hp.ell,
                      hp.h + sum(powers), 0)
         for powers in itertools.product(range(max_power + 1),
                                         repeat=hp.ell)),
        key=lambda op: (op.arity, op.powers, op.exponents,
                        op.target_power, op.target_exponent))


def _sorted_ops(ops: list[AdmissibleOp]) -> list[AdmissibleOp]:
    return sorted(ops, key=lambda op: (op.arity, op.powers, op.exponents,
                                       op.target_power, op.target_exponent))


def test_criterion_4_classification_vs_brute_force():
    checked = 0
    for pnq in ACCEPTANCE_TUPLES:
        params = GroupParams(*pnq)
        hp = params.hp
        max_arity = params.pn + 1
        # The brute-force tuple space is (max_power+1)^i * 2^i per arity,
        # so the power cap shrinks as ell grows.
        max_power = 2 if params.pn <= 5 else 1
        got = _sorted_ops(classify_admissible(hp, max_arity, max_power))
        brute = _brute_force_admissible(hp, max_arity, max_power)
        expected = _expected_all_t(hp, max_power)
        assert got == brute, f"classification disagrees with brute force {pnq}"
        assert got == expected, f"unexpected admissible shape for {pnq}"
        checked += 1

    rng = random.Random(20260819)
    seen: set[tuple[int, int, int, int]] = set()
    while len(seen) < 20:
        ell = rng.randrange(3, 8)
        h = rng.randrange(1, 10)
        try:
            a0 = pow(h, -1, ell)
        except ValueError:
            continue                      # h not invertible mod ell
        a = a0 + rng.randrange(0, 3) * ell
        b = (h * a - 1) // ell
        if (a, b, h, ell) in seen:
            continue
        seen.add((a, b, h, ell))
        hp = HypothesisParams(a=a, b=b, h=h, ell=ell)
        got = _sorted_ops(classify_admissible(hp, ell + 1, 1))
        brute = _brute_force_admissible(hp, ell + 1, 1)
        expected = _expected_all_t(hp, 1)
        assert got == brute, f"classification disagrees with brute force {hp}"
        assert got == expected, f"unexpected admissible shape for {hp}"
        checked += 1
    print(f"criterion 4: PASS  classification == brute force == all-t "
          f"arity-ell family on {checked} parameter tuples")


# ---------------------------------------------------------------------------
# criterion 5: property suites
# ---------------------------------------------------------------------------

def _vadd(u: dict, v: dict, p: int) -> dict:
    out = dict(u)
    for k, c in v.items():
        s = (out.get(k, 0) + c) % p
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _vsub(u: dict, v: dict, p: int) -> dict:
    return _vadd(u, {k: -c % p for k, c in v.items()}, p)


def _sdr_checks(con) -> tuple[int, list[str], set[Bidegree]]:
    """Exact side conditions of the strong deformation retraction:
    pi f1 = id, G f1 = 0 on homology; pi G = 0, G G = 0 on the algebra;
    d G + G d = id - f1 pi on every trusted bidegree.  A check is skipped
    only where a map or d refuses its input (TruncationExceeded); the
    third value holds the bidegrees of the refused inputs."""
    dga = con.dga
    p = dga.prime
    checked = 0
    failures: list[str] = []
    refused: set[Bidegree] = set()

    def recorded(f, space):
        def read(vec):
            try:
                return f(vec)
            except TruncationExceeded:
                refused.add(space.bidegree_of(next(iter(vec))))
                raise
        return read

    include = recorded(con.include, con.homology)
    project, homotopy, d = (recorded(f, dga.space)
                            for f in (con.project, con.homotopy, dga.d))

    for bd in sorted(con.homology.bidegrees()):
        for lab in con.homology.labels(bd):
            v = {lab: 1}
            try:
                f1 = include(v)
                if project(f1) != v:
                    failures.append(f"pi f1 != id on {lab}")
                if homotopy(f1):
                    failures.append(f"G f1 != 0 on {lab}")
            except TruncationExceeded:
                continue
            checked += 2

    for bd in sorted(dga.space.bidegrees()):
        for lab in dga.space.labels(bd):
            v = {lab: 1}
            try:
                g = homotopy(v)
                if project(g):
                    failures.append(f"pi G != 0 on {lab}")
                if homotopy(g):
                    failures.append(f"G G != 0 on {lab}")
            except TruncationExceeded:
                continue
            checked += 2
            if bd in con.trusted:
                try:
                    lhs = _vadd(d(g), homotopy(d(v)), p)
                    rhs = _vsub(v, include(project(v)), p)
                except TruncationExceeded:
                    continue
                if lhs != rhs:
                    failures.append(f"homotopy identity fails on {lab}")
                checked += 1
    return checked, failures, refused


def _identity_sweeps(model: AInfinityAlgebra) -> int:
    """Stasheff identity sweeps at every arity up to the bound, with the
    unit excluded from the alphabet (licensed by strict unitality)."""
    assert strict_unitality_defects(model) == []
    total = 0
    for n in range(3, model.arity_bound + 1):
        words = list(enumerate_words(model, n, exclude=(model.unit,)))
        report = stasheff_defect(model, n, words=words)
        assert report.ok(), \
            f"arity-{n} defect on {sorted(report.nonzero)[:3]}"
        total += report.checked
    return total


def _bigrading_checks(model: AInfinityAlgebra) -> int:
    """Every nonzero entry of m_n lands at (sum of inputs) + (n-2, 0)."""
    p = model.space.prime
    checked = 0
    for n in sorted(model.ops):
        for word, vec in model.ops[n].items():
            live = {lab: c % p for lab, c in vec.items() if c % p}
            if not live:
                continue
            s_in = sum(model.space.bidegree_of(lab).s for lab in word)
            w_in = sum(model.space.bidegree_of(lab).w for lab in word)
            want = Bidegree(s_in + n - 2, w_in)
            for lab in live:
                got = model.space.bidegree_of(lab)
                assert got == want, \
                    f"m_{n}{word} hits {lab} at {got}, expected {want}"
                checked += 1
    return checked


def _mutation_detection() -> tuple[int, int]:
    """Inject a single wrong coefficient into an oracle model and require
    the verification machinery to notice: a nonzero Stasheff defect or a
    mismatch against the unmutated oracle."""
    params = GroupParams(3, 1, 2)
    p = params.p
    oracle = expected_minimal_model(params, window=(-13, 0))
    mutations = 0
    defect_caught = 0
    for n in sorted(oracle.ops):
        for word in sorted(oracle.ops[n]):
            vec = oracle.ops[n][word]
            if not any(c % p for c in vec.values()):
                continue
            lab = sorted(vec)[0]
            mutated_vec = dict(vec)
            new_c = (mutated_vec[lab] + 1) % p
            if new_c:
                mutated_vec[lab] = new_c
            else:
                del mutated_vec[lab]
            mutated_ops = {m: dict(table) for m, table in oracle.ops.items()}
            mutated_ops[n] = dict(mutated_ops[n])
            mutated_ops[n][word] = mutated_vec
            mutant = AInfinityAlgebra(space=oracle.space, ops=mutated_ops,
                                      arity_bound=oracle.arity_bound,
                                      unit=oracle.unit,
                                      internal_scale=oracle.internal_scale)
            by_defect = any(not rep.ok()
                            for rep in stasheff_sweep(mutant).values())
            by_compare = compare_models(mutant, oracle) != []
            assert by_defect or by_compare, \
                f"mutation of m_{n}{word} went undetected"
            assert by_compare, \
                f"oracle comparison missed the mutation of m_{n}{word}"
            mutations += 1
            defect_caught += by_defect
    assert mutations > 0
    # Ring-structure mutations must break associativity, so at least some
    # mutations are visible to the Stasheff sweep alone (coefficient
    # rescalings of the top family are gauge and only the comparison sees
    # them -- that is exactly why the criterion allows either detector).
    assert defect_caught > 0
    return mutations, defect_caught


def test_criterion_5_property_suites(cochain_runs, loop_runs):
    # Sign involution: epsilon(s) * epsilon(s+2) = -1 everywhere.
    for s in range(-40, 40):
        assert epsilon_sign(s) in (1, -1)
        assert epsilon_sign(s) * epsilon_sign(s + 2) == -1

    # d^2 = 0, Leibniz, associativity, unitality on the cochain algebras
    # (exhaustive for the smallest, sampled for the larger ones) and on
    # the loop-side cobar algebra.
    report = validate_dga(cochain_runs[(3, 1, 2)][0].con.dga)
    assert (report.d_squared_checked, report.leibniz_checked,
            report.assoc_checked, report.unit_checked) == (
                491, 252112, 137610247, 517)
    report = validate_dga(cochain_runs[(5, 1, 2)][0].con.dga,
                          pair_sample=3000, triple_sample=1500)
    assert report.d_squared_checked > 0 and report.leibniz_checked > 0
    report = validate_dga(loop_runs[(3, 1, 2)][0].con.dga,
                          pair_sample=2000, triple_sample=800)
    assert report.d_squared_checked > 0 and report.leibniz_checked > 0

    # Retraction side conditions.
    sdr_checked = sdr_refused = 0
    for con in (cochain_runs[(3, 1, 2)][0].con,
                cochain_runs[(5, 1, 2)][0].con,
                loop_runs[(3, 1, 2)][0].con):
        checked, failures, refused = _sdr_checks(con)
        assert failures == [], "\n".join(failures[:5])
        assert checked > 0
        sdr_checked += checked
        sdr_refused += len(refused)
        # a map refuses only a block outside the contracted range or a
        # floor block over a nonzero block, where G d is unknown
        lo, hi = con.homology.window
        assert [bd for bd in sorted(refused) if lo < bd.s <= hi or (
            bd.s == lo and not con.dga.space.dim(Bidegree(lo - 1, bd.w)))
        ] == []

    # Stasheff sweeps and bigrading on transferred and oracle models,
    # cochain and loop side alike.
    sweep_words = 0
    bigrading_entries = 0
    models = []
    for pnq in [(3, 1, 2), (5, 1, 2)]:
        comp = cochain_runs[pnq][0]
        models += [comp.model, comp.expected()]
    for pnq in [(3, 1, 2), (5, 1, 2)]:
        comp = loop_runs[pnq][0]
        models += [comp.model, comp.expected()]
    for model in models:
        sweep_words += _identity_sweeps(model)
        bigrading_entries += _bigrading_checks(model)
    assert sweep_words > 0 and bigrading_entries > 0

    mutations, defect_caught = _mutation_detection()

    print(f"criterion 5: PASS  SDR checks {sdr_checked} ({sdr_refused} "
          f"bidegrees refused, all at the range's edges), identity sweeps "
          f"over {sweep_words} words on {len(models)} models, "
          f"{bigrading_entries} bigraded entries, {mutations} mutations "
          f"detected ({defect_caught} by Stasheff defect alone)")


def test_criterion_6_basis_ordering_determinism(cochain_runs):
    def reversed_labels(bd, labels):
        return list(reversed(labels))

    def scrambled_labels(bd, labels):
        return sorted(labels, key=lambda lab: hashlib.md5(
            ":".join(map(str, lab)).encode()).hexdigest())

    for pnq in [(3, 1, 2), (5, 1, 2)]:
        params = GroupParams(*pnq)
        serialized = []
        for reorder in (None, reversed_labels, scrambled_labels):
            if reorder is None:
                comp = cochain_runs[pnq][0]
            else:
                comp = group_minimal_model(params, reorder=reorder)
            document = cli.model_document(
                "determinism-check", params,
                {"p": params.p, "n": params.n, "q": params.q},
                comp.normalized().model, extra={})
            serialized.append(cli.canonical_json(document).encode())
        assert serialized[0] == serialized[1] == serialized[2], \
            f"normalized documents differ across basis orderings for {pnq}"
        print(f"criterion 6 {pnq}: PASS  3 basis orderings, "
              f"byte-identical documents ({len(serialized[0])} bytes)")
