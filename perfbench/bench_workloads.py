"""The four benchmark workloads, each a set-up plus a list of checked
operations.

Every workload calls ainfbg through module attributes (`transfer.
group_minimal_model`, not a name imported from it), so the tracer's
rebinding sees the calls the benchmark itself makes.

Seed 0 is the user's path.  Any other seed shuffles the basis inside each
bidegree block through the `reorder=` hook of the two pipelines, sets the
seeds of the sampled `validate_dga` calls, and shuffles the order of
replayed commands.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ainfbg import ainf, cli, dga, grp, koszul, transfer
from ainfbg.glin import TruncationExceeded

COCHAIN_TUPLES = [(3, 1, 2), (5, 1, 2), (5, 1, 4), (7, 1, 2), (7, 1, 3), (7, 1, 6)]
LOOP_TUPLES = [(3, 1, 2), (5, 1, 2), (5, 1, 4)]
REPLAY_TUPLES = [(3, 1, 2), (5, 1, 2)]
REPLAY_COMMANDS = ("verify", "transfer", "loops")
CONTENT_HASH = re.compile(r'"content_hash": "([0-9a-f]{64})"')

# validate_dga on the (3, 1, 2) end-DGA: window -> ValidationReport counts
# (d_squared, leibniz, assoc, unit) that the code of the benchmark's
# first version gives
EXHAUSTIVE_WINDOW = (-8, 1)
QUICK_EXHAUSTIVE_WINDOW = (-3, 1)
EXHAUSTIVE_COUNTS = {
    (-8, 1): (113, 15373, 2630926, 139),
    (-3, 1): (23, 935, 70392, 42),
}
# the sampled calls of acceptance criterion 5, with its sample sizes; one
# operation makes both with one seed, and a run makes SAMPLE_SEEDS of them
# so that the median operation time rests on more than one short call
COCHAIN_SAMPLE = ((5, 1, 2), 3000, 1500)
LOOP_SAMPLE = ((3, 1, 2), 2000, 800)
SAMPLE_SEEDS = 5


@dataclass
class Op:
    """One checked operation: `call` is timed, `check` turns its result
    into a list of problems (empty when the output is correct)."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]] = lambda problems: problems


@dataclass
class Workload:
    """The operations of one pass, and the sizes they read off their
    results (for the traced run)."""

    ops: list[Op]
    counts: Counter = field(default_factory=Counter)


def basis_reorder(seed: int):
    """None for seed 0, else a seeded shuffle inside each bidegree block."""
    if seed == 0:
        return None

    def key(bd, labels):
        rng = random.Random(f"{seed}/{bd.s}/{bd.w}")
        out = list(labels)
        rng.shuffle(out)
        return out

    return key


# ---------------------------------------------------------------------------
# the checks shared by both pipelines (the body of `ainfbg verify`)
# ---------------------------------------------------------------------------

def sweep_problems(model) -> list[str]:
    """Strict unitality, then the Stasheff sweeps without the unit."""
    unital = ainf.strict_unitality_defects(model)
    problems = [f"strict unitality: {d}" for d in unital]
    exclude = (model.unit,) if not unital and model.unit else ()
    for n in range(3, model.arity_bound + 1):
        words = ainf.enumerate_words(model, n, exclude=exclude)
        rep = ainf.stasheff_defect(model, n, words=words)
        if not rep.ok():
            problems.append(f"identity defect at arity {n}: "
                            f"{len(rep.nonzero)} words")
    return problems


def massey_problems(comp, cls: str, target: str, ell: int, compare) -> list[str]:
    """Lower Massey powers vanish; the ell-fold one matches the transfer."""
    p = comp.params.p
    problems = []
    for i in range(3, ell):
        rep = dga.massey_power(comp.con, cls, i)
        if not rep.defined or rep.value:
            problems.append(f"{i}-fold Massey power of {cls} is not 0")
    result = compare(comp)
    if not result.holds:
        problems.append(f"{ell}-fold Massey power {result.c_massey} vs "
                        f"transfer {result.c_transfer}")
    elif (result.c_massey * pow(result.c_transfer, -1, p)
          * ainf.epsilon_sign(ell)) % p != (-1) % p:
        problems.append(f"{ell}-fold Massey power is not -{target}")
    return problems


def transfer_counts(comp) -> dict[str, int]:
    """Sizes read off a finished computation; the memo is the transfer's
    two word tables, which have no public accessor."""
    t = comp.transfer
    return {
        "transfer.memo_entries": len(t._lam) + len(t._ghat),
        "transfer.nonzero_entries": sum(len(tab) for tab in comp.model.ops.values()),
        "transfer.truncated_words": sum(len(ws) for ws in comp.truncated.values()),
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def cochain(seed: int, quick: bool, scratch: Path) -> Workload:
    reorder = basis_reorder(seed)
    counts: Counter = Counter()

    def run(pnq):
        params = grp.GroupParams(*pnq)
        comp = transfer.group_minimal_model(params, reorder=reorder)
        counts.update(transfer_counts(comp))
        t, x_h = ainf.monomial_label(0, 1), ainf.monomial_label(params.h, 0)
        problems = transfer.compare_models(comp.normalized().model,
                                           comp.expected())
        problems += sweep_problems(comp.model)
        problems += massey_problems(comp, t, x_h, params.pn,
                                    transfer.massey_versus_transfer)
        rows = ainf.classify_admissible(params.hp, params.pn + 1, 2)
        if ({r.arity for r in rows} != {params.pn}
                or any(e != 1 for r in rows for e in r.exponents)
                or {r.target_exponent for r in rows} != {0}):
            problems.append("admissible shapes are not all-t of arity p^n")
        return problems

    tuples = COCHAIN_TUPLES[:1] if quick else COCHAIN_TUPLES
    return Workload([Op(f"cochain{pnq}", lambda pnq=pnq: run(pnq))
                     for pnq in tuples], counts)


def loops(seed: int, quick: bool, scratch: Path) -> Workload:
    reorder = basis_reorder(seed)
    counts: Counter = Counter()
    names = grp.LOOP_GENERATORS

    def run(pnq):
        params = grp.GroupParams(*pnq)
        koszul.loop_word_count(params)
        comp = koszul.loop_minimal_model(params, reorder=reorder)
        counts.update(transfer_counts(comp))
        dual = params.hp.loop_dual()
        xi = ainf.monomial_label(0, 1, names)
        tau = ainf.monomial_label(dual.h, 0, names)
        problems = transfer.compare_models(comp.normalized().model,
                                           comp.expected())
        problems += sweep_problems(comp.model)
        problems += massey_problems(comp, xi, tau, dual.ell,
                                    koszul.massey_versus_loop_transfer)
        if koszul.poincare_roundtrip(comp).blocks_checked == 0:
            problems.append("round trip checked no blocks")
        return problems

    tuples = LOOP_TUPLES[:1] if quick else LOOP_TUPLES
    return Workload([Op(f"loops{pnq}", lambda pnq=pnq: run(pnq))
                     for pnq in tuples], counts)


def _report_counts(rep) -> tuple[int, int, int, int]:
    return (rep.d_squared_checked, rep.leibniz_checked, rep.assoc_checked,
            rep.unit_checked)


def reference_counts(alg, pair_sample: int, triple_sample: int,
                     seed: int) -> tuple[int, int, int, int]:
    """The counts `validate_dga` reports for a sampled call: the same
    random draws, and a pair or triple counts unless one of its products
    leaves the window.  Nothing is compared, only counted."""
    space = alg.space
    lo = space.window[0]
    labels = [lab for bd in space.bidegrees() for lab in space.labels(bd)]
    n = len(labels)
    rng = np.random.default_rng(seed)

    def draws(width, k):
        if k >= n ** width:
            yield from itertools.product(labels, repeat=width)
            return
        for _ in range(k):
            yield tuple(labels[int(i)] for i in rng.integers(0, n, size=width))

    d2 = sum(1 for lab in labels if space.bidegree_of(lab).s >= lo + 2)
    pairs = triples = 0
    for a, b in draws(2, pair_sample):
        try:
            alg.d(alg.products(a, b))
            alg.mult(alg.d({a: 1}), {b: 1})
            alg.mult({a: 1}, alg.d({b: 1}))
        except TruncationExceeded:
            continue
        pairs += 1
    for a, b, c in draws(3, triple_sample):
        try:
            alg.mult(alg.products(a, b), {c: 1})
            alg.mult({a: 1}, alg.products(b, c))
        except TruncationExceeded:
            continue
        triples += 1
    return d2, pairs, triples, n


def cochain_end_dga(pnq):
    """The end-DGA that `group_minimal_model` builds by default."""
    params = grp.GroupParams(*pnq)
    arity = params.default_arity_bound()
    lo, hi = params.model_window()
    return grp.build_end_dga(params, window=(lo - (arity - 1), hi + 1))


def loop_cobar(pnq):
    """The cobar algebra that `loop_minimal_model` builds by default."""
    params = grp.GroupParams(*pnq)
    s_hi = params.loop_window_hi()
    model = grp.expected_minimal_model(
        params, window=koszul.cochain_window_for_loops(params, s_hi))
    return dga.cobar(model, s_hi)


def certify(seed: int, quick: bool, scratch: Path) -> Workload:
    window = QUICK_EXHAUSTIVE_WINDOW if quick else EXHAUSTIVE_WINDOW
    full = grp.build_end_dga(grp.GroupParams(3, 1, 2), window=window)
    ops = [Op(f"validate(3, 1, 2) window {window}",
              lambda: dga.validate_dga(full),
              lambda rep: _count_problems(rep, EXHAUSTIVE_COUNTS[window]))]
    sampled = [(build(pnq), pairs, triples) for (pnq, pairs, triples), build
               in ((COCHAIN_SAMPLE, cochain_end_dga), (LOOP_SAMPLE, loop_cobar))]
    for sample_seed in range(SAMPLE_SEEDS * seed, SAMPLE_SEEDS * (seed + 1)):
        want = [reference_counts(alg, pairs, triples, sample_seed)
                for alg, pairs, triples in sampled]
        ops.append(Op(
            f"validate sampled, seed {sample_seed}",
            lambda s=sample_seed: [
                dga.validate_dga(alg, pair_sample=pairs, triple_sample=triples,
                                 seed=s)
                for alg, pairs, triples in sampled],
            lambda reps, want=want: [p for rep, w in zip(reps, want)
                                     for p in _count_problems(rep, w)]))
    return Workload(ops)


def _count_problems(rep, want) -> list[str]:
    got = _report_counts(rep)
    return [] if got == want else [f"counts {got}, expected {want}"]


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def fill_cache(cache_dir: Path, quick: bool) -> list[dict]:
    """Compute every replayed document once; returns the manifest."""
    manifest = []
    for pnq in REPLAY_TUPLES[:1] if quick else REPLAY_TUPLES:
        for command in REPLAY_COMMANDS:
            argv = [command, *map(str, pnq), "--json", "--cache-dir",
                    str(cache_dir)]
            code, text = _cli(argv)
            if code != 0:
                raise RuntimeError(f"`ainfbg {' '.join(argv)}` exited {code}")
            manifest.append({"argv": argv, "content_hash":
                             json.loads(text)["provenance"]["content_hash"]})
    (cache_dir / "manifest.json").write_text(json.dumps(manifest))
    return manifest


def replay(seed: int, quick: bool, scratch: Path) -> Workload:
    """Replays the commands recorded in `scratch/manifest.json`, which the
    set-up wrote; one pass runs each command once, in a seeded order."""
    manifest = json.loads((scratch / "manifest.json").read_text())
    random.Random(seed).shuffle(manifest)

    def check(result, want):
        # a regular expression, not json.loads: parsing every replayed
        # document would allocate enough to put the benchmark's own garbage
        # collections into the timed calls
        code, text = result
        if code != 0:
            return [f"exit code {code}"]
        got = CONTENT_HASH.findall(text)
        return [] if got == [want] else [f"content_hash {got}, expected {want}"]

    return Workload([Op(" ".join(entry["argv"][:4]),
                        lambda argv=entry["argv"]: _cli(argv),
                        lambda result, want=entry["content_hash"]: check(result, want))
                     for entry in manifest])


WORKLOADS = {"cochain": cochain, "loops": loops, "certify": certify,
             "replay": replay}
