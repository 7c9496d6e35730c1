"""Command-line frontend: build models, run pipelines, emit stable reports.

Each subcommand is one `COMMANDS` entry: its handler, its help text and
the options it reads.  Every subcommand takes the group as the
positional `p n q`; an option outside its entry is a usage error from
the parser (exit 2), never silently dropped.

The side is data read off the computation (`hp`, and the generator
names the pattern gate gave its model, `Computation.monomial`), not a
code path: `transfer` and `loops` share one model-document path,
`check-stasheff` and `massey` one report path, and the two stages of
`verify` one gate-and-compare head and family record.

Every command returns a JSON-compatible document rendered either as
key/value + table text or, under --json, as canonical JSON (sorted keys,
two-space indent): `canonical_json` writes the bytes of `json.dumps(doc,
sort_keys=True, indent=2)` with its own renderer, since any indent sends
the stdlib to its pure-Python encoder.  Rerunning a command with
identical inputs produces byte-identical output; coefficients are always
printed as canonical residues in [0, p).  The heavy commands (model,
transfer, loops, verify) cache their documents under --cache-dir
(default: $AINF_CACHE_DIR or .cache/), keyed by a hash of (command,
resolved parameters, format_version, package version, digest of the
package sources), so a document made by other code is never replayed; a
replayed document is rendered again, never echoed from the file.  A
cached document that does not parse, holds a float, is nested too deep
to parse or hash, or fails its embedded content hash is discarded and
rebuilt.
check-stasheff, massey and classify never cache and take neither
--cache-dir nor --no-cache.  All file writes go through a temporary file
and an atomic rename.

Exit codes: 0 success, 1 verification failure (including a document
whose `overall` is "fail"), 2 invalid parameters (a usage error or a
ParameterError), 3 truncation-window error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
from dataclasses import asdict
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable

from . import __version__
from .ainf import (
    AdmissibleShape,
    AInfinityAlgebra,
    ShapeMismatch,
    admissible_shapes,
    epsilon_sign,
    stasheff_sweep,
    strict_unitality_defects,
)
from .dga import CertificationError
from .glin import GradedVectorSpace, ParameterError, TruncationExceeded
from .grp import GroupParams, build_end_dga
from .koszul import loop_minimal_model, loop_word_count, poincare_roundtrip
from .transfer import (
    Computation,
    PatternMismatch,
    compare_models,
    group_minimal_model,
    massey_versus_transfer,
)

FORMAT_VERSION = 1

# verify skips its loop stage above this cobar word count, which covers
# (11, 1, 2) (85,626 words) and not (13, 1, 2) (395,033): the sparse
# eliminations of pass 0 grow with the word space, and their time and
# memory with them; an explicit `ainfbg loops` run is never budgeted.
VERIFY_LOOP_WORD_BUDGET = 100_000


# ---------------------------------------------------------------------------
# canonical documents
# ---------------------------------------------------------------------------

def canonical_json(doc: dict) -> str:
    """`doc` as canonical JSON: the bytes of `json.dumps(doc,
    sort_keys=True, indent=2) + "\\n"`, written without the stdlib's
    encoder, which any `indent` sends to its pure-Python generators.

    It takes what documents hold: dicts with str keys, lists and tuples,
    str, int, bool and None; anything else, a float or a numpy scalar
    included, is a TypeError."""
    parts: list[str] = []
    _render(doc, "", "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _render(value, head: str, newline: str,
            put: Callable[[str], None]) -> None:
    """Put `value` led by `head`, the separator, key and opening brackets
    before it, with `newline` and its indent before each closing bracket.

    A scalar is one part with its head: a part per token held 80 MB more
    on the 22 MB document of `model 7 1 6`.  Not a closure: one that
    calls itself is a reference cycle, which keeps the call's parts alive
    until the next garbage collection."""
    if isinstance(value, str):
        put(head + encode_basestring_ascii(value))
    elif value is None:
        put(head + "null")
    elif value is True:
        put(head + "true")
    elif value is False:
        put(head + "false")
    elif isinstance(value, int):
        put(head + int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            put(head + "{}")
            return
        inner = newline + "  "
        sep = head + "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"key {key!r} is not a str")
            _render(value[key], sep + encode_basestring_ascii(key) + ": ",
                    inner, put)
            sep = "," + inner
        put(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            put(head + "[]")
            return
        inner = newline + "  "
        sep = head + "[" + inner
        for item in value:
            _render(item, sep, inner, put)
            sep = "," + inner
        put(newline + "]")
    else:
        raise TypeError(f"{type(value).__name__} {value!r} is not a "
                        f"canonical JSON value")


def _hash_payload(doc: dict) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def finalize_document(doc: dict) -> dict:
    """Stamp the provenance content hash (over the document with the hash
    field blanked, so verification can recompute it)."""
    doc["provenance"]["content_hash"] = ""
    doc["provenance"]["content_hash"] = _hash_payload(doc)
    return doc


def document_hash_ok(doc: object) -> bool:
    """Whether `doc` is a JSON object whose provenance hash is its own."""
    if not isinstance(doc, dict):
        return False
    prov = doc.get("provenance")
    if not isinstance(prov, dict) or "content_hash" not in prov:
        return False
    # doc is parsed JSON: blanking the hash on a copy of the two levels
    # it changes leaves the input as it was
    blanked = {**doc, "provenance": {**prov, "content_hash": ""}}
    return _hash_payload(blanked) == prov["content_hash"]


def format_vector(vec: dict[str, int], p: int) -> str:
    terms = [f"{c % p}*{lab}" for lab, c in sorted(vec.items()) if c % p]
    return " + ".join(terms) if terms else "0"


def space_records(space: GradedVectorSpace, spell=str) -> list[dict]:
    recs = []
    for bd in sorted(space.bidegrees()):
        labels = space.labels(bd)
        recs.append({"s": bd.s, "w": bd.w, "dim": len(labels),
                     "labels": list(map(spell, labels))})
    return recs


def _vector_record(vec: dict, p: int, spell=str) -> dict[str, int]:
    return dict(sorted((spell(lab), c % p) for lab, c in vec.items() if c % p))


def operation_records(model: AInfinityAlgebra) -> dict[str, list[dict]]:
    p = model.space.prime
    out: dict[str, list[dict]] = {}
    for n in sorted(model.ops):
        entries = [{"inputs": list(word),
                    "output": _vector_record(model.ops[n][word], p)}
                   for word in sorted(model.ops[n])]
        if entries:
            out[str(n)] = entries
    return out


def _base_document(kind: str, command: str, params: GroupParams,
                   parameters: dict) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "command": command,
        "prime": params.p,
        "group": {"p": params.p, "n": params.n, "q": params.q,
                  "gamma": params.gamma, "pn": params.pn, "h": params.h},
        "provenance": {"command": command, "parameters": parameters},
    }


def model_document(command: str, params: GroupParams, parameters: dict,
                   model: AInfinityAlgebra, *, extra: dict) -> dict:
    doc = _base_document("ainfinity-model", command, params, parameters)
    doc.update({
        "window": list(model.space.window),
        "arity_bound": model.arity_bound,
        "unit": model.unit,
        "internal_scale": model.internal_scale,
        "spaces": space_records(model.space),
        "operations": operation_records(model),
        **extra,
    })
    return finalize_document(doc)


def dga_document(command: str, params: GroupParams, parameters: dict,
                 dga) -> dict:
    """Serialize an end-DGA: differential and product entries whose
    output bidegree lies in the window (absences there mean zero; pairs
    whose output leaves the window are not representable and are left
    out, which the grading makes unambiguous).  A basis label (i, d, a)
    is spelled "i:d:a", before anything is sorted."""
    p = dga.prime
    lo, hi = dga.space.window

    def spell(lab: tuple[int, int, int]) -> str:
        return ":".join(map(str, lab))

    labeled = [(bd, lab) for bd in sorted(dga.space.bidegrees())
               for lab in dga.space.labels(bd)]
    d_entries = []
    for bd, lab in labeled:
        if not lo <= bd.s - 1 <= hi:
            continue
        vec = _vector_record(dga.diff(lab), p, spell)
        if vec:
            d_entries.append({"inputs": [spell(lab)], "output": vec})
    # products(a, b) is {} unless source(a) == target(b), the contract
    # that validate_dga certifies
    by_target: dict[object, list] = {}
    for bb, lb in labeled:
        by_target.setdefault(dga.target(lb), []).append((bb, lb))
    m_entries = []
    for ba, la in labeled:
        for bb, lb in by_target.get(dga.source(la), ()):
            if not lo <= ba.s + bb.s <= hi:
                continue
            vec = _vector_record(dga.products(la, lb), p, spell)
            if vec:
                m_entries.append({"inputs": [spell(la), spell(lb)],
                                  "output": vec})
    m_entries.sort(key=lambda e: e["inputs"])
    doc = _base_document("dg-algebra", command, params, parameters)
    doc.update({
        "window": [lo, hi],
        "name": dga.name,
        "unit": _vector_record(dga.unit, p, spell),
        "spaces": space_records(dga.space, spell),
        "operations": {"1": d_entries, "2": m_entries},
    })
    return finalize_document(doc)


def report_document(kind: str, command: str, params: GroupParams,
                    parameters: dict, records: list[dict],
                    extra: dict | None = None) -> dict:
    doc = _base_document(kind, command, params, parameters)
    doc["records"] = records
    doc["overall"] = ("pass" if all(r["verdict"] != "fail" for r in records)
                      else "fail")
    if extra:
        doc.update(extra)
    return finalize_document(doc)


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

def _render_table(rows: list[list[str]], header: list[str]) -> list[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*header).rstrip(),
             fmt.format(*("-" * w for w in widths)).rstrip()]
    lines.extend(fmt.format(*row).rstrip() for row in rows)
    return lines


def render_text(doc: dict) -> str:
    lines = []
    for key in ("kind", "command", "format_version", "prime"):
        lines.append(f"{key:<16}{doc[key]}")
    for key, value in sorted(doc["group"].items()):
        lines.append(f"group.{key:<10}{value}")
    for key in ("window", "arity_bound", "unit", "internal_scale", "name",
                "overall"):
        if key in doc:
            value = doc[key]
            if isinstance(value, list):
                value = " ".join(str(v) for v in value)
            lines.append(f"{key:<16}{value}")
    if "normalization" in doc:
        for key, value in sorted(doc["normalization"].items()):
            lines.append(f"normalized.{key:<12}{value}")
    p = doc["prime"]
    if "records" in doc:
        lines.append("")
        rows = [[r["name"], r["verdict"], r["expected"], r["got"]]
                for r in doc["records"]]
        lines.extend(_render_table(rows, ["check", "verdict", "expected",
                                          "got"]))
    if "admissible" in doc:
        lines.append("")
        rows = [[str(r["arity"]),
                 " ".join(str(e) for e in r["exponents"]),
                 str(r["target_exponent"]), str(r["power_excess"])]
                for r in doc["admissible"]]
        lines.extend(_render_table(
            rows, ["arity", "exponents", "target_e", "power_excess"]))
    if "spaces" in doc:
        lines.append("")
        rows = [[str(r["s"]), str(r["w"]), str(r["dim"]),
                 " ".join(r["labels"])] for r in doc["spaces"]]
        lines.extend(_render_table(rows, ["s", "w", "dim", "labels"]))
    if "operations" in doc:
        lines.append("")
        rows = []
        for n in sorted(doc["operations"], key=int):
            for entry in doc["operations"][n]:
                rows.append([f"m{n}", ", ".join(entry["inputs"]),
                             format_vector(entry["output"], p)])
        lines.extend(_render_table(rows, ["op", "inputs", "output"]))
    lines.append("")
    lines.append(f"content_hash    {doc['provenance']['content_hash']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# cache and output plumbing
# ---------------------------------------------------------------------------

def _atomic_write(path: str, data: str) -> None:
    """Write through a temporary file; an OSError is a ParameterError."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        if directory := os.path.dirname(path):
            os.makedirs(directory, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise ParameterError(f"cannot write {path}: {exc}") from exc
        raise


def _cache_dir(args) -> str:
    # an empty --cache-dir or AINF_CACHE_DIR is unset, not the working
    # directory
    return args.cache_dir or os.environ.get("AINF_CACHE_DIR") or ".cache"


@functools.cache
def _source_digest() -> str:
    """sha256 over the package's source files, read once per process."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _cache_key(command: str, parameters: dict) -> str:
    return _hash_payload({"command": command, "parameters": parameters,
                          "format_version": FORMAT_VERSION,
                          "version": __version__,
                          "source": _source_digest()})


def _refuse_float(text: str):
    raise ValueError(f"{text}: no document holds a float")


def _cache_load(path: str) -> dict | None:
    """The document cached at `path`, or None when the entry is missing
    or corrupted: unreadable, not JSON, holding a float that
    `canonical_json` would refuse, nested deeper than the parser or the
    hash check can recurse, or failing its content hash."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_refuse_float,
                            parse_constant=_refuse_float)
        return doc if document_hash_ok(doc) else None
    except (OSError, ValueError, RecursionError):
        return None


def run_with_cache(command: str, args, parameters: dict,
                   build: Callable[[], dict]) -> dict:
    if args.no_cache:
        return build()
    path = os.path.join(_cache_dir(args),
                        f"{command}-{_cache_key(command, parameters)[:32]}.json")
    doc = _cache_load(path)
    if doc is None:
        doc = build()
        _atomic_write(path, canonical_json(doc))
    return doc


# ---------------------------------------------------------------------------
# shared parameter resolution
# ---------------------------------------------------------------------------

def _window(args) -> tuple[int, int] | None:
    return None if args.window is None else tuple(args.window)


def _record(name: str, expected: str, got: str,
            verdict: str | None = None) -> dict:
    if verdict is None:
        verdict = "pass" if expected == got else "fail"
    return {"name": name, "expected": expected, "got": got,
            "verdict": verdict}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_model(args) -> dict:
    params = GroupParams(*args.pnq)
    window = _window(args) or params.cochain_run()[0]
    parameters = {"p": params.p, "n": params.n, "q": params.q,
                  "gamma": params.gamma, "window": list(window)}

    def build() -> dict:
        dga = build_end_dga(params, window=window)
        return dga_document("model", params, parameters, dga)

    return run_with_cache("model", args, parameters, build)


def _side(params: GroupParams, args) -> tuple[dict, Callable]:
    """The command's side (loops for `loops`, else cochain) resolved once
    on its window and arity options: its cache-key parameters and its
    pipeline run on them."""
    run, pipeline = ((params.loop_run, loop_minimal_model)
                     if args.command == "loops"
                     else (params.cochain_run, group_minimal_model))
    window, _, arity = run(_window(args), args.arity)
    return ({"p": params.p, "n": params.n, "q": params.q,
             "gamma": params.gamma, "window": list(window), "arity": arity},
            lambda: pipeline(params, window=window, arity_bound=arity))


def cmd_minimal_model(args) -> dict:
    """`transfer` (cochain side) and `loops` (loop side): the normalized
    minimal model and the generator scales that normalized it, keyed by
    the side's generator names."""
    params = GroupParams(*args.pnq)
    parameters, compute = _side(params, args)

    def build() -> dict:
        comp = compute()
        norm = comp.normalized()
        p = params.p
        x, t = comp.monomial(1, 0), comp.monomial(0, 1)
        extra = {"normalization": {
            "raw_coefficient": norm.raw_coefficient % p,
            f"{x}_scale": norm.x_scale % p,
            f"{t}_scale": norm.t_scale % p,
            "formal": norm.formal,
        }}
        return model_document(args.command, params, parameters, norm.model,
                              extra=extra)

    return run_with_cache(args.command, args, parameters, build)


def _sweep_records(model: AInfinityAlgebra, tag: str) -> list[dict]:
    records = []
    unital = strict_unitality_defects(model)
    records.append(_record(f"{tag} strict unitality", "0 defects",
                           "0 defects" if not unital
                           else f"{len(unital)} defects",
                           "pass" if not unital else "fail"))
    # with strict unitality certified, identities on unit-containing
    # words are formal consequences; excluding the degree-0 unit keeps
    # the sweep polynomial in the window depth
    exclude = (model.unit,) if not unital else ()
    for n, rep in stasheff_sweep(model, exclude=exclude).items():
        lost = f", {rep.truncated} truncated" if rep.truncated else ""
        if not rep.checked:
            # a sweep of no word shows nothing, so it is not a pass
            what = (f"{rep.truncated} words of arity {n} truncated by"
                    if rep.truncated else f"no word of arity {n} fits")
            got, verdict = (f"{what} the published window "
                            f"{model.space.window}", "skip")
        elif rep.ok():
            got, verdict = f"0 ({rep.checked} words{lost})", "pass"
        else:
            got, verdict = (f"{len(rep.nonzero)} defective words "
                            f"({rep.checked} words{lost})", "fail")
        records.append(_record(f"{tag} identity defect, arity {n}",
                               "0", got, verdict))
    return records


def _massey_records(comp: Computation, tag: str) -> list[dict]:
    """Below-order vanishing plus the ell-fold ratio cross-check."""
    p, ell = comp.params.p, comp.hp.ell
    cls, target = comp.monomial(0, 1), comp.monomial(comp.hp.h, 0)
    result = massey_versus_transfer(comp)
    # the lower powers are stages of the ell-fold defining system
    powers = result.report.powers
    records = []
    for i in range(3, ell):
        got = (format_vector(powers[i], p) if i in powers
               else f"obstructed at stage {max(powers)}")
        records.append(_record(
            f"{tag} {i}-fold Massey power of {cls}", "0", got))
    name = f"{tag} {ell}-fold Massey power vs transferred coefficient"
    expected = f"massey = {result.expected_ratio} * transfer"
    got = (f"massey {result.c_massey}, transfer {result.c_transfer}"
           if result.report.defined else "undefined")
    records.append(_record(name, expected, got,
                           "pass" if result.holds else "fail"))
    if result.report.defined and result.c_transfer % p:
        # Massey and transferred coefficients rescale identically under a
        # change of generators, so in the basis where the family
        # coefficient is epsilon(ell) the Massey power is measured by
        # (massey / transfer) * epsilon(ell) on the target monomial.
        value = (result.c_massey * pow(result.c_transfer, -1, p)
                 * epsilon_sign(ell)) % p
        records.append(_record(
            f"{tag} {ell}-fold Massey power, normalized basis",
            f"{(-1) % p}*{target}", f"{value}*{target}"))
    return records


def cmd_report(args) -> dict:
    """`check-stasheff` (identity sweeps) and `massey` (Massey powers):
    one battery of records on the transferred cochain model."""
    params = GroupParams(*args.pnq)
    parameters, compute = _side(params, args)
    comp = compute()
    if args.command == "massey":
        kind, records = "massey-report", _massey_records(comp, "cochain")
    else:
        kind, records = "check-report", _sweep_records(comp.model, "cochain")
    return report_document(kind, args.command, params, parameters, records)


def _classification(params: GroupParams,
                    shapes: list[AdmissibleShape]) -> list[dict]:
    """The three classification records, read off the admissible shapes
    (every shape admits every power tuple, see `admissible_shapes`)."""
    records = []
    arities = sorted({sh.arity for sh in shapes})
    records.append(_record("admissible arities", f"[{params.pn}]",
                           str(arities)))
    all_t = all(all(e == 1 for e in sh.exponents) for sh in shapes)
    records.append(_record("all admissible tuples are all-t inputs", "yes",
                           "yes" if all_t else "no"))
    targets = sorted({sh.target_exponent for sh in shapes})
    records.append(_record("admissible target t-exponent", "[0]",
                           str(targets)))
    return records


def cmd_classify(args) -> dict:
    params = GroupParams(*args.pnq)
    max_arity = params.cochain_run(arity=args.arity)[2]
    parameters = {"p": params.p, "n": params.n, "q": params.q,
                  "gamma": params.gamma, "max_arity": max_arity}
    shapes = admissible_shapes(params.hp, max_arity)
    return report_document("classify-report", "classify", params, parameters,
                           _classification(params, shapes),
                           extra={"admissible": [asdict(sh) for sh in shapes]})


# ---------------------------------------------------------------------------
# verify: the full battery
# ---------------------------------------------------------------------------

def _verify_head(tag: str, compute: Callable[[], Computation]) -> tuple[
        list[dict], Computation | None, AInfinityAlgebra | None]:
    """Gate and compare one side: its pattern record, and when the gate
    holds the table comparison, the computation and its normalized
    model."""
    try:
        comp = compute()
    except PatternMismatch as exc:
        return [_record(f"{tag} homology pattern", "closed-form dimensions",
                        str(exc), "fail")], None, None
    norm = comp.normalized().model
    diffs = compare_models(norm, comp.expected())
    return [
        _record(f"{tag} homology pattern", "closed-form dimensions",
                "match", "pass"),
        _record(f"{tag} operation tables vs closed form", "exact match",
                "exact match" if not diffs else f"{len(diffs)} mismatches"),
    ], comp, norm


def _family_record(comp: Computation, norm: AInfinityAlgebra) -> dict:
    """m_ell(e, ..., e) = epsilon(ell) x^h in the normalized model, for
    the side's polynomial generator x and exterior generator e; at
    ell = 2 (the exceptional loop ring) that is the product e * e."""
    p, ell = comp.params.p, comp.hp.ell
    e, target = comp.monomial(0, 1), comp.monomial(comp.hp.h, 0)
    name = (f"{e} * {e} (exceptional ring)" if ell == 2
            else f"m_{ell}({e},...,{e}) normalized")
    return _record(name, f"{epsilon_sign(ell) % p}*{target}",
                   format_vector(norm.op_value(ell, (e,) * ell), p))


def _verify_cochain(params: GroupParams,
                    compute: Callable[[], Computation]) -> list[dict]:
    records, comp, norm = _verify_head("cochain", compute)
    if comp is None:
        return records
    for i in range(3, params.pn):
        word = (comp.monomial(0, 1),) * i
        got = format_vector(norm.op_value(i, word), params.p)
        records.append(_record(f"m_{i}(t,...,t)", "0", got))
    records.append(_family_record(comp, norm))
    records.extend(_sweep_records(comp.model, "cochain"))
    records.extend(_massey_records(comp, "cochain"))
    records.extend(_classification(
        params, admissible_shapes(params.hp, params.pn + 1)))
    return records


def _verify_loops(params: GroupParams, window: tuple[int, int] | None,
                  arity: int | None) -> list[dict]:
    """The loop stage at the window and arity that `loop_run` resolved
    (None for both when q = 1, which skips it)."""
    p = params.p
    if params.q == 1:
        return [_record("loop pipeline", "q >= 2", "skipped (q = 1)", "skip")]
    words = loop_word_count(params)
    if words > VERIFY_LOOP_WORD_BUDGET:
        return [_record(
            "loop pipeline",
            f"cobar word space within budget ({VERIFY_LOOP_WORD_BUDGET})",
            f"skipped ({words} words; run `ainfbg loops` explicitly)",
            "skip")]
    records, comp, norm = _verify_head(
        "loop", lambda: loop_minimal_model(params, window=window,
                                           arity_bound=arity))
    if comp is None:
        return records
    records.append(_family_record(comp, norm))
    if comp.hp.ell == 2:
        higher = sum(1 for n, table in norm.ops.items() if n > 2
                     for vec in table.values() if any(c % p for c in vec.values()))
        records.append(_record("higher loop operations", "none",
                               "none" if not higher else f"{higher} entries"))
    records.extend(_sweep_records(comp.model, "loop"))
    records.extend(_massey_records(comp, "loop"))
    trip = poincare_roundtrip(comp)
    records.append(_record(
        "cobar of the loop model recovers the cochain pattern",
        "match", "match" if trip.blocks_checked > 0 else "no blocks checked",
        "pass" if trip.blocks_checked > 0 else "fail"))
    return records


def cmd_verify(args) -> dict:
    params = GroupParams(*args.pnq)
    parameters, compute = _side(params, args)
    window = arity = None
    if params.q > 1:
        window, _, arity = params.loop_run()
        parameters.update(loop_window=list(window), loop_arity=arity)

    def build() -> dict:
        records = _verify_cochain(params, compute)
        records.extend(_verify_loops(params, window, arity))
        return report_document("verify-report", "verify", params, parameters,
                               records)

    return run_with_cache("verify", args, parameters, build)


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

# subcommand -> (handler, help text, the options it reads); every
# subcommand takes the group as the positional `p n q`
COMMANDS = {
    "model": (cmd_model, "build and serialize the endomorphism DG-algebra",
              ("--window", "--out", "--json", "--cache-dir", "--no-cache")),
    "transfer": (cmd_minimal_model,
                 "transferred + normalized cochain minimal model",
                 ("--window", "--arity", "--out", "--json",
                  "--cache-dir", "--no-cache")),
    "check-stasheff": (cmd_report, "identity sweeps on the transferred model",
                       ("--window", "--arity", "--out", "--json")),
    "massey": (cmd_report, "Massey powers of t against the transferred family",
               ("--window", "--arity", "--out", "--json")),
    "classify": (cmd_classify,
                 "classify admissible higher operations by bigrading",
                 ("--arity", "--out", "--json")),
    "loops": (cmd_minimal_model, "transferred + normalized loop-space model",
              ("--window", "--arity", "--out", "--json",
               "--cache-dir", "--no-cache")),
    "verify": (cmd_verify,
               "run both pipelines with every oracle and cross-check",
               ("--window", "--arity", "--out", "--json",
                "--cache-dir", "--no-cache")),
}


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it refuses an argument it does not take with
    its own usage line, where argparse would hand the argument back to the
    top-level parser and print that usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: every parse starts
    from a new namespace, so no call carries an option over to the
    next."""
    parser = argparse.ArgumentParser(
        prog="ainfbg",
        description="minimal A-infinity models for the cohomology of "
                    "Z/p^n x| Z/q and their loop-space duals")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)
    options = {
        "--window": dict(type=int, nargs=2, metavar=("LO", "HI"),
                         help="homological-degree window override"),
        "--arity": dict(type=int,
                        help="arity bound (classify: maximal arity)"),
        "--out": dict(help="write the report to this path"),
        "--json": dict(action="store_true",
                       help="emit canonical JSON instead of text"),
        "--cache-dir": dict(help="cache directory (default: "
                                 "$AINF_CACHE_DIR or .cache)"),
        "--no-cache": dict(action="store_true",
                           help="bypass the document cache"),
    }
    for name, (fn, text, takes) in COMMANDS.items():
        cmd = sub.add_parser(name, help=text, allow_abbrev=False)
        cmd.add_argument("pnq", nargs=3, type=int,
                         help="the group Z/p^n x| Z/q as three integers "
                              "p n q")
        for option in takes:
            cmd.add_argument(option, **options[option])
        cmd.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = args.fn(args)
        rendering = canonical_json(doc) if args.json else render_text(doc)
        if args.out:
            _atomic_write(args.out, rendering)
    except ParameterError as exc:
        print(f"ainfbg: parameter error: {exc}", file=sys.stderr)
        return 2
    except TruncationExceeded as exc:
        print(f"ainfbg: truncation-window error: {exc}", file=sys.stderr)
        return 3
    except (PatternMismatch, ShapeMismatch, CertificationError) as exc:
        print(f"ainfbg: verification failure: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(f"wrote {args.out}\n" if args.out else rendering)
    return 1 if doc.get("overall") == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
