"""Command-line frontend: build models, run pipelines, emit stable reports.

Subcommands
-----------
model           build the endomorphism DG-algebra and serialize it
transfer        transferred + normalized minimal model on the cochain side
check-stasheff  identity sweeps on the transferred model
massey          Massey powers of t against the transferred family
classify        admissible higher-operation shapes from the bigrading
loops           transferred + normalized loop-space model (cobar side)
verify          the full battery: both pipelines, oracles, cross-checks

The side is data read off the computation (`hp`, `names`), not a code
path: `transfer` and `loops` share one model-document path,
`check-stasheff` and `massey` one report path, and the two stages of
`verify` one gate-and-compare head and family record.

Every command returns a JSON-compatible document rendered either as
key/value + table text or, under --json, as canonical JSON (sorted keys,
two-space indent).  Rerunning a command with identical inputs produces
byte-identical output; coefficients are always printed as canonical
residues in [0, p).  The heavy commands (model, transfer, loops, verify)
cache their documents under --cache-dir (default: $AINF_CACHE_DIR or
.cache/), keyed by a hash of (command, resolved parameters,
format_version, package version, digest of the package sources), so a
document made by other code is never replayed; a cached document whose
embedded content hash does not match is discarded and rebuilt.  All file
writes go through a temporary file and an atomic rename.

Exit codes: 0 success, 1 verification failure (including a document
whose `overall` is "fail"), 2 invalid parameters, 3 truncation-window
error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Callable

from . import __version__
from .ainf import (
    AdmissibleShape,
    AInfinityAlgebra,
    ShapeMismatch,
    admissible_shapes,
    epsilon_sign,
    monomial_label,
    stasheff_defect,
    strict_unitality_defects,
)
from .dga import CertificationError, massey_power
from .glin import GradedVectorSpace, TruncationExceeded
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

# verify skips its loop stage above this cobar word count (the dense
# block elimination behind the retraction is cubic in block size, and
# blocks grow with the word space); an explicit `ainfbg loops` run is
# never budgeted.
VERIFY_LOOP_WORD_BUDGET = 30_000


class ParameterError(ValueError):
    """Invalid or missing command-line parameters (exit code 2)."""


# ---------------------------------------------------------------------------
# canonical documents
# ---------------------------------------------------------------------------

def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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


def document_hash_ok(doc: dict) -> bool:
    prov = doc.get("provenance")
    if not isinstance(prov, dict) or "content_hash" not in prov:
        return False
    stored = prov["content_hash"]
    clone = json.loads(json.dumps(doc))
    clone["provenance"]["content_hash"] = ""
    return _hash_payload(clone) == stored


def format_vector(vec: dict[str, int], p: int) -> str:
    terms = [f"{c % p}*{lab}" for lab, c in sorted(vec.items()) if c % p]
    return " + ".join(terms) if terms else "0"


def space_records(space: GradedVectorSpace) -> list[dict]:
    recs = []
    for bd in sorted(space.bidegrees()):
        labels = space.labels(bd)
        if labels:
            recs.append({"s": bd.s, "w": bd.w, "dim": len(labels),
                         "labels": list(labels)})
    return recs


def _vector_record(vec: dict[str, int], p: int) -> dict[str, int]:
    return {lab: c % p for lab, c in sorted(vec.items()) if c % p}


def operation_records(model: AInfinityAlgebra) -> dict[str, list[dict]]:
    p = model.space.prime
    out: dict[str, list[dict]] = {}
    for n in sorted(model.ops):
        entries = []
        for word in sorted(model.ops[n]):
            vec = _vector_record(model.ops[n][word], p)
            if vec:
                entries.append({"inputs": list(word), "output": vec})
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
                   model: AInfinityAlgebra, *, extra: dict | None = None) -> dict:
    doc = _base_document("ainfinity-model", command, params, parameters)
    doc.update({
        "window": list(model.space.window),
        "arity_bound": model.arity_bound,
        "unit": model.unit,
        "internal_scale": model.internal_scale,
        "spaces": space_records(model.space),
        "operations": operation_records(model),
    })
    if extra:
        doc.update(extra)
    return finalize_document(doc)


def dga_document(command: str, params: GroupParams, parameters: dict,
                 dga) -> dict:
    """Serialize a DG-algebra: differential and product entries whose
    output bidegree lies in the window (absences there mean zero; pairs
    whose output leaves the window are not representable and are left
    out, which the grading makes unambiguous)."""
    p = dga.prime
    lo, hi = dga.space.window
    labeled = [(bd, lab) for bd in sorted(dga.space.bidegrees())
               for lab in dga.space.labels(bd)]
    d_entries = []
    for bd, lab in labeled:
        if not lo <= bd.s - 1 <= hi:
            continue
        vec = _vector_record(dga.diff(lab), p)
        if vec:
            d_entries.append({"inputs": [lab], "output": vec})
    m_entries = []
    for ba, la in labeled:
        for bb, lb in labeled:
            if not lo <= ba.s + bb.s <= hi:
                continue
            vec = _vector_record(dga.products(la, lb), p)
            if vec:
                m_entries.append({"inputs": [la, lb], "output": vec})
    m_entries.sort(key=lambda e: e["inputs"])
    doc = _base_document("dg-algebra", command, params, parameters)
    doc.update({
        "window": [lo, hi],
        "name": dga.name,
        "unit": _vector_record(dga.unit, p),
        "spaces": space_records(dga.space),
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
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _cache_dir(args) -> str:
    if args.cache_dir:
        return args.cache_dir
    return os.environ.get("AINF_CACHE_DIR", ".cache")


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


def _cache_load(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    if not document_hash_ok(doc):
        return None
    return doc


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

def _resolve_group(args) -> GroupParams:
    pnq = list(args.pnq)
    if len(pnq) > 3:
        raise ParameterError(f"at most three positional integers (p n q), "
                             f"got {pnq}")
    pnq += [None] * (3 - len(pnq))
    p = args.p if args.p is not None else pnq[0]
    n = args.n if args.n is not None else pnq[1]
    q = args.q if args.q is not None else pnq[2]
    missing = [name for name, v in (("p", p), ("n", n), ("q", q)) if v is None]
    if missing:
        raise ParameterError(f"missing group parameters: {' '.join(missing)}")
    try:
        return GroupParams(p, n, q, args.gamma)
    except ValueError as exc:
        raise ParameterError(str(exc)) from exc


def _window(args) -> tuple[int, int] | None:
    if args.window is None:
        return None
    lo, hi = args.window
    if lo > hi:
        raise ParameterError(f"empty window ({lo}, {hi})")
    return (lo, hi)


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
    params = _resolve_group(args)
    window = _window(args) or params.default_window()
    parameters = {"p": params.p, "n": params.n, "q": params.q,
                  "gamma": params.gamma, "window": list(window)}

    def build() -> dict:
        dga = build_end_dga(params, window=window)
        return dga_document("model", params, parameters, dga)

    return run_with_cache("model", args, parameters, build)


def _computation(params: GroupParams, args) -> Computation:
    """The command's side on its window and arity options: the loop
    pipeline for `loops`, the cochain one for every other command."""
    pipeline = (loop_minimal_model if args.command == "loops"
                else group_minimal_model)
    return pipeline(params, window=_window(args), arity_bound=args.arity)


def _transfer_parameters(params: GroupParams, args) -> dict:
    arity = args.arity or params.default_arity_bound()
    window = _window(args) or params.cochain_window(arity)
    return {"p": params.p, "n": params.n, "q": params.q,
            "gamma": params.gamma, "window": list(window), "arity": arity}


def _loop_parameters(params: GroupParams, args) -> dict:
    if params.q == 1:
        raise ParameterError("the loop pipeline needs q >= 2")
    arity = args.arity or params.loop_arity_bound()
    window = _window(args) or params.loop_window()
    return {"p": params.p, "n": params.n, "q": params.q,
            "gamma": params.gamma, "window": list(window), "arity": arity}


def cmd_minimal_model(args) -> dict:
    """`transfer` (cochain side) and `loops` (loop side): the normalized
    minimal model and the generator scales that normalized it, keyed by
    the side's generator names."""
    params = _resolve_group(args)
    parameters = (_loop_parameters if args.command == "loops"
                  else _transfer_parameters)(params, args)

    def build() -> dict:
        comp = _computation(params, args)
        norm = comp.normalized()
        p = params.p
        x, t = comp.names
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
    exclude = (model.unit,) if not unital and model.unit else ()
    for n in range(3, model.arity_bound + 1):
        rep = stasheff_defect(model, n, exclude=exclude)
        got = ("0" if rep.ok()
               else f"{len(rep.nonzero)} defective words")
        records.append(_record(f"{tag} identity defect, arity {n}",
                               "0", f"{got} ({rep.checked} words)",
                               "pass" if rep.ok() else "fail"))
    return records


def _massey_records(comp: Computation, tag: str) -> list[dict]:
    """Below-order vanishing plus the ell-fold ratio cross-check."""
    p, ell = comp.params.p, comp.hp.ell
    cls = monomial_label(0, 1, comp.names)
    target = monomial_label(comp.hp.h, 0, comp.names)
    records = []
    for i in range(3, ell):
        rep = massey_power(comp.con, cls, i)
        got = (format_vector(rep.value, p) if rep.defined
               else f"obstructed at stage {rep.obstruction_stage}")
        records.append(_record(
            f"{tag} {i}-fold Massey power of {cls}", "0", got))
    result = massey_versus_transfer(comp)
    ratio = (-epsilon_sign(ell)) % p
    name = f"{tag} {ell}-fold Massey power vs transferred coefficient"
    expected = f"massey = {ratio} * transfer"
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
    params = _resolve_group(args)
    parameters = _transfer_parameters(params, args)
    comp = _computation(params, args)
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
    params = _resolve_group(args)
    max_arity = args.arity or params.pn + 1
    if max_arity < params.pn:
        raise ParameterError(f"maximal arity {max_arity} is below the family "
                             f"arity {params.pn}")
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
    e = monomial_label(0, 1, comp.names)
    target = monomial_label(comp.hp.h, 0, comp.names)
    name = (f"{e} * {e} (exceptional ring)" if ell == 2
            else f"m_{ell}({e},...,{e}) normalized")
    return _record(name, f"{epsilon_sign(ell) % p}*{target}",
                   format_vector(norm.op_value(ell, (e,) * ell), p))


def _verify_cochain(params: GroupParams, args) -> list[dict]:
    records, comp, norm = _verify_head(
        "cochain", lambda: _computation(params, args))
    if comp is None:
        return records
    for i in range(3, params.pn):
        word = (monomial_label(0, 1),) * i
        got = format_vector(norm.op_value(i, word), params.p)
        records.append(_record(f"m_{i}(t,...,t)", "0", got))
    records.append(_family_record(comp, norm))
    records.extend(_sweep_records(comp.model, "cochain"))
    records.extend(_massey_records(comp, "cochain"))
    records.extend(_classification(
        params, admissible_shapes(params.hp, params.pn + 1)))
    return records


def _verify_loops(params: GroupParams) -> list[dict]:
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
        "loop", lambda: loop_minimal_model(params))
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
    params = _resolve_group(args)
    parameters = _transfer_parameters(params, args)
    if params.q > 1:
        parameters["loop_window"] = list(params.loop_window())
        parameters["loop_arity"] = params.loop_arity_bound()

    def build() -> dict:
        records = _verify_cochain(params, args)
        records.extend(_verify_loops(params))
        return report_document("verify-report", "verify", params, parameters,
                               records)

    return run_with_cache("verify", args, parameters, build)


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "model": cmd_model,
    "transfer": cmd_minimal_model,
    "check-stasheff": cmd_report,
    "massey": cmd_report,
    "classify": cmd_classify,
    "loops": cmd_minimal_model,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ainfbg",
        description="minimal A-infinity models for the cohomology of "
                    "Z/p^n x| Z/q and their loop-space duals")
    sub = parser.add_subparsers(dest="command", required=True)
    help_text = {
        "model": "build and serialize the endomorphism DG-algebra",
        "transfer": "transferred + normalized cochain minimal model",
        "check-stasheff": "identity sweeps on the transferred model",
        "massey": "Massey powers of t against the transferred family",
        "classify": "classify admissible higher operations by bigrading",
        "loops": "transferred + normalized loop-space model",
        "verify": "run both pipelines with every oracle and cross-check",
    }
    for name, fn in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text[name])
        cmd.add_argument("pnq", nargs="*", type=int, metavar="P N Q",
                         help="group parameters (alternative to --p/--n/--q)")
        cmd.add_argument("--p", type=int, help="odd prime p")
        cmd.add_argument("--n", type=int, help="exponent n of the p-group")
        cmd.add_argument("--q", type=int, help="order q of the acting group")
        cmd.add_argument("--gamma", type=int,
                         help="unit of order q mod p^n (default: smallest)")
        cmd.add_argument("--window", type=int, nargs=2, metavar=("LO", "HI"),
                         help="homological-degree window override")
        cmd.add_argument("--arity", type=int,
                         help="arity bound (classify: maximal arity)")
        cmd.add_argument("--out", help="write the report to this path")
        cmd.add_argument("--json", action="store_true",
                         help="emit canonical JSON instead of text")
        cmd.add_argument("--cache-dir",
                         help="cache directory (default: $AINF_CACHE_DIR "
                              "or .cache)")
        cmd.add_argument("--no-cache", action="store_true",
                         help="bypass the document cache")
        cmd.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = args.fn(args)
    except ValueError as exc:
        print(f"ainfbg: parameter error: {exc}", file=sys.stderr)
        return 2
    except TruncationExceeded as exc:
        print(f"ainfbg: truncation-window error: {exc}", file=sys.stderr)
        return 3
    except (PatternMismatch, ShapeMismatch, CertificationError) as exc:
        print(f"ainfbg: verification failure: {exc}", file=sys.stderr)
        return 1
    rendering = canonical_json(doc) if args.json else render_text(doc)
    if args.out:
        _atomic_write(args.out, rendering)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(rendering)
    return 1 if doc.get("overall") == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
