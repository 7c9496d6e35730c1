"""Command-line interface: exit codes, document serialization, caching.

Exit-code contract: 0 success, 1 verification failure, 2 invalid
parameters, 3 truncation-window error.  Reruns with identical inputs
must produce byte-identical output, JSON documents carry a content hash
over their own canonical form, and cached documents failing that hash
are rebuilt.
"""

import copy
import itertools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ainfbg.ainf import (
    AdmissibleOp,
    AInfinityAlgebra,
    DefectReport,
    classify_admissible,
)
from ainfbg.cli import (
    COMMANDS,
    FORMAT_VERSION,
    _cache_load,
    _sweep_records,
    build_parser,
    canonical_json,
    document_hash_ok,
    finalize_document,
    main,
    model_document,
)
from ainfbg.glin import Bidegree, GradedVectorSpace, ParameterError
from ainfbg.grp import GroupParams, expected_minimal_model


@pytest.fixture(autouse=True)
def _no_ambient_cache(monkeypatch, tmp_path):
    # keep tests away from the working directory's .cache and from any
    # cache directory configured in the environment
    monkeypatch.setenv("AINF_CACHE_DIR", str(tmp_path / "ambient-cache"))


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CACHING = ("model", "transfer", "loops", "verify")


def uncached(command: str) -> list[str]:
    """--no-cache for a command that caches; the others refuse it."""
    return ["--no-cache"] if command in CACHING else []


def reference_canonical_json(doc) -> str:
    """The stdlib's rendering of canonical JSON, the reference that
    `canonical_json` must match byte for byte."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_canonical(out: str) -> dict:
    """A command's --json output parsed, after checking that it is the
    reference rendering of what it parses to."""
    doc = json.loads(out)
    assert out == reference_canonical_json(doc)
    return doc


def model_from_document(doc: dict) -> AInfinityAlgebra:
    """Inverse of model_document's model part (round-trip stable)."""
    if doc.get("kind") != "ainfinity-model":
        raise ValueError(f"not a model document: kind={doc.get('kind')!r}")
    blocks = {Bidegree(r["s"], r["w"]): list(r["labels"])
              for r in doc["spaces"]}
    space = GradedVectorSpace(prime=doc["prime"],
                              window=tuple(doc["window"]), blocks=blocks)
    ops = {int(n): {tuple(e["inputs"]): {lab: int(c)
                                         for lab, c in e["output"].items()}
                    for e in entries}
           for n, entries in doc["operations"].items()}
    return AInfinityAlgebra(space=space, ops=ops,
                            arity_bound=doc["arity_bound"],
                            unit=doc["unit"],
                            internal_scale=doc["internal_scale"])


# ---------------------------------------------------------------------------
# the end-to-end verify battery
# ---------------------------------------------------------------------------

def test_verify_exceptional_case(capsys):
    code, out, _ = run_cli(capsys, "verify", 3, 1, 2, "--no-cache")
    assert code == 0
    assert "overall         pass" in out
    # normalized family operation m_3(t,t,t) = -x^2 and the exceptional
    # loop ring relation xi^2 = -tau^3, as canonical residues mod 3
    assert "2*x^2" in out
    assert "2*tau^3" in out


def test_verify_generic_case(capsys):
    code, out, _ = run_cli(capsys, "verify", 5, 1, 2, "--no-cache")
    assert code == 0
    assert "overall         pass" in out
    assert "1*x^3" in out      # m_5(t,...,t) = +x^3
    assert "4*tau^5" in out    # loop m_3(xi,xi,xi) = -tau^5


def test_verify_without_loop_side(capsys):
    code, out, _ = run_cli(capsys, "verify", 3, 1, 1, "--no-cache")
    assert code == 0
    assert "skipped (q = 1)" in out


# ---------------------------------------------------------------------------
# parameter validation (exit code 2)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pnq", [(4, 1, 2), (3, 0, 2), (3, 1, 5)])
def test_invalid_group_parameters(capsys, pnq):
    code, _, err = run_cli(capsys, "verify", *pnq)
    assert code == 2
    assert "parameter error" in err


def test_missing_parameters(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "verify", 3)
    assert exc.value.code == 2
    assert "the following arguments are required: pnq" in \
        capsys.readouterr().err


# Every option string a subcommand might be given, each with a value to
# parse; no subcommand takes --p/--n/--q or --gamma, since only the
# positional `p n q` sets the group.
ALL_OPTIONS = {"--p": ["3"], "--n": ["1"], "--q": ["2"], "--gamma": ["2"],
               "--window": ["-8", "1"], "--arity": ["4"], "--out": ["r.txt"],
               "--json": [], "--cache-dir": ["cache"], "--no-cache": []}
COMMON = {"--out", "--json"}
CACHE = {"--cache-dir", "--no-cache"}
TAKES = {
    "model": COMMON | {"--window"} | CACHE,
    "transfer": COMMON | {"--window", "--arity"} | CACHE,
    "check-stasheff": COMMON | {"--window", "--arity"},
    "massey": COMMON | {"--window", "--arity"},
    "classify": COMMON | {"--arity"},
    "loops": COMMON | {"--window", "--arity"} | CACHE,
    "verify": COMMON | {"--window", "--arity"} | CACHE,
}


def test_each_subcommand_takes_exactly_its_options(capsys):
    """The parser accepts an option exactly where its subcommand reads it
    and refuses any other with argparse's usage error (exit 2), before
    any work: 41 settable slots counting `p n q` as one."""
    assert sum(1 + len(opts) for opts in TAKES.values()) == 41
    assert set(TAKES) == set(COMMANDS)
    assert {c for c, opts in TAKES.items() if "--no-cache" in opts} == \
        set(CACHING)
    parser = build_parser()
    for command, (option, values) in itertools.product(TAKES,
                                                       ALL_OPTIONS.items()):
        argv = [command, "3", "1", "2", option, *values]
        if option in TAKES[command]:
            assert parser.parse_args(argv).command == command
            continue
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert f"usage: ainfbg {command} " in err and \
            f"unrecognized arguments: {option}" in err, argv
    for count in (["3", "1"], ["3", "1", "2", "4"], ["3", "one", "2"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["verify", *count])
        assert exc.value.code == 2, count


@pytest.mark.parametrize("argv", [
    "classify 3 1 2 --window 5 10 --json --no-cache",
    "model 3 1 2 --arity 0",
])
def test_an_option_the_command_ignores_is_refused(capsys, argv):
    """The subcommand's own parser refuses the option, so the message shows
    the options that subcommand takes."""
    words = argv.split()
    command, option = words[0], words[4]
    with pytest.raises(SystemExit) as exc:
        main(words)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"usage: ainfbg {command} ")
    assert f"ainfbg {command}: error: unrecognized arguments: {option}" in \
        captured.err
    assert "Traceback" not in captured.err


def test_a_refused_option_after_a_run_shows_the_subcommand_usage(capsys):
    """The parser is built once per process; a refusal after a successful
    call still prints the subcommand's own usage and exits 2."""
    assert build_parser() is build_parser()
    code, out, _ = run_cli(capsys, "classify", 3, 1, 2, "--json")
    assert code == 0 and json.loads(out)["overall"] == "pass"
    with pytest.raises(SystemExit) as exc:
        main(["classify", "3", "1", "2", "--window", "5", "10"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage: ainfbg classify ")
    assert "unrecognized arguments: --window 5 10" in captured.err


def test_no_option_carries_over_to_the_next_call(capsys, tmp_path):
    """A --json --out call, then a plain call of the same command in the
    same process: the second prints text to standard output, the same
    text as a first call would."""
    out_path = tmp_path / "classify.json"
    code, out, _ = run_cli(capsys, "classify", 3, 1, 2, "--json", "--out",
                           out_path)
    assert code == 0 and out == f"wrote {out_path}\n"
    assert json.loads(out_path.read_text())["overall"] == "pass"
    code, text, _ = run_cli(capsys, "classify", 3, 1, 2)
    assert code == 0 and not text.startswith("{")
    assert "overall" in text
    args = build_parser().parse_args(["classify", "3", "1", "2"])
    assert (args.json, args.out, args.arity) == (False, None, None)
    out_path.unlink()
    assert run_cli(capsys, "classify", 3, 1, 2) == (0, text, "")
    assert not out_path.exists()


def test_loops_needs_q_at_least_two(capsys):
    code, _, err = run_cli(capsys, "loops", 3, 1, 1)
    assert code == 2
    assert "q >= 2" in err


@pytest.mark.parametrize("command", ["transfer", "loops", "verify"])
def test_cache_state_does_not_change_the_exit_code(capsys, tmp_path,
                                                   command):
    """--arity 0 is resolved before the cache lookup: it is refused cold
    and warm alike, never answered from the default document."""
    cache = ["--cache-dir", tmp_path / "cache"]
    code, _, _ = run_cli(capsys, command, 3, 1, 2, *cache)
    assert code == 0
    for flags in (["--no-cache"], cache):
        code, _, err = run_cli(capsys, command, 3, 1, 2, "--arity", 0, *flags)
        assert code == 2, flags
        assert "parameter error" in err


# ---------------------------------------------------------------------------
# truncation windows (exit code 3)
# ---------------------------------------------------------------------------

def test_truncation_window_exit_code(capsys):
    # the window holds the homology pattern but not the 3-fold Massey
    # staircase, whose final product lands in degree -8
    code, _, err = run_cli(capsys, "massey", 3, 1, 2, "--window", -7, 1)
    assert code == 3
    assert "truncation-window error" in err


COCHAIN_COMMANDS = ("transfer", "check-stasheff", "massey", "verify")


@pytest.mark.parametrize("command", COCHAIN_COMMANDS + ("loops",))
@pytest.mark.parametrize("window", [(-30, -1), (-30, 0), (5, 10)])
def test_window_without_the_unit_is_refused_by_name(capsys, command, window):
    """A published window that misses the unit's degree 0 (on the loop
    side, one that does not start at 0) is refused before any work, with
    a message that names the window."""
    code, _, err = run_cli(capsys, command, 3, 1, 2, "--window", *window,
                           *uncached(command))
    assert code in (2, 3)
    assert f"window ({window[0]}, {window[1]})" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("window", [(-30, -1), (5, 10)])
def test_a_model_window_without_degree_0_is_refused_by_name(capsys, window):
    """`model` publishes its whole window, so it takes any window that
    holds the unit's degree 0, and refuses every other with a parameter
    error that names it, before any algebra is built."""
    code, out, err = run_cli(capsys, "model", 3, 1, 2, "--window", *window,
                             "--json", "--no-cache")
    assert (code, out) == (2, "")
    assert f"window ({window[0]}, {window[1]})" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", COCHAIN_COMMANDS + ("loops", "model"))
def test_a_reversed_window_is_a_parameter_error(capsys, command):
    """A window whose floor is above its ceiling is refused by each run's
    own window checks, with exit 2 and the window named."""
    low = 0 if command == "loops" else 1
    code, out, err = run_cli(capsys, command, 3, 1, 2, "--window", low, -1,
                             *uncached(command))
    assert (code, out) == (2, "")
    assert f"window ({low}, -1)" in err


def sweep_exit_codes(capsys, command, pnq, windows):
    """Exit codes of one command over windows; a passing `transfer` or
    `loops` document must not call a model formal, a passing
    `check-stasheff` or `verify` document must not pass a sweep of no
    word, and every failure is reported by the CLI, never by an escaping
    exception."""
    codes = {}
    for window in windows:
        codes[window], out, err = run_cli(capsys, command, *pnq, "--window",
                                          *window, "--json",
                                          *uncached(command))
        assert codes[window] == 0 or "ainfbg: " in err, (command, window)
        if codes[window] == 0 and command in ("transfer", "loops"):
            assert not json.loads(out)["normalization"]["formal"], window
        if codes[window] == 0 and command in ("check-stasheff", "verify"):
            empty = [r["name"] for r in json.loads(out)["records"]
                     if r["verdict"] == "pass" and "(0 words)" in r["got"]]
            assert not empty, (command, window, empty)
    assert set(codes.values()) <= {0, 2, 3}, (command, codes)
    return codes


@pytest.mark.parametrize("pnq", [(3, 1, 1), (3, 1, 2), (5, 1, 2)])
def test_massey_window_floor_sweep(capsys, pnq):
    """Every command agrees on the window: one whose published part
    misses x, t or x^h (loop side: tau, xi, tau^(p^n)) exits 3, never 0
    with a model read as formal, a sweep of nothing, or an exception, and
    never 1 (below the published floor the homology is truncation junk,
    not a class).  The cochain commands pass on the same floors."""
    floors = range(-20, 1)
    passing_floors = set()
    for command in COCHAIN_COMMANDS:
        codes = sweep_exit_codes(capsys, command, pnq,
                                 [(lo, 1) for lo in floors])
        passing = [lo for (lo, _), code in codes.items() if code == 0]
        assert passing == list(range(-20, passing[-1] + 1)), command
        assert codes[passing[-1] + 1, 1] == 3, command
        passing_floors.add(tuple(passing))
    assert len(passing_floors) == 1
    if pnq[2] >= 2:
        codes = sweep_exit_codes(capsys, "loops", pnq,
                                 [(0, hi) for hi in range(1, 16)])
        passing = [hi for (_, hi), code in codes.items() if code == 0]
        assert passing == list(range(passing[0], 16))
        assert codes[0, passing[0] - 1] == 3


@pytest.mark.parametrize("command, window", [
    *((command, (-9, 1)) for command in COCHAIN_COMMANDS),
    ("loops", (0, 1)), ("loops", (0, 6))])
def test_a_refused_window_builds_no_algebra(capsys, monkeypatch, command,
                                            window):
    """A window whose published part misses x^2 (cochain side) or tau^3
    (loop side; at (0, 1) also tau and xi) is refused from degrees alone:
    no end-DGA or cobar is built and no cache is read."""
    from ainfbg import cli, koszul, transfer

    def built(*args, **kwargs):
        raise AssertionError("reached past the window gate")

    monkeypatch.setattr(transfer, "build_end_dga", built)
    monkeypatch.setattr(koszul, "cobar", built)
    monkeypatch.setattr(cli, "run_with_cache", built)
    code, _, err = run_cli(capsys, command, 3, 1, 2, "--window", *window)
    assert code == 3
    assert "truncation-window error" in err
    assert f"window ({window[0]}, {window[1]})" in err


@pytest.mark.parametrize("pnq", [(3, 1, 1), (3, 1, 2), (5, 1, 2)])
def test_arity_below_the_family_is_a_parameter_error(capsys, pnq):
    """An arity bound that cannot reach the family arity (p^n on the
    cochain side, h on the loop side) is rejected up front, not answered
    from the arities it did compute."""
    hp = GroupParams(*pnq).hp
    runs = [(command, hp.ell - 1)
            for command in ("transfer", "check-stasheff", "verify")]
    if pnq[2] >= 2:
        runs.append(("loops", hp.loop_dual().ell - 1))
    for command, arity in runs:
        code, _, err = run_cli(capsys, command, *pnq, "--arity", arity,
                               *uncached(command))
        assert code == 2, (command, arity)
        assert "parameter error" in err


def test_certification_failure_exit_code(capsys, monkeypatch):
    from ainfbg import cli
    from ainfbg.dga import CertificationError

    def uncertified(*args, **kwargs):
        raise CertificationError("homotopy identity fails at (0, 0)")

    monkeypatch.setattr(cli, "group_minimal_model", uncertified)
    code, _, err = run_cli(capsys, "transfer", 3, 1, 2, "--no-cache")
    assert code == 1
    assert "verification failure" in err


def test_a_pattern_mismatch_fails_the_verify_document(capsys, monkeypatch):
    """A cochain side that fails its pattern gate writes a failed pattern
    record and no table comparison; the document fails and exits 1."""
    from ainfbg import cli
    from ainfbg.transfer import PatternMismatch

    def mismatched(*args, **kwargs):
        raise PatternMismatch("dimension 2 != 1 at bidegree (0, 0)")

    monkeypatch.setattr(cli, "group_minimal_model", mismatched)
    code, out, _ = run_cli(capsys, "verify", 3, 1, 2, "--json", "--no-cache")
    assert code == 1
    assert '"overall": "fail"' in out
    records = {r["name"]: r for r in json.loads(out)["records"]}
    assert records["cochain homology pattern"] == {
        "name": "cochain homology pattern",
        "expected": "closed-form dimensions",
        "got": "dimension 2 != 1 at bidegree (0, 0)", "verdict": "fail"}
    assert "cochain operation tables vs closed form" not in records


def test_a_defective_sweep_is_a_fail_record():
    """One product of the (3,1,2) closed form moved off its value breaks
    the arity-3 identity on some word: the sweep records a fail."""
    model = expected_minimal_model(GroupParams(3, 1, 2))
    m2 = dict(model.ops[2])
    word = next(w for w in sorted(m2) if model.unit not in w)
    m2[word] = {lab: 2 * c % 3 for lab, c in m2[word].items()}
    records = _sweep_records(replace(model, ops={**model.ops, 2: m2}), "test")
    verdicts = {r["name"]: r["verdict"] for r in records}
    assert verdicts["test strict unitality"] == "pass"
    assert verdicts["test identity defect, arity 3"] == "fail"


def test_a_sweep_record_reports_its_truncated_words(monkeypatch):
    """A truncated word is counted, never read as zero: a record names
    the truncated words beside the checked ones, and a sweep that only
    truncates is a skip that says so."""
    from ainfbg import cli

    model = expected_minimal_model(GroupParams(3, 1, 2))
    sweep = {3: DefectReport(3, 7, 2, {}), 4: DefectReport(4, 5, 0, {}),
             5: DefectReport(5, 6, 1, {("t", "t"): {"x": 1}}),
             6: DefectReport(6, 0, 4, {}), 7: DefectReport(7, 0, 0, {})}
    monkeypatch.setattr(cli, "stasheff_sweep", lambda *a, **k: sweep)
    window = model.space.window
    got = {r["name"]: (r["got"], r["verdict"])
           for r in _sweep_records(model, "test")}
    assert [got[f"test identity defect, arity {n}"] for n in sweep] == [
        ("0 (7 words, 2 truncated)", "pass"),
        ("0 (5 words)", "pass"),
        ("1 defective words (6 words, 1 truncated)", "fail"),
        (f"4 words of arity 6 truncated by the published window {window}",
         "skip"),
        (f"no word of arity 7 fits the published window {window}", "skip")]


def test_internal_value_error_is_not_a_parameter_error(capsys, monkeypatch):
    """Only ParameterError means exit 2: a ValueError raised inside a
    pipeline is an internal error and escapes `main` as itself."""
    from ainfbg import cli
    from ainfbg.glin import ParameterError

    def inhomogeneous(*args, **kwargs):
        raise ValueError("vector is not homogeneous: bidegrees {(0, 0)}")

    monkeypatch.setattr(cli, "group_minimal_model", inhomogeneous)
    with pytest.raises(ValueError, match="not homogeneous") as exc:
        main(["transfer", "3", "1", "2", "--no-cache"])
    assert not isinstance(exc.value, ParameterError)
    assert "parameter error" not in capsys.readouterr().err


def test_singular_block_in_contraction_is_a_certification_failure(
        capsys, monkeypatch):
    """Boundaries that lose rank on the free columns leave no splitting
    basis; inside contraction that is a failed certification (exit 1),
    not a parameter error."""
    from ainfbg import dga

    eliminate = dga._eliminate

    def rank_deficient(rows, p, ncols, *, back):
        # the split reduces [B | I]: B's last row loses its entries
        if rows:
            rows[-1] = {j: v for j, v in rows[-1].items() if j >= ncols}
        return eliminate(rows, p, ncols, back=back)

    monkeypatch.setattr(dga, "_eliminate", rank_deficient)
    code, _, err = run_cli(capsys, "transfer", 3, 1, 2, "--no-cache")
    assert code == 1
    assert "verification failure" in err
    assert "not invertible" in err


# ---------------------------------------------------------------------------
# document serialization
# ---------------------------------------------------------------------------

def test_json_output_is_byte_deterministic(capsys):
    runs = [run_cli(capsys, "transfer", 3, 1, 2, "--json", "--no-cache")
            for _ in range(2)]
    assert runs[0] == runs[1]
    code, out, _ = runs[0]
    assert code == 0
    doc = parse_canonical(out)
    assert doc["format_version"] == FORMAT_VERSION
    assert document_hash_ok(doc)


# keys and strings with what JSON must escape (quotes, backslashes,
# control characters) and what ensure_ascii escapes (non-ASCII, astral)
JSON_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t aZ~é€\U0001f600')
                    | st.characters(), max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_TEXT,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_canonical_json_matches_the_reference(doc):
    assert canonical_json(doc) == reference_canonical_json(doc)


@pytest.mark.parametrize("doc", [
    {"a": 1.0}, {"a": [1, {"b": 0.5}]}, {1: "a"}, {"a": {2: []}},
    {"a": np.int64(1)}, [np.bool_(True)], {"a": {1, 2}}])
def test_canonical_json_refuses_what_no_document_holds(doc):
    with pytest.raises(TypeError):
        canonical_json(doc)


# The full content hashes of the acceptance documents on the two smallest
# tuples.  Any change to a split, a table, a sweep count or the document
# format moves them; a change that must move them says so and updates this.
ACCEPTANCE_HASHES = {
    ("verify", (3, 1, 2)):
        "a3fa8b59d131af89ab5dcf7be85062ca4a7636f184f1afedfed4810418a6b90f",
    ("transfer", (3, 1, 2)):
        "7a468841ca224bf1e7b964da737d35b609b3ccbca3de3a27b99039d5edefcfb8",
    ("loops", (3, 1, 2)):
        "91bd79625df7e805e8fb058c77d916957a74fd7db1a252479ae08423b2bdde5d",
    ("verify", (5, 1, 2)):
        "956781abd01bcef08dd85fd002f5d16e0aab4c5f619dc16fe8919b3977be950a",
    ("transfer", (5, 1, 2)):
        "c7a6d5e6c553a01cd102d29a80be1f97df63c163fc1a0b6120defc4fbc32c260",
    ("loops", (5, 1, 2)):
        "3e7d93c3a797b56f65b4be02de0bc2aba6d9bb68132b3d40f03dcbefc78282cd",
}


def test_acceptance_content_hashes_are_pinned(capsys):
    got = {}
    for command, pnq in ACCEPTANCE_HASHES:
        code, out, _ = run_cli(capsys, command, *pnq, "--json", "--no-cache")
        assert code == 0, (command, pnq)
        got[command, pnq] = parse_canonical(out)["provenance"]["content_hash"]
    assert got == ACCEPTANCE_HASHES


# The census: the content hash of `verify --json --no-cache` on each of the
# 41 valid (p, n, q) with p^n <= 27 (GroupParams refuses p = 2).  CI runs
# all 41; tier-1 runs the 21 that verify in under a second in process on a
# 2-core x86_64 machine, about 7 s together.
CENSUS_HASHES = json.loads(
    Path(__file__).with_name("census_hashes.json").read_text())
FAST_CENSUS = ["3 1 1", "3 1 2", "3 2 1", "3 2 2", "5 1 1", "5 1 2", "5 1 4",
               "7 1 1", "7 1 2", "7 1 3", "7 1 6", "11 1 1", "11 1 5",
               "13 1 1", "13 1 2", "13 1 3", "13 1 4", "13 1 6", "17 1 2",
               "17 1 4", "19 1 3"]


def test_the_census_lists_every_valid_group_up_to_27():
    valid = []
    for p, n, q in itertools.product(range(2, 28), range(1, 5), range(1, 27)):
        if p ** n <= 27:
            try:
                GroupParams(p, n, q)
            except ParameterError:
                continue
            valid.append(f"{p} {n} {q}")
    assert len(valid) == 41
    assert sorted(valid) == sorted(CENSUS_HASHES)


@pytest.mark.parametrize("pnq", FAST_CENSUS)
def test_census_content_hash(capsys, pnq):
    code, out, _ = run_cli(capsys, "verify", *pnq.split(), "--json",
                           "--no-cache")
    assert code == 0
    doc = parse_canonical(out)
    assert doc["overall"] == "pass"
    assert doc["provenance"]["content_hash"] == CENSUS_HASHES[pnq]


def test_verify_11_1_2_content_hash_is_pinned(capsys):
    """A p^n = 11 tuple outside the fast census: the counted identity
    sweeps over 84,285 words, and the loop stage on 85,626 cobar words,
    within VERIFY_LOOP_WORD_BUDGET."""
    code, out, _ = run_cli(capsys, "verify", 11, 1, 2, "--json", "--no-cache")
    assert code == 0
    doc = parse_canonical(out)
    assert doc["overall"] == "pass"
    assert doc["provenance"]["content_hash"] == CENSUS_HASHES["11 1 2"]


def test_verify_skips_a_loop_stage_over_the_word_budget(capsys, monkeypatch):
    from ainfbg import cli

    def no_cobar(*args, **kwargs):
        raise AssertionError("a budgeted loop stage built its cobar")

    monkeypatch.setattr(cli, "VERIFY_LOOP_WORD_BUDGET", 188)
    monkeypatch.setattr(cli, "loop_minimal_model", no_cobar)
    code, out, _ = run_cli(capsys, "verify", 3, 1, 2, "--json", "--no-cache")
    assert code == 0
    loop = [r for r in json.loads(out)["records"]
            if r["name"] == "loop pipeline"]
    assert loop == [{
        "name": "loop pipeline",
        "expected": "cobar word space within budget (188)",
        "got": "skipped (189 words; run `ainfbg loops` explicitly)",
        "verdict": "skip"}]


# loops on the p^n = 9 tuple: 18,560 cobar words up to degree 26, one
# above the published ceiling 25.
LOOPS_3_2_2_HASH = (
    "5a01dca03ec7989fd012ba7279a45e799d44b8f7d5dcdf45e91a972fa7931587")


def test_loops_3_2_2_content_hash_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "loops", 3, 2, 2, "--json", "--no-cache")
    assert code == 0
    doc = parse_canonical(out)
    assert doc["provenance"]["parameters"]["window"] == [0, 26]
    assert doc["provenance"]["content_hash"] == LOOPS_3_2_2_HASH


# transfer on a p^2 tuple: 170,068 nonzero end-DGA products in the
# transfer, each multiplied only on a composable label pair.
TRANSFER_5_2_2_HASH = (
    "9ac42f7541ec8c6f370283f4053cce76b3463677cebde2de51333d0fd45dbac9")


def test_transfer_5_2_2_content_hash_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "transfer", 5, 2, 2, "--json",
                           "--no-cache")
    assert code == 0
    doc = parse_canonical(out)
    assert doc["provenance"]["content_hash"] == TRANSFER_5_2_2_HASH


# transfer on the p^n = 49 tuple: too slow for tier 1, so the CI workflow
# runs it once and compares its content hash with this one.
TRANSFER_7_2_2_HASH = (
    "a9f22635456a553a63e13b566b01fe39b4035581b6b795a39923a2a0e4992c0c")


# The full content hashes of the two cochain reports, a DG-algebra
# document and the classification shapes.  Any change to a record, a
# table or the document format moves them.
REPORT_HASHES = {
    ("check-stasheff", 3, 1, 2):
        "4a4122292cf9c7363e57e8294b05aea3b707b84d6be61179e4bde0926d957c60",
    ("massey", 3, 1, 2):
        "a89e68781b4b3a9152faa61feb99a6aa4a85629ef7efea70e06a828dfcb78577",
    ("model", 3, 1, 1, "--window", -8, 1):
        "c49dc08c36e732e5323b0a50501b7cb7ec6270212f72f925008ab3105c0d3173",
    ("classify", 3, 1, 2):
        "517dc3338800169a8c7282bcc9d4899cb1debf325743a397bb359e15403e2f84",
}


def test_report_content_hashes_are_pinned(capsys):
    got = {}
    for argv in REPORT_HASHES:
        code, out, _ = run_cli(capsys, *argv, "--json", *uncached(argv[0]))
        assert code == 0, argv
        got[argv] = parse_canonical(out)["provenance"]["content_hash"]
    assert got == REPORT_HASHES


def test_model_document_round_trips(capsys):
    _, out, _ = run_cli(capsys, "transfer", 3, 1, 2, "--json", "--no-cache")
    doc = json.loads(out)
    model = model_from_document(doc)
    rebuilt = model_document(
        doc["command"], GroupParams(3, 1, 2),
        doc["provenance"]["parameters"], model,
        extra={"normalization": doc["normalization"]})
    assert canonical_json(rebuilt) == out


def test_dg_algebra_document(capsys):
    code, out, _ = run_cli(capsys, "model", 3, 1, 1, "--json", "--no-cache",
                           "--window", -8, 1)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "dg-algebra"
    assert document_hash_ok(doc)
    # differential and product tables are present and sorted
    entries = doc["operations"]["2"]
    assert entries == sorted(entries, key=lambda e: e["inputs"])
    assert any(e["output"] for e in doc["operations"]["1"])


def test_report_written_to_file_matches_stdout(capsys, tmp_path):
    _, out, _ = run_cli(capsys, "classify", 3, 1, 1, "--json")
    path = tmp_path / "classify.json"
    code, wrote, _ = run_cli(capsys, "classify", 3, 1, 1, "--json",
                             "--out", path)
    assert code == 0
    assert str(path) in wrote
    assert path.read_text() == out


# ---------------------------------------------------------------------------
# caching
# ---------------------------------------------------------------------------

def test_an_empty_cache_dir_setting_is_unset(capsys, tmp_path, monkeypatch):
    """An empty AINF_CACHE_DIR means the default .cache, not the working
    directory."""
    monkeypatch.setenv("AINF_CACHE_DIR", "")
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "model", 3, 1, 1, "--window", -3, 1)[0] == 0
    assert [path.name for path in tmp_path.iterdir()] == [".cache"]
    assert len(list((tmp_path / ".cache").glob("model-*.json"))) == 1


def test_cache_hit_and_corruption_rebuild(capsys, tmp_path, monkeypatch):
    """A miss, a hit and a rebuild print the same bytes, those of the
    cache entry, and each renders the document once: a miss prints the
    rendering it cached."""
    from ainfbg import cli

    renders = []

    def counted(doc):
        renders.append(doc)
        return canonical_json(doc)

    monkeypatch.setattr(cli, "canonical_json", counted)
    cache = tmp_path / "cache"
    args = ("verify", 3, 1, 1, "--json", "--cache-dir", cache)
    first = run_cli(capsys, *args)
    assert first[0] == 0
    (entry,) = cache.glob("verify-*.json")
    cached_bytes = entry.read_text()
    assert document_hash_ok(json.loads(cached_bytes))
    assert first[1] == cached_bytes and len(renders) == 1

    second = run_cli(capsys, *args)
    assert second == first and len(renders) == 2

    # a tampered cache file fails its content hash and is rebuilt
    entry.write_text(cached_bytes.replace('"pass"', '"fail"', 1))
    third = run_cli(capsys, *args)
    assert third == first and len(renders) == 3
    assert entry.read_text() == cached_bytes


@pytest.mark.parametrize("content", ["[1, 2]", "null", "3", '"doc"'])
def test_a_cache_entry_that_is_not_an_object_is_rebuilt(capsys, tmp_path,
                                                        content):
    """Valid JSON that is not an object is a corrupted entry: the command
    rebuilds it instead of crashing on it."""
    cache = tmp_path / "cache"
    args = ("transfer", 3, 1, 1, "--json", "--cache-dir", cache)
    first = run_cli(capsys, *args)
    assert first[0] == 0
    (entry,) = cache.glob("transfer-*.json")
    cached_bytes = entry.read_text()
    entry.write_text(content)
    assert run_cli(capsys, *args) == first
    assert entry.read_text() == cached_bytes


def test_a_cache_entry_nested_too_deep_to_parse_is_rebuilt(capsys, tmp_path):
    cache = tmp_path / "cache"
    args = ("transfer", 3, 1, 2, "--json", "--cache-dir", cache)
    first = run_cli(capsys, *args)
    assert first[0] == 0
    (entry,) = cache.glob("transfer-*.json")
    cached_bytes = entry.read_text()
    entry.write_text("[" * 200_000 + "]" * 200_000)
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert (json.loads(out)["provenance"]["content_hash"]
            == ACCEPTANCE_HASHES["transfer", (3, 1, 2)])
    assert entry.read_text() == cached_bytes


@pytest.mark.parametrize("value", [2.0, float("nan")])
def test_a_cache_entry_holding_a_float_is_rebuilt(capsys, tmp_path, value):
    """A float in a cached document is corruption even under a valid
    content hash: no document holds one, and canonical_json refuses it."""
    cache = tmp_path / "cache"
    args = ("transfer", 3, 1, 2, "--json", "--cache-dir", cache)
    first = run_cli(capsys, *args)
    (entry,) = cache.glob("transfer-*.json")
    cached_bytes = entry.read_text()
    doc = json.loads(cached_bytes)
    doc["internal_scale"] = value
    entry.write_text(json.dumps(finalize_document(doc)))
    assert document_hash_ok(json.loads(entry.read_text()))
    assert run_cli(capsys, *args) == first
    assert entry.read_text() == cached_bytes


def test_no_nesting_depth_escapes_the_cache_check(tmp_path):
    """Between the depths the parser refuses and those the hash check
    takes lie depths that parse and are too deep to hash: every depth up
    to the recursion limit is a corrupted entry.  Each depth gets a file
    of its own: overwriting one file costs far more than writing a new
    one on some filesystems."""
    for depth in range(1, sys.getrecursionlimit() + 1):
        path = tmp_path / f"entry{depth}.json"
        path.write_text('{"provenance": {"content_hash": ""}, "a": '
                        + "[" * depth + "]" * depth + "}")
        assert _cache_load(str(path)) is None, depth


def test_a_replayed_document_is_rendered_not_echoed(capsys, tmp_path):
    """A cache hit prints the canonical bytes of the document, whatever
    the layout of the cached file."""
    cache = tmp_path / "cache"
    args = ("verify", 3, 1, 2, "--json")
    fresh = run_cli(capsys, *args, "--no-cache")
    assert run_cli(capsys, *args, "--cache-dir", cache) == fresh
    (entry,) = cache.glob("verify-*.json")
    reindented = json.dumps(json.loads(entry.read_text()), indent=4)
    entry.write_text(reindented)
    assert document_hash_ok(json.loads(reindented))
    assert run_cli(capsys, *args, "--cache-dir", cache) == fresh
    # a hit, not a rebuild: the entry is left as it was
    assert entry.read_text() == reindented


def test_cache_misses_after_a_source_change(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    args = ("verify", 3, 1, 1, "--json", "--cache-dir", cache)
    first = run_cli(capsys, *args)
    (old_entry,) = cache.glob("verify-*.json")

    monkeypatch.setattr("ainfbg.cli._source_digest", lambda: "edited sources")
    second = run_cli(capsys, *args)
    assert second == first
    entries = set(cache.glob("verify-*.json"))
    assert len(entries) == 2 and old_entry in entries


def test_the_hash_check_leaves_its_input_as_it_was(capsys, tmp_path):
    """A cached document passes its hash check, the check changes nothing
    in it, and a value tampered below the two levels the check copies is
    still caught."""
    cache = tmp_path / "cache"
    run_cli(capsys, "verify", 3, 1, 1, "--json", "--cache-dir", cache)
    (entry,) = cache.glob("verify-*.json")
    doc = json.loads(entry.read_text())
    before = copy.deepcopy(doc)
    assert document_hash_ok(doc)
    assert doc == before
    for path, value in [(("provenance", "parameters", "arity"), 5),
                        (("records", 0, "verdict"), "fail")]:
        tampered = copy.deepcopy(doc)
        *parents, leaf = path
        node = tampered
        for key in parents:
            node = node[key]
        assert node[leaf] != value
        node[leaf] = value
        assert not document_hash_ok(tampered)


def test_a_failed_cache_write_leaves_no_temporary_file(capsys, tmp_path,
                                                       monkeypatch):
    cache = tmp_path / "cache"

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    code, out, err = run_cli(capsys, "verify", 3, 1, 1, "--json",
                             "--cache-dir", cache)
    assert (code, out) == (2, "")
    assert err.startswith(f"ainfbg: parameter error: cannot write {cache}")
    assert err.endswith(": replace refused\n")
    assert cache.is_dir()
    assert not list(cache.glob("*.tmp*"))


@pytest.mark.parametrize("where", ["--out", "--cache-dir"])
def test_a_path_under_a_regular_file_is_a_parameter_error(capsys, tmp_path,
                                                          where):
    """A report or a cache entry whose parent is a regular file fails at
    that parent: exit 2 with the path, no traceback, nothing written."""
    afile = tmp_path / "afile"
    afile.write_text("")
    flags = ["--no-cache", "--out", afile / "x.txt"] if where == "--out" \
        else ["--cache-dir", afile / "sub"]
    code, out, err = run_cli(capsys, "transfer", 3, 1, 2, *flags)
    assert (code, out) == (2, "")
    assert err.startswith(f"ainfbg: parameter error: cannot write {afile}/")
    assert afile.read_text() == ""
    assert os.listdir(tmp_path) == ["afile"]


# ---------------------------------------------------------------------------
# the remaining subcommands
# ---------------------------------------------------------------------------

def test_check_stasheff_command(capsys):
    code, out, _ = run_cli(capsys, "check-stasheff", 3, 1, 1)
    assert code == 0
    assert "overall         pass" in out


def test_massey_command(capsys):
    code, out, _ = run_cli(capsys, "massey", 3, 1, 1)
    assert code == 0
    assert "Massey power" in out


def test_a_massey_check_runs_one_defining_system(capsys, monkeypatch):
    """The lower powers are read off the ell-fold staircase: one
    `massey_power` call per check, wherever it is looked up."""
    import ainfbg
    from ainfbg import dga

    calls = []
    power = dga.massey_power

    def counted(con, cls, nfold):
        calls.append((cls, nfold))
        return power(con, cls, nfold)

    for module in ("cli", "dga", "koszul", "transfer"):
        monkeypatch.setattr(getattr(ainfbg, module), "massey_power", counted,
                            raising=False)
    code, out, _ = run_cli(capsys, "massey", 5, 1, 2, "--json")
    assert code == 0
    assert calls == [("t", 5)]
    got = {r["name"]: r["got"] for r in json.loads(out)["records"]}
    assert got["cochain 3-fold Massey power of t"] == "0"
    assert got["cochain 4-fold Massey power of t"] == "0"


def test_classify_command(capsys):
    code, out, _ = run_cli(capsys, "classify", 3, 1, 2, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "pass"
    arities = {row["arity"] for row in doc["admissible"]}
    assert arities == {3}
    assert all(all(e == 1 for e in row["exponents"])
               for row in doc["admissible"])


def test_classify_arity_below_the_family_is_a_parameter_error(capsys):
    for pnq, arity in [((5, 1, 2), 4), ((3, 1, 2), 0)]:
        code, _, err = run_cli(capsys, "classify", *pnq, "--arity", arity)
        assert code == 2, arity
        assert "parameter error" in err
    code, out, _ = run_cli(capsys, "classify", 3, 1, 2, "--arity", 3)
    assert code == 0
    assert "overall         pass" in out


@pytest.mark.parametrize("pnq", [(3, 1, 2), (5, 1, 2)])
def test_classify_shapes_expand_to_the_admissible_tuples(capsys, pnq):
    """Each shape admits every power tuple, with target power the power
    sum minus the shape's power excess."""
    code, out, _ = run_cli(capsys, "classify", *pnq, "--json")
    assert code == 0
    doc = json.loads(out)
    expanded = [
        AdmissibleOp(arity=sh["arity"], powers=powers,
                     exponents=tuple(sh["exponents"]),
                     target_power=sum(powers) - sh["power_excess"],
                     target_exponent=sh["target_exponent"])
        for sh in doc["admissible"]
        for powers in itertools.product(range(3), repeat=sh["arity"])]
    max_arity = doc["provenance"]["parameters"]["max_arity"]
    assert expanded == classify_admissible(GroupParams(*pnq).hp, max_arity, 2)


def test_loops_command(capsys):
    code, out, _ = run_cli(capsys, "loops", 3, 1, 2, "--json", "--no-cache")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "ainfinity-model"
    assert doc["normalization"]["formal"] is False
    model = model_from_document(doc)
    assert model.space.bidegree_of("tau").s == 2
