"""Command-line interface: exit codes, document serialization, caching.

Exit-code contract: 0 success, 1 verification failure, 2 invalid
parameters, 3 truncation-window error.  Reruns with identical inputs
must produce byte-identical output, JSON documents carry a content hash
over their own canonical form, and cached documents failing that hash
are rebuilt.
"""

import itertools
import json

import numpy as np
import pytest

from ainfbg.ainf import AdmissibleOp, AInfinityAlgebra, classify_admissible
from ainfbg.cli import (
    FORMAT_VERSION,
    canonical_json,
    document_hash_ok,
    main,
    model_document,
)
from ainfbg.glin import Bidegree, GradedVectorSpace
from ainfbg.grp import GroupParams


@pytest.fixture(autouse=True)
def _no_ambient_cache(monkeypatch, tmp_path):
    # keep tests away from the working directory's .cache and from any
    # cache directory configured in the environment
    monkeypatch.setenv("AINF_CACHE_DIR", str(tmp_path / "ambient-cache"))


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    code, _, err = run_cli(capsys, "verify", 3)
    assert code == 2
    assert "missing group parameters" in err


def test_loops_needs_q_at_least_two(capsys):
    code, _, err = run_cli(capsys, "loops", 3, 1, 1)
    assert code == 2
    assert "q >= 2" in err


def test_flag_and_positional_forms_agree(capsys):
    code_a, out_a, _ = run_cli(capsys, "classify", 3, 1, 1, "--no-cache")
    code_b, out_b, _ = run_cli(capsys, "classify", "--p", 3, "--n", 1,
                               "--q", 1, "--no-cache")
    assert (code_a, out_a) == (code_b, out_b) == (0, out_a)


# ---------------------------------------------------------------------------
# truncation windows (exit code 3)
# ---------------------------------------------------------------------------

def test_truncation_window_exit_code(capsys):
    # the window holds the homology pattern but not the 3-fold Massey
    # staircase, whose final product lands in degree -8
    code, _, err = run_cli(capsys, "massey", 3, 1, 2,
                           "--window", -7, 1, "--no-cache")
    assert code == 3
    assert "truncation-window error" in err


COCHAIN_COMMANDS = ("transfer", "check-stasheff", "massey", "verify")


def sweep_exit_codes(capsys, command, pnq, windows):
    """Exit codes of one command over windows; a passing `transfer` or
    `loops` document must not call a model formal, and every failure is
    reported by the CLI, never by an escaping exception."""
    codes = {}
    for window in windows:
        codes[window], out, err = run_cli(capsys, command, *pnq, "--window",
                                          *window, "--json", "--no-cache")
        assert codes[window] == 0 or "ainfbg: " in err, (command, window)
        if codes[window] == 0 and command in ("transfer", "loops"):
            assert not json.loads(out)["normalization"]["formal"], window
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
                                 [(0, hi) for hi in range(2, 16)])
        passing = [hi for (_, hi), code in codes.items() if code == 0]
        assert passing == list(range(passing[0], 16))
        assert codes[0, passing[0] - 1] == 3


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
                               "--no-cache")
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


def test_singular_block_in_contraction_is_a_certification_failure(
        capsys, monkeypatch):
    """Boundaries that lose rank on the free columns leave no splitting
    basis; inside contraction that is a failed certification (exit 1),
    not a parameter error."""
    from ainfbg import dga
    from ainfbg.glin import PivotData

    def rank_deficient(M, p):
        rows, cols = np.shape(M)
        return PivotData(rref=np.zeros((rows, cols), dtype=np.int64),
                         transform=np.eye(rows, dtype=np.int64),
                         pivot_cols=(), prime=p)

    monkeypatch.setattr(dga, "row_reduce", rank_deficient)
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
    doc = json.loads(out)
    assert doc["format_version"] == FORMAT_VERSION
    assert document_hash_ok(doc)


# The full content hashes of the acceptance documents on the two smallest
# tuples.  Any change to a split, a table, a sweep count or the document
# format moves them; a change that must move them says so and updates this.
ACCEPTANCE_HASHES = {
    ("verify", (3, 1, 2)):
        "18d461a57c4198cf730796bcd3d5d3212c020fc31128625301110c91eef23473",
    ("transfer", (3, 1, 2)):
        "7a468841ca224bf1e7b964da737d35b609b3ccbca3de3a27b99039d5edefcfb8",
    ("loops", (3, 1, 2)):
        "d61b9eb6a4375d5d2ed72401cdf21bf902ee69cabd883d6c62911729badb59b6",
    ("verify", (5, 1, 2)):
        "380f59f4ecc4a36fb4087ebb4cfbe9cb6efc4563ed97ba26f0b9508d74dcd577",
    ("transfer", (5, 1, 2)):
        "c7a6d5e6c553a01cd102d29a80be1f97df63c163fc1a0b6120defc4fbc32c260",
    ("loops", (5, 1, 2)):
        "293e3c7985cb82318a88cf339fe960e982f1416a66e03c24058db39cfa1d66eb",
}


def test_acceptance_content_hashes_are_pinned(capsys):
    got = {}
    for command, pnq in ACCEPTANCE_HASHES:
        code, out, _ = run_cli(capsys, command, *pnq, "--json", "--no-cache")
        assert code == 0, (command, pnq)
        got[command, pnq] = json.loads(out)["provenance"]["content_hash"]
    assert got == ACCEPTANCE_HASHES


# verify on a p^n = 11 tuple: the counted identity sweeps over 84,285
# words, and a loop stage skipped by a cobar word count (578,949 words,
# over VERIFY_LOOP_WORD_BUDGET) that builds no cobar algebra.
VERIFY_11_1_2_HASH = (
    "9034a7624614783751771e7c791c4f76d515cd41b6f29e42d963908760a55514")


def test_verify_11_1_2_content_hash_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify", 11, 1, 2, "--json", "--no-cache")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "pass"
    assert doc["provenance"]["content_hash"] == VERIFY_11_1_2_HASH


# transfer on a p^2 tuple: 170,068 nonzero end-DGA products in the
# transfer, each multiplied only on a composable label pair.
TRANSFER_5_2_2_HASH = (
    "9ac42f7541ec8c6f370283f4053cce76b3463677cebde2de51333d0fd45dbac9")


def test_transfer_5_2_2_content_hash_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "transfer", 5, 2, 2, "--json",
                           "--no-cache")
    assert code == 0
    doc = json.loads(out)
    assert doc["provenance"]["content_hash"] == TRANSFER_5_2_2_HASH


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
        code, out, _ = run_cli(capsys, *argv, "--json", "--no-cache")
        assert code == 0, argv
        got[argv] = json.loads(out)["provenance"]["content_hash"]
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
    _, out, _ = run_cli(capsys, "classify", 3, 1, 1, "--json", "--no-cache")
    path = tmp_path / "classify.json"
    code, wrote, _ = run_cli(capsys, "classify", 3, 1, 1, "--json",
                             "--no-cache", "--out", path)
    assert code == 0
    assert str(path) in wrote
    assert path.read_text() == out


# ---------------------------------------------------------------------------
# caching
# ---------------------------------------------------------------------------

def test_cache_hit_and_corruption_rebuild(capsys, tmp_path):
    cache = tmp_path / "cache"
    args = ("verify", 3, 1, 1, "--json", "--cache-dir", cache)
    first = run_cli(capsys, *args)
    assert first[0] == 0
    (entry,) = cache.glob("verify-*.json")
    cached_bytes = entry.read_text()
    assert document_hash_ok(json.loads(cached_bytes))

    second = run_cli(capsys, *args)
    assert second == first

    # a tampered cache file fails its content hash and is rebuilt
    entry.write_text(cached_bytes.replace('"pass"', '"fail"', 1))
    third = run_cli(capsys, *args)
    assert third == first
    assert entry.read_text() == cached_bytes


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


# ---------------------------------------------------------------------------
# the remaining subcommands
# ---------------------------------------------------------------------------

def test_check_stasheff_command(capsys):
    code, out, _ = run_cli(capsys, "check-stasheff", 3, 1, 1, "--no-cache")
    assert code == 0
    assert "overall         pass" in out


def test_massey_command(capsys):
    code, out, _ = run_cli(capsys, "massey", 3, 1, 1, "--no-cache")
    assert code == 0
    assert "Massey power" in out


def test_classify_command(capsys):
    code, out, _ = run_cli(capsys, "classify", 3, 1, 2, "--json", "--no-cache")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "pass"
    arities = {row["arity"] for row in doc["admissible"]}
    assert arities == {3}
    assert all(all(e == 1 for e in row["exponents"])
               for row in doc["admissible"])


def test_classify_arity_below_the_family_is_a_parameter_error(capsys):
    code, _, err = run_cli(capsys, "classify", 5, 1, 2, "--arity", 4,
                           "--no-cache")
    assert code == 2
    assert "parameter error" in err
    code, out, _ = run_cli(capsys, "classify", 3, 1, 2, "--arity", 3,
                           "--no-cache")
    assert code == 0
    assert "overall         pass" in out


@pytest.mark.parametrize("pnq", [(3, 1, 2), (5, 1, 2)])
def test_classify_shapes_expand_to_the_admissible_tuples(capsys, pnq):
    """Each shape admits every power tuple, with target power the power
    sum minus the shape's power excess."""
    code, out, _ = run_cli(capsys, "classify", *pnq, "--json", "--no-cache")
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
