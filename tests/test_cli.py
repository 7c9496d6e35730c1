"""Command-line interface: exit codes, document serialization, caching.

Exit-code contract: 0 success, 1 verification failure, 2 invalid
parameters, 3 truncation-window error.  Reruns with identical inputs
must produce byte-identical output, JSON documents carry a content hash
over their own canonical form, and cached documents failing that hash
are rebuilt.
"""

import json

import pytest

from ainfbg.cli import (
    FORMAT_VERSION,
    canonical_json,
    document_hash_ok,
    main,
    model_document,
    model_from_document,
)
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
    """`invert` raises ValueError on a singular matrix; inside contraction
    that is a failed certification (exit 1), not a parameter error."""
    from ainfbg import dga

    def singular(M, p):
        raise ValueError("matrix of rank 0 < 1 is not invertible")

    monkeypatch.setattr(dga, "invert", singular)
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


def test_loops_command(capsys):
    code, out, _ = run_cli(capsys, "loops", 3, 1, 2, "--json", "--no-cache")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "ainfinity-model"
    assert doc["normalization"]["formal"] is False
    model = model_from_document(doc)
    assert model.space.bidegree_of("tau").s == 2
