"""End-to-end tests for the command-line front end (exit codes and output)."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sumsetlab
from sumsetlab import zset_to_json, periodic, zdesc
from sumsetlab.cli import _build_parser, main
from sumsetlab.systems import quotient_system, system_to_json
from sumsetlab import CHECK_NAMES, make_group

SRC = Path(sumsetlab.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# sumset


def test_sumset_group_mode(capsys):
    code, out, _ = run(capsys, "sumset", "--group", "8", "--A", "0,1", "--B", "0,4")
    assert code == 0
    assert "sumset: {0, 1, 4, 5}" in out
    assert "cardinality: 4" in out
    assert "density: 1/2" in out


def test_sumset_identity_echoes_b(capsys):
    code, out, _ = run(capsys, "sumset", "--group", "8", "--A", "0", "--B", "2,6,7")
    assert code == 0
    assert "sumset: {2, 6, 7}" in out


def test_sumset_json_record(capsys):
    code, out, _ = run(capsys, "sumset", "--group", "4,3", "--A", "0", "--B", "0",
                       "--json")
    assert code == 0
    record = json.loads(out.splitlines()[-1])
    assert record == {"group": [4, 3], "set": [0], "density": "1/12"}


def test_sumset_zline_mode(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(zset_to_json(periodic(2, [0]))))
    b.write_text(json.dumps(zset_to_json(periodic(2, [1]))))
    code, out, _ = run(capsys, "sumset", "--zdesc-a", str(a), "--zdesc-b", str(b))
    assert code == 0
    assert "upper density: 1/2" in out
    result = json.loads(out.splitlines()[0])
    assert result["right"]["pattern"] == [1]


def test_sumset_missing_args(capsys):
    code, _, err = run(capsys, "sumset", "--group", "8", "--A", "0,1")
    assert code == 2
    assert "error:" in err


def test_sumset_malformed_json_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "sumset", "--zdesc-a", str(bad), "--zdesc-b", str(bad))
    assert code == 2
    assert "error:" in err


def test_sumset_group_order_is_bounded(capsys):
    # A subset of Z/10^12 would be a bitmask of about 125 GB.
    code, _, err = run(capsys, "sumset", "--group", "1000000000000", "--A", "0", "--B", "0")
    assert code == 2
    assert "group order 1000000000000 exceeds the limit" in err


def test_sumset_missing_file(capsys, tmp_path):
    gone = tmp_path / "gone.json"
    code, _, err = run(capsys, "sumset", "--zdesc-a", str(gone), "--zdesc-b", str(gone))
    assert code == 2


# ---------------------------------------------------------------------------
# density


def test_density_group_mode(capsys):
    code, out, _ = run(capsys, "density", "--group", "8", "--A", "0,1")
    assert code == 0
    assert "density: 1/4" in out


def test_density_periodic_mode(capsys):
    code, out, _ = run(capsys, "density", "--period", "6", "--pattern", "0,1")
    assert code == 0
    assert "upper: 1/3" in out
    assert "lower: 1/3" in out


def test_density_members_mode(capsys):
    code, out, _ = run(capsys, "density", "--members", "3,5,9")
    assert code == 0
    assert "upper: 0/1" in out


def test_density_no_mode(capsys):
    code, _, err = run(capsys, "density")
    assert code == 2
    assert "describe the set" in err


def test_density_zero_period_is_rejected_as_a_period(capsys):
    code, _, err = run(capsys, "density", "--period", "0", "--pattern", "0")
    assert code == 2
    assert "tail period must be >= 1" in err


# ---------------------------------------------------------------------------
# magratio


def test_magratio_regular_group(capsys):
    code, out, _ = run(capsys, "magratio", "--group", "8", "--A", "0,1",
                       "--B", "0,4")
    assert code == 0
    assert out.startswith("2/1, witness ")
    assert "method flow" in out


def test_magratio_oracle_agreement(capsys):
    code, out, _ = run(capsys, "magratio", "--group", "8", "--A", "0,1",
                       "--B", "0,4", "--oracle")
    assert code == 0
    assert "oracle agrees: 2/1" in out


def test_magratio_delta(capsys):
    code, out, _ = run(capsys, "magratio", "--group", "8", "--A", "0,1",
                       "--B", "0,4", "--delta", "1/1")
    assert code == 0
    assert out.startswith("2/1, witness [0, 4], method enumeration")


def test_magratio_refuses_the_oracle_with_delta(capsys):
    # The delta route enumerates; there is no flow answer for the oracle to check.
    code, out, err = run(capsys, "magratio", "--group", "8", "--A", "0,1",
                         "--B", "0,4", "--delta", "1/2", "--oracle")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --oracle") and "--delta" in err


def test_magratio_system_file(capsys, tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system_to_json(quotient_system(make_group([8]), [4]))))
    code, out, _ = run(capsys, "magratio", "--system", str(path),
                       "--A", "0,1,2,3", "--B", "0,1", "--delta", "1/2")
    assert code == 0
    assert out.startswith("2/1,")


def test_magratio_guard_exit(capsys):
    code, _, err = run(capsys, "magratio", "--group", "25", "--A", "0,1",
                       "--B", ",".join(str(i) for i in range(25)), "--delta", "1/2")
    assert code == 2
    assert "guard" in err


def test_magratio_large_order_factor(capsys):
    # Generator powers up to 4095 once overflowed the interpreter stack.
    code, out, _ = run(capsys, "magratio", "--group", "4096", "--A", "4095,17,2222",
                       "--B", "0,5,9")
    assert code == 0
    assert out.startswith("3/1, ")


def test_magratio_json(capsys):
    code, out, _ = run(capsys, "magratio", "--group", "8", "--A", "0",
                       "--B", "0", "--json")
    assert code == 0
    record = json.loads(out.splitlines()[-1])
    assert record["value"] == "1/1"


# ---------------------------------------------------------------------------
# verify


def test_verify_small_campaign(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--seed", "7", "--instances", "5",
                       "--checks", "cor2,prop21", "--out", str(out_path))
    assert code == 0
    assert "cor2: 5 held, 0 violated, 0 vacuous" in out
    assert f"report: {out_path}" in out
    payload = json.loads(out_path.read_text())
    assert len(payload["rows"]) == 10
    assert payload["summary"]["violations"] == []


def test_verify_csv_format(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, out, _ = run(capsys, "verify", "--instances", "2", "--checks", "cor2",
                       "--format", "csv", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "instance_id,check,lhs,rhs,holds,vacuous,witness"
    assert len(lines) == 3


def test_verify_default_out_respects_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SUMSETLAB_OUTDIR", str(tmp_path))
    code, out, _ = run(capsys, "verify", "--instances", "1", "--checks", "cor2")
    assert code == 0
    assert (tmp_path / "report.json").exists()


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--instances", "1", "--checks", "nosuch")
    assert code == 2
    assert "unknown checks" in err


@pytest.mark.parametrize("checks, message", [
    (",", "no checks selected"),
    ("cor2,cor2", "checks selected more than once: cor2"),
])
def test_verify_rejects_empty_or_repeated_selection(capsys, tmp_path, checks, message):
    code, _, err = run(capsys, "verify", "--instances", "2", "--checks", checks,
                         "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert message in err
    assert not (tmp_path / "r.json").exists()


def test_verify_rejects_nonpositive_max_set(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--max-set", "-3", "--instances", "2",
                       "--checks", "thm2,prop21", "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert "max_set must be >= 1" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("max_order", ["100000", "20000000"])
def test_verify_refuses_max_order_before_the_campaign(capsys, tmp_path, max_order):
    # A union of two quotients of order max_order would pass MAX_STATES partway
    # through the run; the config refuses it before any instance is drawn.
    start = time.perf_counter()
    code, _, err = run(capsys, "verify", "--max-order", max_order, "--instances", "3",
                       "--out", str(tmp_path / "r.json"))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert f"max_order must be <= 32768, got {max_order}" in err
    assert not (tmp_path / "r.json").exists()


def test_parser_is_built_once_and_reused(capsys):
    assert _build_parser() is _build_parser()
    first = run(capsys, "sumset", "--group", "8", "--A", "0,1", "--B", "0,4")
    assert run(capsys, "sumset", "--group", "8", "--A", "0,1", "--B", "0,4") == first
    assert first[0] == 0


def test_verify_help_lists_every_check(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    # Each check's line starts with its name; wrapped lines are indented further.
    assert re.findall(r"^  (\w+) ", capsys.readouterr().out, re.M) == list(CHECK_NAMES)


def test_verify_zero_instances(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, out, _ = run(capsys, "verify", "--instances", "0", "--out", str(out_path))
    assert code == 0


@pytest.mark.parametrize("fmt, digest", [
    ("json", "c62acb1f42b9161c060052b5b7dd7b8768ed44595bc7c9ed830b96aa20566db0"),
    ("csv", "879df06d1c494a9e622bd248f4ac9a4144bbcbb6de04be96f06060ad4213b86d"),
])
def test_verify_seeded_report_bytes_are_pinned(capsys, tmp_path, fmt, digest):
    # A fixed seed must give the same report bytes across refactors.
    out_path = tmp_path / f"report.{fmt}"
    code, _, _ = run(capsys, "verify", "--seed", "1", "--instances", "30",
                     "--format", fmt, "--out", str(out_path))
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_verify_deterministic_outputs(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "verify", "--seed", "11", "--instances", "3",
                         "--checks", "cor2,oracle", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# correspond


def test_correspond_periodic(capsys):
    code, out, _ = run(capsys, "correspond", "--period", "6", "--pattern", "0,1",
                       "--A", "0,3")
    assert code == 0
    lines = out.splitlines()
    assert len([l for l in lines if l.startswith("[ok ]")]) == 4
    assert "1/3" in out


def test_correspond_members_notes_degeneracy(capsys):
    code, out, _ = run(capsys, "correspond", "--members", "1,4", "--A", "0")
    assert code == 0
    assert "fixed point" in out


def test_correspond_desc_file(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(zset_to_json(zdesc((), 0, 0, None, (1, [0])))))
    code, out, _ = run(capsys, "correspond", "--desc", str(path), "--A", "0,2",
                       "--json")
    assert code == 0
    record = json.loads(out.splitlines()[-1])
    assert record["mu_side"] == "right"


# ---------------------------------------------------------------------------
# equidist


def test_equidist_group_mode(capsys):
    code, out, _ = run(capsys, "equidist", "--group", "8", "--A", "0,4")
    assert code == 0
    assert "defect: 1.0" in out
    assert "worst character: " in out


def test_equidist_full_group_defect_zero(capsys):
    code, out, _ = run(capsys, "equidist", "--group", "8",
                       "--A", ",".join(str(i) for i in range(8)))
    assert code == 0
    defect = float(out.splitlines()[0].split(":")[1])
    assert defect < 1e-9


def test_equidist_window_mode(capsys):
    code, out, _ = run(capsys, "equidist", "--window", "64",
                       "--A", ",".join(str(i) for i in range(0, 64, 2)),
                       "--freqs", "1/2")
    assert code == 0
    assert "weyl defect: 1.0" in out


def test_equidist_three_halves(capsys):
    code, out, _ = run(capsys, "equidist", "--window", "1000", "--three-halves",
                       "--freqs", "1/3,2/7")
    assert code == 0
    assert "weyl defect: " in out
    assert "|A| = " in out


def test_equidist_window_requires_a_set(capsys):
    code, _, err = run(capsys, "equidist", "--window", "100")
    assert code == 2
    assert "window mode" in err


def test_equidist_bad_frequency(capsys):
    code, _, err = run(capsys, "equidist", "--window", "16", "--A", "0,1",
                       "--freqs", "0/1")
    assert code == 2


# ---------------------------------------------------------------------------
# exit 2 at the JSON boundary and before unbounded loops

_SYSTEM = {"group": {"orders": [2]}, "states": 2, "action": [[1, 0]]}
_DESC = {"head": {"lo": 0, "hi": 1, "members": [0]}}


@pytest.mark.parametrize("change, message", [
    ({"states": "2"}, "'states' must be an integer"),
    ({"states": True}, "'states' must be an integer"),
    ({"action": 5}, "'action' must be a list"),
    ({"action": [[1.5, 0]]}, "table 0 must be a list of integers"),
    ({"measure": 3}, "'measure' must be a list"),
    ({"measure": [0.5, 0.5]}, "bad measure entry"),
    ({"measure": ["1e999999999", "0"]}, "bad measure entry"),
    ({"states": 10**9, "action": [[0]]}, "not a permutation of the states"),
])
def test_magratio_rejects_malformed_system_json(capsys, tmp_path, change, message):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({**_SYSTEM, **change}))
    code, _, err = run(capsys, "magratio", "--system", str(path), "--A", "0", "--B", "0")
    assert code == 2
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("desc, message", [
    ({"head": {"lo": "0", "hi": 1, "members": [0]}}, "'lo' must be an integer"),
    ({"head": {"lo": 0, "hi": 1, "members": 5}}, "'members' must be a list"),
    ({"head": 5}, "'head' must be an object"),
    ({**_DESC, "right": {"period": 3, "pattern": 7}}, "'pattern' must be a list"),
    ({**_DESC, "right": {"period": 3.5, "pattern": [0]}}, "'period' must be an integer"),
])
def test_density_rejects_malformed_descriptor_json(capsys, tmp_path, desc, message):
    path = tmp_path / "desc.json"
    path.write_text(json.dumps(desc))
    code, _, err = run(capsys, "density", "--desc", str(path))
    assert code == 2
    assert err.startswith("error:") and message in err


def test_size_guards_reject_before_looping(capsys, tmp_path):
    far = tmp_path / "far.json"
    far.write_text(json.dumps({**_DESC, "right": {"period": 10**8, "pattern": [0]}}))
    for argv, message in [
        (("density", "--period", str(10**12), "--pattern", "0"), "exceeds the limit 4096"),
        (("correspond", "--desc", str(far), "--A", "0,1"), "exceeds the limit 4096"),
        (("correspond", "--period", "6", "--pattern", "0", "--A", f"0,{10**12}"),
         "sumset window"),
        (("equidist", "--window", str(10**12), "--three-halves"), "exceeds 1000000000"),
        (("magratio", "--group", "8", "--A", "0,1", "--B", "0,4", "--delta", "1e999999999"),
         "not a rational"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:") and message in err, argv


@pytest.mark.parametrize("order", [1 << 18, 1 << 20])
def test_magratio_state_count_is_bounded(capsys, order):
    # The regular system of Z/2^18 took seconds and ~100 MiB before the bound.
    start = time.perf_counter()
    code, _, err = run(capsys, "magratio", "--group", str(order), "--A", "0,1", "--B", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err.startswith("error:") and f"state count {order} exceeds the limit 65536" in err


def test_magratio_accepts_the_largest_state_count(capsys):
    code, out, _ = run(capsys, "magratio", "--group", "65536", "--A", "0,1", "--B", "0")
    assert code == 0
    assert out.startswith("2/1, witness [0]")


def test_magratio_cost_does_not_grow_with_acting_set_times_states():
    # One permutation of all 65536 states per acting element once made this
    # take minutes and hundreds of MiB; acting now costs |A| * |B| lookups.
    A = ",".join(str(a) for a in range(0, 65536, 16))
    done = subprocess.run([sys.executable, "-m", "sumsetlab.cli", "magratio", "--group", "65536",
                           "--A", A, "--B", "0"], capture_output=True, text=True, timeout=30,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("4096/1, witness [0]")


def test_sumset_zline_pair_just_past_the_work_bound(capsys, tmp_path):
    # range(K) + range(K) cuts each operand to 3K + 6 points with K of them
    # set, so the shift-OR's work crosses MAX_SUMSET_WORK between K = 9458 and 9459.
    for k, code_want in [(9458, 0), (9459, 2)]:
        path = tmp_path / f"dense{k}.json"
        path.write_text(json.dumps(zset_to_json(zdesc(range(k)))))
        code, out, err = run(capsys, "sumset", "--zdesc-a", str(path), "--zdesc-b", str(path))
        assert code == code_want, k
        if code == 0:
            assert json.loads(out.splitlines()[0])["head"]["hi"] == 2 * k - 1
        else:
            assert err.startswith("error:") and f"shifted {k} times exceeds the limit" in err
