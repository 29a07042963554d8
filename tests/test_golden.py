"""Golden outputs: seeded reports and CLI results pinned byte for byte.

A refactor of the action, the enumerators or the flow must leave these
bytes unchanged.  The campaign digests are those of ``sumsetlab verify
--seed S --instances 100`` with every check, in both formats; one campaign
per seed renders both.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from sumsetlab import (check_prop13_increment, disjoint_union, finite_set, mag_ratio_delta,
                       mag_ratio_oracle, make_group, quotient_system, regular_system,
                       state_subset, system_to_json, zdesc, zset_to_json)
from sumsetlab.cli import main
from sumsetlab.verify import CampaignConfig, run_campaign

CAMPAIGN_DIGESTS = {
    1: ("94195a629d199a85a645dd573a9f881a590fb54a4f50f5977bc36e2a7cc60c44",
        "529628099952e2a14e6edf1dae1585ba03d1cb99d6d45f976827bbd13b61da48"),
    2: ("bfba11d0ec7b3a5b65c1867fe60da9cbba54e3c88c6d5a33529a0f3cbcf08193",
        "eafdefdacd549ee75f21c66966d6ea0b7be7f5a1286e92b78558de0c125b89ee"),
    3: ("ef506b4cd77dd4a94565eb4d4d26dd79ebb96ad9fcd70aa7c6f9bf60a306b5ca",
        "8feb9707f71d8751cb89b81ff4f1421192733fcc7dbd16f3cb57e0c696757961"),
    4: ("38435f86d936f0c6b76f37d4dcc57450d2dce915c4190d62fd2c40b4cd6c3c01",
        "90b32120202c13a26d579ea549dc1887ff02f308dde31cef4a71ab55b6f2641a"),
    5: ("1556d5acb493a3ad1cb0bca18c591b1fc6e97a8c945670dc4dda5c55397bef0b",
        "6f23781b383e1f30e67aca4e23277c885dc6cf907f6fad4e7c69fc8c7f6e5255"),
}

# sha256 of run_campaign(CampaignConfig(seed=s, instances=5)).to_json(): the report
# `verify --seed S --instances 5` writes, the size the benchmark's campaign ops run.
SMALL_CAMPAIGN_DIGESTS = {
    1000: "9d0b9a38d8ca91ed9672af1e489f6f04e84224ba94b9503f5562e26c7d088b7b",
    1001: "3e7006ed5795e4ee22ab7d459fe9d1b5efdcaeb88f21bfe60b418c8e88a485b9",
    1002: "4671d6a30724d2cc99d543cb3fb7e2b724cdd3c418b88ef8151e66035e2bca0b",
    1003: "060bb01a1ddd9c69d8b05abf57bb0d9a305cab6e48d6831f7277647d6d1476d7",
    1004: "4382c865fe990010fa6f0c483d8d7f53f512079a6502c1350b640dca4e9b6111",
    1005: "156dfbe2ebc1a720991ecf5a2b9e4b6a05bb4c09a935fb09af0732d2e2124242",
    1006: "62614f0f802debefe7fcf4174317c8762d52b3b09e8f71472412315d2a2ba46a",
    1007: "1aebb1ae39cbf1a9e8f37ccff25cdbbf0889c6ffcc6b593889578e88278b4e75",
    1008: "01137d90aea4b8867e4d4917bfb34bd6c7da4397a3ee6a8d561f197de47a5919",
    1009: "190b05809edfff02616dc9b8cb2d576783105204024587b5c244456fda8f0a84",
    1010: "49e1d215d193d7ab20d8d6d03ee2782a7f987eeb20abb741578f983d9a7e2805",
    1011: "ff7f1291e6dd2b3ac6284d18fc707f5ceacac9a80c05444524303d30536c484e",
    1012: "adc645efcd097ef90fb32c96964a24c4af059dbad98e8a570099a81420ee8df8",
    1013: "d09d3e9eefb2550518be270308666448642e9727da047f9245339eac74d2c7e1",
    1014: "601b4ab52afa99b9912e7c65ce877421a3c1685154a6a2603f207261579fe079",
    1015: "84eea4168d47352e5a305103ffc607aeef48523fefc843434e5539cddb6ce451",
    1016: "a447f8215f9b31e26fba9b7962ca191e5be4f7489f57030b6302714cec15509f",
    1017: "725efd5337b1ec2924b4bbff02b937c775ad74b34b29f75091ca5515bb4f19d7",
    1018: "6181f7339fd43e3b502c6092d6db569045629ac978116c60a45d993b947de87d",
    1019: "1d282bf28d169a81b77c55cb0d824db30b854dd541486a2a9f2b37215e51b322",
    1020: "6e2555af8a672eca289e9136fd5a97aad0414f15f8799ad82256544e055c3560",
    1021: "fe0a16f1b9e66437fd774573f1e8ecfaa742b606af762f125fd27698f937b84e",
    1022: "629b1c937ea0a7bb6ed06478c9ee6075bee35d974f4f6fbe074a8acd011f79c1",
    1023: "45befa020d2cb3df2b25868d1d236ff6e450ae1a2a51b6e971e3165c15c9eba0",
    1024: "e9893774a3aecc80716dcb7928f8620f62e03cd45ce4d7d27e9cc9e8c07adb4a",
    1025: "5d86f99acf76c609ad5a6edeebfa904f662769467593035a3a3be034aa8c590a",
    1026: "e877906e5a04815c2711bfa255212ad4d6570c84d7270f7545f877601108cbbc",
    1027: "8d2b0d8675f5f3b2eeec038f34943225e6c35aab1b3ab08791c595dbc9f54d19",
    1028: "1995173ba4cd1798953ee359d9230a27ac9dba2ab089239eec791af25ab29897",
    1029: "685b65ee0983b1af3eb5e048b46d1f963c7dadf4f8b2fc7ce123cfb50600b65c",
    1030: "5d40d64431adc6486edf2a65d202b079193392916de4b99591df7ac4d51c14da",
    1031: "4e693ae5b85dd96b9ac2ef52ccfd862f74f49fab33810948b2fef98e3ff2fe21",
    1032: "71ae6e739eac15fa2a0d0a0dc094011ca73951dbdb0ab3163f9d582c9fb7dc88",
    1033: "d61c0f41d14943de0fe0d8fcc4fbc16f1a239c600677d7061eed6e1b5bd79623",
    1034: "48de506621612c362f4f9daf56ac3abd47d32ff64c2ecf1084e7624f0d0ca028",
    1035: "b91dd3efdb13027c997dd4619a644c181cd3db018f2533940a55d9ed15bd81dc",
    1036: "598637d448878b2d716a028cd08129f0a774fc186d9b37d9c3ec119b9888bf3c",
    1037: "aa4467b6f4c083784795cc03b56cc05c0a132a0fc259fa958451c47b65a7507f",
    1038: "08d9a4c95c0dbb012ae6fa876deecbbd943627767bb429d373039b77a021db84",
    1039: "ad2b2f739140ed2df7cf732e85ee32d05d28adeacfcc0dbb5daa5687d73cde9c",
    1040: "37083c489789f58f6a90b89a08ad8240dcd6732156e17fffb44b422608aa74d9",
    1041: "eeb5bf40e217aa790c7f77c825e49018c7d33c4fb9ccc44394dab419971a279c",
    1042: "1773a7be9f688015ed279a629fcc2ea4eb491c1c26fdcd969a81939e809327d0",
    1043: "0ada75ff3228b90d2ea3ce7920a048e56a474a37c80b438e4d3a08bba5b91583",
    1044: "5ae976e03a003a0bccf0a55f3e3c9dbdc197ff7ac1bb3f73bddc2afeeff5177c",
    1045: "04b2644f70345ff2ce4f43b1713fa419b3ab972dbf82a6f622d0d76d21df6aee",
    1046: "b3740fd3a36b78496b4aa3d470c8ce7bbb3673cd157b49ee807a86189641cb3f",
    1047: "0b45cd572b81dc0534f962c341a6ed2b8f4a1abcbf32fcc9827f2c6a61ef226c",
    1048: "2f002ab51902925605dfcf3f184d3f1f6fc5bcc6af6f7826dde56973fd2de928",
    1049: "2316650927179baa8797d790b5c9223dfc7146f8326a121b01fe9d6624fddd0c",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(CAMPAIGN_DIGESTS))
def test_seeded_campaign_reports_are_pinned(seed):
    report = run_campaign(CampaignConfig(seed=seed, instances=100))
    assert (_sha256(report.render("json")), _sha256(report.render("csv"))) == \
        CAMPAIGN_DIGESTS[seed]


def test_small_seeded_campaign_reports_are_pinned():
    wrong = [seed for seed, digest in SMALL_CAMPAIGN_DIGESTS.items()
             if _sha256(run_campaign(CampaignConfig(seed=seed, instances=5)).to_json()) != digest]
    assert not wrong


# sha256 of the newline-joined to_json outputs (keys sorted) of enum_outputs().
ENUM_DIGEST = "ae1678f78afde7c526f2e259f9323239c0816a34d6bcf41ee73f7b75590a2324"


def enum_outputs(count: int = 120) -> list[str]:
    """Seeded oracle, delta and prop13 results with |B| from 14 to 18 on the
    18-24-state regular, two-factor and union systems, past one enumeration
    block from |B| = 15 on."""
    systems = []
    for n in range(18, 25):
        group = make_group([n])
        systems.append(regular_system(group))
        split = next((d for d in range(2, n) if n % d == 0 and d * d >= n), None)
        if split is not None:
            systems.append(regular_system(make_group([split, n // split])))
        if n % 2 == 0:
            half = quotient_system(group, [n // 2])
            systems.append(disjoint_union(half, half, Fraction(1, 3)))
    rng = random.Random(1405)
    lines = []
    for i in range(count):
        kind = ("oracle", "delta", "prop13")[i % 3]
        m = 14 + (i // 3) % 5
        sysm = rng.choice(systems)
        A = finite_set(sysm.group, rng.sample(range(sysm.group.cardinality), rng.randint(3, 6)))
        B = rng.sample(range(sysm.states), m)
        delta = rng.choice((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)))
        if kind == "oracle":
            result = mag_ratio_oracle(sysm, A, state_subset(sysm, B))
        elif kind == "delta":
            result = mag_ratio_delta(sysm, A, state_subset(sysm, B), delta)
        else:
            Bp = state_subset(sysm, rng.sample(B, rng.randint(1, m // 3)))
            result = check_prop13_increment(sysm, A, state_subset(sysm, B), Bp, delta,
                                            rng.choice((1, 2)))
        lines.append(json.dumps(result.to_json(), sort_keys=True))
    return lines


def test_enumeration_outputs_are_pinned():
    assert _sha256("\n".join(enum_outputs())) == ENUM_DIGEST


def test_magratio_json_on_a_two_factor_regular_system(capsys):
    code = main(["magratio", "--group", "4,6", "--A", "1,3,13,19",
                 "--B", "1,7,8,10,12,16,17,18,19", "--json"])
    assert code == 0
    assert capsys.readouterr().out == (
        "7/3, witness [7, 17, 19], method flow\n"
        '{"edges": 67, "iterations": 3, "method": "flow", "nodes": 33, "value": "7/3", '
        '"witness": [7, 17, 19]}\n')


def test_magratio_json_on_a_union_of_quotients(capsys, tmp_path):
    group = make_group([12])
    union = disjoint_union(quotient_system(group, [6]), quotient_system(group, [4]),
                           Fraction(1, 3))
    path = tmp_path / "union.json"
    path.write_text(json.dumps(system_to_json(union)))
    code = main(["magratio", "--system", str(path), "--A", "1,4,9",
                 "--B", "0,2,3,5,6,8,9", "--json"])
    assert code == 0
    assert capsys.readouterr().out == (
        "4/3, witness [6, 8, 9], method flow\n"
        '{"edges": 35, "iterations": 2, "method": "flow", "nodes": 19, "value": "4/3", '
        '"witness": [6, 8, 9]}\n')


def test_correspond_json_on_two_limit_orbits(capsys, tmp_path):
    # Left tail of period 6, right tail of period 4: two orbits act through Z/6 and Z/4.
    path = tmp_path / "desc.json"
    path.write_text(json.dumps(zset_to_json(zdesc([0, 2, 3], 0, 4, (6, {1, 4}), (4, {0, 3})))))
    code = main(["correspond", "--desc", str(path), "--A", "0,3,7", "--json"])
    assert code == 0
    assert _sha256(capsys.readouterr().out) == \
        "8a1d527a56bad121aef650640c8bd52ca51ccbfd98ac081c9d35e5e1c8a93244"


def test_sumset_of_two_descriptors(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(zset_to_json(zdesc([0, 2, 3], 0, 4, (6, {1, 4}), (4, {0, 3})))))
    b.write_text(json.dumps(zset_to_json(zdesc([5], 5, 6, None, (3, {2})))))
    code = main(["sumset", "--zdesc-a", str(a), "--zdesc-b", str(b)])
    assert code == 0
    assert capsys.readouterr().out == (
        '{"head": {"hi": 5, "lo": 5, "members": []}, "left": {"pattern": [0], "period": 3}, '
        '"right": {"pattern": [0], "period": 1}}\nupper density: 1/1\nlower density: 1/3\n')


Z12 = make_group([12])
HALVES = quotient_system(make_group([24]), [12])
BOTH = ('{"degenerate": false, "mu_side": "both", "nu_side": "both", "relations": ['
        '{"holds": true, "lhs": "1/3", "name": "upper density of S equals mu(B)", '
        '"op": "==", "rhs": "1/3"}, {"holds": true, "lhs": "1/3", "name": '
        '"lower density of S below nu(B)", "op": "<=", "rhs": "1/3"}, {"holds": true, '
        '"lhs": "2/3", "name": "upper density of A+S dominates mu(A.B)", "op": ">=", '
        '"rhs": "2/3"}, {"holds": true, "lhs": "2/3", "name": "lower density of A+S '
        'dominates nu(A.B)", "op": ">=", "rhs": "2/3"}]}')


def _tails(left, right):
    return {"head": {"lo": 0, "hi": 0, "members": []}, "left": left, "right": right}


# (input files, argv, exit code, the line pinned, its text).  "first" and
# "last" are lines of stdout; "report" pins that verify writes one line of
# JSON.  Inputs are written to the working directory.
CONSOLE_PINS = {
    # A union system read from JSON: the cold system_from_json route.
    "magratio union": (
        {"u.json": system_to_json(disjoint_union(quotient_system(Z12, [6]),
                                                 quotient_system(Z12, [4]), Fraction(1, 3)))},
        "magratio --system u.json --A 0,1,5 --B 0,2,3,7,8 --json", 0, "last",
        '{"edges": 27, "iterations": 2, "method": "flow", "nodes": 16, "value": "3/2", '
        '"witness": [7, 8]}'),
    # The delta enumerator on 17 candidates, past one block of 2^14 subsets, on
    # two halves whose states weigh 1 and 2.
    "magratio delta": (
        {"h.json": system_to_json(disjoint_union(HALVES, HALVES, Fraction(1, 3)))},
        "magratio --system h.json --A 0,1,5 --B 0,1,2,4,5,7,8,10,11,13,14,15,17,19,20,22,23 "
        "--delta 1/3 --json", 0, "last",
        '{"edges": 0, "iterations": 131071, "method": "enumeration", "nodes": 0, '
        '"value": "4/3", "witness": [0, 1, 2, 4, 5, 7, 8, 10, 11]}'),
    # A right-tailed set plus a left-tailed one.
    "sumset tails": (
        {"za.json": {"head": {"lo": 0, "hi": 5, "members": [0, 3]}, "left": None,
                     "right": {"period": 12, "pattern": [1]}},
         "zb.json": {"head": {"lo": -2, "hi": 2, "members": [-2, 1]},
                     "left": {"period": 8, "pattern": [3]}, "right": None}},
        "sumset --zdesc-a za.json --zdesc-b zb.json", 0, "first",
        '{"head": {"hi": 3, "lo": 1, "members": [1]}, "left": {"pattern": [0, 3, 4, 6], '
        '"period": 8}, "right": {"pattern": [0, 2, 4, 8, 11], "period": 12}}'),
    # An empty head and unequal tails: zsumset's trim keeps no point of its core
    # and zdesc slides the boundary down to where the tails disagree.
    "sumset slide": (
        {"zc.json": {"head": {"lo": -1, "hi": 1, "members": [-1]}, "left": None,
                     "right": {"period": 6, "pattern": [0]}},
         "zd.json": _tails({"period": 4, "pattern": [3]}, None)},
        "sumset --zdesc-a zc.json --zdesc-b zd.json", 0, "first",
        '{"head": {"hi": -1, "lo": -1, "members": []}, "left": {"pattern": [1, 2, 3], '
        '"period": 4}, "right": {"pattern": [1], "period": 2}}'),
    # A periodic set is one "both" orbit, and so are tails whose masks are
    # rotations of each other; 6:{0,1} and 6:{0,2} are two orbits.
    "correspond periodic": ({}, "correspond --period 6 --pattern 0,1 --A 0,3 --json", 0,
                            "last", BOTH),
    "correspond rotation": (
        {"zrot.json": _tails({"period": 6, "pattern": [0, 1]}, {"period": 6, "pattern": [3, 4]})},
        "correspond --desc zrot.json --A 0,3 --json", 0, "last", BOTH),
    "correspond two orbits": (
        {"ztwo.json": _tails({"period": 6, "pattern": [0, 1]}, {"period": 6, "pattern": [0, 2]})},
        "correspond --desc ztwo.json --A 0,3 --json", 0, "last",
        BOTH.replace('"mu_side": "both", "nu_side": "both"', '"mu_side": "left", "nu_side": "left"')),
    "density period 0": ({}, "density --period 0 --pattern 0", 2, None, None),
    "verify report": ({}, "verify --seed 1 --instances 2 --out report.json", 0, "report", None),
}


@pytest.mark.parametrize("files, argv, code, where, pinned", CONSOLE_PINS.values(),
                         ids=CONSOLE_PINS.keys())
def test_console_script_pins(capsys, tmp_path, monkeypatch, files, argv, code, where, pinned):
    monkeypatch.chdir(tmp_path)
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    assert main(argv.split()) == code
    out, err = capsys.readouterr()
    assert err.startswith("error: ") == (code == 2)
    if where == "report":
        lines = (tmp_path / "report.json").read_text().splitlines()
        assert len(lines) == 1
        json.loads(lines[0])
    elif where is not None:
        assert out.splitlines()[0 if where == "first" else -1] == pinned
