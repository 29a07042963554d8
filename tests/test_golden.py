"""Golden outputs: seeded reports and CLI results pinned byte for byte.

A refactor of the action, the enumerators or the flow must leave these
bytes unchanged.  The campaign digests are those of ``sumsetlab verify
--seed S --instances 100`` with every check, in both formats; one campaign
per seed renders both.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from sumsetlab import (disjoint_union, make_group, quotient_system, system_to_json, zdesc,
                       zset_to_json)
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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(CAMPAIGN_DIGESTS))
def test_seeded_campaign_reports_are_pinned(seed):
    report = run_campaign(CampaignConfig(seed=seed, instances=100))
    assert (_sha256(report.render("json")), _sha256(report.render("csv"))) == \
        CAMPAIGN_DIGESTS[seed]


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
