"""The CLI exit-code contract under malformed and extreme input.

Every run of ``cli.main`` ends in 0, 1 or 2 (argparse's ``SystemExit(2)``
counts as 2) and never in another exception; input carrying one of the
defects drawn below must end in 2 with an ``error:`` line.  Extreme numbers
are drawn only where a guard rejects them in O(1), so each run stays small.
Each example runs under a SIGALRM alarm, so a hang fails the test at once
instead of stalling the suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetlab import disjoint_union, make_group, quotient_system, regular_system, zset_to_json
from sumsetlab.cli import main
from sumsetlab.systems import system_to_json

from conftest import ExampleTimeout, alarm, zdescs

EXTREME = st.sampled_from([10**12, -10**12, 2**64, 10**40])
NOT_INT = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=True),
                    st.text(max_size=4), st.lists(st.integers(0, 3), max_size=2),
                    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))
NOT_LIST = st.one_of(st.booleans(), st.integers(-3, 3), st.floats(allow_nan=True),
                     st.text(max_size=4),
                     st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))
NOT_RATIONAL = st.one_of(st.sampled_from(["x", "", "1/0", "nan", "1e5", "1e999999999", "2.5.1"]),
                         st.booleans(), st.floats(allow_nan=True), st.none())
SMALL_INTS = st.lists(st.integers(-2, 9), min_size=1, max_size=4)


EXAMPLE_SECONDS = 10


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


@st.composite
def system_json(draw, malformed: bool) -> dict:
    n = draw(st.integers(1, 6))
    group = make_group([n])
    kind = draw(st.integers(0, 2))
    if kind == 0:
        sysm = regular_system(group)
    else:
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        sysm = quotient_system(group, [draw(st.sampled_from(divisors))])
        if kind == 2:
            sysm = disjoint_union(sysm, regular_system(group))
    data = system_to_json(sysm)
    if not malformed:
        return data
    where = draw(st.sampled_from(["group", "orders", "states", "action", "row", "entry",
                                  "measure", "weight"]))
    if where == "group":
        data["group"] = draw(NOT_LIST)
    elif where == "orders":
        data["group"]["orders"] = draw(st.one_of(NOT_LIST, st.lists(EXTREME, min_size=1,
                                                                    max_size=1)))
    elif where == "states":
        data["states"] = draw(st.one_of(NOT_INT, EXTREME))
    elif where == "action":
        data["action"] = draw(NOT_LIST)
    elif where == "row":
        data["action"][0] = draw(NOT_LIST)
    elif where == "entry":
        data["action"][0][draw(st.integers(0, sysm.states - 1))] = draw(NOT_INT)
    elif where == "measure":
        data["measure"] = draw(NOT_LIST)
    else:
        data["measure"][draw(st.integers(0, sysm.states - 1))] = draw(NOT_RATIONAL)
    return data


@st.composite
def desc_json(draw, malformed: bool) -> dict:
    data = zset_to_json(draw(zdescs()))
    if not malformed:
        return data
    tail = {"period": draw(st.integers(1, 6)), "pattern": [0]}
    data["right"] = tail
    where = draw(st.sampled_from(["head", "lo", "hi", "members", "tail", "period", "pattern"]))
    if where == "head":
        data["head"] = draw(NOT_LIST)
    elif where in ("lo", "hi"):
        data["head"][where] = draw(NOT_INT)
    elif where == "members":
        data["head"]["members"] = draw(st.one_of(NOT_LIST, st.lists(NOT_INT, min_size=1,
                                                                    max_size=2)))
    elif where == "tail":
        data["right"] = draw(st.one_of(NOT_LIST, st.just({"period": 2})))
    elif where == "period":
        tail["period"] = draw(st.one_of(NOT_INT, EXTREME, st.integers(-3, 0)))
    else:
        tail["pattern"] = draw(st.one_of(st.none(), NOT_LIST))
    return data


@st.composite
def cli_cases(draw):
    """(argv, JSON files by name, whether the input carries a defect)."""
    malformed = draw(st.booleans())
    command = draw(st.sampled_from(["magratio", "density", "correspond", "sumset", "equidist"]))
    files: dict[str, object] = {}
    if command == "magratio":
        files["system.json"] = draw(system_json(malformed))
        path = "missing.json" if malformed and draw(st.booleans()) else "system.json"
        argv = ["magratio", "--system", path, "--A", _ints(draw(SMALL_INTS)),
                "--B", _ints(draw(SMALL_INTS))]
        if draw(st.booleans()):
            argv += ["--delta", draw(st.sampled_from(["1/2", "1", "1/3", "0", "3/2"]))]
        argv += draw(st.sampled_from([[], ["--oracle"], ["--json"]]))
    elif command in ("density", "correspond"):
        mode = draw(st.sampled_from(["desc", "period", "members"]))
        if mode == "desc":
            files["desc.json"] = draw(desc_json(malformed))
            argv = [command, "--desc", "desc.json"]
        elif mode == "period":
            period = draw(EXTREME) if malformed else draw(st.integers(1, 12))
            argv = [command, "--period", str(period), "--pattern", "0"]
        else:
            argv = [command, "--members", _ints(draw(SMALL_INTS))]
            malformed = False
        if command == "correspond":
            argv += ["--A", _ints(draw(SMALL_INTS))]
            if mode == "members" and draw(st.booleans()):
                argv[-1] = f"0,{draw(EXTREME)}"  # a window far beyond the guard
                malformed = True
    elif command == "sumset":
        if draw(st.booleans()):
            files["a.json"] = draw(desc_json(malformed))
            files["b.json"] = draw(desc_json(False))
            argv = ["sumset", "--zdesc-a", "a.json", "--zdesc-b", "b.json"]
        else:
            order = draw(EXTREME) if malformed else draw(st.integers(1, 16))
            argv = ["sumset", "--group", str(order), "--A", _ints(draw(SMALL_INTS)),
                    "--B", _ints(draw(SMALL_INTS)), "--json"]
    else:
        if draw(st.booleans()):
            window = draw(EXTREME) if malformed else draw(st.integers(1, 4000))
            argv = ["equidist", "--window", str(window), "--three-halves"]
            if draw(st.booleans()):
                argv += ["--freqs", draw(st.sampled_from(["1/2", "1/3,2/7", "0/1", "1e3", "x"]))]
        else:
            order = draw(EXTREME) if malformed else draw(st.integers(1, 16))
            argv = ["equidist", "--group", str(order), "--A", _ints(draw(SMALL_INTS)), "--json"]
    return argv, files, malformed


@settings(max_examples=1500, deadline=None)
@given(cli_cases())
def test_cli_ends_in_an_exit_code_never_a_traceback(case):
    argv, files, malformed = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_text(json.dumps(data))
        argv = [str(Path(tmp) / a) if a.endswith(".json") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                alarm(EXAMPLE_SECONDS, argv):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a flag
                code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if malformed:
        assert code == 2, (argv, files, out.getvalue())
    if code == 2:
        assert "error:" in err.getvalue()


def test_the_alarm_interrupts_a_hang():
    with pytest.raises(ExampleTimeout, match="ran past 1 s"):
        with alarm(1, "the loop"):
            while True:
                pass
