"""The four benchmark workloads: campaign, flow, enum and line.

Each workload makes its inputs from the benchmark seed with its own
``random.Random`` stream (never the library's SplitMix64), so the program
under test receives only generated inputs.  The op parameters that set most
of an op's cost (op kind, set sizes, tail period) follow a short fixed cycle,
and the rest is drawn at random.  A run holds many whole cycles, so two
seeds, or two hosts of different speed, give the same mix of op costs, which
keeps runs comparable.

A workload object is built by ``setup`` (systems, input files) and then
serves an endless stream of ops from ``ops()``, plus a fixed list of
contract probes from ``probes()`` that a traced run makes after its passes.
``run(op)`` performs one op and returns its output; any exception is a
failed op.  ``check(op, output)`` and ``check_run(records)`` verify outputs
after the timed phase and report problems, each of which fails an op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import sumsetlab as sl
from sumsetlab import cli as _cli


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str
    report: bytes = b""


@dataclass
class Record:
    """One attempted op: its output, or the name of the exception it raised."""

    op: Op
    seconds: float
    cpu_seconds: float = 0.0
    output: object = None
    error: str | None = None
    started: float = 0.0


def run_cli(argv: list[str], report: Path | None = None) -> CliOutput:
    """One in-process ``sumsetlab`` call with stdout and stderr captured.

    An exit code outside the CLI's 0/1/2 contract raises, so the op fails.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = _cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags with exit 2
            code = exc.code
    if code not in (0, 1, 2):
        raise RuntimeError(f"exit code {code!r} is outside the 0/1/2 contract")
    data = report.read_bytes() if report is not None and code == 0 else b""
    return CliOutput(code, out.getvalue(), data)


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


def _act(system, g: int) -> np.ndarray:
    """The permutation of the states induced by g, from the generator tables.

    Powers come from repeated squaring, so this route shares no code with
    the library's action cache.
    """
    out = np.arange(system.states)
    for table, d in zip(system.generators, system.group.digits(g)):
        base = np.asarray(table)
        while d:
            if d & 1:
                out = base[out]
            base = base[base]
            d >>= 1
    return out


def _mu(system, states) -> Fraction:
    return sum((system.weights[x] for x in set(states)), Fraction(0))


def _ratio(system, A, W) -> Fraction:
    """mu(A.W) / mu(W) for element indices A and state indices W."""
    image: set[int] = set()
    for a in A:
        image.update(_act(system, a)[list(W)].tolist())
    return _mu(system, image) / _mu(system, W)


def _check_witness(system, A, B, value: Fraction, witness) -> list[str]:
    """The witness is a positive-measure subset of B whose ratio is exactly value."""
    if not witness or not set(witness) <= set(B):
        return [f"witness {witness} is not a non-empty subset of B"]
    if _mu(system, witness) == 0:
        return ["witness has measure zero"]
    got = _ratio(system, A, witness)
    if got != value:
        return [f"witness ratio {got} != reported value {value}"]
    return []


class Workload:
    name = ""
    trace_ops = 10  # length of the fixed op list a traced run replays

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir / self.name
        self.dir.mkdir(parents=True, exist_ok=True)

    def rng(self, stream: str) -> random.Random:
        """A stream drawn from the seed, except the warm-up stream.

        The warm-up op is part of the set-up time, so it is the same for
        every seed and set-up times compare across seeds.
        """
        seed = "any seed" if stream == "warm-up" else self.seed
        return random.Random(f"{self.name}:{stream}:{seed}")

    def setup(self) -> None:
        pass

    def warm_up(self) -> list[str]:
        """Run and check one op from a stream the timed phase does not use."""
        op = next(self.ops(stream="warm-up"))
        try:
            return [f"warm-up op: {p}" for p in self.check(op, self.run(op))]
        except Exception as exc:
            return [f"warm-up op raised {type(exc).__name__}: {exc}"]

    def ops(self, stream: str = "timed"):
        raise NotImplementedError

    def probes(self) -> list[Op]:
        """Ops that probe a known defect: tallied apart from the run's ops, checked, not timed."""
        return []

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, output) -> list[str]:
        raise NotImplementedError

    def check_run(self, records: list[Record]) -> list[tuple[int | None, str]]:
        """Checks over the whole run, as (index of the op at fault or None, problem)."""
        return []

    def digest_bytes(self, output) -> bytes:
        return repr(output).encode()


# ---------------------------------------------------------------------------
# campaign: sumsetlab verify, all 14 checks at the default sizes
# ---------------------------------------------------------------------------


class Campaign(Workload):
    name = "campaign"
    trace_ops = 24
    instances = 5

    def ops(self, stream: str = "timed"):
        rng = self.rng(stream)
        while True:
            yield Op("verify", (rng.getrandbits(31),))

    def run(self, op: Op) -> CliOutput:
        out = self.dir / "report.json"
        argv = ["verify", "--seed", str(op.args[0]), "--instances", str(self.instances),
                "--out", str(out)]
        return run_cli(argv, out)

    def check(self, op: Op, output: CliOutput) -> list[str]:
        if output.code != 0:
            return [f"verify exited {output.code}"]
        report = json.loads(output.report)
        want = self.instances * len(sl.CHECK_NAMES)
        if len(report["rows"]) != want:
            return [f"report has {len(report['rows'])} rows, expected {want}"]
        if report["config"]["seed"] != op.args[0]:
            return ["report carries the wrong seed"]
        return []

    def check_run(self, records: list[Record]) -> list[tuple[int | None, str]]:
        first = next((i for i, r in enumerate(records) if r.error is None), None)
        if first is None:
            return []
        rec = records[first]
        if self.run(rec.op).report != rec.output.report:
            return [(first, f"seed {rec.op.args[0]} gave a different report on a second run")]
        return []

    def digest_bytes(self, output: CliOutput) -> bytes:
        return output.report


# ---------------------------------------------------------------------------
# flow: sumsetlab magratio --system F, cold action caches on every call
# ---------------------------------------------------------------------------


class Flow(Workload):
    name = "flow"
    trace_ops = 10
    acting_sizes = range(6, 13)
    probe_count = 10  # at 127 failures in 200, all ten succeed for about 1 seed in 24000
    probe_order = 4096  # a cyclic factor >= 2000 overflows the recursive power cache
    probe_b = 16

    def setup(self) -> None:
        z1024 = sl.make_group([1024])
        self.systems, self.files = {}, {}
        self._add("z1024", sl.regular_system(z1024))
        self._add("z32x32", sl.regular_system(sl.make_group([32, 32])))
        self._add("union", sl.disjoint_union(sl.quotient_system(z1024, [512]),
                                             sl.quotient_system(z1024, [256]), Fraction(1, 3)))

    def _add(self, key: str, system) -> None:
        self.systems[key] = system
        self.files[key] = path = self.dir / f"{key}.json"
        path.write_text(json.dumps(sl.system_to_json(system)))

    def probes(self) -> list[Op]:
        """magratio on Z/4096 with acting elements from the whole group.

        Most of these end in a RecursionError today; they are not re-drawn.
        Each successful one fills a 4096 x 4096 power cache, so only traced
        runs make them, after their passes.  Z/4096 is built here, not in
        ``setup``, so its cost stays out of ``setup_s``.
        """
        if "z4096" not in self.systems:
            self._add("z4096", sl.regular_system(sl.make_group([self.probe_order])))
        rng = self.rng("probe")
        out = []
        for _ in range(self.probe_count):
            size = rng.choice(self.acting_sizes)
            A = sorted(rng.sample(range(self.probe_order), size))
            B = sorted(rng.sample(range(self.probe_order), self.probe_b))
            out.append(Op("probe", ("z4096", tuple(A), tuple(B))))
        return out

    def ops(self, stream: str = "timed"):
        rng = self.rng(stream)
        keys = ("z1024", "z32x32", "union")
        i = 0
        while True:
            key = keys[i % len(keys)]
            size = self.acting_sizes[i % len(self.acting_sizes)]
            system = self.systems[key]
            A = sorted(rng.sample(range(system.group.cardinality), size))
            B = sorted(rng.sample(range(system.states), system.states // 4))
            yield Op("magratio", (key, tuple(A), tuple(B)))
            i += 1

    def run(self, op: Op) -> CliOutput:
        key, A, B = op.args
        return run_cli(["magratio", "--system", str(self.files[key]), "--A", _ints(A),
                        "--B", _ints(B), "--json"])

    def _parsed(self, op: Op, output: CliOutput):
        key, A, B = op.args
        result = json.loads(output.stdout.splitlines()[-1])
        return self.systems[key], A, B, Fraction(result["value"]), result

    def check(self, op: Op, output: CliOutput) -> list[str]:
        if output.code != 0:
            return [f"magratio exited {output.code}"]
        system, A, B, value, result = self._parsed(op, output)
        if value > _ratio(system, A, B):
            return [f"value {value} exceeds the ratio of B itself"]
        return _check_witness(system, A, B, value, result["witness"])

    def check_run(self, records: list[Record]) -> list[tuple[int | None, str]]:
        first = next((i for i, r in enumerate(records)
                      if r.error is None and r.op.kind == "magratio"), None)
        if first is None:
            return []
        system, A, B, value, _ = self._parsed(records[first].op, records[first].output)
        least = parametric_minimum(system, A, B, value)
        if least != 0:
            return [(first, f"networkx certificate: min mu(AS) - t mu(S) = {least} "
                            f"at t = {value}")]
        return []

    def digest_bytes(self, output: CliOutput) -> bytes:
        return output.stdout.encode()


def parametric_minimum(system, A, B, t: Fraction) -> Fraction:
    """min over S inside B of mu(A.S) - t*mu(S), by a networkx minimum cut.

    The closure network is source -> b (capacity t*mu(b)), b -> x for x in
    A.{b} (unbounded), x -> sink (capacity mu(x)), scaled to integers.  The
    empty set gives 0, so the minimum is 0 exactly when no subset of B has
    a ratio below t.
    """
    import networkx as nx

    cand = [b for b in B if system.weights[b] > 0]
    perms = [_act(system, a) for a in A]
    covers = {b: {int(perm[b]) for perm in perms} for b in cand}
    xs = sorted({x for cover in covers.values() for x in cover})
    profits = {b: t * system.weights[b] for b in cand}
    scale = math.lcm(*[p.denominator for p in profits.values()],
                     *[system.weights[x].denominator for x in xs])
    graph = nx.DiGraph()
    for b in cand:
        graph.add_edge("source", ("b", b), capacity=int(profits[b] * scale))
        for x in covers[b]:
            graph.add_edge(("b", b), ("x", x))
    for x in xs:
        graph.add_edge(("x", x), "sink", capacity=int(system.weights[x] * scale))
    cut = nx.maximum_flow_value(graph, "source", "sink")
    return Fraction(cut, scale) - sum(profits.values())


# ---------------------------------------------------------------------------
# enum: the exhaustive enumerators on systems of order 18-24
# ---------------------------------------------------------------------------


class Enum(Workload):
    name = "enum"
    trace_ops = 18
    kinds = ("oracle", "delta", "prop13")
    # |B| = 18 comes twice, so the 90th percentile falls inside the |B| = 18
    # ops and not on the steep edge between them and the |B| = 17 ops.
    b_sizes = (14, 15, 16, 17, 18, 18)
    acting_sizes = (3, 4, 5, 6)
    deltas = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))

    def setup(self) -> None:
        self.systems = []
        for n in range(18, 25):
            group = sl.make_group([n])
            self.systems.append(sl.regular_system(group))
            split = next((d for d in range(2, n) if n % d == 0 and d * d >= n), None)
            if split is not None:
                self.systems.append(sl.regular_system(sl.make_group([split, n // split])))
            if n % 2 == 0:
                half = sl.quotient_system(group, [n // 2])
                self.systems.append(sl.disjoint_union(half, half, Fraction(1, 3)))

    def ops(self, stream: str = "timed"):
        rng = self.rng(stream)
        i = 0
        while True:
            # Kind and |B| fix the enumeration's 2^|B| cost and cycle every 18 ops.
            kind = self.kinds[i % len(self.kinds)]
            m = self.b_sizes[(i // len(self.kinds)) % len(self.b_sizes)]
            index = rng.randrange(len(self.systems))
            size = rng.choice(self.acting_sizes)
            system = self.systems[index]
            A = tuple(sorted(rng.sample(range(system.group.cardinality), size)))
            B = tuple(sorted(rng.sample(range(system.states), m)))
            extra: tuple = ()
            if kind == "delta":
                extra = (rng.choice(self.deltas),)
            elif kind == "prop13":
                Bp = tuple(sorted(rng.sample(B, rng.randint(1, m // 3))))
                extra = (Bp, rng.choice(self.deltas), rng.choice((1, 2)))
            yield Op(kind, (index, A, B) + extra)
            i += 1

    def _sets(self, op: Op):
        index, A, B = op.args[:3]
        system = self.systems[index]
        return system, sl.finite_set(system.group, A), sl.state_subset(system, B)

    def run(self, op: Op) -> str:
        system, A, B = self._sets(op)
        if op.kind == "oracle":
            result = sl.mag_ratio_oracle(system, A, B)
        elif op.kind == "delta":
            result = sl.mag_ratio_delta(system, A, B, op.args[3])
        else:
            Bp, delta, k = op.args[3:]
            result = sl.check_prop13_increment(system, A, B, sl.state_subset(system, Bp),
                                               delta, k, "bench")
        return json.dumps(result.to_json(), sort_keys=True)

    def check(self, op: Op, output: str) -> list[str]:
        result = json.loads(output)
        if op.kind == "prop13":
            if not result["holds"]:
                return [f"prop13 reported a violation: {result['note']}"]
            return []
        system = self.systems[op.args[0]]
        A, B = op.args[1:3]
        value = Fraction(result["value"])
        problems = _check_witness(system, A, B, value, result["witness"])
        flow = sl.mag_ratio(*self._sets(op)).value
        if op.kind == "oracle" and value != flow:
            problems.append(f"oracle {value} != flow {flow}")
        if op.kind == "delta":
            if _mu(system, result["witness"]) < op.args[3] * _mu(system, B):
                problems.append("delta witness is below its mass bound")
            if value < flow:
                problems.append(f"constrained ratio {value} below unconstrained {flow}")
        return problems


# ---------------------------------------------------------------------------
# line: zsumset, correspondence, and the spectral module
# ---------------------------------------------------------------------------


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _indicator(S, lo: int, hi: int) -> np.ndarray:
    """Membership of S on [lo, hi) as a 0/1 array, read from the descriptor."""
    xs = np.arange(lo, hi)
    out = np.zeros(hi - lo, dtype=np.int64)
    for tail, where in ((S.left, xs < S.lo), (S.right, xs >= S.hi)):
        if tail is not None:
            pattern = np.zeros(tail.period, dtype=np.int64)
            pattern[list(tail.pattern)] = 1
            out[where] = pattern[xs[where] % tail.period]
    for h in S.head:
        if lo <= h < hi:
            out[h - lo] = 1
    return out


def brute_force_sumset(A, B, P: int, lo: int, hi: int) -> np.ndarray:
    """Membership of A + B on [lo, hi) by counting witness pairs.

    For x in [A.lo+B.lo-2P, A.hi+B.hi+2P) some witness a + b = x has a
    within P of A's head or b within P of B's head (slide a far pair by P
    towards the heads), so a and b range over the head windows widened by
    3P plus the other head's width.  Pairs are counted by an FFT
    convolution of the two indicator arrays.
    """
    wa, wb = A.hi - A.lo, B.hi - B.lo
    a_lo, a_hi = A.lo - 3 * P - wb, A.hi + 3 * P + wb
    b_lo, b_hi = B.lo - 3 * P - wa, B.hi + 3 * P + wa
    ia, ib = _indicator(A, a_lo, a_hi), _indicator(B, b_lo, b_hi)
    size = len(ia) + len(ib) - 1
    pairs = np.fft.irfft(np.fft.rfft(ia, size) * np.fft.rfft(ib, size), size)
    hits = np.rint(pairs) > 0  # index k is the sum a_lo + b_lo + k
    return hits[lo - (a_lo + b_lo): hi - (a_lo + b_lo)]


class Line(Workload):
    name = "line"
    trace_ops = 10
    schedule = ("zsumset", "correspond", "zsumset", "correspond", "equidist",
                "zsumset", "correspond", "zsumset", "correspond", "weyl")
    periods = (600, 840, 1200, 1680, 2000)     # lcm P of the zsumset tail periods
    orbit_periods = (300, 360, 420, 480, 600)  # tail periods of correspond inputs
    equidist_order = 1 << 14
    windows = (1_000_000, 2_000_000, 4_000_000)
    dft_order = 1024

    def ops(self, stream: str = "timed"):
        rng = self.rng(stream)
        counts = dict.fromkeys(self.schedule, 0)
        i = 0
        while True:
            kind = self.schedule[i % len(self.schedule)]
            j = counts[kind]
            counts[kind] += 1
            i += 1
            if kind == "zsumset":
                P = self.periods[j % len(self.periods)]
                choices = [d for d in _divisors(P) if d >= P // 12]
                periods = [rng.choice(choices) for _ in range(4)]
                periods[rng.randrange(4)] = P
                yield Op(kind, (self._desc(rng, periods[0], periods[1]),
                                self._desc(rng, periods[2], periods[3])))
            elif kind == "correspond":
                p = self.orbit_periods[j % len(self.orbit_periods)]
                S = self._desc(rng, p, p)
                A = tuple(sorted(rng.sample(range(-40, 41), rng.randint(3, 6))))
                yield Op(kind, (S, A))
            elif kind == "equidist":
                size = rng.randint(self.equidist_order // 8, self.equidist_order // 2)
                yield Op(kind, (tuple(sorted(rng.sample(range(self.equidist_order), size))),))
            else:
                freqs = tuple(rng.randint(1, 10**6 - 1) / 10**6 for _ in range(8))
                yield Op(kind, (self.windows[j % len(self.windows)], freqs))

    @staticmethod
    def _desc(rng: random.Random, left: int, right: int):
        width = rng.randint(8, 40)
        lo = rng.randint(-60, 60)
        head = rng.sample(range(lo, lo + width), rng.randint(1, width))

        def tail(p: int):
            return (p, rng.sample(range(p), rng.randint(1, max(1, p // 6))))

        return sl.zdesc(head, lo, lo + width, tail(left), tail(right))

    def run(self, op: Op):
        if op.kind == "zsumset":
            return json.dumps(sl.zset_to_json(sl.zsumset(*op.args)), sort_keys=True)
        if op.kind == "correspond":
            return json.dumps(sl.verify_correspondence(*op.args).to_json(), sort_keys=True)
        if op.kind == "equidist":
            group = sl.make_group([self.equidist_order])
            return json.dumps(sl.equidist_defect(sl.finite_set(group, op.args[0])).to_json(),
                              sort_keys=True)
        window, freqs = op.args
        return repr(sl.weyl_defect_window(sl.floor_three_halves(window), window, list(freqs)))

    def check(self, op: Op, output: str) -> list[str]:
        if op.kind == "zsumset":
            A, B = op.args
            C = sl.zset_from_json(json.loads(output))
            periods = [t.period for t in (A.left, A.right, B.left, B.right) if t is not None]
            P = math.lcm(*periods)
            lo, hi = A.lo + B.lo - 2 * P, A.hi + B.hi + 2 * P
            want = brute_force_sumset(A, B, P, lo, hi)
            got = _indicator(C, lo, hi) > 0
            if not np.array_equal(want, got):
                first = lo + int(np.flatnonzero(want != got)[0])
                return [f"zsumset membership differs from brute force at {first}"]
            return []
        if op.kind == "correspond":
            report = json.loads(output)
            failed = [r["name"] for r in report["relations"] if not r["holds"]]
            return [f"correspondence relation failed: {failed[0]}"] if failed else []
        if op.kind == "equidist":
            defect = json.loads(output)["defect"]
        else:
            defect = float(output)
        if not 0.0 <= defect <= 1.0 + 1e-12:
            return [f"{op.kind} defect {defect} outside [0, 1]"]
        return []

    def check_run(self, records: list[Record]) -> list[tuple[int | None, str]]:
        group = sl.make_group([self.dft_order])
        rng = self.rng("dft")
        weights = [rng.random() for _ in range(self.dft_order)]
        fast, naive = sl.group_dft(group, weights), sl.group_dft_naive(group, weights)
        gap = float(np.max(np.abs(fast - naive)))
        if gap > 1e-9:
            return [(None, f"group_dft differs from group_dft_naive by {gap} "
                           f"at order {self.dft_order}")]
        return []


WORKLOADS = {cls.name: cls for cls in (Campaign, Flow, Enum, Line)}


def digest(workload: Workload, records: list[Record], count: int) -> str:
    """sha256 over the outputs of the first ``count`` ops, failures included."""
    h = hashlib.sha256()
    for rec in records[:count]:
        h.update(rec.error.encode() if rec.error else workload.digest_bytes(rec.output))
        h.update(b"\n")
    return h.hexdigest()
