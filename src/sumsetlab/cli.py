"""Command-line front end.

Subcommands: sumset, density, magratio, verify, correspond, equidist.
Exit codes follow one contract everywhere: 0 all requested relations hold,
1 a checked relation is violated, 2 invalid input (bad flags, malformed
JSON, guard limits).  Rational values print as "p/q"; floats appear only
in spectral output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import textwrap
from functools import cache
from pathlib import Path

from .groups import finite_set, frac_str, group_density, make_group, parse_fraction, sumset
from .magnification import mag_ratio, mag_ratio_delta, mag_ratio_oracle
from .orbits import verify_correspondence
from .spectral import equidist_defect, floor_three_halves, weyl_defect_window
from .systems import regular_system, state_subset, system_from_json
from .verify import CHECK_NAMES, CHECKS, CampaignConfig, run_campaign
from .zline import (
    banach_lower,
    banach_upper,
    finite,
    periodic,
    zset_from_json,
    zset_to_json,
    zsumset,
)

_VERIFY_EPILOG = "checks (the inequality each one verifies, in exact arithmetic):\n" + "\n".join(
    textwrap.fill(check.statement, 78, initial_indent=f"  {check.name:<11} ",
                  subsequent_indent=" " * 14)
    for check in CHECKS)


def _parse_ints(text: str) -> list[int]:
    if text is None or text.strip() == "":
        raise ValueError("expected a comma-separated list of integers")
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"not a comma-separated integer list: {text!r}") from None


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _zdesc_from_args(args) -> "ZSetDesc":
    if getattr(args, "desc", None):
        return zset_from_json(_read_json(args.desc))
    if getattr(args, "period", None) is not None:
        if args.pattern is None:
            raise ValueError("--period requires --pattern")
        return periodic(args.period, _parse_ints(args.pattern))
    if getattr(args, "members", None) is not None:
        return finite(_parse_ints(args.members))
    raise ValueError("describe the set with --desc FILE, --period/--pattern, or --members")


def cmd_sumset(args) -> int:
    if args.zdesc_a or args.zdesc_b:
        if not (args.zdesc_a and args.zdesc_b):
            raise ValueError("z-line mode needs both --zdesc-a and --zdesc-b")
        result = zsumset(zset_from_json(_read_json(args.zdesc_a)),
                         zset_from_json(_read_json(args.zdesc_b)))
        print(json.dumps(zset_to_json(result), sort_keys=True))
        print(f"upper density: {frac_str(banach_upper(result))}")
        print(f"lower density: {frac_str(banach_lower(result))}")
        return 0
    if args.group is None or args.A is None or args.B is None:
        raise ValueError("group mode needs --group, --A and --B")
    group = make_group(_parse_ints(args.group))
    result = sumset(finite_set(group, _parse_ints(args.A)),
                    finite_set(group, _parse_ints(args.B)))
    print("sumset: {" + ", ".join(str(x) for x in result.indices()) + "}")
    print(f"cardinality: {result.size}")
    print(f"density: {frac_str(group_density(result))}")
    if args.json:
        print(json.dumps({"group": list(group.orders), "set": result.to_json(),
                          "density": frac_str(group_density(result))}, sort_keys=True))
    return 0


def cmd_density(args) -> int:
    if args.group is not None:
        if args.A is None:
            raise ValueError("group mode needs --A")
        group = make_group(_parse_ints(args.group))
        A = finite_set(group, _parse_ints(args.A))
        print(f"density: {frac_str(group_density(A))}")
        return 0
    S = _zdesc_from_args(args)
    print(f"upper: {frac_str(banach_upper(S))}")
    print(f"lower: {frac_str(banach_lower(S))}")
    return 0


def cmd_magratio(args) -> int:
    if args.system:
        system = system_from_json(_read_json(args.system))
    elif args.group:
        system = regular_system(make_group(_parse_ints(args.group)))
    else:
        raise ValueError("provide --system FILE or --group ORDERS")
    A = finite_set(system.group, _parse_ints(args.A))
    B = state_subset(system, _parse_ints(args.B))
    if args.delta is not None:
        result = mag_ratio_delta(system, A, B, parse_fraction(args.delta))
    else:
        result = mag_ratio(system, A, B)
    status = 0
    if args.oracle and args.delta is None:
        brute = mag_ratio_oracle(system, A, B)
        if brute.value != result.value:
            print(f"MISMATCH: flow {frac_str(result.value)} != oracle {frac_str(brute.value)}")
            status = 1
        else:
            print(f"oracle agrees: {frac_str(brute.value)}")
    print(f"{frac_str(result.value)}, witness {list(result.witness.indices())}, "
          f"method {result.method}")
    if args.json:
        print(json.dumps(result.to_json(), sort_keys=True))
    return status


def cmd_verify(args) -> int:
    if args.checks in (None, "all"):
        checks = CHECK_NAMES
    else:
        checks = tuple(name.strip() for name in args.checks.split(",") if name.strip())
    cfg = CampaignConfig(seed=args.seed, instances=args.instances, checks=checks,
                         max_order=args.max_order, max_set=args.max_set)
    report = run_campaign(cfg)
    out = args.out
    if out is None:
        outdir = os.environ.get("SUMSETLAB_OUTDIR", ".")
        out = os.path.join(outdir, f"report.{args.format}")
    summary = report.summary()
    Path(out).write_text(report.to_json(_summary=summary) if args.format == "json"
                         else report.to_csv())
    for name in cfg.checks:
        slot = summary["checks"].get(name, {"held": 0, "violated": 0, "vacuous": 0})
        print(f"{name}: {slot['held']} held, {slot['violated']} violated, "
              f"{slot['vacuous']} vacuous")
    if "thm1_tightness" in summary:
        tight = summary["thm1_tightness"]
        print(f"thm1 tightness: min ratio {tight['min_ratio']} at {tight['instance']}"
              + (f", equality at {tight['equality_instance']}"
                 if tight["equality_instance"] else ""))
    if summary["violations"]:
        print(f"violations: {', '.join(summary['violations'])}")
    print(f"report: {out}")
    return 0 if report.all_hold else 1


def cmd_correspond(args) -> int:
    S = _zdesc_from_args(args)
    report = verify_correspondence(S, _parse_ints(args.A))
    for rel in report.relations:
        mark = "ok " if rel.holds else "FAIL"
        print(f"[{mark}] {rel.name}: {frac_str(rel.lhs)} {rel.op} {frac_str(rel.rhs)}")
    if report.degenerate:
        print("note: descriptor is finite, its orbit closure is the fixed point")
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True))
    return 0 if report.all_hold else 1


def cmd_equidist(args) -> int:
    if args.window is not None:
        if args.three_halves:
            members = floor_three_halves(args.window)
        elif args.A is not None:
            members = _parse_ints(args.A)
        else:
            raise ValueError("window mode needs --A or --three-halves")
        freqs = [float(parse_fraction(part)) for part in args.freqs.split(",")]
        value = weyl_defect_window(members, args.window, freqs)
        print(f"weyl defect: {value!r} (window {args.window}, |A| = {len(set(members))})")
        return 0
    if args.group is None or args.A is None:
        raise ValueError("group mode needs --group and --A")
    group = make_group(_parse_ints(args.group))
    A = finite_set(group, _parse_ints(args.A))
    report = equidist_defect(A, include_magnitudes=args.magnitudes)
    print(f"defect: {report.defect!r}")
    print(f"worst character: {report.worst_character}")
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True))
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sumsetlab",
        description="Exact verification laboratory for sumset and density inequalities "
                    "on finite abelian groups, finite measure-preserving actions, and "
                    "eventually periodic subsets of the integers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sumset", help="compute a sumset and its density")
    p.add_argument("--group", help="comma-separated cyclic factor orders, e.g. 8 or 4,3")
    p.add_argument("--A", help="comma-separated element indices")
    p.add_argument("--B", help="comma-separated element indices")
    p.add_argument("--zdesc-a", help="JSON descriptor file (integer-line mode)")
    p.add_argument("--zdesc-b", help="JSON descriptor file (integer-line mode)")
    p.add_argument("--json", action="store_true", help="also print a JSON record")
    p.set_defaults(func=cmd_sumset)

    p = sub.add_parser("density", help="group density or Banach densities")
    p.add_argument("--group", help="cyclic factor orders (group mode)")
    p.add_argument("--A", help="element indices (group mode)")
    p.add_argument("--desc", help="JSON descriptor file (integer-line mode)")
    p.add_argument("--period", type=int, help="tail period (integer-line mode)")
    p.add_argument("--pattern", help="residues hit by the periodic set")
    p.add_argument("--members", help="finite set of integers")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("magratio", help="magnification ratio c(A,B), exact")
    p.add_argument("--system", help="JSON file with an action system")
    p.add_argument("--group", help="cyclic factor orders; uses the regular action")
    p.add_argument("--A", required=True, help="group element indices")
    p.add_argument("--B", required=True, help="state indices")
    p.add_argument("--delta", help="rational p/q: restrict to mu(B') >= delta mu(B)")
    p.add_argument("--oracle", action="store_true",
                   help="also run the exhaustive oracle and compare")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_magratio)

    p = sub.add_parser(
        "verify", help="run a seeded verification campaign",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=_VERIFY_EPILOG,
    )
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--instances", type=int, default=100, help="instances per check")
    p.add_argument("--checks", default="all",
                   help="comma-separated check names, or 'all'")
    p.add_argument("--max-order", type=int, default=16, help="largest group order drawn")
    p.add_argument("--max-set", type=int, default=12, help="largest state subset drawn")
    p.add_argument("--out", help="report path (default: report.FORMAT in "
                                 "$SUMSETLAB_OUTDIR or the working directory)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("correspond",
                       help="orbit-closure correspondence report for an "
                            "eventually periodic set")
    p.add_argument("--desc", help="JSON descriptor file")
    p.add_argument("--period", type=int)
    p.add_argument("--pattern", help="residues hit by the periodic set")
    p.add_argument("--members", help="finite set of integers")
    p.add_argument("--A", required=True, help="finite set of integers to add")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_correspond)

    p = sub.add_parser("equidist", help="equidistribution defect reports")
    p.add_argument("--group", help="cyclic factor orders (character mode)")
    p.add_argument("--A", help="element indices, or window members")
    p.add_argument("--magnitudes", action="store_true",
                   help="include the full magnitude vector in JSON output")
    p.add_argument("--window", type=int, help="window length (Weyl-sum mode)")
    p.add_argument("--freqs", default="1/3,2/7,5/11",
                   help="comma-separated rational frequencies in (0,1)")
    p.add_argument("--three-halves", action="store_true",
                   help="use {floor(n^1.5)} inside the window as the set")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_equidist)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
