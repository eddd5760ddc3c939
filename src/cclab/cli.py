"""Command-line surface.

Every command prints bit-for-bit identical output for identical flags and
seed: suites report through VerificationReport.to_text (no timestamps on
stdout), profiles serialize through their versioned schemas, and the
enumeration streams are canonically ordered.  Wall-clock goes to stderr.
"""

from __future__ import annotations

import argparse
import sys

from .codes import enumerate_sets, enumerate_signature, pdl_encode
from .complexity import (
    INF,
    Measure,
    individual_cc,
    structure_function_profile,
    tcc_identity_profile,
)
from .constructions import helpbit_hard_instance, th7_hard_instance
from .errors import AuditFailure, CclabError, UsageError
from .functions import parse_function
from .protocol import HelpSpec
from .solver import dcc_exact
from .verify import REPLAYABLE, SUITES, run_suite


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {out}", file=sys.stderr)


def _format_value(v) -> str:
    if v == INF:
        return "inf"
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return str(v)


def _cmd_cc(args) -> int:
    n = len(args.x)
    f = parse_function(args.fn, n)
    measure = Measure(
        family=args.mode.upper(),
        one_way=args.one_way,
        help=HelpSpec(args.help_alice, args.help_bob),
        alpha=args.alpha,
    )
    value, witness = individual_cc(measure, f, args.x, args.y)
    print(f"value: {_format_value(value)}")
    if witness is None:
        print("witness: none")
    else:
        print(f"witness: {witness.hex()} ({len(witness.bits)} bits)")
    return 0


def _cmd_profile(args) -> int:
    if args.kind == "sets":
        profile = structure_function_profile(args.y, args.alpha_max)
    else:
        profile = tcc_identity_profile(args.y, args.alpha_max).one_way
    as_json = args.out is not None and args.out.endswith(".json")
    text = profile.to_json() if as_json else profile.to_csv()
    _write_output(text, args.out)
    return 0


def _cmd_hardness(args) -> int:
    if args.engine == "th7":
        instance = th7_hard_instance(args.k, args.s, args.l, args.budget, seed=args.seed)
    else:
        instance = helpbit_hard_instance(
            args.k, args.s, args.l, args.a, args.b, args.budget, seed=args.seed
        )
    _write_output(instance.to_json(), args.out)
    return 0


def _cmd_enumerate(args) -> int:
    if args.kind == "sets":
        for code, members in enumerate_sets(args.n, args.alpha):
            print(f"{code.bits} members={','.join(sorted(members))}")
        return 0
    stream = enumerate_signature(
        args.n,
        args.n,
        args.n,
        args.alpha,
        require_total=args.kind == "total",
        require_one_way=args.kind == "one-way",
    )
    for code, _tree in stream:
        print(code.bits)
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "all" and args.replay is not None:
        raise UsageError("--replay needs a single replayable suite")
    ok = True
    for name in SUITES if args.suite == "all" else [args.suite]:
        report = run_suite(name, replay=args.replay)
        print(report.to_text(), end="")
        print(f"runtime: {report.runtime:.1f}s", file=sys.stderr)
        ok = ok and report.ok
    return 0 if ok else 1


def _cmd_dcc(args) -> int:
    f = parse_function(args.fn, args.n)
    bits, tree = dcc_exact(f)
    code = pdl_encode(tree)
    print(f"bits: {bits}")
    print(f"witness: {code.hex()} ({len(code.bits)} bits)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cclab",
        description="Per-input communication cost laboratory for tiny two-party protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cc = sub.add_parser("cc", help="cheapest correct conversation on one input pair")
    cc.add_argument("--fn", required=True, help="identity | eq | ip | table:<path>")
    cc.add_argument("--x", required=True, help="Alice's input bits")
    cc.add_argument("--y", required=True, help="Bob's input bits")
    cc.add_argument("--alpha", type=int, required=True, help="code length budget")
    cc.add_argument(
        "--mode",
        choices=("tcc", "cc", "pcc"),
        default="tcc",
        help="protocol family: everywhere-correct, total, or partial",
    )
    cc.add_argument("--one-way", action="store_true", help="only Bob may speak")
    cc.add_argument("--help-alice", type=int, default=0, metavar="BITS")
    cc.add_argument("--help-bob", type=int, default=0, metavar="BITS")
    cc.set_defaults(handler=_cmd_cc)

    profile = sub.add_parser("profile", help="value-per-budget table for one column")
    profile.add_argument("--y", required=True, help="the string being described")
    profile.add_argument("--alpha-max", type=int, required=True)
    profile.add_argument(
        "--kind",
        choices=("sets", "identity"),
        default="sets",
        help="set-size profile, or the one-way identity profile",
    )
    profile.add_argument("--out", default=None, help=".csv or .json path; stdout if absent")
    profile.set_defaults(handler=_cmd_profile)

    hardness = sub.add_parser("hardness", help="build a hard-instance certificate")
    hardness.add_argument("engine", choices=("th7", "helpbit"))
    hardness.add_argument("--k", type=int, required=True, help="member length")
    hardness.add_argument("--s", type=int, required=True, help="log2 of the family size - 1")
    hardness.add_argument("--l", type=int, required=True, help="message length threshold")
    hardness.add_argument("--a", type=int, default=0, help="Alice help bits (helpbit)")
    hardness.add_argument("--b", type=int, default=0, help="Bob help bits (helpbit)")
    hardness.add_argument("--budget", type=int, required=True, help="enumeration budget")
    hardness.add_argument("--seed", type=int, default=None, help="sample members instead of lex-first")
    hardness.add_argument("--out", default=None, help="JSON path; stdout if absent")
    hardness.set_defaults(handler=_cmd_hardness)

    enum = sub.add_parser("enumerate", help="stream canonical codes")
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--alpha", type=int, required=True)
    enum.add_argument(
        "--kind",
        choices=("all", "total", "one-way", "sets"),
        default="all",
        help="protocol filters are syntactic; sets streams set codes",
    )
    enum.set_defaults(handler=_cmd_enumerate)

    verify = sub.add_parser("verify", help="run one verification suite, or all")
    verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    verify.add_argument(
        "--replay",
        default=None,
        metavar="JSON",
        help=f"re-check a stored certificate ({'/'.join(REPLAYABLE)} only)",
    )
    verify.set_defaults(handler=_cmd_verify)

    dcc = sub.add_parser("dcc", help="exact worst-case bits for a whole table")
    dcc.add_argument("--fn", required=True, help="identity | eq | ip | table:<path>")
    dcc.add_argument("--n", type=int, required=True)
    dcc.set_defaults(handler=_cmd_dcc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except AuditFailure as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CclabError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
