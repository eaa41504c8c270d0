"""Command-line interface.

Subcommands: conj, abacus, reg, restrict, ladder-class, crystal, chain,
mull, split, paget, verify.  Results go to stdout (plain text or --json),
error text to stderr.  Exit codes: 0 success, 1 domain error, 2 bad flags
or unparseable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import abacus as ab
from . import crystals as cr
from . import ladders as ld
from . import separation as sp
from . import verify as vf
from .mullineux import mullineux, mullineux_steps
from .partitions import Partition, PartitionParseError, parse_partition


def _partition_arg(text: str) -> Partition:
    try:
        return parse_partition(text)
    except PartitionParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _size_arg(text: str) -> int:
    try:
        size = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size {text!r}: not an integer") from None
    if size < 0:
        raise argparse.ArgumentTypeError(f"size {size} is negative")
    return size


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}") from None


def _slope_arg(text: str) -> tuple[Fraction, str]:
    text = text.strip()
    variant = "+"
    if text and text[-1] in "+-":
        variant = text[-1]
        text = text[:-1]
    return _fraction_arg(text), variant


def _residues_arg(text: str) -> frozenset[int]:
    try:
        return frozenset(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad residue list {text!r}: {exc}") from None


def _arm_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad arm prefix {text!r}: {exc}") from None


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_conj(args) -> int:
    res = args.partition.conjugate()
    _emit(args, {"input": str(args.partition), "conjugate": str(res)}, [str(res)])
    return 0


def _cmd_abacus(args) -> int:
    n = args.beads if args.beads is not None else ab.default_beads(args.partition, args.e)
    display = ab.encode(args.partition, n, args.e)
    _emit(
        args,
        {"e": display.e, "n": display.n, "occupied": sorted(display.occupied)},
        [ab.render(display)],
    )
    return 0


def _reg_or_restrict(args) -> int:
    params = ld.LadderParams(args.e, args.y)
    res = args.partition
    lines = [f"mu = {res}"]
    for k, res in enumerate(args.steps(res, params), start=1):
        lines.append(f"step {k}: {res}")
    lines = (lines if args.trace else []) + [str(res)]
    _emit(
        args,
        {
            "input": str(args.partition),
            "e": args.e,
            "y": str(args.y),
            "E": params.E,
            "Y": params.Y,
            "result": str(res),
        },
        lines,
    )
    return 0


def _cmd_ladder_class(args) -> int:
    params = ld.LadderParams(args.e, args.y)
    members = ld.ladder_class(args.partition, params, bound=args.bound)
    _emit(
        args,
        {"e": args.e, "y": str(args.y), "partitions": [str(p) for p in members]},
        [str(p) for p in members],
    )
    return 0


def _cmd_crystal(args) -> int:
    if (args.arm is None) == (args.slope is None):
        raise ValueError("give exactly one of --arm and --slope")
    if args.arm is not None:
        prefix = cr.ArmPrefix(args.e, args.arm)
    else:
        y, variant = args.slope
        size = args.max_size if args.max_size is not None else 3 * args.e
        prefix = cr.ArmPrefix.from_slope(args.e, y, -(-size // args.e), variant)
    graph = cr.build_graph(prefix, args.max_size)
    dot = cr.to_dot(graph)
    if args.dot and args.dot != "-":
        with open(args.dot, "w") as fh:
            fh.write(dot)
        print(f"wrote {len(graph.vertices)} vertices, {len(graph.edges)} edges to {args.dot}")
    else:
        sys.stdout.write(dot)
    return 0


def _cmd_chain(args) -> int:
    src = cr.ArmPrefix(args.e, args.src)
    dst = cr.ArmPrefix(args.e, args.dst)
    chain = cr.iso_chain(src, dst)
    pairs = [params.pair() for params in chain.steps]
    lines = ["chain: " + " ".join(f"({E},{Y})" for E, Y in pairs)]
    if chain.inverse:
        lines.append("applied as restrictisations in reverse order")
    images = []
    if args.partition is not None:
        lines.append(f"start: {args.partition}")
        for params, la in cr.chain_steps(args.partition, chain):
            images.append(str(la))
            lines.append(f"({params.E},{params.Y}) -> {la}")
    _emit(
        args,
        {
            "e": args.e,
            "steps": pairs,
            "inverse": chain.inverse,
            "images": images,
        },
        lines,
    )
    return 0


def _cmd_mull(args) -> int:
    res = args.partition.conjugate()
    lines = [f"mu = {res}"]
    for y, res in mullineux_steps(args.partition, args.e):
        lines.append(f"y = {y} -> {res}")
    lines = (lines if args.trace else []) + [str(res)]
    _emit(
        args,
        {"input": str(args.partition), "e": args.e, "result": str(res)},
        lines,
    )
    return 0


def _cmd_split(args) -> int:
    n = args.beads if args.beads is not None else ab.default_beads(args.partition, args.e)
    ctx = sp.SplitContext(args.e, args.residues, n)
    res = sp.split(args.partition, ctx)
    separated = sp.is_separated(args.partition, ctx)
    _emit(
        args,
        {
            "lambda_I": str(res.lambda_I),
            "lambda_Ibar": str(res.lambda_Ibar),
            "u": res.u,
            "separated": separated,
        },
        [
            f"lambda_I = {res.lambda_I}",
            f"lambda_Ibar = {res.lambda_Ibar}",
            f"u = {res.u}",
            f"separated = {'yes' if separated else 'no'}",
        ],
    )
    return 0


def _cmd_paget(args) -> int:
    la = args.partition
    n = args.beads if args.beads is not None else ab.default_beads(la, args.e)
    sigma = sp.quotient_sigma(la, args.e, n)
    quot = ab.e_quotient(la, args.e, n)
    mu = sp.paget_mu(la, args.e, n)
    mu_sep = sp.is_quotient_separated(mu, args.e, n)
    image = mullineux(la.conjugate(), args.e)
    lines = [
        "sigma = " + ",".join(str(i) for i in sigma),
        "quotient = " + " ".join(f"[{i}] {quot[i]}" for i in range(args.e)),
        f"mu = {mu}",
        f"mu quotient separated = {'yes' if mu_sep else 'no'}",
        f"mullineux(conjugate) = {image}",
        f"match = {'yes' if image == mu else 'no'}",
    ]
    _emit(
        args,
        {
            "sigma": list(sigma),
            "quotient": [str(q) for q in quot],
            "mu": str(mu),
            "mu_separated": mu_sep,
            "mullineux": str(image),
            "match": image == mu,
        },
        lines,
    )
    return 0


def _cmd_verify(args) -> int:
    e_values = (args.e,) if args.e is not None else None
    results = vf.run_suites([args.suite], max_size=args.max, e_values=e_values)
    failed = False
    for res in results:
        print(res.line())
        failed = failed or not res.ok
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regcrystals",
        description="Exact partition combinatorics: abacus displays, ladder "
        "regularisation, arm-sequence crystals and the Mullineux map.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("conj", help="conjugate a partition")
    p.add_argument("partition", type=_partition_arg)
    add_json(p)
    p.set_defaults(func=_cmd_conj)

    p = sub.add_parser("abacus", help="abacus displays")
    p.add_argument("action", choices=["show"])
    p.add_argument("--e", type=int, required=True, help="runner count")
    p.add_argument("--beads", type=int, default=None, help="bead count n")
    p.add_argument("partition", type=_partition_arg)
    add_json(p)
    p.set_defaults(func=_cmd_abacus)

    for name, helptext, steps in (
        ("reg", "ladder regularisation", ld.regularise_steps),
        ("restrict", "ladder restrictisation", ld.restrictise_steps),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--e", type=int, required=True)
        p.add_argument("--y", type=_fraction_arg, required=True, help="slope P/Q in [1, e-1]")
        p.add_argument("--trace", action="store_true", help="print each step")
        p.add_argument("partition", type=_partition_arg)
        add_json(p)
        p.set_defaults(func=_reg_or_restrict, steps=steps)

    p = sub.add_parser("ladder-class", help="brute-force ladder class")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--y", type=_fraction_arg, required=True)
    p.add_argument("--bound", type=int, default=14, help="largest size the oracle accepts")
    p.add_argument("partition", type=_partition_arg)
    add_json(p)
    p.set_defaults(func=_cmd_ladder_class)

    p = sub.add_parser("crystal", help="export a finite crystal graph as DOT")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--arm", type=_arm_arg, default=None, help="arm prefix a1,a2,...")
    p.add_argument("--slope", type=_slope_arg, default=None, help="slope P/Q with optional +/-")
    p.add_argument("--max-size", type=_size_arg, default=None, help="largest partition size")
    p.add_argument("--dot", default=None, metavar="FILE", help="write DOT here ('-' = stdout)")
    p.set_defaults(func=_cmd_crystal)

    p = sub.add_parser("chain", help="regularisation chain between two arm prefixes")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--from", dest="src", type=_arm_arg, required=True)
    p.add_argument("--to", dest="dst", type=_arm_arg, required=True)
    p.add_argument("partition", type=_partition_arg, nargs="?", default=None)
    add_json(p)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("mull", help="Mullineux image of an e-regular partition")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--trace", action="store_true", help="print each slope step")
    p.add_argument("partition", type=_partition_arg)
    add_json(p)
    p.set_defaults(func=_cmd_mull)

    p = sub.add_parser("split", help="runner split of a partition")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--I", dest="residues", type=_residues_arg, required=True, help="residues, e.g. 0,2")
    p.add_argument("--beads", type=int, default=None)
    p.add_argument("partition", type=_partition_arg)
    add_json(p)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("paget", help="quotient-shifted Mullineux partner")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--beads", type=int, default=None)
    p.add_argument("partition", type=_partition_arg)
    add_json(p)
    p.set_defaults(func=_cmd_paget)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(vf.SUITES) + ["all"])
    p.add_argument("--e", type=int, default=None, help="restrict to one modulus")
    p.add_argument("--max", type=_size_arg, default=None, help="size bound for the enumerations")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
