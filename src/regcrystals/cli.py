"""Command-line interface.

Subcommands: conj, abacus, reg, restrict, ladder-class, crystal, chain,
mull, split, paget, verify.  Results go to stdout (plain text or --json),
error text to stderr.  Exit codes: 0 success, 1 domain error, a failed
internal check, an internal fault inside a verify suite or a --dot file
that cannot be written, 2 bad flags (a verify --e outside a suite's range
among them) or unparseable input (a rational in exponent notation among
them).
abacus show and split take a --beads count because their output depends on
it; paget does not, as its results are the same for every bead count.  The
bead count, given or derived from --e (paget's too), and the runner count of
abacus show may not exceed MAX_BEADS: a larger one exits 1 before any bead
is placed.  crystal's size bound, given as --max-size or defaulted (3e for
--slope, the prefix bound for --arm), may not exceed MAX_GRAPH_SIZE: a
larger one exits 1 before any slope prefix or graph is built, and an --arm
list longer than MAX_GRAPH_SIZE values exits 1 before it is checked.
chain's prefix bound n*e, read off the longer list, may not exceed
MAX_CHAIN_BOUND: a larger one exits 1 before either prefix is checked.
ladder-class's --bound may not exceed MAX_LADDER_CLASS_BOUND: a larger one
exits 1 before any partition is enumerated.  verify's --e may not exceed
MAX_BEADS, as every suite places at least e beads per partition, and its
--max may not exceed MAX_VERIFY_SIZE: a larger one exits 1 before any suite
runs.  verify split and verify paget are exponential in e and take e up to
MAX_SPLIT_E and MAX_PAGET_E: a larger --e is outside the suite's range and
exits 2 before any suite runs.
verify prints each suite's lines as that suite finishes.  reg, restrict and
mull with both --json and --trace add a "steps" list to the JSON, one item
per line that the text trace prints after its start line.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import abacus as ab
from . import crystals as cr
from . import ladders as ld
from . import separation as sp
from . import verify as vf
from .mullineux import _conjugate_image, mullineux_steps
from .partitions import MAX_PARSE_SIZE, Partition, PartitionParseError, parse_partition

# Largest bead count (and abacus show runner count) accepted: a display
# allocates one position per bead, so the count is checked before encoding.
MAX_BEADS = MAX_PARSE_SIZE

# Largest crystal size bound accepted: the graph has one vertex per
# A-regular partition of size up to the bound, at most 28,629 at 30 for any e,
# which covers the default bound 3e for every e <= 10.
MAX_GRAPH_SIZE = 30

# Largest arm prefix bound n*e accepted by chain: it prints one step per slope
# of order n between the ends; at 300 the longest, e = 4 with n = 75 from slope
# 3 down to 1, has 3,473 steps and is built in about 0.02 s.
MAX_CHAIN_BOUND = 300

# Largest ladder-class --bound accepted: the class is found by comparing the
# ladders.fingerprint of all p(|la|) partitions of |la|, which at 40 are 37,338,
# in about 0.4 s on a shared 2-core box.
MAX_LADDER_CLASS_BOUND = 40

# Largest verify --max accepted: a suite enumerates the partitions of every
# size up to the bound, 28,629 at 30.  split's theorem and box step instead
# walk every triple of the 45 pieces of size up to 30 // 4, so their work is
# cubic in the pieces; the suite holds one list of triples per c = |I|, the
# largest 43,245 long at e = 6 and 53,010 at e = 7, with a peak RSS of about
# 53 MB and 64 MB when built alone (Python 3.11).  The slowest runs inside
# the caps are long: on a shared 2-core box `verify core --max 30` takes about
# 19 s, and `verify split --e 7 --max 30` was still running after 10 minutes.
MAX_VERIFY_SIZE = 30

# The exceptions main reports as one "error: ..." line and exit 1.
# AssertionError: the crystal peel found no good node (peel_and_rebuild);
# RuntimeError: an operator left the A-regular set (build_graph);
# OSError: the crystal --dot file cannot be written.  verify reports any
# other exception raised inside a suite as an internal fault of that suite.
_REPORTED = (ValueError, AssertionError, RuntimeError, OSError)


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


# A decimal with an exponent, which Fraction would expand in full: "1e100000000"
# builds a hundred-million-digit integer before any bound is checked.
_EXPONENT = re.compile(r"\s*[-+]?[\d_.]*[eE][-+]?[\d_]+\s*")


def _fraction_arg(text: str) -> Fraction:
    if _EXPONENT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: exponent notation is not accepted")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        reason = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {reason}") from None


def _slope_arg(text: str) -> tuple[Fraction, str]:
    text = text.strip()
    variant = "+"
    if text and text[-1] in "+-":
        variant = text[-1]
        text = text[:-1]
    return _fraction_arg(text), variant


def _ints_arg(what: str):
    """An argparse type reading comma-separated integers as a tuple; its
    error names the list as what."""
    def parse(text: str) -> tuple[int, ...]:
        try:
            return tuple(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}: {exc}") from None
    return parse


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


def _within(what: str, value: int, limit: int) -> int:
    """value; ValueError naming what if it exceeds limit."""
    if value > limit:
        raise ValueError(f"{what} {value} exceeds the limit {limit}")
    return value


def _bead_count(la: Partition, e: int, beads: int | None = None) -> int:
    """beads, or the default count for la at e, within MAX_BEADS."""
    n = beads if beads is not None else ab.default_beads(la, e)
    return _within("bead count", n, MAX_BEADS)


def _cmd_abacus(args) -> int:
    n = _bead_count(args.partition, args.e, args.beads)
    _within("runner count", args.e, MAX_BEADS)  # render writes one column per runner
    occupied = ab.encode(args.partition, n, args.e)
    _emit(args, {"e": args.e, "n": n, "occupied": sorted(occupied)}, [ab.render(occupied, args.e)])
    return 0


def _emit_traced(args, payload: dict, steps: list, lines: list[str]) -> None:
    """_emit of payload, or of its "result" as text; with --trace the JSON
    gains the steps and the text the trace lines: the start line, then one
    line per step."""
    if args.trace:
        payload["steps"] = steps
    _emit(args, payload, (lines if args.trace else []) + [payload["result"]])


def _reg_or_restrict(args) -> int:
    params = ld.LadderParams(args.e, args.y)
    steps = [str(res) for res in args.steps(args.partition, params)]
    payload = {
        "input": str(args.partition),
        "e": args.e,
        "y": str(args.y),
        "E": params.E,
        "Y": params.Y,
        "result": steps[-1] if steps else str(args.partition),
    }
    lines = [f"mu = {args.partition}", *(f"step {k}: {res}" for k, res in enumerate(steps, start=1))]
    _emit_traced(args, payload, steps, lines)
    return 0


def _cmd_ladder_class(args) -> int:
    params = ld.LadderParams(args.e, args.y)
    bound = _within("oracle bound", args.bound, MAX_LADDER_CLASS_BOUND)
    members = ld.ladder_class(args.partition, params, bound=bound)
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
        _within("arm prefix length", len(args.arm), MAX_GRAPH_SIZE)  # no hook within the cap reads A_t past t = cap / 2
        prefix = cr.ArmPrefix(args.e, args.arm)
        size = args.max_size if args.max_size is not None else prefix.bound
        _within("size bound", size, MAX_GRAPH_SIZE)
    else:
        y, variant = args.slope
        if args.e < 2:  # checked before the prefix length divides by e
            raise ValueError("e must be at least 2")
        size = args.max_size if args.max_size is not None else 3 * args.e
        _within("size bound", size, MAX_GRAPH_SIZE)
        prefix = cr.ArmPrefix.from_slope(args.e, y, max(1, -(-size // args.e)), variant)
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
    _within("prefix bound", max(len(args.src), len(args.dst)) * args.e, MAX_CHAIN_BOUND)
    src = cr.ArmPrefix(args.e, args.src)
    dst = cr.ArmPrefix(args.e, args.dst)
    chain = cr.iso_chain(src, dst)
    pairs = [params.pair() for params in chain.steps]
    lines = ["chain: " + (" ".join(f"({E},{Y})" for E, Y in pairs) or "(none)")]
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
    start = args.partition.conjugate()
    steps = [{"y": str(y), "partition": str(res)} for y, res in mullineux_steps(args.partition, args.e)]
    result = steps[-1]["partition"] if steps else str(start)
    payload = {"input": str(args.partition), "e": args.e, "result": result}
    lines = [f"mu = {start}", *(f"y = {step['y']} -> {step['partition']}" for step in steps)]
    _emit_traced(args, payload, steps, lines)
    return 0


def _cmd_split(args) -> int:
    n = _bead_count(args.partition, args.e, args.beads)
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
    _bead_count(la, args.e)  # the display paget reads has the default count
    sigma = sp.quotient_sigma(la, args.e)
    quot = ab.e_quotient(la, args.e)
    mu = sp.paget_mu(la, args.e)
    mu_sep = sp.is_quotient_separated(mu, args.e)
    image = _conjugate_image(la, args.e)
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
    if args.e is not None:
        _within("modulus", args.e, MAX_BEADS)
    if args.max is not None:
        _within("size bound", args.max, MAX_VERIFY_SIZE)
    e_values = (args.e,) if args.e is not None else None
    try:
        per_suite = vf.iter_suites([args.suite], max_size=args.max, e_values=e_values)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = False
    try:
        for results in per_suite:
            for res in results:
                print(res.line())
                failed = failed or not res.ok
            sys.stdout.flush()
    except Exception as exc:  # the failures the suite found before it raised, then an error line
        results = getattr(exc, "suite_results", ())
        for res in results:
            if res.failure is not None:
                print(res.line())
        sys.stdout.flush()
        if isinstance(exc, _REPORTED):
            raise
        # any other exception is a fault of the package: name its suite, not a traceback
        suite = results[0].suite if results else args.suite
        print(f"error: internal fault in suite {suite}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
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
    p.add_argument("--bound", type=_size_arg, default=14, help="largest size the oracle accepts")
    p.add_argument("partition", type=_partition_arg)
    add_json(p)
    p.set_defaults(func=_cmd_ladder_class)

    p = sub.add_parser("crystal", help="export a finite crystal graph as DOT")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--arm", type=_ints_arg("arm prefix"), default=None, help="arm prefix a1,a2,...")
    p.add_argument("--slope", type=_slope_arg, default=None, help="slope P/Q with optional +/-")
    p.add_argument("--max-size", type=_size_arg, default=None, help="largest partition size")
    p.add_argument("--dot", default=None, metavar="FILE", help="write DOT here ('-' = stdout)")
    p.set_defaults(func=_cmd_crystal)

    p = sub.add_parser("chain", help="regularisation chain between two arm prefixes")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--from", dest="src", type=_ints_arg("arm prefix"), required=True)
    p.add_argument("--to", dest="dst", type=_ints_arg("arm prefix"), required=True)
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
    p.add_argument("--I", dest="residues", type=_ints_arg("residue list"), required=True, help="residues, e.g. 0,2")
    p.add_argument("--beads", type=int, default=None)
    p.add_argument("partition", type=_partition_arg)
    add_json(p)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("paget", help="quotient-shifted Mullineux partner")
    p.add_argument("--e", type=int, required=True)
    p.add_argument("partition", type=_partition_arg)
    add_json(p)
    p.set_defaults(func=_cmd_paget)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(vf.SUITES) + ["all"])
    p.add_argument("--e", type=int, default=None, help="restrict to one modulus")
    p.add_argument("--max", type=_size_arg, default=None,
                   help=f"size bound for the enumerations, at most {MAX_VERIFY_SIZE}; at the cap core"
                   " takes about 19 s and split --e 7 over 10 minutes")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _REPORTED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
