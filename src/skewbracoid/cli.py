"""Command-line interface.

All mathematical output is JSON (canonical by default, indented with
``--pretty``).  Exit codes: 0 success, 1 precondition errors (a JSON error
on stderr), 2 usage errors (from argparse) and internal-consistency
failures (a verified construction contradicting one of the classification
or construction theorems).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from . import (__version__, braces, bracoids, corpus, groups, ideals, maps,
               serialize, ybe)
from .errors import InternalConsistencyError, PreconditionError
from .groups import Subgroup

INTERFACE_VERSION = "1.0"


def _load_json_arg(arg: str) -> dict:
    """A positional group/map argument: inline JSON or a path to a file,
    read by `serialize.load_json` (a table in it may be an int64 array)."""
    text = arg
    if not arg.lstrip().startswith("{"):
        try:
            with open(arg) as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise PreconditionError(f"cannot read {arg!r}: {exc}") from exc
    try:
        obj = serialize.load_json(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter nested too deep
        raise PreconditionError(f"invalid JSON in {arg!r}: {exc}") from exc
    if not isinstance(obj, dict):
        raise PreconditionError(f"{arg!r} must contain a JSON object")
    return obj


def _emit(value, args) -> None:
    if args.pretty:
        print(serialize.export_pretty(value))
    else:
        print(serialize.export_json(value))


def _group_and_map(args):
    G = serialize.parse_group(_load_json_arg(args.group),
                              order_cap=args.max_order)
    psi = serialize.parse_map(_load_json_arg(args.map), G,
                              order_cap=args.max_order)
    return G, psi


def _parse_subgroup(G, text: str) -> Subgroup:
    """Members separated by the commas outside parentheses (product names
    hold commas): an element name means that element (S_n names are
    digits), and any other ASCII decimal token is an index."""
    depth = list(itertools.accumulate((c == "(") - (c == ")") for c in text))
    cuts = [-1] + [i for i, c in enumerate(text) if c == "," and not depth[i]] + [len(text)]
    members = []
    for lo, hi in zip(cuts, cuts[1:]):
        part = text[lo + 1:hi].strip()
        decimal = part.isascii() and part.isdigit()  # isdigit() alone takes "²", "٢"
        members.append(int(part) if decimal and part not in G.names else G.index_of(part))
    return Subgroup(G, tuple(members))


def _cmd_group_build(args) -> int:
    G = serialize.parse_group(_load_json_arg(args.spec),
                              order_cap=args.max_order)
    _emit(G, args)
    return 0


def _cmd_abmaps_enumerate(args) -> int:
    G = serialize.parse_group(_load_json_arg(args.group),
                              order_cap=args.max_order)
    found = maps.enumerate_abelian_maps(G)
    _emit({"count": len(found), "maps": found}, args)
    return 0


def _cmd_brace_build(args) -> int:
    G, psi = _group_and_map(args)
    if args.block is not None:
        tables = braces.brace_block(psi, args.block)
        _emit({"block_depth": args.block, "tables": tables}, args)
        return 0
    left, right = braces.braces_from_map(G, psi)
    _emit({"dot_circ": left, "circ_dot": right}, args)
    return 0


def _cmd_ideals_classify(args) -> int:
    G, psi = _group_and_map(args)
    if args.named:
        named = ideals.named_subgroups(G, psi)
        _emit({"ker": named.ker, "fix": named.fix, "h_hat": named.h_hat}, args)
        return 0
    if args.subgroup is not None:
        H = _parse_subgroup(G, args.subgroup)
        _emit(ideals.classify_subgroup(G, psi, H), args)
        return 0
    verdicts = ideals.find_strong_left_ideals(G, psi)
    _emit({"count": len(verdicts), "verdicts": verdicts}, args)
    return 0


def _cmd_bracoid_build(args) -> int:
    G, psi = _group_and_map(args)
    via = args.via
    if via.startswith("tower:"):
        index = via.split(":", 1)[1]
        if not (index.isascii() and index.isdigit()):  # int() takes "1_0", " 2"
            raise PreconditionError(f"tower index {index!r} is not a non-negative integer")
        n = int(index)
        if args.opposite:
            raise PreconditionError("--opposite does not apply to the tower")
        b = bracoids.phi_tower_bracoid(G, psi, n)
    elif via in ("C1", "C2"):
        if args.subgroup is None:
            raise PreconditionError(f"--via {via} requires --subgroup")
        H = _parse_subgroup(G, args.subgroup)
        build = bracoids.bracoid_from_C1 if via == "C1" else bracoids.bracoid_from_C2
        b = build(G, psi, H, opposite=args.opposite)
    else:
        raise PreconditionError(f"unknown --via {via!r}: expected C1, C2 or tower:n")
    if args.reduce:
        b = bracoids.reduce_bracoid(b)
    _emit({"bracoid": b, "report": bracoids.verify_bracoid(b)}, args)
    return 0


def _cmd_ybe_build(args) -> int:
    construction = args.construction
    payload = {}
    if construction == "product":
        if not (args.g1 and args.g2 and args.alpha and args.beta):
            raise PreconditionError(
                "--construction product needs --g1, --g2, --alpha, --beta")
        G1 = serialize.parse_group(_load_json_arg(args.g1), order_cap=args.max_order)
        G2 = serialize.parse_group(_load_json_arg(args.g2), order_cap=args.max_order)
        alpha = serialize.parse_map(_load_json_arg(args.alpha), G1, G2,
                                    order_cap=args.max_order)
        beta = serialize.parse_map(_load_json_arg(args.beta), G2, G1,
                                   order_cap=args.max_order)
        solutions = {"R": ybe.build_ybe_product(G1, G2, alpha, beta)}
    else:
        if not (args.group and args.map):
            raise PreconditionError(
                f"--construction {construction} needs a group and a map")
        G, psi = _group_and_map(args)
        if construction == "idempotent":
            solutions = {"R": ybe.build_ybe_idempotent(G, psi)}
        elif construction == "abelian-pair":
            R, Rp = ybe.build_ybe_abelian_pair(G, psi)
            solutions = {"R": R, "R_prime": Rp}
        else:  # contained
            if args.subgroup is None:
                raise PreconditionError("--construction contained needs --subgroup")
            H = _parse_subgroup(G, args.subgroup)
            b = bracoids.bracoid_from_C2(G, psi, H)
            K = bracoids.find_contained_brace(b)
            if K is None:
                raise PreconditionError(
                    "no subgroup of the acting group acts regularly on the target")
            solutions = {"R": ybe.build_ybe_from_contained_brace(b, K)}
    out = dict(solutions)
    if args.verify:
        out["reports"] = {key: ybe.verify_ybe(sol) for key, sol in solutions.items()}
    _emit(out, args)
    return 0


def _cmd_corpus_run(args) -> int:
    results = ([corpus.run_fixture(args.name)] if args.name
               else corpus.run_all())
    ok = all(r.ok for r in results)
    _emit({"ok": ok, "fixtures": [r.to_jsonable() for r in results]}, args)
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once on first use: parsing leaves it
    unchanged, and each new parser would leave reference cycles behind."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true",
                        help="indented JSON output")
    common.add_argument("--max-order", type=int,
                        default=groups.DEFAULT_ORDER_CAP,
                        help="refuse to build groups above this order")

    parser = argparse.ArgumentParser(
        prog="skewbracoid",
        description="Skew braces, skew bracoids, and Yang-Baxter solutions "
                    "from abelian maps.")
    parser.add_argument("--version", action="version",
                        version=f"skewbracoid {__version__} (interface {INTERFACE_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(noun: str, noun_help: str, verb: str, func, **kwargs):
        """The parser of `<noun> <verb>`, which runs `func`."""
        verbs = sub.add_parser(noun, help=noun_help).add_subparsers(
            dest="subcommand", required=True)
        p = verbs.add_parser(verb, parents=[common], **kwargs)
        p.set_defaults(func=func)
        return p

    g = command("group", "group construction", "build", _cmd_group_build,
                help="build and verify a group from a spec")
    g.add_argument("spec", help="group spec (JSON file or inline JSON)")

    a = command("abmaps", "abelian map enumeration", "enumerate", _cmd_abmaps_enumerate,
                help="list every abelian endomorphism of a group")
    a.add_argument("group")

    b = command("brace", "skew brace construction", "build", _cmd_brace_build,
                help="build the bi-skew pair (or a block) from a map")
    b.add_argument("group")
    b.add_argument("map")
    b.add_argument("--block", type=int, default=None,
                   help="build the iterated-operation block to this depth")

    i = command("ideals", "strong left ideal classification", "classify",
                _cmd_ideals_classify)
    i.add_argument("group")
    i.add_argument("map")
    mode = i.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true",
                      help="classify every subgroup (the default)")
    mode.add_argument("--named", action="store_true",
                      help="report ker, fix, and the phi-preimage of the center")
    mode.add_argument("--subgroup",
                      help="comma-separated members (indices or names)")

    o = command("bracoid", "skew bracoid construction", "build", _cmd_bracoid_build)
    o.add_argument("group")
    o.add_argument("map")
    o.add_argument("--via", required=True,
                   help="C1, C2, or tower:n")
    o.add_argument("--subgroup",
                   help="comma-separated members (indices or names)")
    o.add_argument("--opposite", action="store_true",
                   help="use the opposite operation on the target")
    o.add_argument("--reduce", action="store_true",
                   help="quotient the acting group by the action kernel")

    y = command("ybe", "Yang-Baxter solution construction", "build", _cmd_ybe_build)
    y.add_argument("group", nargs="?")
    y.add_argument("map", nargs="?")
    y.add_argument("--construction", required=True,
                   choices=["idempotent", "product", "abelian-pair", "contained"])
    y.add_argument("--g1")
    y.add_argument("--g2")
    y.add_argument("--alpha")
    y.add_argument("--beta")
    y.add_argument("--subgroup")
    y.add_argument("--verify", action="store_true")

    c = command("corpus", "built-in end-to-end fixtures", "run", _cmd_corpus_run)
    c.add_argument("name", nargs="?", choices=list(corpus.FIXTURE_NAMES))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalConsistencyError as exc:
        print(json.dumps({"error": "internal-consistency", "message": str(exc)}),
              file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(json.dumps({"error": "precondition", "message": str(exc)}),
              file=sys.stderr)
        return 1
