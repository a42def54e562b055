"""Command-line frontend.

Every subcommand prints one JSON document on standard output (``--format
text`` renders the same data as indented key/value lines).  Exit codes:
0 success, 1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import verify as verify_mod
from .blocks import (
    BFS_RANK_CAP,
    block_key,
    brauer_algebra_blocks,
    classify_weight_class,
    dot_orbit_member,
    enumerate_block_members,
    same_block_report,
    sector_charge,
)
from .central import brauer_gammas, central_character, check_admissible, check_reflection_product
from .partitions import Partition, PartitionError, parse_partition, twice
from .sequences import make_sequence
from .wedge import WedgeVector, apply_b, apply_lowering, apply_raising, wedge_vector_json


def _delta_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer or a fraction p/q") from None


def _partition_arg(text: str) -> Partition:
    try:
        return parse_partition(text)
    except PartitionError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _half_arg(text: str) -> Fraction:
    try:
        value = Fraction(text)
        twice(value)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer or half-integer") from None
    return value


# block builds the transposes of a block's members, and the partner written by
# classify-weight-class has more parts than the label's first part, so both
# build about that many parts; above this cap a label is refused.  same-block
# and block-key read keys off a label's rows and keep the cap only so that the
# four label commands share one input contract.  block and
# classify-weight-class also read about |delta| entries, so they cap |delta| as
# well.
LABEL_CAP = 10**6


def _require_capped(parser: argparse.ArgumentParser, args, *flags: str, delta: bool = False) -> None:
    for flag in flags:
        first = getattr(args, flag).part(1)
        if first > LABEL_CAP:
            parser.error(f"--{flag} has first part {first}, above the cap {LABEL_CAP}")
    if delta and abs(args.delta) > LABEL_CAP:
        parser.error(f"|--delta| is above the cap {LABEL_CAP}")


def _require_integer(delta: Fraction, parser: argparse.ArgumentParser, what: str) -> int:
    if delta.denominator != 1:
        parser.error(f"--delta must be an integer for {what}")
    return delta.numerator


def _inline(value) -> bool:
    return isinstance(value, list) and all(
        not isinstance(x, (list, dict)) for x in value
    )


def _text_lines(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, dict) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, indent + 1))
            elif isinstance(v, list) and v and not _inline(v):
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {json.dumps(v)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)) and item and not _inline(item):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(item, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(item)}")
    else:
        lines.append(f"{pad}{json.dumps(value)}")
    return lines


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(_text_lines(payload)))


def _parts(p: Partition) -> list[int]:
    return list(p.parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brauerblocks",
        description="Exact block classification for the Brauer category over C",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **kwargs):
        p = sub.add_parser(name, help=help_text, **kwargs)
        p.add_argument("--format", choices=("json", "text"), default="json")
        return p

    p = add("same-block", "decide whether two simple modules share a block")
    p.add_argument("--delta", type=_delta_arg, required=True)
    p.add_argument("--lhs", type=_partition_arg, required=True)
    p.add_argument("--rhs", type=_partition_arg, required=True)

    p = add("block-key", "canonical key of the block of a simple module")
    p.add_argument("--delta", type=_delta_arg, required=True)
    p.add_argument("--partition", type=_partition_arg, required=True)

    p = add("block", "enumerate block members up to a size bound")
    p.add_argument("--delta", type=_delta_arg, required=True)
    p.add_argument("--partition", type=_partition_arg, required=True)
    p.add_argument("--max-size", type=int, required=True)

    p = add("classify-weight-class", "single block or a split pair, with the partner label")
    p.add_argument("--delta", type=_delta_arg, required=True)
    p.add_argument("--partition", type=_partition_arg, required=True)

    p = add("brauer-blocks", "blocks of the rank-n Brauer algebra")
    p.add_argument("--delta", type=_delta_arg, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("dot-orbit", "brute-force dot-action orbit membership (transposed-level labels)")
    p.add_argument("--delta", type=_delta_arg, required=True)
    p.add_argument("--lhs", type=_partition_arg, required=True)
    p.add_argument("--rhs", type=_partition_arg, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--force", action="store_true", help="allow ranks above the safety cap")

    p = add("central-char", "canonical factored central character")
    p.add_argument("--delta", type=_delta_arg, required=True)
    p.add_argument("--partition", type=_partition_arg, required=True)

    p = add("centrally-equivalent", "compare central characters")
    p.add_argument("--delta", type=_delta_arg, required=True)
    p.add_argument("--lhs", type=_partition_arg, required=True)
    p.add_argument("--rhs", type=_partition_arg, required=True)

    p = add("series-check", "reflection-product and admissibility checks at a truncation order")
    p.add_argument("--delta", type=_delta_arg, required=True)
    p.add_argument("--order", type=int, default=24)

    p = add("wedge-apply", "apply a raising/lowering/symmetric-pair operator to a basis vector")
    p.add_argument("--delta", type=_delta_arg, required=True)
    p.add_argument("--shape", type=_partition_arg, required=True)
    p.add_argument("--index", type=_half_arg, required=True)
    p.add_argument("--op", choices=("b", "raising", "lowering"), default="b")

    p = add("verify", "run the full cross-check matrix")
    p.add_argument("--max-size", type=int, default=5)
    p.add_argument("--delta-min", type=int, default=-3)
    p.add_argument("--delta-max", type=int, default=5)
    p.add_argument("--order", type=int, default=24)
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    return parser


def _run_block(args) -> dict:
    members = enumerate_block_members(args.partition, args.delta, args.max_size)
    return {
        "delta": str(args.delta),
        "partition": _parts(args.partition),
        "max_size": args.max_size,
        "members": [_parts(m) for m in members],
    }


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        # argparse reads the value of --name=-- as [] without calling its type
        if value == []:
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    try:
        return _dispatch(args, parser)
    except ValueError as exc:
        # the library signals bad input with ValueError; that is a usage error
        parser.error(str(exc))


def _dispatch(args, parser: argparse.ArgumentParser) -> int:
    fmt = args.format

    if args.command == "same-block":
        _require_capped(parser, args, "lhs", "rhs")
        report = same_block_report(args.lhs, args.rhs, args.delta)
        payload = {
            "delta": str(args.delta),
            "lhs": _parts(args.lhs),
            "rhs": _parts(args.rhs),
            **report,
        }
        _emit(payload, fmt)
        return 0

    if args.command == "block-key":
        d = _require_integer(args.delta, parser, "block keys")
        _require_capped(parser, args, "partition")
        payload = {
            "delta": str(args.delta),
            "partition": _parts(args.partition),
            "block_key": block_key(args.partition, d).to_json(),
        }
        _emit(payload, fmt)
        return 0

    if args.command == "block":
        if args.max_size < args.partition.size:
            parser.error("--max-size must be at least the size of --partition")
        _require_capped(parser, args, "partition", delta=True)
        _emit(_run_block(args), fmt)
        return 0

    if args.command == "classify-weight-class":
        d = _require_integer(args.delta, parser, "weight-class classification")
        _require_capped(parser, args, "partition", delta=True)
        cls = classify_weight_class(args.partition, d)
        payload = {
            "delta": str(args.delta),
            "partition": _parts(args.partition),
            "classification": "split" if cls.split else "single",
            "partner": _parts(cls.partner) if cls.partner is not None else None,
        }
        _emit(payload, fmt)
        return 0

    if args.command == "brauer-blocks":
        d = _require_integer(args.delta, parser, "Brauer-algebra blocks")
        if args.n < 0:
            parser.error("--n must be nonnegative")
        payload = {
            "delta": str(args.delta),
            "n": args.n,
            "blocks": [[_parts(p) for p in group] for group in brauer_algebra_blocks(args.n, d)],
        }
        _emit(payload, fmt)
        return 0

    if args.command == "dot-orbit":
        d = _require_integer(args.delta, parser, "the orbit oracle")
        if args.n < 0:
            parser.error("--n must be nonnegative")
        if args.n > BFS_RANK_CAP and not args.force:
            parser.error(f"--n above the safety cap {BFS_RANK_CAP}; pass --force to override")
        member = dot_orbit_member(args.lhs, args.rhs, args.n, d, allow_large=args.force)
        payload = {
            "delta": str(args.delta),
            "n": args.n,
            "lhs": _parts(args.lhs),
            "rhs": _parts(args.rhs),
            "same_dot_orbit": member,
        }
        _emit(payload, fmt)
        return 0

    if args.command == "central-char":
        payload = {
            "delta": str(args.delta),
            "partition": _parts(args.partition),
            **central_character(args.partition, args.delta).to_json(),
        }
        _emit(payload, fmt)
        return 0

    if args.command == "centrally-equivalent":
        lhs_char = central_character(args.lhs, args.delta)
        rhs_char = central_character(args.rhs, args.delta)
        payload = {
            "delta": str(args.delta),
            "lhs": _parts(args.lhs),
            "rhs": _parts(args.rhs),
            "centrally_equivalent": lhs_char == rhs_char,
            "lhs_factored": lhs_char.render(),
            "rhs_factored": rhs_char.render(),
        }
        _emit(payload, fmt)
        return 0

    if args.command == "series-check":
        if args.order < 0:
            parser.error("--order must be nonnegative")
        gammas = brauer_gammas(args.delta, args.order + 1)
        product_ok = check_reflection_product(gammas, args.order)
        admissible_ok = check_admissible(gammas, args.order)
        payload = {
            "delta": str(args.delta),
            "order": args.order,
            "product_identity": product_ok,
            "admissible": admissible_ok,
            "passed": product_ok and admissible_ok,
        }
        _emit(payload, fmt)
        return 0 if payload["passed"] else 1

    if args.command == "wedge-apply":
        charge = sector_charge(args.delta)
        vector = WedgeVector.basis(make_sequence(args.shape, charge))
        op = {"b": apply_b, "raising": apply_raising, "lowering": apply_lowering}[args.op]
        result = op(args.index, vector)
        payload = {
            "delta": str(args.delta),
            "op": args.op,
            "twiceIndex": twice(args.index),
            "shape": _parts(args.shape),
            "terms": wedge_vector_json(result),
        }
        _emit(payload, fmt)
        return 0

    if args.command == "verify":
        if args.max_size < 0 or args.order < 0:
            parser.error("--max-size and --order must be nonnegative")
        if args.max_size > verify_mod.SIZE_CAP:
            parser.error(f"--max-size above the cap {verify_mod.SIZE_CAP}")
        if args.delta_min > args.delta_max:
            parser.error("--delta-min must not exceed --delta-max")
        results = verify_mod.run_verify(
            max_size=args.max_size,
            delta_lo=args.delta_min,
            delta_hi=args.delta_max,
            order=args.order,
            inject_fault=args.inject_fault,
        )
        payload = verify_mod.report_json(results)
        payload["parameters"] = {
            "max_size": args.max_size,
            "delta_min": args.delta_min,
            "delta_max": args.delta_max,
            "order": args.order,
        }
        _emit(payload, fmt)
        return 0 if payload["passed"] else 1

    parser.error(f"unknown subcommand {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
