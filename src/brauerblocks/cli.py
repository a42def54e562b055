"""Command-line frontend.

Every subcommand prints one JSON document on standard output (``--format
text`` renders the same data as indented key/value lines).  Exit codes:
0 success, 1 verification failure, 2 usage or parse error.

The parser is the one list of subcommands: each registers a handler that
returns its payload, which :func:`main` prints.  A ``ValueError``, from the
library or from a bound the library lacks and a handler checks, is a usage
error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import verify as verify_mod
from .blocks import (
    block_key,
    brauer_algebra_blocks,
    classify_weight_class,
    dot_dominant,
    enumerate_block_members,
    same_block_report,
)
from .central import brauer_gammas, central_character, check_admissible, check_reflection_product
from .partitions import Partition, PartitionError, integral, parse_partition, twice
from .wedge import WedgeVector, apply_b, apply_lowering, apply_raising, wedge_vector_json


# an integer or p/q; Fraction() would also read decimal and exponent forms,
# whose values (1e50000000) outgrow their text
RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _fraction_arg(text: str) -> Fraction:
    try:
        if RATIONAL.fullmatch(text):
            return Fraction(text)
    except ZeroDivisionError:
        pass
    except ValueError:
        # the one ValueError a matched text meets: more digits than the limit
        limit = sys.get_int_max_str_digits()
        raise argparse.ArgumentTypeError(
            f"'{text[:20]}...' has an integer of more than {limit} digits, Python's int-to-string limit"
        ) from None
    raise argparse.ArgumentTypeError(f"{text!r} is not an integer or a fraction p/q")


def _partition_arg(text: str) -> Partition:
    try:
        return parse_partition(text)
    except PartitionError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# block reads at least as many sequence entries as the label's first part, and
# the partner written by classify-weight-class has more parts than that, so
# both cost about that much; above this cap a label is refused.  Both also
# read about |delta| entries, so they cap |delta| as well.  same-block and
# block-key read keys off a label's runs of rows and take any label.
LABEL_CAP = 10**6

# dot-orbit descends each label to its dominant vector: at most n(n-1) moves,
# in sweeps of O(n) each.  At rank 1000 one descent takes about 0.2 s on a
# 2-vCPU VM, and the time grows about as n^2, so larger ranks are refused.
RANK_CAP = 1000

# brauer-blocks lists every label of size n, n - 2, ...; its time, its memory
# and its output follow their number, and each 4 added to n about doubles all
# three.  At n = 44 a run takes about 4 s and 375 MB and prints 37 MB, so the
# cap needs about 0.75 GB; larger n are refused.
BRAUER_N_CAP = 48

# series-check and verify sum O(order^2) products of Fractions that grow with
# the order and with the digits of delta (a series-check process takes about
# 0.25 s at the cap; with a 1,000-digit delta, 33 s), so series-check also
# refuses a delta whose numerator or denominator exceeds LABEL_CAP.  verify
# repeats every check once per delta; at both caps its two series checks
# alone take about 6 s.
ORDER_CAP = 128
DELTA_COUNT_CAP = 64

# verify's memory grows with |delta|: block-growth's window and the split
# partner of weight-class-split-counts hold about |delta| entries (at
# --max-size 0, delta = -3 * 10**6 peaked at 323 MB).  At this cap a run at
# the other three caps takes about as long as at small delta (7-8 s, 19 MB).
VERIFY_DELTA_CAP = 1000


def _require_abs_capped(name: str, value, cap: int) -> None:
    if abs(value) > cap:
        raise ValueError(f"|{name}| is above the cap {cap}")


def _require_capped(args) -> None:
    first = args.partition.part(1)
    if first > LABEL_CAP:
        raise ValueError(f"--partition has first part {first}, above the cap {LABEL_CAP}")
    _require_abs_capped("--delta", args.delta, LABEL_CAP)


def _text_lines(value, indent: int = 0) -> list[str]:
    """A dict as "key: value" lines and a list as "- value" lines; a value
    that is a non-empty dict, or a list holding a container, is written as an
    indented block below its key or dash instead."""
    pad = "  " * indent
    if isinstance(value, dict):
        items = [(f"{k}:", v) for k, v in value.items()]
    elif isinstance(value, list):
        items = [("-", item) for item in value]
    else:
        return [f"{pad}{json.dumps(value)}"]
    lines: list[str] = []
    for label, v in items:
        if isinstance(v, dict) and v or isinstance(v, list) and any(isinstance(x, (dict, list)) for x in v):
            lines.append(f"{pad}{label}")
            lines.extend(_text_lines(v, indent + 1))
        else:
            lines.append(f"{pad}{label} {json.dumps(v)}")
    return lines


def _same_block(args) -> dict:
    return {
        "delta": str(args.delta),
        "lhs": list(args.lhs),
        "rhs": list(args.rhs),
        **same_block_report(args.lhs, args.rhs, args.delta),
    }


def _block_key(args) -> dict:
    return {
        "delta": str(args.delta),
        "partition": list(args.partition),
        "block_key": block_key(args.partition, args.delta).to_json(),
    }


def _block(args) -> dict:
    _require_capped(args)
    members = enumerate_block_members(args.partition, args.delta, args.max_size)
    return {
        "delta": str(args.delta),
        "partition": list(args.partition),
        "max_size": args.max_size,
        "members": [list(m) for m in members],
    }


def _classify_weight_class(args) -> dict:
    _require_capped(args)
    cls = classify_weight_class(args.partition, args.delta)
    return {
        "delta": str(args.delta),
        "partition": list(args.partition),
        "classification": "split" if cls.split else "single",
        "partner": list(cls.partner) if cls.partner is not None else None,
    }


def _brauer_blocks(args) -> dict:
    if args.n > BRAUER_N_CAP:
        raise ValueError(f"--n above the cap {BRAUER_N_CAP}")
    return {
        "delta": str(args.delta),
        "n": args.n,
        "blocks": [[list(p) for p in group] for group in brauer_algebra_blocks(args.n, args.delta)],
    }


def _dot_orbit(args) -> dict:
    # the library would report a negative rank as a label longer than the rank
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    if args.n > RANK_CAP:
        raise ValueError(f"--n above the cap {RANK_CAP}")
    same = dot_dominant(args.lhs, args.n, args.delta) == dot_dominant(args.rhs, args.n, args.delta)
    return {
        "delta": str(args.delta),
        "n": args.n,
        "lhs": list(args.lhs),
        "rhs": list(args.rhs),
        "same_dot_orbit": same,
    }


def _central_char(args) -> dict:
    return {
        "delta": str(args.delta),
        "partition": list(args.partition),
        **central_character(args.partition, args.delta).to_json(),
    }


def _centrally_equivalent(args) -> dict:
    lhs_char = central_character(args.lhs, args.delta)
    rhs_char = central_character(args.rhs, args.delta)
    return {
        "delta": str(args.delta),
        "lhs": list(args.lhs),
        "rhs": list(args.rhs),
        "centrally_equivalent": lhs_char == rhs_char,
        "lhs_factored": lhs_char.render(),
        "rhs_factored": rhs_char.render(),
    }


def _series_check(args) -> dict:
    # below 0 the library fails with an IndexError, not a ValueError
    if args.order < 0:
        raise ValueError("--order must be nonnegative")
    if args.order > ORDER_CAP:
        raise ValueError(f"--order above the cap {ORDER_CAP}")
    _require_abs_capped("numerator of --delta", args.delta.numerator, LABEL_CAP)
    _require_abs_capped("denominator of --delta", args.delta.denominator, LABEL_CAP)
    gammas = brauer_gammas(args.delta, args.order + 1)
    product_ok = check_reflection_product(gammas, args.order)
    admissible_ok = check_admissible(gammas, args.order)
    return {
        "delta": str(args.delta),
        "order": args.order,
        "product_identity": product_ok,
        "admissible": admissible_ok,
        "passed": product_ok and admissible_ok,
    }


def _wedge_apply(args) -> dict:
    c2 = integral(args.delta, "wedge-apply requires integral delta") - 2
    vector = WedgeVector(c2, {args.shape: 1})
    op = {"b": apply_b, "raising": apply_raising, "lowering": apply_lowering}[args.op]
    return {
        "delta": str(args.delta),
        "op": args.op,
        "twiceIndex": twice(args.index),
        "shape": list(args.shape),
        "terms": wedge_vector_json(op(args.index, vector)),
    }


def _verify(args) -> dict:
    if args.max_size < 0 or args.order < 0:
        raise ValueError("--max-size and --order must be nonnegative")
    if args.max_size > verify_mod.SIZE_CAP:
        raise ValueError(f"--max-size above the cap {verify_mod.SIZE_CAP}")
    if args.order > ORDER_CAP:
        raise ValueError(f"--order above the cap {ORDER_CAP}")
    if args.delta_min > args.delta_max:
        raise ValueError("--delta-min must not exceed --delta-max")
    if args.delta_max - args.delta_min >= DELTA_COUNT_CAP:
        raise ValueError(f"--delta-min..--delta-max spans more than {DELTA_COUNT_CAP} values")
    _require_abs_capped("--delta-min", args.delta_min, VERIFY_DELTA_CAP)
    _require_abs_capped("--delta-max", args.delta_max, VERIFY_DELTA_CAP)
    results = verify_mod.run_verify(
        max_size=args.max_size,
        delta_lo=args.delta_min,
        delta_hi=args.delta_max,
        order=args.order,
        inject_fault=args.inject_fault,
    )
    return {
        **verify_mod.report_json(results),
        "parameters": {
            "max_size": args.max_size,
            "delta_min": args.delta_min,
            "delta_max": args.delta_max,
            "order": args.order,
        },
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brauerblocks",
        description="Exact block classification for the Brauer category over C",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.set_defaults(handler=handler)
        return p

    p = add("same-block", "decide whether two simple modules share a block", _same_block)
    p.add_argument("--delta", type=_fraction_arg, required=True)
    p.add_argument("--lhs", type=_partition_arg, required=True)
    p.add_argument("--rhs", type=_partition_arg, required=True)

    p = add("block-key", "canonical key of the block of a simple module", _block_key)
    p.add_argument("--delta", type=_fraction_arg, required=True)
    p.add_argument("--partition", type=_partition_arg, required=True)

    p = add("block", "enumerate block members up to a size bound", _block)
    p.add_argument("--delta", type=_fraction_arg, required=True)
    p.add_argument("--partition", type=_partition_arg, required=True)
    p.add_argument("--max-size", type=int, required=True)

    p = add("classify-weight-class", "single block or a split pair, with the partner label", _classify_weight_class)
    p.add_argument("--delta", type=_fraction_arg, required=True)
    p.add_argument("--partition", type=_partition_arg, required=True)

    p = add("brauer-blocks", "blocks of the rank-n Brauer algebra", _brauer_blocks)
    p.add_argument("--delta", type=_fraction_arg, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("dot-orbit", "dot-action orbit membership by descent (transposed-level labels)", _dot_orbit)
    p.add_argument("--delta", type=_fraction_arg, required=True)
    p.add_argument("--lhs", type=_partition_arg, required=True)
    p.add_argument("--rhs", type=_partition_arg, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("central-char", "canonical factored central character", _central_char)
    p.add_argument("--delta", type=_fraction_arg, required=True)
    p.add_argument("--partition", type=_partition_arg, required=True)

    p = add("centrally-equivalent", "compare central characters", _centrally_equivalent)
    p.add_argument("--delta", type=_fraction_arg, required=True)
    p.add_argument("--lhs", type=_partition_arg, required=True)
    p.add_argument("--rhs", type=_partition_arg, required=True)

    p = add("series-check", "reflection-product and admissibility checks at a truncation order", _series_check)
    p.add_argument("--delta", type=_fraction_arg, required=True)
    p.add_argument("--order", type=int, default=24)

    p = add("wedge-apply", "apply a raising/lowering/symmetric-pair operator to a basis vector", _wedge_apply)
    p.add_argument("--delta", type=_fraction_arg, required=True)
    p.add_argument("--shape", type=_partition_arg, required=True)
    p.add_argument("--index", type=_fraction_arg, required=True)
    p.add_argument("--op", choices=("b", "raising", "lowering"), default="b")

    p = add("verify", "run the full cross-check matrix", _verify)
    p.add_argument("--max-size", type=int, default=5)
    p.add_argument("--delta-min", type=int, default=-3)
    p.add_argument("--delta-max", type=int, default=5)
    p.add_argument("--order", type=int, default=24)
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        # argparse reads the value of --name=-- as [] without calling its type
        if value == []:
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    try:
        payload = args.handler(args)
    except ValueError as exc:
        # the library signals bad input with ValueError; that is a usage error
        parser.error(str(exc))
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(_text_lines(payload)))
    return 0 if payload.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
