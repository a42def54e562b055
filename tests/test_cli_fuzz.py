"""CLI fuzz test: every argv from a bounded grammar gets a contracted outcome.

The grammar covers every subcommand with small arguments (delta a small
integer, a fraction, junk, or a decimal, exponent or 5,000-digit form;
partitions of at most 6 parts, sometimes not descending; operator indices
up to +-99999999999/2, junk or the same outsized forms; small ranks,
orders, size bounds and delta ranges, the ranks, orders and delta-range
widths on both sides of the CLI's caps, and a series-check delta and a
verify delta range beyond theirs), plus stray
``--jobs`` and ``--force`` flags.  Delta and the index are written
``--name=value``, so that negative fractions reach the library.  Each argv
runs in-process with its streams redirected: the exit code must be 0, 1 or 2,
stderr must hold no traceback, and on exit 0 or 1 stdout must be one JSON
document (or non-empty text under ``--format text``).
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from brauerblocks.cli import BRAUER_N_CAP, DELTA_COUNT_CAP, LABEL_CAP, ORDER_CAP, RANK_CAP, VERIFY_DELTA_CAP, main

JUNK = st.sampled_from(["x", "1/0", "", "2.5.1", "1e3", "--", "-"])

# forms Fraction() reads but the CLI refuses (a huge exponent, a decimal), and
# an integer longer than Python's default int-to-string limit of 4300 digits
OUTSIZED = st.sampled_from(["1e50000000", "0.5", "9" * 5000])

DELTA = st.one_of(
    st.integers(-6, 8).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(1, 4)),
    JUNK,
    OUTSIZED,
)

PARTITION = st.one_of(
    st.lists(st.integers(1, 6), max_size=6).map(lambda xs: ",".join(map(str, sorted(xs, reverse=True)))),
    st.lists(st.integers(0, 6), max_size=6).map(lambda xs: ",".join(map(str, xs))),
    JUNK,
)

INDEX = st.one_of(
    st.integers(-10, 10).map(lambda t: str(t // 2) if t % 2 == 0 else f"{t}/2"),
    st.sampled_from(["99999999999/2", "-99999999999/2"]),
    JUNK,
    OUTSIZED,
)

# After a space argparse reads a negative fraction such as -7/2 as an unknown
# option, so these options are written --name=value and their negative
# fractions reach the library.
JOINED = frozenset({"delta", "index"})


def _option(name: str, value: str) -> list[str]:
    flag = f"--{name.replace('_', '-')}"
    return [f"{flag}={value}"] if name in JOINED else [flag, value]


def _opts(**kwargs):
    """Strategy for a flat list of options in the given order: ``--name=value``
    for the names in JOINED, ``--name value`` for the others."""
    return st.tuples(*(v.map(lambda x, k=k: _option(k, x)) for k, v in kwargs.items())).map(
        lambda opts: [x for opt in opts for x in opt]
    )


def _command(name, **kwargs):
    return _opts(**kwargs).map(lambda rest: [name, *rest])


# small values, and the values at and just above each CLI cap
ORDER = st.one_of(st.integers(-1, 8), st.sampled_from([ORDER_CAP, ORDER_CAP + 1]))
RANK = st.one_of(st.integers(-1, 5), st.sampled_from([RANK_CAP, RANK_CAP + 1]))
# brauer-blocks takes seconds at its cap, so only the values above it
BRAUER_N = st.one_of(st.integers(-1, 10), st.sampled_from([BRAUER_N_CAP + 1, 10**12]))
# and a delta beyond each delta cap: for series-check one whose denominator
# is above LABEL_CAP, for verify a delta-min just below -VERIFY_DELTA_CAP
SERIES_DELTA = st.one_of(DELTA, st.just(f"1/{LABEL_CAP + 1}"))
VERIFY_DELTA_MIN = st.one_of(st.integers(-6, 7), st.just(-VERIFY_DELTA_CAP - 1))


def _verify(size, lo, span, order, fault):
    return [
        "verify", "--max-size", str(size), "--delta-min", str(lo), "--delta-max", str(lo + span),
        "--order", str(order), *(["--inject-fault"] if fault else []),
    ]


# a wide delta range runs only at small orders: at the caps of both, verify takes seconds
VERIFY = st.one_of(
    st.builds(_verify, st.integers(0, 2), VERIFY_DELTA_MIN, st.integers(-1, 1), ORDER, st.booleans()),
    st.builds(
        _verify,
        st.integers(0, 2),
        st.integers(-6, 7),
        st.sampled_from([DELTA_COUNT_CAP - 1, DELTA_COUNT_CAP]),
        st.integers(0, 8),
        st.booleans(),
    ),
)

ARGV = st.one_of(
    _command("same-block", delta=DELTA, lhs=PARTITION, rhs=PARTITION),
    _command("block-key", delta=DELTA, partition=PARTITION),
    _command("block", delta=DELTA, partition=PARTITION, max_size=st.integers(-1, 12).map(str)),
    _command("classify-weight-class", delta=DELTA, partition=PARTITION),
    _command("brauer-blocks", delta=DELTA, n=BRAUER_N.map(str)),
    _command("dot-orbit", delta=DELTA, lhs=PARTITION, rhs=PARTITION, n=RANK.map(str)),
    _command("central-char", delta=DELTA, partition=PARTITION),
    _command("centrally-equivalent", delta=DELTA, lhs=PARTITION, rhs=PARTITION),
    _command("series-check", delta=SERIES_DELTA, order=ORDER.map(str)),
    _command(
        "wedge-apply", delta=DELTA, shape=PARTITION, index=INDEX, op=st.sampled_from(["b", "raising", "lowering"])
    ),
    VERIFY,
)

# stray flags: the removed --jobs and --force, and a text format
STRAY = st.sampled_from([[], [], ["--jobs", "2"], ["--jobs", "0"], ["--force"], ["--format", "text"]])


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(ARGV, STRAY)
def test_every_bounded_argv_has_a_contracted_outcome(argv, stray):
    argv = argv + stray
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code in (0, 1):
        if "text" in argv:
            assert out.strip(), argv
        else:
            json.loads(out)
