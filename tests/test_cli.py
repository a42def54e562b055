import argparse
import json
import re
import sys
import time
from pathlib import Path

import pytest

from brauerblocks import cli, verify
from brauerblocks.blocks import dot_orbit_member
from brauerblocks.cli import build_parser, main
from brauerblocks.partitions import Partition, parse_partition
from test_blocks import parity_flipped


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_same_block_command(capsys):
    code, payload = run_json(
        capsys, "same-block", "--delta", "2", "--lhs", "", "--rhs", "2,2,2"
    )
    assert code == 0
    assert payload["same_block"] is True
    assert payload["block_key"]["devMap"] == []
    assert payload["reason"]["abs_multiset_equal"] is True


def test_same_block_nonintegral_delta(capsys):
    code, payload = run_json(
        capsys, "same-block", "--delta", "7/2", "--lhs", "2,1", "--rhs", "2,1"
    )
    assert code == 0
    assert payload["same_block"] is True
    assert payload["reason"]["semisimple"] is True


def test_central_char_command(capsys):
    code, payload = run_json(capsys, "central-char", "--delta", "1", "--partition", "2,2")
    assert code == 0
    assert payload["factored"] == "-(u-1/2)(u+1/2)"
    assert payload["constant"] == [-1, 1]


def test_malformed_delta_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["same-block", "--delta", "x", "--lhs", "", "--rhs", "1"])
    assert err.value.code == 2


def test_malformed_partition_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["block-key", "--delta", "2", "--partition", "1,2"])
    assert err.value.code == 2


def test_block_key_requires_integer_delta(capsys):
    with pytest.raises(SystemExit) as err:
        main(["block-key", "--delta", "5/2", "--partition", "1"])
    assert err.value.code == 2


def test_block_command_rejects_jobs(capsys):
    code, payload = run_json(
        capsys, "block", "--delta", "2", "--partition", "", "--max-size", "6"
    )
    assert code == 0
    assert payload["members"] == [[], [2, 2, 2]]
    message = _usage_error(
        capsys, "block", "--delta", "2", "--partition", "", "--max-size", "6", "--jobs", "2"
    )
    assert "unrecognized arguments: --jobs 2" in message


def test_classify_command(capsys):
    code, payload = run_json(
        capsys, "classify-weight-class", "--delta", "2", "--partition", ""
    )
    assert code == 0
    assert payload["classification"] == "split"
    assert payload["partner"] == [1, 1]

    code, payload = run_json(
        capsys, "classify-weight-class", "--delta", "1", "--partition", "1"
    )
    assert payload["classification"] == "single"
    assert payload["partner"] is None


def test_brauer_blocks_command(capsys):
    code, payload = run_json(capsys, "brauer-blocks", "--delta", "0", "--n", "2")
    assert code == 0
    assert payload["blocks"] == [[[], [2]], [[1, 1]]]


def test_dot_orbit_command_and_cap(capsys):
    code, payload = run_json(
        capsys, "dot-orbit", "--delta", "2", "--lhs", "", "--rhs", "3,3", "--n", "6"
    )
    assert code == 0
    assert payload["same_dot_orbit"] is True

    # the descent answers above the BFS oracle's rank cap
    code, payload = run_json(capsys, "dot-orbit", "--delta", "2", "--lhs", "", "--rhs", "", "--n", "9")
    assert code == 0 and payload["same_dot_orbit"] is True
    code, payload = run_json(
        capsys, "dot-orbit", "--delta", "2", "--lhs", "1", "--rhs", "3", "--n", str(cli.RANK_CAP)
    )
    assert code == 0 and payload["same_dot_orbit"] is False
    started = time.perf_counter()
    message = _usage_error(
        capsys, "dot-orbit", "--delta", "2", "--lhs", "", "--rhs", "", "--n", str(cli.RANK_CAP + 1)
    )
    assert time.perf_counter() - started < 1
    assert message.endswith(f"--n above the cap {cli.RANK_CAP}")
    message = _usage_error(
        capsys, "dot-orbit", "--delta", "2", "--lhs", "", "--rhs", "", "--n", "2", "--force"
    )
    assert "unrecognized arguments: --force" in message

    # the descent answer through main equals the BFS oracle's, both ways
    answers = set()
    for lhs, rhs, n, delta in (
        ("", "3,3", 6, 2),
        ("", "1,1", 2, 2),
        ("2,1", "2,1", 4, -1),
        ("1", "2,1,1", 5, 3),
        ("3,1", "2", 4, 0),
        ("2,2", "1,1,1,1", 6, -3),
    ):
        code, payload = run_json(
            capsys, "dot-orbit", f"--delta={delta}", "--lhs", lhs, "--rhs", rhs, "--n", str(n)
        )
        expected = dot_orbit_member(parse_partition(lhs), parse_partition(rhs), n, delta)
        assert code == 0 and payload["same_dot_orbit"] is expected, (lhs, rhs, n, delta)
        answers.add(expected)
    assert answers == {True, False}


def test_centrally_equivalent_command(capsys):
    code, payload = run_json(
        capsys, "centrally-equivalent", "--delta", "1", "--lhs", "2,2", "--rhs", "2,1"
    )
    assert code == 0
    assert payload["centrally_equivalent"] is True
    assert payload["lhs_factored"] == payload["rhs_factored"]


def test_series_check_command(capsys):
    code, payload = run_json(capsys, "series-check", "--delta", "3", "--order", "12")
    assert code == 0
    assert payload == {
        "delta": "3",
        "order": 12,
        "product_identity": True,
        "admissible": True,
        "passed": True,
    }


def test_wedge_apply_command(capsys):
    code, payload = run_json(
        capsys,
        "wedge-apply", "--delta", "2", "--shape", "1", "--index", "1/2", "--op", "b",
    )
    assert code == 0
    assert payload["twiceIndex"] == 1
    assert payload["terms"] == [
        {"shape": [], "twiceCharge": 0, "numerator": 1, "denominator": 1},
        {"shape": [2], "twiceCharge": 0, "numerator": 1, "denominator": 1},
    ]


def test_wedge_apply_rejects_bad_parity(capsys):
    with pytest.raises(SystemExit) as err:
        main(["wedge-apply", "--delta", "2", "--shape", "1", "--index", "1"])
    assert err.value.code == 2


def test_negative_fractions_need_the_equals_form(capsys):
    # argparse reads a value such as -7/2 after a space as an unknown option
    code, payload = run_json(capsys, "same-block", "--delta=-7/2", "--lhs", "1", "--rhs", "1")
    assert code == 0
    assert payload["delta"] == "-7/2" and payload["same_block"] is True
    code, payload = run_json(capsys, "wedge-apply", "--delta", "2", "--shape", "1", "--index=-1/2")
    assert code == 0
    assert payload["twiceIndex"] == -1
    for argv in (
        ("same-block", "--delta", "-7/2", "--lhs", "1", "--rhs", "1"),
        ("wedge-apply", "--delta", "2", "--shape", "1", "--index", "-1/2"),
    ):
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith("usage: brauerblocks ")
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].endswith("expected one argument")
    # argparse hands the value of --delta=-- over as [] without parsing it
    for argv in (
        ("block-key", "--delta=--", "--partition", ""),
        ("wedge-apply", "--delta", "2", "--shape", "1", "--index=--"),
    ):
        assert _usage_error(capsys, *argv).endswith("expected one argument")


def test_delta_and_index_read_integers_and_fractions_only(capsys):
    # Fraction() would read 1e50000000 as an int of 50 million digits
    for value in ("1e50000000", "0.5", "2.5e0"):
        for argv in (
            ("central-char", f"--delta={value}", "--partition", "1"),
            ("wedge-apply", "--delta", "2", "--shape", "1", f"--index={value}"),
        ):
            started = time.perf_counter()
            with pytest.raises(SystemExit) as err:
                main(list(argv))
            assert time.perf_counter() - started < 1
            assert err.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "Traceback" not in captured.err
            errors = [line for line in captured.err.splitlines() if "error:" in line]
            assert len(errors) == 1 and errors[0].endswith(f"{value!r} is not an integer or a fraction p/q")
    # an integer past Python's int-to-string limit is named as such
    limit = f"more than {sys.get_int_max_str_digits()} digits, Python's int-to-string limit"
    for value in ("9" * 5000, "1/" + "9" * 5000):
        for argv in (
            ("central-char", f"--delta={value}", "--partition", "1"),
            ("wedge-apply", "--delta", "2", "--shape", "1", f"--index={value}"),
        ):
            with pytest.raises(SystemExit) as err:
                main(list(argv))
            assert err.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "Traceback" not in captured.err
            errors = [line for line in captured.err.splitlines() if "error:" in line]
            assert len(errors) == 1 and errors[0].endswith(limit)
    code, payload = run_json(capsys, "central-char", "--delta=+7/2", "--partition", "1")
    assert code == 0 and payload["delta"] == "7/2"


def test_wedge_apply_on_huge_indices_is_cheap(capsys):
    # a tail entry far beyond the shape collides with its neighbour; the
    # collision is found without padding the shape out to the entry
    for op in ("b", "raising", "lowering"):
        for index, twice_index in (("99999999999/2", 99999999999), ("-99999999999/2", -99999999999)):
            started = time.perf_counter()
            code, payload = run_json(
                capsys, "wedge-apply", "--delta", "2", "--shape", "1", f"--index={index}", "--op", op
            )
            assert time.perf_counter() - started < 0.5
            assert code == 0
            assert payload == {"delta": "2", "op": op, "twiceIndex": twice_index, "shape": [1], "terms": []}


def test_text_format(capsys):
    code, out = run(
        capsys,
        "central-char", "--delta", "1", "--partition", "2,2", "--format", "text",
    )
    assert code == 0
    assert 'factored: "-(u-1/2)(u+1/2)"' in out


def test_output_is_deterministic(capsys):
    _, first = run(capsys, "brauer-blocks", "--delta", "2", "--n", "4")
    _, second = run(capsys, "brauer-blocks", "--delta", "2", "--n", "4")
    assert first == second


def test_verify_trivial_ranges(capsys):
    code, payload = run_json(
        capsys,
        "verify", "--max-size", "0",
        "--delta-min", "0", "--delta-max", "0", "--order", "0",
    )
    assert code == 0
    assert payload["passed"] is True
    assert len(payload["checks"]) == 11


def test_verify_runs_every_check_at_the_requested_size(capsys):
    code, payload = run_json(capsys, "verify", "--max-size", "7", "--delta-min", "0", "--delta-max", "1")
    assert code == 0 and payload["passed"] is True
    sized = {c["name"]: c["scope"] for c in payload["checks"] if c["scope"].startswith("sizes<=")}
    assert sized.pop("block-growth").startswith("sizes<=4,")
    assert sorted(sized) == [
        "bar-weight-vs-central-character", "key-consistency", "orbit-vs-dot-bfs",
        "sequence-weight-bridge", "wedge-box-moves", "weight-class-split-counts",
    ]
    assert all(scope.startswith("sizes<=7,") for scope in sized.values())


@pytest.mark.xfail(
    strict=True,
    reason="block-growth looks for a second member within a fixed window of +16 boxes, "
    "and the nearest one lies beyond it",
)
@pytest.mark.parametrize(
    "argv",
    [
        # lam=[3] delta=-4: only 1 member(s) within size 19
        ("--delta-min=-4", "--delta-max=-4"),
        # lam=[] delta=8: the nearest second member has 18 boxes
        ("--delta-min", "8", "--delta-max", "8", "--max-size", "0"),
    ],
)
def test_block_growth_passes_on_a_correct_library(capsys, argv):
    code, payload = run_json(capsys, "verify", *argv)
    assert code == 0, [c["counterexample"] for c in payload["checks"] if not c["passed"]]


def test_verify_fault_injection(capsys, monkeypatch):
    # the key of (2, 2) gets its parity flipped: at delta = 0 it joins the
    # block of (1, 1), and at delta = 1 the class of () carries two keys
    monkeypatch.setattr(verify, "block_key", parity_flipped(Partition((2, 2))))
    code, payload = run_json(capsys, "verify", "--max-size", "4", "--delta-min", "0", "--delta-max", "1")
    assert code == 1
    assert payload["passed"] is False
    failing = {c["name"]: c["counterexample"] for c in payload["checks"] if not c["passed"]}
    assert failing == {
        "weight-class-split-counts": "delta=1, class of []: 2 keys, expected 1",
        "key-consistency": "lam=[1, 1] mu=[2, 2] delta=0: key equality True, rule False",
    }


def _usage_error(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    return captured.err.strip().splitlines()[-1]


def test_library_value_error_exits_2(capsys):
    message = _usage_error(
        capsys, "wedge-apply", "--delta", "1/3", "--shape", "1", "--op", "b", "--index", "0"
    )
    assert message.endswith("wedge-apply requires integral delta")
    message = _usage_error(
        capsys, "wedge-apply", "--delta", "2", "--shape", "1", "--op", "b", "--index", "1/3"
    )
    assert message.endswith("1/3 is not an integer or half-integer")


@pytest.mark.parametrize("delta", ["1/2", "7/2"])
def test_wedge_apply_names_the_nonintegral_delta(capsys, delta):
    # the charge delta/2 - 1 is no half-integer (-3/4 at delta = 1/2); the
    # error names the delta as given, not the charge
    message = _usage_error(capsys, "wedge-apply", "--delta", delta, "--shape", "1", "--index", "1/2")
    assert message.endswith("error: wedge-apply requires integral delta")


def test_empty_delta_range_and_bad_jobs_exit_2(capsys):
    message = _usage_error(capsys, "verify", "--delta-min", "5", "--delta-max", "-3")
    assert "--delta-min must not exceed --delta-max" in message
    for jobs in ("0", "-1", "2"):
        message = _usage_error(
            capsys, "block", "--delta", "2", "--partition", "", "--max-size", "2", "--jobs", jobs
        )
        assert f"unrecognized arguments: --jobs {jobs}" in message
        message = _usage_error(capsys, "verify", "--max-size", "0", "--jobs", jobs)
        assert f"unrecognized arguments: --jobs {jobs}" in message
    message = _usage_error(capsys, "verify", "--max-size", "0", "--force")
    assert "unrecognized arguments: --force" in message
    message = _usage_error(capsys, "verify", "--inject-fault")
    assert message.endswith("error: unrecognized arguments: --inject-fault")


def test_verify_size_cap_exits_2(capsys):
    message = _usage_error(capsys, "verify", "--max-size", str(verify.SIZE_CAP + 1))
    assert message.endswith(f"--max-size above the cap {verify.SIZE_CAP}")


def test_order_and_delta_range_caps_exit_2(capsys):
    cap = str(cli.ORDER_CAP)
    code, payload = run_json(capsys, "series-check", "--delta", "3", "--order", cap)
    assert code == 0 and payload["passed"] is True
    code, payload = run_json(
        capsys, "verify", "--max-size", "0", "--delta-min", "1", "--delta-max", "1", "--order", cap
    )
    assert code == 0 and payload["passed"] is True
    above = str(cli.ORDER_CAP + 1)
    for argv in (
        ("series-check", "--delta", "3", "--order", above),
        ("verify", "--max-size", "0", "--order", above),
    ):
        assert _usage_error(capsys, *argv).endswith(f"--order above the cap {cli.ORDER_CAP}")
    # the widest range runs; one more delta value is refused
    last = str(cli.DELTA_COUNT_CAP - 1)
    code, payload = run_json(
        capsys, "verify", "--max-size", "0", "--delta-min", "0", "--delta-max", last, "--order", "0"
    )
    # block-growth's fixed window fails at some of these deltas (see the xfail test above)
    assert [c["name"] for c in payload["checks"] if not c["passed"]] in ([], ["block-growth"])
    message = _usage_error(
        capsys, "verify", "--max-size", "0", "--delta-min=-1", "--delta-max", last, "--order", "0"
    )
    assert message.endswith(f"spans more than {cli.DELTA_COUNT_CAP} values")


def test_the_parser_is_the_one_list_of_subcommands(capsys):
    # the parser accepts exactly the subcommands with a recorded golden case:
    # each of them answers --help, the usage lists no other, and a name
    # outside the set is a usage error
    recorded = {
        case["argv"][0]
        for name in ("golden_cli.json", "golden_verify.json")
        for case in json.loads((Path(__file__).parent / name).read_text())
    }
    for command in recorded:
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
    listed = re.search(r"\{([^}]*)\}", build_parser().format_usage()).group(1)
    assert set(listed.split(",")) == recorded
    with pytest.raises(SystemExit) as exit_info:
        main(["no-such-command"])
    assert exit_info.value.code == 2
    capsys.readouterr()


def test_no_option_is_hidden_from_help():
    # every option of every subcommand shows in its --help
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in commands.choices.items():
        shown = sub.format_help()
        for action in sub._actions:
            assert action.help != argparse.SUPPRESS, (name, action.option_strings)
            assert all(flag in shown for flag in action.option_strings), (name, action.option_strings)


def test_dot_orbit_negative_rank_exits_2(capsys):
    message = _usage_error(capsys, "dot-orbit", "--delta", "2", "--lhs", "", "--rhs", "", "--n", "-1")
    assert message.endswith("--n must be nonnegative")


def test_brauer_blocks_above_the_cap_exits_2_at_once(capsys):
    for n in (cli.BRAUER_N_CAP + 1, 10**12):
        started = time.perf_counter()
        message = _usage_error(capsys, "brauer-blocks", "--delta", "2", "--n", str(n))
        assert time.perf_counter() - started < 1
        assert message.endswith(f"error: --n above the cap {cli.BRAUER_N_CAP}")


def test_label_above_the_cap_exits_2_at_once(capsys):
    started = time.perf_counter()
    message = _usage_error(capsys, "classify-weight-class", "--delta", "2", "--partition", "99999999999")
    assert time.perf_counter() - started < 1
    assert message.endswith(f"--partition has first part 99999999999, above the cap {cli.LABEL_CAP}")
    big = str(cli.LABEL_CAP + 1)
    message = _usage_error(capsys, "block", "--delta", "2", "--partition", big, "--max-size", big)
    assert "above the cap" in message


def test_verify_delta_above_the_cap_exits_2_at_once(capsys):
    # verify's memory grows with |delta|, so a range beyond the cap is
    # refused before any check runs
    cap = cli.VERIFY_DELTA_CAP
    for lo, hi, name in ((-10**9, -10**9, "--delta-min"), (-cap - 1, -cap, "--delta-min"), (cap, cap + 1, "--delta-max")):
        started = time.perf_counter()
        message = _usage_error(capsys, "verify", "--max-size", "0", f"--delta-min={lo}", f"--delta-max={hi}")
        assert time.perf_counter() - started < 1
        assert message.endswith(f"|{name}| is above the cap {cap}")
    for delta in (-cap, cap):
        code, payload = run_json(capsys, "verify", "--max-size", "0", f"--delta-min={delta}", f"--delta-max={delta}")
        assert code in (0, 1) and payload["parameters"]["delta_min"] == delta
        # block-growth's fixed window fails at these deltas (see the xfail test above)
        assert [c["name"] for c in payload["checks"] if not c["passed"]] in ([], ["block-growth"])


def test_series_check_delta_above_the_cap_exits_2_at_once(capsys):
    # the series' Fractions grow with the digits of delta
    big = cli.LABEL_CAP + 1
    order = str(cli.ORDER_CAP)
    for delta, part in (("1/" + "7" * 400, "denominator"), (str(big), "numerator"), (f"-{big}/3", "numerator")):
        started = time.perf_counter()
        message = _usage_error(capsys, "series-check", f"--delta={delta}", "--order", order)
        assert time.perf_counter() - started < 1
        assert message.endswith(f"|{part} of --delta| is above the cap {cli.LABEL_CAP}")
    code, payload = run_json(capsys, "series-check", f"--delta=-{cli.LABEL_CAP - 1}/{cli.LABEL_CAP}")
    assert code == 0 and payload["passed"] is True


def test_same_block_and_block_key_take_labels_above_the_cap(capsys):
    # both read the key off a label's runs of rows, whatever its first part
    def row_key(n):
        return {"twiceCharge": 0, "devMap": [[0, 1], [2 * n, -1]], "negParity": "*"}

    big = cli.LABEL_CAP + 1
    for lhs, rhs in ((1, big), (big, 1), (99999999999, 1)):
        started = time.perf_counter()
        code, payload = run_json(capsys, "same-block", "--delta", "2", "--lhs", str(lhs), "--rhs", str(rhs))
        assert time.perf_counter() - started < 1
        assert code == 0 and payload["same_block"] is False
        assert payload["block_key"] == row_key(lhs)
    for n in (big, 99999999999):
        started = time.perf_counter()
        code, payload = run_json(capsys, "block-key", "--delta", "2", "--partition", str(n))
        assert time.perf_counter() - started < 1
        assert code == 0 and payload["block_key"] == row_key(n)


def test_cap_bounds_first_parts_and_delta(capsys, monkeypatch):
    monkeypatch.setattr(cli, "LABEL_CAP", 10)
    code, payload = run_json(capsys, "classify-weight-class", "--delta", "10", "--partition", "10,1")
    assert code == 0 and payload["classification"] == "split"
    code, payload = run_json(capsys, "block", "--delta", "-10", "--partition", "10", "--max-size", "12")
    assert code == 0 and [10] in payload["members"]
    assert "--partition has first part 11" in _usage_error(
        capsys, "classify-weight-class", "--delta", "2", "--partition", "11"
    )
    for command in ("classify-weight-class", "block"):
        extra = ("--max-size", "2") if command == "block" else ()
        for delta in ("12", "-11"):
            message = _usage_error(capsys, command, "--delta", delta, "--partition", "", *extra)
            assert message.endswith("|--delta| is above the cap 10")
    # central-char reads rows only and stays uncapped
    code, payload = run_json(capsys, "central-char", "--delta", "2", "--partition", "99999999999")
    assert code == 0


def test_same_block_at_the_cap_reads_runs_not_columns(capsys):
    # both labels have about 10**6 columns; the key is read off their rows
    started = time.perf_counter()
    code, payload = run_json(
        capsys, "same-block", "--delta", "2", "--lhs", "1000000", "--rhs", "999998,2"
    )
    assert time.perf_counter() - started < 1
    assert code == 0
    assert payload == {
        "delta": "2",
        "lhs": [1000000],
        "rhs": [999998, 2],
        "same_block": False,
        "block_key": {"twiceCharge": 0, "devMap": [[0, 1], [2000000, -1]], "negParity": "*"},
        "reason": {
            "semisimple": False,
            "abs_multiset_equal": False,
            "parity_lhs": 0,
            "parity_rhs": 1,
            "zero_entry": True,
        },
    }
