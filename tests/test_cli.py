import json
import time

import pytest

from brauerblocks import cli
from brauerblocks.cli import main


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


def test_block_command_and_jobs_agree(capsys):
    code, serial = run_json(
        capsys, "block", "--delta", "2", "--partition", "", "--max-size", "6"
    )
    assert code == 0
    assert serial["members"] == [[], [2, 2, 2]]
    code, sharded = run_json(
        capsys,
        "block", "--delta", "2", "--partition", "", "--max-size", "6", "--jobs", "2",
    )
    assert code == 0
    assert sharded["members"] == serial["members"]


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

    with pytest.raises(SystemExit) as err:
        main(["dot-orbit", "--delta", "2", "--lhs", "", "--rhs", "", "--n", "9"])
    assert err.value.code == 2


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


def test_verify_fault_injection(capsys):
    code, payload = run_json(
        capsys,
        "verify", "--max-size", "3",
        "--delta-min", "1", "--delta-max", "2", "--order", "2",
        "--inject-fault",
    )
    assert code == 1
    assert payload["passed"] is False
    failing = [c for c in payload["checks"] if not c["passed"]]
    assert failing and failing[0]["name"] == "key-consistency"
    assert failing[0]["counterexample"]


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
    assert "not an integer or half-integer" in message


def test_empty_delta_range_and_bad_jobs_exit_2(capsys):
    message = _usage_error(capsys, "verify", "--delta-min", "5", "--delta-max", "-3")
    assert "--delta-min must not exceed --delta-max" in message
    for jobs in ("0", "-1"):
        message = _usage_error(
            capsys, "block", "--delta", "2", "--partition", "", "--max-size", "2", "--jobs", jobs
        )
        assert "--jobs must be at least 1" in message
        message = _usage_error(capsys, "verify", "--max-size", "0", "--jobs", jobs)
        assert "--jobs must be at least 1" in message


def test_dot_orbit_negative_rank_exits_2(capsys):
    message = _usage_error(capsys, "dot-orbit", "--delta", "2", "--lhs", "", "--rhs", "", "--n", "-1")
    assert message.endswith("--n must be nonnegative")


def test_label_above_the_cap_exits_2_at_once(capsys):
    started = time.perf_counter()
    message = _usage_error(capsys, "classify-weight-class", "--delta", "2", "--partition", "99999999999")
    assert time.perf_counter() - started < 1
    assert message.endswith(f"--partition has first part 99999999999, above the cap {cli.LABEL_CAP}")
    big = str(cli.LABEL_CAP + 1)
    for argv in (
        ("same-block", "--delta", "2", "--lhs", "1", "--rhs", big),
        ("same-block", "--delta", "2", "--lhs", big, "--rhs", "1"),
        ("block-key", "--delta", "2", "--partition", big),
        ("block", "--delta", "2", "--partition", big, "--max-size", big),
    ):
        assert "above the cap" in _usage_error(capsys, *argv)


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
