"""Byte-identical ``verify`` reports on a recorded golden set.

``golden_verify.json`` holds three runs with their exit codes and their
exact stdout, less the ``elapsed_ms`` lines: ``verify`` with its default
arguments, the benchmark's arguments (``--max-size 4``, delta 0..1), and a
run whose ``block_key`` flips the parity tag of the label named by
``flip_parity_of``, which exits 1 and names the counterexamples.
"""

import json
import re
from pathlib import Path

import pytest

from brauerblocks import verify
from brauerblocks.cli import main
from brauerblocks.partitions import Partition
from test_blocks import parity_flipped

GOLDEN = json.loads((Path(__file__).parent / "golden_verify.json").read_text())
ELAPSED = re.compile(r'^ *"elapsed_ms": .*\n', re.M)


def _case_id(case) -> str:
    flip = case.get("flip_parity_of")
    return " ".join(case["argv"]) + ("" if flip is None else f" (parity of {flip} flipped)")


@pytest.mark.parametrize("case", GOLDEN, ids=_case_id)
def test_verify_report_matches_golden(case, capsys, monkeypatch):
    if "flip_parity_of" in case:
        monkeypatch.setattr(verify, "block_key", parity_flipped(Partition(case["flip_parity_of"])))
    code = main(case["argv"])
    assert code == case["exit"]
    assert ELAPSED.sub("", capsys.readouterr().out) == case["stdout"]
