"""Byte-identical ``verify`` reports on a recorded golden set.

``golden_verify.json`` holds three runs with their exit codes and their
exact stdout, less the ``elapsed_ms`` lines: ``verify`` with its default
arguments, the benchmark's arguments (``--max-size 4``, delta 0..1), and an
``--inject-fault`` run, which exits 1 and names the planted counterexample.
"""

import json
import re
from pathlib import Path

import pytest

from brauerblocks.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_verify.json").read_text())
ELAPSED = re.compile(r'^ *"elapsed_ms": .*\n', re.M)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_verify_report_matches_golden(case, capsys):
    code = main(case["argv"])
    assert code == case["exit"]
    assert ELAPSED.sub("", capsys.readouterr().out) == case["stdout"]
