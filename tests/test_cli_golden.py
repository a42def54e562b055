"""Byte-identical CLI output on a recorded golden set.

``golden_cli.json`` holds, for each invocation, its argv, its exit code and
its exact stdout: same-block (JSON with the reason evidence, and text),
block-key, classify-weight-class (split and single classes, window and tail
zero entries), block and brauer-blocks over delta in {-3, 0, 1, 2, 5, 7/2}
and brauer-blocks at n = 10 for delta -3 and 2 and at n = 9 for delta 0;
wedge-apply with each of b, raising and lowering at even and odd delta,
negative indices (written --index=-3/2), moves at the tail of the empty
shape, a colliding move with no terms, and text output; one case each of
central-char, centrally-equivalent, dot-orbit and series-check; plus a few
usage errors (among them a wedge-apply index of the wrong parity and
delta = 7/2, which is not integral), which print nothing on
stdout and exit 2.
"""

import json
from pathlib import Path

import pytest

from brauerblocks.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_cli_output_matches_golden(case, capsys):
    try:
        code = main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
