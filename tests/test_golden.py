"""Byte-stability of the default text and JSON output.

``tests/golden/cases.json`` lists command lines with their exit codes, and
``tests/golden/<name>.out`` holds the stdout each one printed when the
files were recorded.  Any change to these bytes is a change to the output
format and has to be made on purpose, by re-recording the files.
"""

import json
from pathlib import Path

import pytest

from csplab import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_output_is_byte_identical(case, capsys):
    code = cli.main(case["argv"])
    out, _ = capsys.readouterr()
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8")
