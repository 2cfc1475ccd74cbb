"""Every demo script runs to the end against the current API, and a demo
with a file in ``tests/golden/demos/`` prints exactly that file."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
PINNED = sorted((pathlib.Path(__file__).parent / "golden" / "demos").glob("*.out"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.parametrize("golden", PINNED, ids=lambda p: p.stem)
def test_demo_output_is_byte_identical(golden, capsys):
    path = DEMOS[0].parent / f"{golden.stem}.py"
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
