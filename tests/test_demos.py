"""Smoke test of the demo scripts: each main() runs to completion."""

import importlib.util
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def run_demo(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    run_demo(path)
    assert capsys.readouterr().out


def test_zero_comb_count(capsys):
    run_demo(next(p for p in DEMOS if p.stem == "zero_combs"))
    lines = capsys.readouterr().out.splitlines()
    assert "winding-number count on [-5.3, 5.7]: 11" in lines
