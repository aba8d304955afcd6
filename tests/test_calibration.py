"""The calibration script's search grids, checked without running the search."""

import importlib.util
from pathlib import Path

import pytest

from dde import StochasticConfig

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "calibrate_stochastic.py"


@pytest.fixture(scope="module")
def calibrate():
    spec = importlib.util.spec_from_file_location("calibrate_stochastic", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_defaults_are_a_fine_grid_point(calibrate):
    defaults = StochasticConfig()
    grid = calibrate.search_grid(fine=True)
    for name, axis in grid.items():
        value = getattr(defaults, name)
        assert value in axis, (name, value, axis)
        assert any(v < value for v in axis) and any(v > value for v in axis), name
    point = {name: getattr(defaults, name) for name in grid}
    assert StochasticConfig(**point) == defaults

