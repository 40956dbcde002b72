"""Grid spaces build each ball row on demand in O(n) memory; every row
must equal the dense tables of an explicit space over the same metric."""

import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from sparselab.cli import cli
from sparselab.dyadic import build_standard_lattice
from sparselab.operators import ball_mass_kernel
from sparselab.space import (GridSpace, build_explicit_space,
                             build_grid_space, doubling_constant)


def _masses(n, kind):
    if kind == "unit":
        return np.ones(n)
    # seeded, non-dyadic: prefix sums round differently in other orders
    return np.random.default_rng(n).uniform(0.1, 3.0, size=n)


@pytest.mark.parametrize("kind", ["unit", "seeded"])
@pytest.mark.parametrize("n", [1, 2, 4, 64, 256])
def test_grid_rows_match_dense_reference(n, kind):
    grid = build_grid_space(n, _masses(n, kind))
    assert isinstance(grid, GridSpace)
    dense = build_explicit_space(grid.metric, grid.masses, a0=1.0)
    diameter = float(grid.metric.max())
    for x in range(n):
        got, want = grid.balls(x), dense.balls(x)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert np.array_equal(grid.distances(x), dense.distances(x))
        radii = dense.realized_distances(x)
        assert np.array_equal(grid.realized_distances(x), radii)
        probe = np.concatenate([[0.0], radii, 1.37 * radii,
                                [diameter + 0.5, 4.0 * diameter + 1.0,
                                 np.inf]])
        assert np.array_equal(grid.ball_mass(x, probe),
                              dense.ball_mass(x, probe))
        assert grid.ball_mass(x, 0.0) == dense.ball_mass(x, 0.0)
        for r in probe[:: max(1, probe.size // 8)].tolist() + [np.inf]:
            assert np.array_equal(grid.ball(x, r).members,
                                  dense.ball(x, r).members)
    assert doubling_constant(grid) == doubling_constant(dense)
    assert np.array_equal(ball_mass_kernel(grid), ball_mass_kernel(dense))


def test_grid_build_and_rows_stay_below_n_squared_bytes():
    n = 4096
    tracemalloc.start()
    try:
        sp = build_grid_space(n)
        sp.balls(n // 3)
        sp.ball_mass(n // 3, np.linspace(0.0, 1.0, 64))
        sp.distances(n - 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n


def test_doubling_scan_and_lattice_stay_below_n_squared_bytes():
    # an n-by-n table of even one byte per entry would reach n^2 bytes;
    # the space is built first, so only the scan and the lattice count
    n = 2048
    sp = build_grid_space(n)
    tracemalloc.start()
    try:
        doubling_constant(sp)
        build_standard_lattice(sp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n


@pytest.mark.parametrize("args", [
    ["space", "--n", "64"],
    ["lattice", "--n", "64", "--shifts", "3"],
    ["constants", "--n", "64", "--kind", "A_p", "--weight", "step"],
    ["sparse", "--n", "64"],
    ["dominate", "--n", "64", "--k", "1,1", "--shifts", "3"],
])
def test_commands_never_read_the_dense_grid_metric(monkeypatch, args):
    def dense(self):
        raise AssertionError("dense grid metric read")

    monkeypatch.setattr(GridSpace, "metric", property(dense))
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 0, result.output
